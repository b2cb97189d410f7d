//===--- codegen/emit_cpp.cpp - LowIR -> C++ translation unit ----------------===//
//
// The code generation phase (paper Section 5.1): "Because these targets are
// all block-structured languages, our first step in code generation is to
// convert the LowIR SSA representation into a block-structured AST" — our
// structured SSA already *is* block-structured, so emission is a direct walk.
// "The target-specific backends translate this representation into the
// appropriate representation and augment the code with type definitions and
// runtime support. The output is then passed to the host system's compiler."
//
// The emitted translation unit is self-contained modulo the header-only
// native prelude, defines the Globals and Strand structs, one C++ function
// per IR function, and the plain C ABI (runtime/ddr_abi.h) the driver binds
// with dlsym.
//
//===----------------------------------------------------------------------===//

#include <cassert>
#include <cctype>
#include <functional>
#include <map>
#include <sstream>
#include <utility>

#include "driver/driver.h"
#include "ir/ir.h"
#include "observe/profiler.h"
#include "support/strings.h"

namespace diderot::codegen {

namespace {

using ir::Instr;
using ir::Module;
using ir::Op;
using ir::ValueId;

/// Scalar slot count of a (Low-level) type.
int slotCount(const Type &T) {
  switch (T.kind()) {
  case TypeKind::Tensor:
    return T.shape().numComponents();
  case TypeKind::Sequence:
    return T.seqLen() * slotCount(T.elem());
  default:
    return 1;
  }
}

Type slotType(const Type &T, int I) {
  switch (T.kind()) {
  case TypeKind::Tensor:
    return Type::real();
  case TypeKind::Sequence:
    return slotType(T.elem(), I % slotCount(T.elem()));
  default:
    return T;
  }
}

/// C++ type for a Low scalar type.
std::string cxxType(const Type &T) {
  switch (T.kind()) {
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Int:
    return "int64_t";
  case TypeKind::String:
    return "std::string";
  case TypeKind::Tensor:
    assert(T.isReal() && "tensors are scalarized before codegen");
    return "Real";
  case TypeKind::Image:
    return "ImgPtr"; // alias for const ImageData<Real>*, avoids "const const"
  default:
    assert(false && "no C++ type for this Diderot type");
    return "void";
  }
}

std::string sanitize(const std::string &Name) {
  std::string Out;
  for (char C : Name)
    Out += (std::isalnum(static_cast<unsigned char>(C)) || C == '_') ? C : '_';
  return Out;
}

/// Global field name in the Globals struct.
std::string globalField(const Module &M, int Idx) {
  return strf("g", Idx, "_", sanitize(M.Globals[static_cast<size_t>(Idx)].Name));
}

/// Kind code for GlobalMeta: 0 real, 1 int, 2 bool, 3 string, 4 tensor,
/// 5 image.
int globalKind(const Type &T) {
  if (T.isReal())
    return 0;
  if (T.isInt())
    return 1;
  if (T.isBool())
    return 2;
  if (T.isString())
    return 3;
  if (T.isTensor() || T.isSequence())
    return 4;
  return 5;
}

//===----------------------------------------------------------------------===//
// Function body emission
//===----------------------------------------------------------------------===//

/// How an Exit terminator is rendered, per function role.
using ExitEmitter = std::function<void(std::ostringstream &, int Indent,
                                       ir::ExitAttr::Kind,
                                       const std::vector<std::string> &)>;

class FnEmitter {
public:
  /// With \p Profiled set, the emitted body bumps the DDRPROF counter array
  /// (dense (line, class) layout, see observe::Profiler) for every profiled
  /// instruction. Increments are aggregated per *segment* — a maximal run of
  /// consecutive non-If instructions — and flushed at segment start, so a
  /// branch that Exits early never charges for the instructions it skipped
  /// (matching the interpreter, where an Exit propagates out of every
  /// region).
  FnEmitter(const Module &M, const ir::Function &F, std::string Prefix,
            ExitEmitter OnExit, bool InGlobalInit, bool Profiled = false)
      : M(M), F(F), Prefix(std::move(Prefix)), OnExit(std::move(OnExit)),
        InGlobalInit(InGlobalInit), Profiled(Profiled),
        Used(F.ValueTypes.size(), false) {
    markUses(F.Body);
  }

  /// Name of SSA value \p V.
  std::string name(ValueId V) const { return strf(Prefix, V); }

  /// Emit declarations binding parameter value names to \p ParamInits
  /// (caller-provided C++ expressions, one per parameter).
  void emitParams(std::ostringstream &OS, int Indent,
                  const std::vector<std::string> &ParamInits) {
    assert(static_cast<int>(ParamInits.size()) == F.NumParams);
    for (int P = 0; P < F.NumParams; ++P)
      if (Used[static_cast<size_t>(P)])
        line(OS, Indent,
             strf("const ", cxxType(F.typeOf(P)), " ", name(P), " = ",
                  ParamInits[static_cast<size_t>(P)], ";"));
  }

  void emitRegion(std::ostringstream &OS, int Indent, const ir::Region &R,
                  const std::vector<std::string> *IfResultNames) {
    if (!Profiled) {
      for (const Instr &I : R.Body)
        emitInstr(OS, Indent, I, IfResultNames);
      return;
    }
    size_t I = 0;
    while (I < R.Body.size()) {
      if (R.Body[I].Opcode == Op::If) {
        emitInstr(OS, Indent, R.Body[I], IfResultNames);
        ++I;
        continue;
      }
      // Aggregate this segment's profile increments and flush them up front
      // (every instruction of a segment executes once the segment starts).
      size_t End = I;
      std::map<std::pair<int, int>, uint64_t> Counts;
      while (End < R.Body.size() && R.Body[End].Opcode != Op::If) {
        const Instr &In = R.Body[End];
        int C = ir::profClassOf(In.Opcode);
        if (C >= 0 && In.Loc.isValid())
          ++Counts[{In.Loc.Line, C}];
        ++End;
      }
      for (const auto &[Key, N] : Counts)
        line(OS, Indent,
             strf("DDRPROF[", Key.first * observe::NumProfClasses + Key.second,
                  "] += ", N, ";"));
      for (; I < End; ++I)
        emitInstr(OS, Indent, R.Body[I], IfResultNames);
    }
  }

private:
  const Module &M;
  const ir::Function &F;
  std::string Prefix;
  ExitEmitter OnExit;
  bool InGlobalInit;
  bool Profiled;
  /// Values some instruction reads. Parameters and eigen components outside
  /// this set are not declared at all, so the output compiles warning-free.
  std::vector<bool> Used;

  void markUses(const ir::Region &R) {
    for (const Instr &I : R.Body) {
      for (ValueId V : I.Operands)
        Used[static_cast<size_t>(V)] = true;
      for (const ir::Region &Sub : I.Regions)
        markUses(Sub);
    }
  }

  static void line(std::ostringstream &OS, int Indent, const std::string &S) {
    OS << std::string(static_cast<size_t>(Indent) * 2, ' ') << S << "\n";
  }

  std::string op(const Instr &I, size_t K) const { return name(I.Operands[K]); }

  /// Declare instruction result 0 with initializer \p Expr.
  void def(std::ostringstream &OS, int Indent, const Instr &I,
           const std::string &Expr) {
    line(OS, Indent,
         strf("const ", cxxType(F.typeOf(I.Results[0])), " ",
              name(I.Results[0]), " = ", Expr, ";"));
  }

  void emitInstr(std::ostringstream &OS, int Indent, const Instr &I,
                 const std::vector<std::string> *IfResultNames);
};

void FnEmitter::emitInstr(std::ostringstream &OS, int Indent, const Instr &I,
                          const std::vector<std::string> *IfResultNames) {
  auto Infix = [&](const char *Sym) {
    def(OS, Indent, I, strf("(", op(I, 0), " ", Sym, " ", op(I, 1), ")"));
  };
  auto Call1 = [&](const char *Fn) {
    def(OS, Indent, I, strf(Fn, "(", op(I, 0), ")"));
  };
  auto Call2 = [&](const char *Fn) {
    def(OS, Indent, I, strf(Fn, "(", op(I, 0), ", ", op(I, 1), ")"));
  };

  switch (I.Opcode) {
  case Op::ConstBool:
    def(OS, Indent, I, std::get<bool>(I.A) ? "true" : "false");
    return;
  case Op::ConstInt:
    def(OS, Indent, I, strf("INT64_C(", std::get<int64_t>(I.A), ")"));
    return;
  case Op::ConstReal:
    def(OS, Indent, I, strf("Real(", formatReal(std::get<double>(I.A)), ")"));
    return;
  case Op::ConstString: {
    std::string Esc;
    for (char C : std::get<std::string>(I.A)) {
      if (C == '"' || C == '\\')
        Esc += '\\';
      Esc += C;
    }
    def(OS, Indent, I, strf("std::string(\"", Esc, "\")"));
    return;
  }
  case Op::GlobalGet: {
    int GIdx = static_cast<int>(std::get<int64_t>(I.A));
    const Type &GTy = M.Globals[static_cast<size_t>(GIdx)].Ty;
    std::string Field = strf("G.", globalField(M, GIdx));
    if (GTy.isImage()) {
      def(OS, Indent, I, strf("&", Field));
      return;
    }
    int N = slotCount(GTy);
    if (N == 1) {
      def(OS, Indent, I, Field);
      return;
    }
    for (int K = 0; K < N; ++K)
      line(OS, Indent,
           strf("const ", cxxType(F.typeOf(I.Results[static_cast<size_t>(K)])),
                " ", name(I.Results[static_cast<size_t>(K)]), " = ", Field,
                "[", K, "];"));
    return;
  }

  case Op::Add:
    Infix("+");
    return;
  case Op::Sub:
    Infix("-");
    return;
  case Op::Mul:
    Infix("*");
    return;
  case Op::Div:
    Infix("/");
    return;
  case Op::Mod:
    Infix("%");
    return;
  case Op::Neg:
    def(OS, Indent, I, strf("-", op(I, 0)));
    return;
  case Op::Min:
    def(OS, Indent, I,
        strf("(", op(I, 0), " < ", op(I, 1), " ? ", op(I, 0), " : ", op(I, 1),
             ")"));
    return;
  case Op::Max:
    def(OS, Indent, I,
        strf("(", op(I, 0), " > ", op(I, 1), " ? ", op(I, 0), " : ", op(I, 1),
             ")"));
    return;
  case Op::Pow:
    Call2("std::pow");
    return;
  case Op::Sqrt:
    Call1("std::sqrt");
    return;
  case Op::Sin:
    Call1("std::sin");
    return;
  case Op::Cos:
    Call1("std::cos");
    return;
  case Op::Tan:
    Call1("std::tan");
    return;
  case Op::Asin:
    Call1("std::asin");
    return;
  case Op::Acos:
    Call1("std::acos");
    return;
  case Op::Atan:
    Call1("std::atan");
    return;
  case Op::Atan2:
    Call2("std::atan2");
    return;
  case Op::Exp:
    Call1("std::exp");
    return;
  case Op::Log:
    Call1("std::log");
    return;
  case Op::Floor:
    Call1("std::floor");
    return;
  case Op::Ceil:
    Call1("std::ceil");
    return;
  case Op::Round:
    Call1("std::round");
    return;
  case Op::Trunc:
    Call1("std::trunc");
    return;
  case Op::Abs:
    Call1("std::abs");
    return;
  case Op::Clamp:
    def(OS, Indent, I,
        strf("std::min(", op(I, 2), ", std::max(", op(I, 1), ", ", op(I, 0),
             "))"));
    return;
  case Op::IntToReal:
    def(OS, Indent, I, strf("Real(", op(I, 0), ")"));
    return;
  case Op::RealToInt:
    def(OS, Indent, I, strf("(int64_t)std::floor(", op(I, 0), ")"));
    return;

  case Op::Lt:
    Infix("<");
    return;
  case Op::Le:
    Infix("<=");
    return;
  case Op::Gt:
    Infix(">");
    return;
  case Op::Ge:
    Infix(">=");
    return;
  case Op::Eq:
    Infix("==");
    return;
  case Op::Ne:
    Infix("!=");
    return;
  case Op::And:
    Infix("&&"); // operands are pure bools; short-circuiting was resolved
    return;      // into control flow during simplification
  case Op::Or:
    Infix("||");
    return;
  case Op::Not:
    def(OS, Indent, I, strf("!", op(I, 0)));
    return;
  case Op::Select:
    def(OS, Indent, I,
        strf("(", op(I, 0), " ? ", op(I, 1), " : ", op(I, 2), ")"));
    return;

  case Op::PolyEval: {
    const auto &C = std::get<std::vector<double>>(I.A);
    // Horner: ((c_n x + c_{n-1}) x + ...) x + c_0
    std::string E = strf("Real(", formatReal(C.back()), ")");
    for (size_t K = C.size() - 1; K-- > 0;)
      E = strf("(", E, " * ", op(I, 0), " + Real(", formatReal(C[K]), "))");
    def(OS, Indent, I, E);
    return;
  }

  case Op::ImgMeta: {
    const auto &A = std::get<ir::MetaAttr>(I.A);
    int D = F.typeOf(I.Operands[0]).dim();
    switch (A.K) {
    case ir::MetaAttr::W2I:
      def(OS, Indent, I, strf(op(I, 0), "->W2I[", A.R * D + A.C, "]"));
      return;
    case ir::MetaAttr::Origin:
      def(OS, Indent, I, strf(op(I, 0), "->Origin[", A.R, "]"));
      return;
    case ir::MetaAttr::GradXf:
      def(OS, Indent, I, strf(op(I, 0), "->GradXf[", A.R * D + A.C, "]"));
      return;
    case ir::MetaAttr::Size:
      def(OS, Indent, I, strf(op(I, 0), "->Sizes[", A.R, "]"));
      return;
    }
    return;
  }
  case Op::InsideTest: {
    int Support = static_cast<int>(std::get<int64_t>(I.A));
    std::string E;
    for (size_t A = 1; A < I.Operands.size(); ++A) {
      if (!E.empty())
        E += " && ";
      E += strf("(", op(I, A), " >= ", Support - 1, " && ", op(I, A),
                " <= ", op(I, 0), "->Sizes[", A - 1, "] - 1 - ", Support, ")");
    }
    def(OS, Indent, I, E);
    return;
  }
  case Op::VoxelLoad: {
    const auto &VA = std::get<ir::VoxelAttr>(I.A);
    std::string Flat = strf(VA.Comp);
    for (size_t A = 1; A < I.Operands.size(); ++A) {
      int Off = VA.Offsets[A - 1];
      std::string IdxE =
          Off == 0 ? op(I, A) : strf("(", op(I, A), " + ", Off, ")");
      Flat += strf(" + clampIndex(", IdxE, ", ", op(I, 0), "->Sizes[", A - 1,
                   "] - 1) * ", op(I, 0), "->Stride[", A - 1, "]");
    }
    def(OS, Indent, I, strf(op(I, 0), "->Data[(size_t)(", Flat, ")]"));
    return;
  }
  case Op::LoadImage: {
    assert(InGlobalInit && "load() is restricted to global initialization");
    std::string Var = strf("img_", name(I.Results[0]));
    const Type &T = F.typeOf(I.Results[0]);
    std::string Esc = std::get<std::string>(I.A);
    line(OS, Indent, strf("ImageData<Real> ", Var, ";"));
    line(OS, Indent,
         strf("if (!loadNrrdFile<Real>(\"", Esc, "\", ", T.dim(), ", ",
              T.shape().numComponents(), ", ", Var, ", Err)) return false;"));
    def(OS, Indent, I, strf("&", Var));
    return;
  }

  case Op::EigenVals:
  case Op::EigenVecs: {
    int N = static_cast<int>(std::get<int64_t>(I.A));
    std::string Tag = name(I.Results[0]);
    std::string MV = strf("em_", Tag);
    std::string LV = strf("el_", Tag);
    std::string VV = strf("ev_", Tag);
    auto List = [&](size_t From, size_t To) {
      std::string Init;
      for (size_t K = From; K < To; ++K)
        Init += strf(K > From ? ", " : "", op(I, K));
      return Init;
    };
    size_t NN = static_cast<size_t>(N * N);
    line(OS, Indent, strf("Real ", MV, "[", NN, "] = {", List(0, NN), "};"));
    if (I.Opcode == Op::EigenVals) {
      line(OS, Indent, strf("Real ", LV, "[", N, "];"));
      line(OS, Indent, strf(N == 2 ? "diderot::eigenvalsSym2(" :
                                     "diderot::eigenvalsSym3(",
                            MV, ", ", LV, ");"));
      for (int K = 0; K < N; ++K)
        if (Used[static_cast<size_t>(I.Results[static_cast<size_t>(K)])])
          line(OS, Indent,
               strf("const Real ", name(I.Results[static_cast<size_t>(K)]),
                    " = ", LV, "[", K, "];"));
    } else {
      line(OS, Indent,
           strf("const Real ", LV, "[", N, "] = {",
                List(NN, I.Operands.size()), "};"));
      line(OS, Indent, strf("Real ", VV, "[", NN, "];"));
      line(OS, Indent, strf(N == 2 ? "diderot::eigenvecsSym2(" :
                                     "diderot::eigenvecsSym3(",
                            MV, ", ", LV, ", ", VV, ");"));
      for (int K = 0; K < N * N; ++K)
        if (Used[static_cast<size_t>(I.Results[static_cast<size_t>(K)])])
          line(OS, Indent,
               strf("const Real ", name(I.Results[static_cast<size_t>(K)]),
                    " = ", VV, "[", K, "];"));
    }
    return;
  }

  case Op::If: {
    // Declare the merged results, then branch.
    std::vector<std::string> ResultNames;
    for (ValueId R : I.Results) {
      ResultNames.push_back(name(R));
      line(OS, Indent, strf(cxxType(F.typeOf(R)), " ", name(R), ";"));
    }
    line(OS, Indent, strf("if (", op(I, 0), ") {"));
    emitRegion(OS, Indent + 1, I.Regions[0], &ResultNames);
    line(OS, Indent, "} else {");
    emitRegion(OS, Indent + 1, I.Regions[1], &ResultNames);
    line(OS, Indent, "}");
    return;
  }
  case Op::Yield: {
    assert(IfResultNames && "yield outside an if");
    for (size_t K = 0; K < I.Operands.size(); ++K)
      line(OS, Indent, strf((*IfResultNames)[K], " = ", op(I, K), ";"));
    return;
  }
  case Op::Exit: {
    std::vector<std::string> Vals;
    for (size_t K = 0; K < I.Operands.size(); ++K)
      Vals.push_back(op(I, K));
    OnExit(OS, Indent, std::get<ir::ExitAttr>(I.A).K, Vals);
    return;
  }

  default:
    assert(false && "op not expected at LowIR during emission");
    line(OS, Indent, strf("#error unhandled op ", ir::opName(I.Opcode)));
    return;
  }
}

//===----------------------------------------------------------------------===//
// Module emission
//===----------------------------------------------------------------------===//

class ModuleEmitter {
public:
  ModuleEmitter(const Module &M, bool DoublePrecision)
      : M(M), DoublePrecision(DoublePrecision) {
    // Strand layout: params then state, flattened.
    for (const Type &T : M.StrandParams)
      addSlots(T);
    ParamSlots = static_cast<int>(SlotTypes.size());
    for (const ir::StateSlot &S : M.State) {
      StateSlotBase.push_back(static_cast<int>(SlotTypes.size()));
      addSlots(S.Ty);
    }
  }

  std::string run();

private:
  void addSlots(const Type &T) {
    for (int I = 0; I < slotCount(T); ++I)
      SlotTypes.push_back(slotType(T, I));
  }

  std::string slotName(int I) const { return strf("m", I); }

  void emitHeader(std::ostringstream &OS);
  void emitGlobalsStruct(std::ostringstream &OS);
  void emitStrandStruct(std::ostringstream &OS);
  void emitMetaTables(std::ostringstream &OS);
  void emitGlobalInit(std::ostringstream &OS);
  void emitDefaults(std::ostringstream &OS);
  void emitIters(std::ostringstream &OS);
  void emitInitStrand(std::ostringstream &OS);
  void emitMethod(std::ostringstream &OS, const ir::Function &F,
                  const std::string &CxxName, bool Profiled = false);
  void emitProfMap(std::ostringstream &OS);
  void emitProgClass(std::ostringstream &OS);
  void emitCApi(std::ostringstream &OS);

  const Module &M;
  bool DoublePrecision;
  std::vector<Type> SlotTypes;
  int ParamSlots = 0;
  std::vector<int> StateSlotBase;
};

/// Count the static (line, class) instrumentation sites of a region tree —
/// the d2x-style source map served as DDR_READ_PROF_MAP.
void addProfSites(const ir::Region &R,
                  std::map<std::pair<int, int>, uint64_t> &Sites) {
  for (const Instr &I : R.Body) {
    int C = ir::profClassOf(I.Opcode);
    if (C >= 0 && I.Loc.isValid())
      ++Sites[{I.Loc.Line, C}];
    for (const ir::Region &Sub : I.Regions)
      addProfSites(Sub, Sites);
  }
}

void ModuleEmitter::emitHeader(std::ostringstream &OS) {
  OS << "//===-- generated by diderot-cpp from program '" << M.Name
     << "' --===//\n";
  OS << "// Do not edit; regenerate with diderotc.\n\n";
  OS << "#include <algorithm>\n#include <cmath>\n#include <cstdint>\n";
  OS << "#include \"runtime/native_prelude.h\"\n\n";
  OS << "namespace {\n\n";
  OS << "using namespace diderot::ndr;\n";
  OS << "using Real = " << (DoublePrecision ? "double" : "float") << ";\n";
  OS << "using ImgPtr = const ImageData<Real>*;\n\n";
}

void ModuleEmitter::emitGlobalsStruct(std::ostringstream &OS) {
  OS << "struct Globals {\n";
  for (size_t I = 0; I < M.Globals.size(); ++I) {
    const ir::GlobalVar &G = M.Globals[I];
    std::string Field = globalField(M, static_cast<int>(I));
    if (G.Ty.isImage())
      OS << "  ImageData<Real> " << Field << ";\n";
    else if (G.Ty.isString())
      OS << "  std::string " << Field << ";\n";
    else if (slotCount(G.Ty) == 1)
      OS << "  " << cxxType(slotType(G.Ty, 0)) << " " << Field << " = {};\n";
    else
      OS << "  Real " << Field << "[" << slotCount(G.Ty) << "] = {};\n";
  }
  OS << "};\n\n";
}

void ModuleEmitter::emitStrandStruct(std::ostringstream &OS) {
  OS << "struct Strand {\n";
  for (size_t I = 0; I < SlotTypes.size(); ++I)
    OS << "  " << cxxType(SlotTypes[I]) << " " << slotName(static_cast<int>(I))
       << ";\n";
  OS << "};\n\n";
}

void ModuleEmitter::emitMetaTables(std::ostringstream &OS) {
  OS << "const GlobalMeta kGlobals[] = {\n";
  for (size_t I = 0; I < M.Globals.size(); ++I) {
    const ir::GlobalVar &G = M.Globals[I];
    OS << "  {\"" << G.Name << "\", " << globalKind(G.Ty) << ", "
       << (G.Ty.isImage() ? G.Ty.shape().numComponents() : slotCount(G.Ty))
       << ", " << (G.Ty.isImage() ? G.Ty.dim() : 0) << ", "
       << (G.IsInput ? "true" : "false") << ", "
       << (G.DefaultFn >= 0 ? "true" : "false") << ", \"" << G.Ty.str()
       << "\"},\n";
  }
  OS << "};\n\n";
  OS << "const OutputMeta kOutputs[] = {\n";
  for (size_t I = 0; I < M.State.size(); ++I) {
    if (!M.State[I].IsOutput)
      continue;
    OS << "  {\"" << M.State[I].Name << "\", " << slotCount(M.State[I].Ty)
       << "},\n";
  }
  OS << "};\n\n";
}

void ModuleEmitter::emitGlobalInit(std::ostringstream &OS) {
  const ir::Function &F = M.GlobalInit;
  std::ostringstream Body;
  // Exit assigns the non-input globals.
  std::vector<std::pair<int, int>> ResultSlots; // (global idx, comp)
  for (size_t I = 0; I < M.Globals.size(); ++I) {
    if (M.Globals[I].IsInput)
      continue;
    int N = M.Globals[I].Ty.isImage() ? 1 : slotCount(M.Globals[I].Ty);
    for (int K = 0; K < N; ++K)
      ResultSlots.push_back({static_cast<int>(I), K});
  }
  ExitEmitter OnExit = [&](std::ostringstream &O, int Indent,
                           ir::ExitAttr::Kind,
                           const std::vector<std::string> &Vals) {
    assert(Vals.size() == ResultSlots.size());
    for (size_t K = 0; K < Vals.size(); ++K) {
      auto [GIdx, Comp] = ResultSlots[K];
      const ir::GlobalVar &G = M.Globals[static_cast<size_t>(GIdx)];
      std::string Field = strf("G.", globalField(M, GIdx));
      std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
      if (G.Ty.isImage())
        O << Pad << Field << " = *" << Vals[K] << ";\n";
      else if (slotCount(G.Ty) == 1)
        O << Pad << Field << " = " << Vals[K] << ";\n";
      else
        O << Pad << Field << "[" << Comp << "] = " << Vals[K] << ";\n";
    }
    O << std::string(static_cast<size_t>(Indent) * 2, ' ') << "return true;\n";
  };
  FnEmitter E(M, F, "gi", OnExit, /*InGlobalInit=*/true);
  // Params: one slot group per input global.
  std::vector<std::string> ParamInits;
  for (size_t I = 0; I < M.Globals.size(); ++I) {
    const ir::GlobalVar &G = M.Globals[I];
    if (!G.IsInput)
      continue;
    std::string Field = strf("G.", globalField(M, static_cast<int>(I)));
    if (G.Ty.isImage())
      ParamInits.push_back(strf("&", Field));
    else if (slotCount(G.Ty) == 1)
      ParamInits.push_back(Field);
    else
      for (int K = 0; K < slotCount(G.Ty); ++K)
        ParamInits.push_back(strf(Field, "[", K, "]"));
  }
  // Note: image inputs are single slots; tensor inputs expand, matching the
  // scalarized parameter list.
  OS << "bool f_globalInit(Globals& G, std::string& Err) {\n";
  OS << "  (void)Err; (void)G;\n";
  std::ostringstream B;
  E.emitParams(B, 1, ParamInits);
  E.emitRegion(B, 1, F.Body, nullptr);
  OS << B.str();
  OS << "}\n\n";
}

void ModuleEmitter::emitDefaults(std::ostringstream &OS) {
  for (size_t GI = 0; GI < M.Globals.size(); ++GI) {
    const ir::GlobalVar &G = M.Globals[GI];
    if (G.DefaultFn < 0)
      continue;
    const ir::Function &F =
        M.InputDefaults[static_cast<size_t>(G.DefaultFn)];
    std::string Field = strf("G.", globalField(M, static_cast<int>(GI)));
    ExitEmitter OnExit = [&](std::ostringstream &O, int Indent,
                             ir::ExitAttr::Kind,
                             const std::vector<std::string> &Vals) {
      std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
      if (G.Ty.isImage()) {
        O << Pad << Field << " = *" << Vals[0] << ";\n";
      } else if (slotCount(G.Ty) == 1) {
        O << Pad << Field << " = " << Vals[0] << ";\n";
      } else {
        for (size_t K = 0; K < Vals.size(); ++K)
          O << Pad << Field << "[" << K << "] = " << Vals[K] << ";\n";
      }
      O << Pad << "return true;\n";
    };
    FnEmitter E(M, F, strf("d", GI, "_"), OnExit, /*InGlobalInit=*/true);
    OS << "bool f_default_" << GI << "(Globals& G, std::string& Err) {\n";
    OS << "  (void)Err; (void)G;\n";
    std::ostringstream B;
    E.emitRegion(B, 1, F.Body, nullptr);
    OS << B.str();
    OS << "}\n\n";
  }
}

void ModuleEmitter::emitIters(std::ostringstream &OS) {
  for (size_t K = 0; K < M.IterLo.size(); ++K) {
    for (bool Lo : {true, false}) {
      const ir::Function &F = Lo ? M.IterLo[K] : M.IterHi[K];
      ExitEmitter OnExit = [](std::ostringstream &O, int Indent,
                              ir::ExitAttr::Kind,
                              const std::vector<std::string> &Vals) {
        O << std::string(static_cast<size_t>(Indent) * 2, ' ') << "return "
          << Vals[0] << ";\n";
      };
      FnEmitter E(M, F, strf(Lo ? "lo" : "hi", K, "_"), OnExit, false);
      OS << "int64_t f_iter" << (Lo ? "Lo" : "Hi") << K
         << "(const Globals& G) {\n  (void)G;\n";
      std::ostringstream B;
      E.emitRegion(B, 1, F.Body, nullptr);
      OS << B.str();
      OS << "}\n\n";
    }
  }
}

void ModuleEmitter::emitInitStrand(std::ostringstream &OS) {
  OS << "void f_initStrand(const Globals& G, const int64_t* iters, Strand& S) "
        "{\n";
  OS << "  (void)G; (void)iters;\n";
  std::ostringstream B;

  // Stage 1: createArgs -> arg slot variables.
  const ir::Function &CA = M.CreateArgs;
  std::vector<std::string> ArgNames;
  {
    int Count = 0;
    for (const Type &T : CA.ResultTypes) {
      (void)T;
      ArgNames.push_back(strf("arg", Count++));
    }
    ExitEmitter OnExit = [&](std::ostringstream &O, int Indent,
                             ir::ExitAttr::Kind,
                             const std::vector<std::string> &Vals) {
      std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
      for (size_t K = 0; K < Vals.size(); ++K)
        O << Pad << "const " << cxxType(CA.ResultTypes[K]) << " "
          << ArgNames[K] << " = " << Vals[K] << ";\n";
    };
    FnEmitter E(M, CA, "ca", OnExit, false);
    std::vector<std::string> ParamInits;
    for (int P = 0; P < CA.NumParams; ++P)
      ParamInits.push_back(strf("iters[", P, "]"));
    E.emitParams(B, 1, ParamInits);
    E.emitRegion(B, 1, CA.Body, nullptr);
  }

  // Stage 2: strandInit consumes the args and fills the state slots.
  const ir::Function &SI = M.StrandInit;
  {
    ExitEmitter OnExit = [&](std::ostringstream &O, int Indent,
                             ir::ExitAttr::Kind,
                             const std::vector<std::string> &Vals) {
      std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
      // Parameters first (hidden leading state), then the declared state.
      for (size_t K = 0; K < ArgNames.size(); ++K)
        O << Pad << "S." << slotName(static_cast<int>(K)) << " = "
          << ArgNames[K] << ";\n";
      for (size_t K = 0; K < Vals.size(); ++K)
        O << Pad << "S."
          << slotName(static_cast<int>(K + ArgNames.size())) << " = "
          << Vals[K] << ";\n";
    };
    FnEmitter E(M, SI, "si", OnExit, false);
    std::vector<std::string> ParamInits = ArgNames;
    E.emitParams(B, 1, ParamInits);
    E.emitRegion(B, 1, SI.Body, nullptr);
  }
  OS << B.str();
  OS << "}\n\n";
}

void ModuleEmitter::emitMethod(std::ostringstream &OS, const ir::Function &F,
                               const std::string &CxxName, bool Profiled) {
  bool IsUpdate = CxxName == "f_update" || CxxName == "f_update_prof";
  ExitEmitter OnExit = [&](std::ostringstream &O, int Indent,
                           ir::ExitAttr::Kind K,
                           const std::vector<std::string> &Vals) {
    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    for (size_t S = 0; S < Vals.size(); ++S)
      O << Pad << "S." << slotName(static_cast<int>(S)) << " = " << Vals[S]
        << ";\n";
    const char *Kind = K == ir::ExitAttr::Continue    ? "Continue"
                       : K == ir::ExitAttr::Stabilize ? "Stabilize"
                                                      : "Die";
    if (IsUpdate)
      O << Pad << "return ExitKind::" << Kind << ";\n";
    else
      O << Pad << "return;\n";
  };
  FnEmitter E(M, F, IsUpdate ? "u" : "st", OnExit, false, Profiled);
  OS << (IsUpdate ? "ExitKind " : "void ") << CxxName
     << "(const Globals& G, Strand& S"
     << (Profiled ? ", uint64_t* DDRPROF" : "") << ") {\n";
  OS << "  (void)G;" << (Profiled ? " (void)DDRPROF;" : "") << "\n";
  std::ostringstream B;
  std::vector<std::string> ParamInits;
  for (int P = 0; P < F.NumParams; ++P)
    ParamInits.push_back(strf("S.", slotName(P)));
  E.emitParams(B, 1, ParamInits);
  E.emitRegion(B, 1, F.Body, nullptr);
  OS << B.str();
  OS << "}\n\n";
}

void ModuleEmitter::emitProfMap(std::ostringstream &OS) {
  // Static (line, class) -> site-count source map of the instrumented
  // methods, pre-flattened in the DDR_READ_PROF_MAP wire format.
  std::map<std::pair<int, int>, uint64_t> Sites;
  addProfSites(M.Update.Body, Sites);
  if (M.hasStabilize())
    addProfSites(M.Stabilize.Body, Sites);
  int MaxLine = ir::maxSourceLine(M);
  OS << "constexpr int kProfMaxLine = " << MaxLine << ";\n";
  OS << "const uint64_t kProfMap[] = {" << Sites.size() << "ull";
  for (const auto &[Key, N] : Sites)
    OS << ", " << Key.first << "ull, " << Key.second << "ull, " << N << "ull";
  OS << "};\n\n";
}

void ModuleEmitter::emitProgClass(std::ostringstream &OS) {
  OS << R"(struct Prog : ProgramBase<Prog, Real, Strand> {
  using Strand = ::Strand;
  Globals G;

  static const GlobalMeta *globalMeta(int &N) {
    N = (int)(sizeof(kGlobals) / sizeof(kGlobals[0]));
    return kGlobals;
  }
  static const OutputMeta *outputMeta(int &N) {
    N = (int)(sizeof(kOutputs) / sizeof(kOutputs[0]));
    return kOutputs;
  }
)";
  OS << "  static constexpr int NumIters = " << M.IterLo.size() << ";\n";
  OS << "  static constexpr bool IsGrid = " << (M.IsGrid ? "true" : "false")
     << ";\n\n";

  // applyDefault
  OS << "  bool applyDefault(int GIdx) {\n    switch (GIdx) {\n";
  for (size_t GI = 0; GI < M.Globals.size(); ++GI)
    if (M.Globals[GI].DefaultFn >= 0)
      OS << "    case " << GI << ": { std::string Err; if (!f_default_" << GI
         << "(G, Err)) { Error = Err; return false; } return true; }\n";
  OS << "    default: return false;\n    }\n  }\n\n";

  // setScalars
  OS << "  bool setScalars(int GIdx, const double *V, int N) {\n"
        "    switch (GIdx) {\n";
  for (size_t GI = 0; GI < M.Globals.size(); ++GI) {
    const ir::GlobalVar &G = M.Globals[GI];
    if (!G.IsInput || G.Ty.isImage() || G.Ty.isString())
      continue;
    std::string Field = strf("G.", globalField(M, static_cast<int>(GI)));
    int N = slotCount(G.Ty);
    OS << "    case " << GI << ": if (N != " << N << ") return false; ";
    if (G.Ty.isInt())
      OS << Field << " = (int64_t)llround(V[0]); ";
    else if (G.Ty.isBool())
      OS << Field << " = V[0] != 0.0; ";
    else if (N == 1)
      OS << Field << " = (Real)V[0]; ";
    else
      OS << "for (int K = 0; K < " << N << "; ++K) " << Field
         << "[K] = (Real)V[K]; ";
    OS << "return true;\n";
  }
  OS << "    default: return false;\n    }\n  }\n\n";

  // setString
  std::string Cases;
  for (size_t GI = 0; GI < M.Globals.size(); ++GI) {
    const ir::GlobalVar &G = M.Globals[GI];
    if (G.IsInput && G.Ty.isString())
      Cases += strf("    case ", GI, ": G.", globalField(M, static_cast<int>(GI)),
                    " = V; return true;\n");
  }
  // The value parameter stays unnamed when no input is a string.
  OS << "  bool setString(int GIdx, const char *" << (Cases.empty() ? "" : "V")
     << ") {\n    switch (GIdx) {\n"
     << Cases << "    default: return false;\n    }\n  }\n\n";

  // setImage
  OS << "  bool setImage(int GIdx, int Dim, const int64_t *Sizes, int64_t "
        "NComp,\n"
        "                const double *Data, const double *W2I,\n"
        "                const double *GradXf, const double *Origin) {\n"
        "    ImageData<Real> *Img = nullptr;\n    int WantDim = 0; int64_t "
        "WantComp = 0;\n    switch (GIdx) {\n";
  for (size_t GI = 0; GI < M.Globals.size(); ++GI) {
    const ir::GlobalVar &G = M.Globals[GI];
    if (!G.IsInput || !G.Ty.isImage())
      continue;
    OS << "    case " << GI << ": Img = &G."
       << globalField(M, static_cast<int>(GI)) << "; WantDim = " << G.Ty.dim()
       << "; WantComp = " << G.Ty.shape().numComponents() << "; break;\n";
  }
  OS << R"(    default: return false;
    }
    if (Dim != WantDim || NComp != WantComp) return false;
    Img->Dim = Dim; Img->NComp = NComp;
    int64_t Total = NComp;
    for (int A = 0; A < Dim; ++A) { Img->Sizes[A] = Sizes[A]; Total *= Sizes[A]; }
    Img->Data.resize((size_t)Total);
    for (int64_t K = 0; K < Total; ++K) Img->Data[(size_t)K] = (Real)Data[K];
    for (int K = 0; K < Dim * Dim; ++K) {
      Img->W2I[K] = (Real)W2I[K];
      Img->GradXf[K] = (Real)GradXf[K];
    }
    for (int A = 0; A < Dim; ++A) Img->Origin[A] = (Real)Origin[A];
    Img->computeStrides();
    return true;
  }

)";

  // Hooks.
  OS << "  bool globalInit() {\n    std::string Err;\n"
        "    if (!f_globalInit(G, Err)) { Error = Err; return false; }\n"
        "    return true;\n  }\n";
  OS << "  int64_t iterLo(int K) {\n    switch (K) {\n";
  for (size_t K = 0; K < M.IterLo.size(); ++K)
    OS << "    case " << K << ": return f_iterLo" << K << "(G);\n";
  OS << "    default: return 0;\n    }\n  }\n";
  OS << "  int64_t iterHi(int K) {\n    switch (K) {\n";
  for (size_t K = 0; K < M.IterHi.size(); ++K)
    OS << "    case " << K << ": return f_iterHi" << K << "(G);\n";
  OS << "    default: return -1;\n    }\n  }\n";
  OS << "  void initStrand(const int64_t *It, Strand &S) { f_initStrand(G, "
        "It, S); }\n";
  OS << "  ExitKind update(Strand &S) { return f_update(G, S); }\n";
  if (M.hasStabilize())
    OS << "  void stabilizeStrand(Strand &S) { f_stabilize(G, S); }\n";
  else
    OS << "  void stabilizeStrand(Strand &) {}\n";
  OS << "  static constexpr int ProfMaxLine = kProfMaxLine;\n";
  OS << "  static std::vector<uint64_t> profMap() {\n"
        "    return {std::begin(kProfMap), std::end(kProfMap)};\n  }\n";
  OS << "  ExitKind updateProf(Strand &S, uint64_t *P) { return "
        "f_update_prof(G, S, P); }\n";
  if (M.hasStabilize())
    OS << "  void stabilizeStrandProf(Strand &S, uint64_t *P) { "
          "f_stabilize_prof(G, S, P); }\n";
  else
    OS << "  void stabilizeStrandProf(Strand &, uint64_t *) {}\n";

  // strandFinite: the strict-fp trap boundary's predicate, checking every
  // Real-typed strand slot.
  {
    std::vector<int> RealSlots;
    for (size_t I = 0; I < SlotTypes.size(); ++I)
      if (SlotTypes[I].isTensor())
        RealSlots.push_back(static_cast<int>(I));
    if (RealSlots.empty()) {
      OS << "  bool strandFinite(const Strand &) const { return true; }\n";
    } else {
      OS << "  bool strandFinite(const Strand &S) const {\n    return ";
      for (size_t K = 0; K < RealSlots.size(); ++K) {
        if (K)
          OS << " &&\n           ";
        OS << "std::isfinite((double)S." << slotName(RealSlots[K]) << ")";
      }
      OS << ";\n  }\n";
    }
  }

  // Canonical digest view of the strand: every scalarized
  // slot, params first then state vars — the same order the interpreter
  // flattens RtVals, which is what makes cross-engine digests bit-equal.
  OS << "  static constexpr int NumStateSlots = "
     << static_cast<int>(SlotTypes.size()) << ";\n";
  OS << "  double strandSlotValue(const Strand &S, int K) const {\n"
        "    switch (K) {\n";
  for (size_t I = 0; I < SlotTypes.size(); ++I)
    OS << "    case " << I << ": return (double)S."
       << slotName(static_cast<int>(I)) << ";\n";
  OS << "    default: return 0.0;\n    }\n  }\n\n";

  // outputComp
  OS << "  double outputComp(const Strand &S, int Out, int Comp) const {\n"
        "    switch (Out) {\n";
  int OutIdx = 0;
  for (size_t SI = 0; SI < M.State.size(); ++SI) {
    if (!M.State[SI].IsOutput)
      continue;
    // StateSlotBase already accounts for the hidden parameter slots.
    int Base = StateSlotBase[SI];
    int N = slotCount(M.State[SI].Ty);
    OS << "    case " << OutIdx << ":\n      switch (Comp) {\n";
    for (int K = 0; K < N; ++K)
      OS << "      case " << K << ": return (double)S." << slotName(Base + K)
         << ";\n";
    OS << "      default: return 0.0;\n      }\n";
    ++OutIdx;
  }
  OS << "    default: return 0.0;\n    }\n  }\n";
  OS << "};\n\n";
}

void ModuleEmitter::emitCApi(std::ostringstream &OS) {
  OS << R"(} // namespace

extern "C" {

int ddr_abi_version() { return DdrAbiVersion; }
void *ddr_create() { return new Prog(); }
void ddr_destroy(void *P) { delete static_cast<Prog *>(P); }
const char *ddr_error(void *P) { return static_cast<Prog *>(P)->Error.c_str(); }

int ddr_set_input_scalars(void *P, const char *Name, const double *V, int N) {
  return static_cast<Prog *>(P)->setInputScalars(Name, V, N) ? 0 : 1;
}
int ddr_set_input_string(void *P, const char *Name, const char *V) {
  return static_cast<Prog *>(P)->setInputString(Name, V) ? 0 : 1;
}
int ddr_set_input_image(void *P, const char *Name, int Dim,
                        const int64_t *Sizes, int64_t NComp,
                        const double *Data, const double *W2I,
                        const double *GradXf, const double *Origin) {
  return static_cast<Prog *>(P)->setInputImage(Name, Dim, Sizes, NComp, Data,
                                               W2I, GradXf, Origin)
             ? 0
             : 1;
}
int ddr_initialize(void *P) {
  return static_cast<Prog *>(P)->initialize() ? 0 : 1;
}
int ddr_run(void *P, const ddr_run_args *A) {
  return static_cast<Prog *>(P)->run(*A);
}
int64_t ddr_read(void *P, int Kind, uint64_t *Out, int64_t Cap) {
  return static_cast<Prog *>(P)->read(Kind, Out, Cap);
}
const char *ddr_fault_msg(void *P, int64_t I) {
  return static_cast<Prog *>(P)->faultMsg(I);
}
int ddr_output_dims(void *P, int64_t *Dims, int MaxD) {
  return static_cast<Prog *>(P)->outputDims(Dims, MaxD);
}
int64_t ddr_get_output(void *P, const char *Name, double *Data, int64_t Cap) {
  return static_cast<Prog *>(P)->getOutput(Name, Data, Cap);
}

} // extern "C"
)";
}

std::string ModuleEmitter::run() {
  std::ostringstream OS;
  emitHeader(OS);
  emitGlobalsStruct(OS);
  emitStrandStruct(OS);
  emitMetaTables(OS);
  emitDefaults(OS);
  emitGlobalInit(OS);
  emitIters(OS);
  emitInitStrand(OS);
  emitMethod(OS, M.Update, "f_update");
  if (M.hasStabilize())
    emitMethod(OS, M.Stabilize, "f_stabilize");
  // Instrumented twins: only these bump DDRPROF, keeping the clean update
  // path zero-overhead when profiling is off.
  emitProfMap(OS);
  emitMethod(OS, M.Update, "f_update_prof", /*Profiled=*/true);
  if (M.hasStabilize())
    emitMethod(OS, M.Stabilize, "f_stabilize_prof", /*Profiled=*/true);
  emitProgClass(OS);
  emitCApi(OS);
  return OS.str();
}

} // namespace

std::string emitCpp(const ir::Module &M, bool DoublePrecision) {
  assert(M.CurLevel == ir::Low && "codegen consumes LowIR");
  ModuleEmitter E(M, DoublePrecision);
  return E.run();
}

} // namespace diderot::codegen
