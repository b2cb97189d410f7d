//===--- frontend/typecheck.cpp --------------------------------------------===//

#include "frontend/typecheck.h"

#include <algorithm>
#include <map>
#include <optional>

#include "frontend/builtins.h"
#include "frontend/schemes.h"
#include "kernels/kernel.h"

namespace diderot {

const char *builtinName(Builtin B) {
  switch (B) {
  case Builtin::Inside:
    return "inside";
  case Builtin::Normalize:
    return "normalize";
  case Builtin::Trace:
    return "trace";
  case Builtin::Det:
    return "det";
  case Builtin::Inv:
    return "inv";
  case Builtin::Transpose:
    return "transpose";
  case Builtin::Evals:
    return "evals";
  case Builtin::Evecs:
    return "evecs";
  case Builtin::Modulate:
    return "modulate";
  case Builtin::Lerp:
    return "lerp";
  case Builtin::Sqrt:
    return "sqrt";
  case Builtin::Cos:
    return "cos";
  case Builtin::Sin:
    return "sin";
  case Builtin::Tan:
    return "tan";
  case Builtin::Asin:
    return "asin";
  case Builtin::Acos:
    return "acos";
  case Builtin::Atan:
    return "atan";
  case Builtin::Atan2:
    return "atan2";
  case Builtin::Exp:
    return "exp";
  case Builtin::Log:
    return "log";
  case Builtin::Pow:
    return "pow";
  case Builtin::MinR:
  case Builtin::MinI:
    return "min";
  case Builtin::MaxR:
  case Builtin::MaxI:
    return "max";
  case Builtin::AbsR:
  case Builtin::AbsI:
    return "abs";
  case Builtin::Clamp:
    return "clamp";
  case Builtin::Floor:
    return "floor";
  case Builtin::Ceil:
    return "ceil";
  case Builtin::Round:
    return "round";
  case Builtin::Trunc:
    return "trunc";
  case Builtin::CastReal:
    return "real";
  case Builtin::Load:
    return "load";
  }
  return "?";
}

namespace {

using sch::Bindings;
using sch::ShapeElem;
using sch::ShapeScheme;
using sch::Signature;
using sch::STy;

// Scheme variable ids used throughout the tables.
constexpr int S0 = 0, S1 = 1; // SHAPE vars
constexpr int D0 = 0, N0 = 1; // DIM vars (N0 doubles as an extent var)
constexpr int K0 = 0, K1 = 1; // DIFF vars

/// Result helpers.
sch::ResultFn retTy(Type T) {
  return [T](const Bindings &) { return T; };
}
sch::ResultFn retTensor(ShapeScheme S) {
  return [S](const Bindings &B) { return Type::tensor(S.instantiate(B)); };
}

/// A signature paired with the operator-instance tag the simplifier needs.
struct OverloadEntry {
  Signature Sig;
  ResolvedOp Op = ResolvedOp::None;
  Builtin Bi = Builtin::Inside; // only meaningful for builtin tables
};

std::optional<std::pair<const OverloadEntry *, Type>>
resolve(const std::vector<OverloadEntry> &Table, const std::vector<Type> &Args) {
  for (const OverloadEntry &E : Table)
    if (std::optional<Type> R = E.Sig.apply(Args))
      return std::make_pair(&E, *R);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Operator tables
//===----------------------------------------------------------------------===//

const std::vector<OverloadEntry> &addSubTable() {
  static const std::vector<OverloadEntry> Table = [] {
    std::vector<OverloadEntry> T;
    T.push_back({{{STy::integer(), STy::integer()}, retTy(Type::integer()),
                  nullptr},
                 ResolvedOp::IntArith,
                 {}});
    T.push_back({{{STy::tensor(ShapeScheme::var(S0)),
                   STy::tensor(ShapeScheme::var(S0))},
                  retTensor(ShapeScheme::var(S0)),
                  nullptr},
                 ResolvedOp::TensorAddSub,
                 {}});
    // field#k + field#k' -> field#min(k,k'): addition cannot add smoothness.
    T.push_back(
        {{{STy::field(K0, ShapeElem::dimVar(D0), ShapeScheme::var(S0)),
           STy::field(K1, ShapeElem::dimVar(D0), ShapeScheme::var(S0))},
          [](const Bindings &B) {
            int K = std::min(B.Diffs.at(K0), B.Diffs.at(K1));
            return Type::field(K, B.Dims.at(D0), B.Shapes.at(S0));
          },
          nullptr},
         ResolvedOp::FieldAddSub,
         {}});
    return T;
  }();
  return Table;
}

const std::vector<OverloadEntry> &mulTable() {
  static const std::vector<OverloadEntry> Table = [] {
    std::vector<OverloadEntry> T;
    T.push_back({{{STy::integer(), STy::integer()}, retTy(Type::integer()),
                  nullptr},
                 ResolvedOp::IntArith,
                 {}});
    T.push_back({{{STy::real(), STy::real()}, retTy(Type::real()), nullptr},
                 ResolvedOp::RealArith,
                 {}});
    T.push_back({{{STy::real(), STy::tensor(ShapeScheme::var(S0))},
                  retTensor(ShapeScheme::var(S0)), nullptr},
                 ResolvedOp::ScaleLeft,
                 {}});
    T.push_back({{{STy::tensor(ShapeScheme::var(S0)), STy::real()},
                  retTensor(ShapeScheme::var(S0)), nullptr},
                 ResolvedOp::ScaleRight,
                 {}});
    T.push_back(
        {{{STy::real(),
           STy::field(K0, ShapeElem::dimVar(D0), ShapeScheme::var(S0))},
          [](const Bindings &B) {
            return Type::field(B.Diffs.at(K0), B.Dims.at(D0), B.Shapes.at(S0));
          },
          nullptr},
         ResolvedOp::FieldScaleLeft,
         {}});
    T.push_back(
        {{{STy::field(K0, ShapeElem::dimVar(D0), ShapeScheme::var(S0)),
           STy::real()},
          [](const Bindings &B) {
            return Type::field(B.Diffs.at(K0), B.Dims.at(D0), B.Shapes.at(S0));
          },
          nullptr},
         ResolvedOp::FieldScaleRight,
         {}});
    return T;
  }();
  return Table;
}

const std::vector<OverloadEntry> &divTable() {
  static const std::vector<OverloadEntry> Table = [] {
    std::vector<OverloadEntry> T;
    T.push_back({{{STy::integer(), STy::integer()}, retTy(Type::integer()),
                  nullptr},
                 ResolvedOp::IntArith,
                 {}});
    T.push_back({{{STy::real(), STy::real()}, retTy(Type::real()), nullptr},
                 ResolvedOp::RealArith,
                 {}});
    T.push_back({{{STy::tensor(ShapeScheme::var(S0)), STy::real()},
                  retTensor(ShapeScheme::var(S0)), nullptr},
                 ResolvedOp::TensorDivScalar,
                 {}});
    T.push_back(
        {{{STy::field(K0, ShapeElem::dimVar(D0), ShapeScheme::var(S0)),
           STy::real()},
          [](const Bindings &B) {
            return Type::field(B.Diffs.at(K0), B.Dims.at(D0), B.Shapes.at(S0));
          },
          nullptr},
         ResolvedOp::FieldDivScalar,
         {}});
    return T;
  }();
  return Table;
}

const std::vector<OverloadEntry> &dotTable() {
  static const std::vector<OverloadEntry> Table = [] {
    std::vector<OverloadEntry> T;
    // tensor[sigma ++ n] . tensor[n ++ tau] -> tensor[sigma ++ tau]
    T.push_back(
        {{{STy::tensor(ShapeScheme::varThen(S0, ShapeElem::dimVar(N0))),
           STy::tensor(ShapeScheme::elemThenVar(ShapeElem::dimVar(N0), S1))},
          [](const Bindings &B) {
            std::vector<int> Out = B.Shapes.at(S0).dims();
            for (int D : B.Shapes.at(S1).dims())
              Out.push_back(D);
            return Type::tensor(Shape(std::move(Out)));
          },
          nullptr},
         ResolvedOp::None,
         {}});
    return T;
  }();
  return Table;
}

const std::vector<OverloadEntry> &crossTable() {
  static const std::vector<OverloadEntry> Table = [] {
    std::vector<OverloadEntry> T;
    T.push_back({{{STy::tensor(ShapeScheme::fixed({ShapeElem::fixed(3)})),
                   STy::tensor(ShapeScheme::fixed({ShapeElem::fixed(3)}))},
                  retTy(Type::vec(3)), nullptr},
                 ResolvedOp::None,
                 {}});
    T.push_back({{{STy::tensor(ShapeScheme::fixed({ShapeElem::fixed(2)})),
                   STy::tensor(ShapeScheme::fixed({ShapeElem::fixed(2)}))},
                  retTy(Type::real()), nullptr},
                 ResolvedOp::None,
                 {}});
    return T;
  }();
  return Table;
}

const std::vector<OverloadEntry> &outerTable() {
  static const std::vector<OverloadEntry> Table = [] {
    std::vector<OverloadEntry> T;
    T.push_back(
        {{{STy::tensor(ShapeScheme::var(S0)), STy::tensor(ShapeScheme::var(S1))},
          [](const Bindings &B) {
            std::vector<int> Out = B.Shapes.at(S0).dims();
            for (int D : B.Shapes.at(S1).dims())
              Out.push_back(D);
            return Type::tensor(Shape(std::move(Out)));
          },
          [](const Bindings &B) {
            return B.Shapes.at(S0).order() >= 1 &&
                   B.Shapes.at(S1).order() >= 1;
          }},
         ResolvedOp::None,
         {}});
    return T;
  }();
  return Table;
}

const std::vector<OverloadEntry> &convolveTable() {
  static const std::vector<OverloadEntry> Table = [] {
    std::vector<OverloadEntry> T;
    auto Res = [](const Bindings &B) {
      return Type::field(B.Diffs.at(K0), B.Dims.at(D0), B.Shapes.at(S0));
    };
    // V (*) h  and  h (*) V (Figure 7 writes `ctmr (*) load(...)`).
    T.push_back({{{STy::image(ShapeElem::dimVar(D0), ShapeScheme::var(S0)),
                   STy::kernel(K0)},
                  Res,
                  nullptr},
                 ResolvedOp::None,
                 {}});
    T.push_back({{{STy::kernel(K0),
                   STy::image(ShapeElem::dimVar(D0), ShapeScheme::var(S0))},
                  Res,
                  nullptr},
                 ResolvedOp::None,
                 {}});
    return T;
  }();
  return Table;
}

const std::vector<OverloadEntry> &powTable() {
  static const std::vector<OverloadEntry> Table = [] {
    std::vector<OverloadEntry> T;
    T.push_back({{{STy::real(), STy::real()}, retTy(Type::real()), nullptr},
                 ResolvedOp::RealArith,
                 {}});
    // |G|^2 : integer exponents are common in curvature formulas.
    T.push_back({{{STy::real(), STy::integer()}, retTy(Type::real()), nullptr},
                 ResolvedOp::RealArith,
                 {}});
    return T;
  }();
  return Table;
}

//===----------------------------------------------------------------------===//
// Builtin function table
//===----------------------------------------------------------------------===//

const std::map<std::string, std::vector<OverloadEntry>> &builtinTable() {
  static const std::map<std::string, std::vector<OverloadEntry>> Table = [] {
    std::map<std::string, std::vector<OverloadEntry>> T;
    auto Add = [&T](const char *Name, std::vector<STy> Params,
                    sch::ResultFn Res, Builtin B, sch::GuardFn Guard = nullptr) {
      T[Name].push_back(
          {{std::move(Params), std::move(Res), std::move(Guard)},
           ResolvedOp::BuiltinCall,
           B});
    };
    ShapeScheme SqMat = ShapeScheme::fixed(
        {ShapeElem::dimVar(N0), ShapeElem::dimVar(N0)});

    Add("normalize", {STy::tensor(ShapeScheme::var(S0))},
        retTensor(ShapeScheme::var(S0)), Builtin::Normalize,
        [](const Bindings &B) { return B.Shapes.at(S0).order() >= 1; });
    Add("trace", {STy::tensor(SqMat)}, retTy(Type::real()), Builtin::Trace);
    Add("det", {STy::tensor(SqMat)}, retTy(Type::real()), Builtin::Det);
    Add("inv", {STy::tensor(SqMat)}, retTensor(SqMat), Builtin::Inv);
    Add("transpose",
        {STy::tensor(
            ShapeScheme::fixed({ShapeElem::dimVar(D0), ShapeElem::dimVar(N0)}))},
        retTensor(
            ShapeScheme::fixed({ShapeElem::dimVar(N0), ShapeElem::dimVar(D0)})),
        Builtin::Transpose);
    Add("evals", {STy::tensor(SqMat)},
        retTensor(ShapeScheme::fixed({ShapeElem::dimVar(N0)})), Builtin::Evals,
        [](const Bindings &B) {
          int N = B.Dims.at(N0);
          return N == 2 || N == 3;
        });
    Add("evecs", {STy::tensor(SqMat)}, retTensor(SqMat), Builtin::Evecs,
        [](const Bindings &B) {
          int N = B.Dims.at(N0);
          return N == 2 || N == 3;
        });
    Add("modulate",
        {STy::tensor(ShapeScheme::var(S0)), STy::tensor(ShapeScheme::var(S0))},
        retTensor(ShapeScheme::var(S0)), Builtin::Modulate);
    Add("lerp",
        {STy::tensor(ShapeScheme::var(S0)), STy::tensor(ShapeScheme::var(S0)),
         STy::real()},
        retTensor(ShapeScheme::var(S0)), Builtin::Lerp);

    auto R1 = [&](const char *Name, Builtin B) {
      Add(Name, {STy::real()}, retTy(Type::real()), B);
    };
    R1("sqrt", Builtin::Sqrt);
    R1("cos", Builtin::Cos);
    R1("sin", Builtin::Sin);
    R1("tan", Builtin::Tan);
    R1("asin", Builtin::Asin);
    R1("acos", Builtin::Acos);
    R1("atan", Builtin::Atan);
    R1("exp", Builtin::Exp);
    R1("log", Builtin::Log);
    R1("floor", Builtin::Floor);
    R1("ceil", Builtin::Ceil);
    R1("round", Builtin::Round);
    R1("trunc", Builtin::Trunc);

    Add("atan2", {STy::real(), STy::real()}, retTy(Type::real()),
        Builtin::Atan2);
    Add("pow", {STy::real(), STy::real()}, retTy(Type::real()), Builtin::Pow);
    Add("min", {STy::real(), STy::real()}, retTy(Type::real()), Builtin::MinR);
    Add("min", {STy::integer(), STy::integer()}, retTy(Type::integer()),
        Builtin::MinI);
    Add("max", {STy::real(), STy::real()}, retTy(Type::real()), Builtin::MaxR);
    Add("max", {STy::integer(), STy::integer()}, retTy(Type::integer()),
        Builtin::MaxI);
    Add("abs", {STy::real()}, retTy(Type::real()), Builtin::AbsR);
    Add("abs", {STy::integer()}, retTy(Type::integer()), Builtin::AbsI);
    Add("clamp", {STy::real(), STy::real(), STy::real()}, retTy(Type::real()),
        Builtin::Clamp);
    Add("real", {STy::integer()}, retTy(Type::real()), Builtin::CastReal);
    Add("real", {STy::real()}, retTy(Type::real()), Builtin::CastReal);
    return T;
  }();
  return Table;
}

//===----------------------------------------------------------------------===//
// The checker
//===----------------------------------------------------------------------===//

class Checker {
public:
  Checker(Program &P, DiagnosticEngine &Diags) : P(P), Diags(Diags) {}

  bool run();

private:
  struct Binding {
    Expr::Ref Kind = Expr::Ref::None;
    int Index = -1;
    Type Ty;
    bool Mutable = false;
  };

  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }
  bool declare(SourceLoc Loc, const std::string &Name, Binding B);
  const Binding *lookup(const std::string &Name) const;

  void checkGlobals();
  void checkInputDefaultRefs(const Expr &E);
  void preResolveLoads(Expr &E, const Type &ImgTy);
  void checkStrand();
  void checkInitially();
  void checkStmt(Stmt &S);

  Type checkExpr(Expr &E);
  Type checkIdent(Expr &E);
  Type checkUnary(Expr &E);
  Type checkBinary(Expr &E);
  Type checkApply(Expr &E);
  Type checkIndex(Expr &E);
  Type checkCond(Expr &E);
  Type checkTensorCons(Expr &E);
  Type checkSeqCons(Expr &E);

  Type err(SourceLoc Loc, const std::string &Msg) {
    Diags.error(Loc, Msg);
    return Type::error();
  }

  /// Position type for probing a d-dimensional field: real for d == 1,
  /// otherwise tensor[d].
  static Type positionType(int D) {
    return D == 1 ? Type::real() : Type::vec(D);
  }

  Program &P;
  DiagnosticEngine &Diags;
  std::vector<std::map<std::string, Binding>> Scopes;
  bool InUpdate = false;
  bool SawDie = false;
};

bool Checker::declare(SourceLoc Loc, const std::string &Name, Binding B) {
  if (!Scopes.back().emplace(Name, std::move(B)).second) {
    Diags.error(Loc, strf("redefinition of '", Name, "'"));
    return false;
  }
  return true;
}

const Checker::Binding *Checker::lookup(const std::string &Name) const {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto F = It->find(Name);
    if (F != It->end())
      return &F->second;
  }
  return nullptr;
}

bool Checker::run() {
  pushScope();
  // Built-in kernels are pre-bound globals of kernel type.
  for (const std::string &Name : kernels::allNames()) {
    const Kernel *K = kernels::byName(Name);
    declare({}, Name,
            {Expr::Ref::Kernel, 0, Type::kernel(K->continuity()), false});
  }
  checkGlobals();
  checkStrand();
  checkInitially();
  popScope();
  return !Diags.hasErrors();
}

void Checker::checkGlobals() {
  for (size_t I = 0; I < P.Globals.size(); ++I) {
    GlobalDecl &G = P.Globals[I];
    if (G.Ty.isError())
      continue;
    if (G.IsInput && (G.Ty.isField() || G.Ty.isKernel()))
      err(G.Loc, "fields and kernels cannot be input variables");
    if (G.Init) {
      // `load(...)` is only allowed in global initializers; its image type
      // is determined by the declaration: image-typed globals use it
      // directly, and within a field#k(d)[s] initializer (Figure 7 writes
      // `ctmr ⊛ load("ddro.nrrd")`) the image type is image(d)[s], since
      // field operations preserve domain dimension and range shape.
      if (G.Ty.isImage())
        preResolveLoads(*G.Init, G.Ty);
      else if (G.Ty.isField())
        preResolveLoads(*G.Init, Type::image(G.Ty.dim(), G.Ty.shape()));
      Type T = checkExpr(*G.Init);
      if (!T.isError() && T != G.Ty)
        err(G.Init->Loc, strf("global '", G.Name, "' declared ", G.Ty.str(),
                              " but initialized with ", T.str()));
      // Input defaults are evaluated before the (non-input) globals are
      // computed, so they may only reference other inputs.
      if (G.IsInput)
        checkInputDefaultRefs(*G.Init);
    } else if (G.Ty.isImage()) {
      // An image input without a default: the host must provide it.
    }
    declare(G.Loc, G.Name,
            {Expr::Ref::Global, static_cast<int>(I), G.Ty, false});
  }
}

void Checker::checkInputDefaultRefs(const Expr &E) {
  if (E.Kind == ExprKind::Ident && E.RefKind == Expr::Ref::Global &&
      E.RefIndex >= 0 &&
      !P.Globals[static_cast<size_t>(E.RefIndex)].IsInput) {
    err(E.Loc, strf("input default may not reference non-input global '",
                    E.Name, "'"));
  }
  for (const ExprPtr &Kid : E.Kids)
    checkInputDefaultRefs(*Kid);
}

void Checker::preResolveLoads(Expr &E, const Type &ImgTy) {
  if (E.Kind == ExprKind::Apply && E.Name == "load" && !lookup("load")) {
    if (E.Kids.size() != 2 || E.Kids[1]->Kind != ExprKind::StringLit) {
      err(E.Loc, "load(...) takes one string-literal file name");
      return;
    }
    E.Ty = ImgTy;
    E.Resolved = ResolvedOp::BuiltinCall;
    E.BuiltinId = static_cast<int>(Builtin::Load);
    E.Kids[1]->Ty = Type::string();
    return;
  }
  for (ExprPtr &Kid : E.Kids)
    preResolveLoads(*Kid, ImgTy);
}

void Checker::checkStrand() {
  StrandDecl &S = P.Strand;
  pushScope();
  for (size_t I = 0; I < S.Params.size(); ++I) {
    Param &Prm = S.Params[I];
    if (!Prm.Ty.isError() && !Prm.Ty.isValueType())
      err(Prm.Loc, strf("strand parameter '", Prm.Name,
                        "' must have a concrete value type"));
    declare(Prm.Loc, Prm.Name,
            {Expr::Ref::Param, static_cast<int>(I), Prm.Ty, false});
  }
  int NumOutputs = 0;
  for (size_t I = 0; I < S.State.size(); ++I) {
    StateVar &V = S.State[I];
    if (!V.Ty.isError() && !V.Ty.isValueType())
      err(V.Loc, strf("strand state variable '", V.Name,
                      "' must have a concrete value type"));
    if (V.IsOutput) {
      ++NumOutputs;
      if (!V.Ty.isTensor() && !V.Ty.isInt())
        err(V.Loc, "output variables must have tensor or int type");
    }
    if (V.Init) {
      Type T = checkExpr(*V.Init);
      if (!T.isError() && !V.Ty.isError() && T != V.Ty)
        err(V.Init->Loc, strf("state variable '", V.Name, "' declared ",
                              V.Ty.str(), " but initialized with ", T.str()));
    }
    declare(V.Loc, V.Name,
            {Expr::Ref::State, static_cast<int>(I), V.Ty, true});
  }
  if (NumOutputs == 0)
    err(S.Loc, strf("strand '", S.Name, "' has no output variables"));

  if (S.UpdateBody) {
    InUpdate = true;
    pushScope();
    checkStmt(*S.UpdateBody);
    popScope();
    InUpdate = false;
  }
  if (S.StabilizeBody) {
    pushScope();
    checkStmt(*S.StabilizeBody);
    popScope();
  }
  popScope();
}

void Checker::checkInitially() {
  Initially &I = P.Init;
  if (I.StrandName != P.Strand.Name && !I.StrandName.empty())
    err(I.Loc, strf("initialization names strand '", I.StrandName,
                    "' but the program defines '", P.Strand.Name, "'"));
  pushScope();
  if (I.Iters.empty())
    err(I.Loc, "initialization needs at least one iterator");
  // Bounds are checked before any iterator variable is in scope: ranges may
  // reference globals only, keeping grids rectangular.
  for (Iterator &It : I.Iters) {
    if (It.Lo) {
      Type T = checkExpr(*It.Lo);
      if (!T.isError() && !T.isInt())
        err(It.Lo->Loc, "iterator bounds must be int");
    }
    if (It.Hi) {
      Type T = checkExpr(*It.Hi);
      if (!T.isError() && !T.isInt())
        err(It.Hi->Loc, "iterator bounds must be int");
    }
  }
  for (size_t K = 0; K < I.Iters.size(); ++K)
    declare(I.Iters[K].Loc, I.Iters[K].Var,
            {Expr::Ref::IterVar, static_cast<int>(K), Type::integer(), false});
  if (I.Args.size() != P.Strand.Params.size()) {
    err(I.Loc, strf("strand '", P.Strand.Name, "' takes ",
                    P.Strand.Params.size(), " arguments but ", I.Args.size(),
                    " were supplied"));
  } else {
    for (size_t K = 0; K < I.Args.size(); ++K) {
      Type T = checkExpr(*I.Args[K]);
      const Type &Want = P.Strand.Params[K].Ty;
      if (!T.isError() && !Want.isError() && T != Want)
        err(I.Args[K]->Loc, strf("strand argument ", K + 1, " has type ",
                                 T.str(), " but parameter '",
                                 P.Strand.Params[K].Name, "' is ", Want.str()));
    }
  }
  popScope();
  if (I.IsGrid && SawDie)
    Diags.warning(I.Loc,
                  "grid initializations assume strands never die; `die` "
                  "found in the update method");
}

void Checker::checkStmt(Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Block:
    pushScope();
    for (StmtPtr &Child : S.Body)
      checkStmt(*Child);
    popScope();
    return;
  case StmtKind::Decl: {
    if (S.Value) {
      Type T = checkExpr(*S.Value);
      if (!T.isError() && !S.DeclTy.isError() && T != S.DeclTy)
        err(S.Value->Loc, strf("variable '", S.Name, "' declared ",
                               S.DeclTy.str(), " but initialized with ",
                               T.str()));
    }
    if (S.DeclTy.isImage() || S.DeclTy.isKernel())
      err(S.Loc, "image and kernel values can only be bound at global scope");
    declare(S.Loc, S.Name, {Expr::Ref::Local, -1, S.DeclTy, true});
    return;
  }
  case StmtKind::Assign: {
    const Binding *B = lookup(S.Name);
    if (!B) {
      err(S.Loc, strf("assignment to undefined variable '", S.Name, "'"));
      if (S.Value)
        checkExpr(*S.Value);
      return;
    }
    if (!B->Mutable)
      err(S.Loc, strf("'", S.Name, "' is immutable"));
    // Desugar `x op= e` to `x = x op e` so later phases see one form.
    if (S.AOp != AssignOp::Set) {
      auto Lhs = std::make_unique<Expr>(ExprKind::Ident, S.Loc);
      Lhs->Name = S.Name;
      auto Bin = std::make_unique<Expr>(ExprKind::Binary, S.Loc);
      switch (S.AOp) {
      case AssignOp::AddSet:
        Bin->BOp = BinaryOp::Add;
        break;
      case AssignOp::SubSet:
        Bin->BOp = BinaryOp::Sub;
        break;
      case AssignOp::MulSet:
        Bin->BOp = BinaryOp::Mul;
        break;
      case AssignOp::DivSet:
        Bin->BOp = BinaryOp::Div;
        break;
      case AssignOp::Set:
        break;
      }
      Bin->Kids.push_back(std::move(Lhs));
      Bin->Kids.push_back(std::move(S.Value));
      S.Value = std::move(Bin);
      S.AOp = AssignOp::Set;
    }
    Type T = checkExpr(*S.Value);
    if (!T.isError() && !B->Ty.isError() && T != B->Ty)
      err(S.Value->Loc, strf("cannot assign ", T.str(), " to '", S.Name,
                             "' of type ", B->Ty.str()));
    return;
  }
  case StmtKind::If: {
    Type T = checkExpr(*S.Value);
    if (!T.isError() && !T.isBool())
      err(S.Value->Loc, strf("condition must be bool, found ", T.str()));
    pushScope();
    checkStmt(*S.Then);
    popScope();
    if (S.Else) {
      pushScope();
      checkStmt(*S.Else);
      popScope();
    }
    return;
  }
  case StmtKind::Stabilize:
    if (!InUpdate)
      err(S.Loc, "'stabilize' is only allowed in the update method");
    return;
  case StmtKind::Die:
    if (!InUpdate)
      err(S.Loc, "'die' is only allowed in the update method");
    SawDie = true;
    return;
  }
}

Type Checker::checkExpr(Expr &E) {
  Type T = Type::error();
  switch (E.Kind) {
  case ExprKind::IntLit:
    T = Type::integer();
    break;
  case ExprKind::RealLit:
  case ExprKind::PiLit:
    T = Type::real();
    break;
  case ExprKind::BoolLit:
    T = Type::boolean();
    break;
  case ExprKind::StringLit:
    T = Type::string();
    break;
  case ExprKind::Ident:
    T = checkIdent(E);
    break;
  case ExprKind::Unary:
    T = checkUnary(E);
    break;
  case ExprKind::Binary:
    T = checkBinary(E);
    break;
  case ExprKind::Cond:
    T = checkCond(E);
    break;
  case ExprKind::Apply:
    T = checkApply(E);
    break;
  case ExprKind::TensorCons:
    T = checkTensorCons(E);
    break;
  case ExprKind::SeqCons:
    T = checkSeqCons(E);
    break;
  case ExprKind::Index:
    T = checkIndex(E);
    break;
  case ExprKind::Norm: {
    Type A = checkExpr(*E.Kids[0]);
    if (A.isError())
      break;
    if (!A.isTensor()) {
      T = err(E.Loc, strf("|...| requires a tensor operand, found ", A.str()));
      break;
    }
    T = Type::real();
    break;
  }
  }
  E.Ty = T;
  return T;
}

Type Checker::checkIdent(Expr &E) {
  const Binding *B = lookup(E.Name);
  if (!B) {
    if (builtinTable().count(E.Name))
      return err(E.Loc, strf("builtin '", E.Name,
                             "' must be applied to arguments"));
    return err(E.Loc, strf("undefined variable '", E.Name, "'"));
  }
  E.RefKind = B->Kind;
  E.RefIndex = B->Index;
  return B->Ty;
}

Type Checker::checkUnary(Expr &E) {
  Type A = checkExpr(*E.Kids[0]);
  if (A.isError())
    return A;
  switch (E.UOp) {
  case UnaryOp::Neg:
    if (A.isInt()) {
      E.Resolved = ResolvedOp::IntArith;
      return A;
    }
    if (A.isTensor()) {
      E.Resolved = ResolvedOp::TensorAddSub;
      return A;
    }
    if (A.isField()) {
      E.Resolved = ResolvedOp::FieldNeg;
      return A;
    }
    return err(E.Loc, strf("cannot negate ", A.str()));
  case UnaryOp::Not:
    if (A.isBool())
      return A;
    return err(E.Loc, strf("'!' requires bool, found ", A.str()));
  case UnaryOp::Nabla:
    // Figure 2: nabla F : field#k(d)[] with k > 0 gives field#(k-1)(d)[d].
    if (!A.isField() || !A.shape().isScalar())
      return err(E.Loc,
                 strf("∇ requires a scalar field, found ", A.str(),
                      (A.isField() ? " (use ∇⊗ for tensor fields)" : "")));
    if (A.diff() <= 0)
      return err(E.Loc, strf("∇ requires a differentiable field; ", A.str(),
                             " has no continuous derivatives"));
    // In 1-D the derivative is again a scalar field (tensor axes must have
    // extent >= 2, so there is no tensor[1]).
    if (A.dim() == 1)
      return Type::field(A.diff() - 1, 1, Shape{});
    return Type::field(A.diff() - 1, A.dim(), Shape{A.dim()});
  case UnaryOp::NablaOtimes:
    if (!A.isField() || A.shape().order() < 1)
      return err(E.Loc,
                 strf("∇⊗ requires a tensor field of order >= 1, found ",
                      A.str(), (A.isField() ? " (use ∇ for scalar fields)" : "")));
    if (A.diff() <= 0)
      return err(E.Loc, strf("∇⊗ requires a differentiable field; ", A.str(),
                             " has no continuous derivatives"));
    // As for ∇, a 1-D derivative appends no axis (there is no extent-1
    // axis); probe expansion builds the same shape.
    if (A.dim() == 1)
      return Type::field(A.diff() - 1, 1, A.shape());
    return Type::field(A.diff() - 1, A.dim(), A.shape().append(A.dim()));
  case UnaryOp::Divergence:
    // §8.3 extension: ∇• : field#k(d)[d] -> field#(k-1)(d)[], k > 0.
    if (!A.isField() || A.shape().order() != 1 || A.shape()[0] != A.dim())
      return err(E.Loc, strf("∇• requires a field of d-vectors over a d-D "
                             "domain, found ",
                             A.str()));
    if (A.diff() <= 0)
      return err(E.Loc, strf("∇• requires a differentiable field; ", A.str(),
                             " has no continuous derivatives"));
    return Type::field(A.diff() - 1, A.dim(), Shape{});
  case UnaryOp::Curl:
    // §8.3 extension: ∇× : field#k(3)[3] -> field#(k-1)(3)[3], and the 2-D
    // scalar curl field#k(2)[2] -> field#(k-1)(2)[].
    if (!A.isField() || A.shape().order() != 1 || A.shape()[0] != A.dim() ||
        A.dim() < 2)
      return err(E.Loc, strf("∇× requires a 2-D or 3-D vector field, found ",
                             A.str()));
    if (A.diff() <= 0)
      return err(E.Loc, strf("∇× requires a differentiable field; ", A.str(),
                             " has no continuous derivatives"));
    return Type::field(A.diff() - 1, A.dim(),
                       A.dim() == 3 ? Shape{3} : Shape{});
  }
  return Type::error();
}

Type Checker::checkBinary(Expr &E) {
  Type L = checkExpr(*E.Kids[0]);
  Type R = checkExpr(*E.Kids[1]);
  if (L.isError() || R.isError())
    return Type::error();
  std::vector<Type> Args = {L, R};

  const std::vector<OverloadEntry> *Table = nullptr;
  const char *OpName = "?";
  switch (E.BOp) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
    Table = &addSubTable();
    OpName = E.BOp == BinaryOp::Add ? "+" : "-";
    break;
  case BinaryOp::Mul:
    Table = &mulTable();
    OpName = "*";
    break;
  case BinaryOp::Div:
    Table = &divTable();
    OpName = "/";
    break;
  case BinaryOp::Pow:
    Table = &powTable();
    OpName = "^";
    break;
  case BinaryOp::Dot:
    Table = &dotTable();
    OpName = "•";
    break;
  case BinaryOp::Cross:
    Table = &crossTable();
    OpName = "×";
    break;
  case BinaryOp::Outer:
    Table = &outerTable();
    OpName = "⊗";
    break;
  case BinaryOp::Convolve:
    Table = &convolveTable();
    OpName = "⊛";
    break;
  case BinaryOp::Mod:
    if (L.isInt() && R.isInt()) {
      E.Resolved = ResolvedOp::IntArith;
      return Type::integer();
    }
    return err(E.Loc, strf("'%' requires int operands, found ", L.str(), " and ",
                           R.str()));
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    if ((L.isInt() && R.isInt()) || (L.isReal() && R.isReal()))
      return Type::boolean();
    return err(E.Loc, strf("comparison requires matching int or real "
                           "operands, found ",
                           L.str(), " and ", R.str()));
  case BinaryOp::Eq:
  case BinaryOp::Ne:
    if (L == R && (L.isInt() || L.isReal() || L.isBool() || L.isString()))
      return Type::boolean();
    return err(E.Loc, strf("cannot compare ", L.str(), " and ", R.str()));
  case BinaryOp::And:
  case BinaryOp::Or:
    if (L.isBool() && R.isBool())
      return Type::boolean();
    return err(E.Loc, "logical operators require bool operands");
  }

  if (auto Hit = resolve(*Table, Args)) {
    E.Resolved = Hit->first->Op;
    return Hit->second;
  }
  return err(E.Loc, strf("no instance of '", OpName, "' for operands ",
                         L.str(), " and ", R.str()));
}

Type Checker::checkCond(Expr &E) {
  Type ThenT = checkExpr(*E.Kids[0]);
  Type CondT = checkExpr(*E.Kids[1]);
  Type ElseT = checkExpr(*E.Kids[2]);
  if (!CondT.isError() && !CondT.isBool())
    err(E.Kids[1]->Loc, strf("condition must be bool, found ", CondT.str()));
  if (ThenT.isError() || ElseT.isError())
    return Type::error();
  if (ThenT != ElseT)
    return err(E.Loc, strf("conditional branches have different types: ",
                           ThenT.str(), " and ", ElseT.str()));
  return ThenT;
}

Type Checker::checkApply(Expr &E) {
  // load(...) nodes in global initializers are resolved ahead of time
  // (preResolveLoads); accept them as-is.
  if (E.BuiltinId == static_cast<int>(Builtin::Load) && !E.Ty.isError())
    return E.Ty;
  Expr &Callee = *E.Kids[0];
  // Builtins (only when the name is not shadowed by a variable).
  if (Callee.Kind == ExprKind::Ident && !lookup(Callee.Name)) {
    if (Callee.Name == "load")
      return err(E.Loc, "load(...) may only appear as a global initializer");
    if (Callee.Name == "inside") {
      // inside(x, F): the position type depends on the field dimension.
      if (E.Kids.size() != 3)
        return err(E.Loc, "inside(x, F) takes two arguments");
      Type PosT = checkExpr(*E.Kids[1]);
      Type FldT = checkExpr(*E.Kids[2]);
      if (PosT.isError() || FldT.isError())
        return Type::error();
      if (!FldT.isField())
        return err(E.Loc, strf("inside's second argument must be a field, "
                               "found ",
                               FldT.str()));
      if (PosT != positionType(FldT.dim()))
        return err(E.Loc, strf("inside position must be ",
                               positionType(FldT.dim()).str(), " for a ",
                               FldT.dim(), "-D field, found ", PosT.str()));
      E.Resolved = ResolvedOp::BuiltinCall;
      E.BuiltinId = static_cast<int>(Builtin::Inside);
      return Type::boolean();
    }
    // ASCII function spellings of the Unicode binary operators: rewrite the
    // application into the equivalent binary node and check that instead.
    {
      BinaryOp BOp{};
      bool IsAlias = true;
      if (Callee.Name == "dot")
        BOp = BinaryOp::Dot;
      else if (Callee.Name == "cross")
        BOp = BinaryOp::Cross;
      else if (Callee.Name == "outer")
        BOp = BinaryOp::Outer;
      else if (Callee.Name == "convolve")
        BOp = BinaryOp::Convolve;
      else
        IsAlias = false;
      if (IsAlias) {
        if (E.Kids.size() != 3)
          return err(E.Loc, strf("'", Callee.Name, "' takes two arguments"));
        E.Kind = ExprKind::Binary;
        E.BOp = BOp;
        E.Kids.erase(E.Kids.begin()); // drop the callee
        E.Name.clear();
        return checkBinary(E);
      }
    }
    auto TableIt = builtinTable().find(Callee.Name);
    if (TableIt != builtinTable().end()) {
      std::vector<Type> Args;
      bool Bad = false;
      for (size_t I = 1; I < E.Kids.size(); ++I) {
        Args.push_back(checkExpr(*E.Kids[I]));
        Bad |= Args.back().isError();
      }
      if (Bad)
        return Type::error();
      if (auto Hit = resolve(TableIt->second, Args)) {
        E.Resolved = ResolvedOp::BuiltinCall;
        E.BuiltinId = static_cast<int>(Hit->first->Bi);
        return Hit->second;
      }
      std::string ArgStr;
      for (const Type &A : Args)
        ArgStr += (ArgStr.empty() ? "" : ", ") + A.str();
      return err(E.Loc, strf("no instance of builtin '", Callee.Name,
                             "' for arguments (", ArgStr, ")"));
    }
  }

  // Otherwise the callee must be a field and this is a probe (Figure 2's
  // application rule).
  Type CalleeT = checkExpr(Callee);
  if (CalleeT.isError())
    return Type::error();
  if (!CalleeT.isField())
    return err(E.Loc, strf("cannot apply a value of type ", CalleeT.str()));
  if (E.Kids.size() != 2)
    return err(E.Loc, "a field probe takes exactly one position argument");
  Type PosT = checkExpr(*E.Kids[1]);
  if (PosT.isError())
    return Type::error();
  if (PosT != positionType(CalleeT.dim()))
    return err(E.Loc,
               strf("probe position must be ", positionType(CalleeT.dim()).str(),
                    " for a ", CalleeT.dim(), "-D field, found ", PosT.str()));
  E.Resolved = ResolvedOp::Probe;
  return Type::tensor(CalleeT.shape());
}

Type Checker::checkTensorCons(Expr &E) {
  if (E.Kids.empty())
    return err(E.Loc, "empty tensor constructor");
  Type ElemT;
  for (size_t I = 0; I < E.Kids.size(); ++I) {
    Type T = checkExpr(*E.Kids[I]);
    if (T.isError())
      return Type::error();
    if (I == 0)
      ElemT = T;
    else if (T != ElemT)
      return err(E.Kids[I]->Loc,
                 strf("tensor constructor elements must agree: ", ElemT.str(),
                      " vs ", T.str()));
  }
  if (!ElemT.isTensor())
    return err(E.Loc, strf("tensor constructor elements must be tensors, "
                           "found ",
                           ElemT.str()));
  int N = static_cast<int>(E.Kids.size());
  if (N < 2)
    return err(E.Loc, "tensor axes must have extent at least 2");
  std::vector<int> Dims = {N};
  for (int D : ElemT.shape().dims())
    Dims.push_back(D);
  return Type::tensor(Shape(std::move(Dims)));
}

Type Checker::checkSeqCons(Expr &E) {
  if (E.Kids.empty())
    return err(E.Loc, "empty sequence constructor");
  Type ElemT;
  for (size_t I = 0; I < E.Kids.size(); ++I) {
    Type T = checkExpr(*E.Kids[I]);
    if (T.isError())
      return Type::error();
    if (I == 0)
      ElemT = T;
    else if (T != ElemT)
      return err(E.Kids[I]->Loc, "sequence elements must have the same type");
  }
  if (!ElemT.isValueType())
    return err(E.Loc, "sequence elements must be concrete values");
  return Type::sequence(ElemT, static_cast<int>(E.Kids.size()));
}

Type Checker::checkIndex(Expr &E) {
  Expr &Base = *E.Kids[0];
  // identity[n] — only when `identity` is not a user variable.
  if (Base.Kind == ExprKind::Ident && Base.Name == "identity" &&
      !lookup("identity")) {
    if (E.Kids.size() != 2 || E.Kids[1]->Kind != ExprKind::IntLit)
      return err(E.Loc, "identity[n] takes one integer literal");
    int N = static_cast<int>(E.Kids[1]->IntVal);
    if (N < 2)
      return err(E.Loc, "identity[n] requires n >= 2");
    E.Resolved = ResolvedOp::IdentityCons;
    E.Kids[1]->Ty = Type::integer();
    return Type::tensor(Shape{N, N});
  }
  Type BaseT = checkExpr(Base);
  if (BaseT.isError())
    return Type::error();
  std::vector<Type> IdxT;
  for (size_t I = 1; I < E.Kids.size(); ++I) {
    IdxT.push_back(checkExpr(*E.Kids[I]));
    if (IdxT.back().isError())
      return Type::error();
    if (!IdxT.back().isInt())
      return err(E.Kids[I]->Loc, "indices must be int");
  }
  if (BaseT.isSequence()) {
    if (IdxT.size() != 1)
      return err(E.Loc, "sequences take one index");
    E.Resolved = ResolvedOp::SeqIndex;
    return BaseT.elem();
  }
  if (BaseT.isTensor()) {
    int Order = BaseT.shape().order();
    int N = static_cast<int>(IdxT.size());
    if (N > Order || N == 0)
      return err(E.Loc, strf("tensor of order ", Order, " cannot be indexed "
                             "with ",
                             N, " indices"));
    for (size_t I = 1; I < E.Kids.size(); ++I) {
      if (E.Kids[I]->Kind != ExprKind::IntLit)
        return err(E.Kids[I]->Loc,
                   "tensor indices must be integer literals (sequences "
                   "support computed indices)");
      int64_t Idx = E.Kids[I]->IntVal;
      int Extent = BaseT.shape()[static_cast<int>(I - 1)];
      if (Idx < 0 || Idx >= Extent)
        return err(E.Kids[I]->Loc, strf("index ", Idx, " out of range for "
                                        "axis of extent ",
                                        Extent));
    }
    E.Resolved = ResolvedOp::TensorIndex;
    std::vector<int> Rest;
    for (int I = N; I < Order; ++I)
      Rest.push_back(BaseT.shape()[I]);
    return Type::tensor(Shape(std::move(Rest)));
  }
  return err(E.Loc, strf("cannot index a value of type ", BaseT.str()));
}

} // namespace

bool typeCheck(Program &P, DiagnosticEngine &Diags) {
  unsigned Before = Diags.numErrors();
  Checker C(P, Diags);
  C.run();
  return Diags.numErrors() == Before;
}

} // namespace diderot
