//===--- interp/interp.cpp -------------------------------------------------===//

#include "interp/interp.h"

#include <cassert>
#include <cmath>
#include <map>
#include <optional>

#include "kernels/kernel.h"
#include "nrrd/nrrd.h"
#include "observe/profiler.h"
#include "runtime/scheduler.h"
#include "support/strings.h"
#include "tensor/eigen.h"

namespace diderot::interp {

namespace {

using ir::Instr;
using ir::Op;
using ir::ValueId;

bool vBool(const RtVal &V) { return std::get<bool>(V); }
int64_t vInt(const RtVal &V) { return std::get<int64_t>(V); }
const Tensor &vTensor(const RtVal &V) { return std::get<Tensor>(V); }
double vReal(const RtVal &V) { return std::get<Tensor>(V).asScalar(); }
const Image &vImage(const RtVal &V) {
  return *std::get<std::shared_ptr<const Image>>(V);
}

RtVal mkReal(double D) { return Tensor::scalar(D); }

/// Evaluates one function. Register file allocated per call.
///
/// When \p Prof is non-null, every profiled instruction (ir::profClassOf)
/// with a valid source location bumps the dense (line, class) counter —
/// the interpreter half of the source-level cost profiler.
class Evaluator {
public:
  Evaluator(const ir::Function &F, const std::vector<RtVal> &Globals,
            uint64_t *Prof = nullptr, int ProfMaxLine = 0)
      : F(F), Globals(Globals), Regs(static_cast<size_t>(F.numValues())),
        Prof(Prof), ProfMaxLine(ProfMaxLine) {}

  Result<CallResult> call(const std::vector<RtVal> &Args) {
    assert(static_cast<int>(Args.size()) == F.NumParams &&
           "argument count mismatch");
    for (size_t I = 0; I < Args.size(); ++I)
      Regs[I] = Args[I];
    std::optional<CallResult> Out;
    Status S = evalRegion(F.Body, nullptr, Out);
    if (!S.isOk())
      return Result<CallResult>::error(strf("@", F.Name, ": ", S.message()));
    if (!Out)
      return Result<CallResult>::error(
          strf("@", F.Name, ": function ended without Exit"));
    return std::move(*Out);
  }

private:
  const ir::Function &F;
  const std::vector<RtVal> &Globals;
  std::vector<RtVal> Regs;
  uint64_t *Prof = nullptr; ///< dense (line, class) counters, or null
  int ProfMaxLine = 0;      ///< highest line the counter table covers

  const RtVal &get(ValueId V) const { return Regs[static_cast<size_t>(V)]; }
  double real(const Instr &I, size_t K) const { return vReal(get(I.Operands[K])); }

  Status evalRegion(const ir::Region &R, const std::vector<ValueId> *IfResults,
                    std::optional<CallResult> &Out);
  Status evalInstr(const Instr &I, const std::vector<ValueId> *IfResults,
                   std::optional<CallResult> &Out);
};

Status Evaluator::evalRegion(const ir::Region &R,
                             const std::vector<ValueId> *IfResults,
                             std::optional<CallResult> &Out) {
  for (const Instr &I : R.Body) {
    Status S = evalInstr(I, IfResults, Out);
    if (!S.isOk())
      return S;
    if (Out)
      return Status::ok(); // an Exit propagates out of every region
  }
  return Status::ok();
}

Status Evaluator::evalInstr(const Instr &I,
                            const std::vector<ValueId> *IfResults,
                            std::optional<CallResult> &Out) {
  if (Prof) {
    int C = ir::profClassOf(I.Opcode);
    if (C >= 0 && I.Loc.isValid() && I.Loc.Line <= ProfMaxLine)
      ++Prof[static_cast<size_t>(I.Loc.Line) * observe::NumProfClasses +
             static_cast<size_t>(C)];
  }
  auto Set = [&](RtVal V) { Regs[static_cast<size_t>(I.Results[0])] = std::move(V); };
  const Type &ResTy =
      I.Results.empty() ? Type::error() : F.typeOf(I.Results[0]);

  switch (I.Opcode) {
  case Op::ConstBool:
    Set(std::get<bool>(I.A));
    return Status::ok();
  case Op::ConstInt:
    Set(std::get<int64_t>(I.A));
    return Status::ok();
  case Op::ConstReal:
    Set(mkReal(std::get<double>(I.A)));
    return Status::ok();
  case Op::ConstString:
    Set(std::get<std::string>(I.A));
    return Status::ok();
  case Op::ConstTensor:
    Set(std::get<Tensor>(I.A));
    return Status::ok();
  case Op::GlobalGet: {
    size_t Idx = static_cast<size_t>(std::get<int64_t>(I.A));
    assert(Idx < Globals.size());
    Set(Globals[Idx]);
    return Status::ok();
  }

  case Op::Add:
  case Op::Sub: {
    const RtVal &A = get(I.Operands[0]);
    if (std::holds_alternative<int64_t>(A)) {
      int64_t B = vInt(get(I.Operands[1]));
      Set(I.Opcode == Op::Add ? vInt(A) + B : vInt(A) - B);
    } else {
      const Tensor &TB = vTensor(get(I.Operands[1]));
      Set(I.Opcode == Op::Add ? add(vTensor(A), TB) : sub(vTensor(A), TB));
    }
    return Status::ok();
  }
  case Op::Mul: {
    const RtVal &A = get(I.Operands[0]);
    if (std::holds_alternative<int64_t>(A))
      Set(vInt(A) * vInt(get(I.Operands[1])));
    else
      Set(mkReal(vReal(A) * real(I, 1)));
    return Status::ok();
  }
  case Op::Div: {
    const RtVal &A = get(I.Operands[0]);
    if (std::holds_alternative<int64_t>(A)) {
      int64_t B = vInt(get(I.Operands[1]));
      if (B == 0)
        return Status::error("integer division by zero");
      Set(vInt(A) / B);
    } else {
      Set(mkReal(vReal(A) / real(I, 1)));
    }
    return Status::ok();
  }
  case Op::Mod: {
    int64_t B = vInt(get(I.Operands[1]));
    if (B == 0)
      return Status::error("integer modulo by zero");
    Set(vInt(get(I.Operands[0])) % B);
    return Status::ok();
  }
  case Op::Neg: {
    const RtVal &A = get(I.Operands[0]);
    if (std::holds_alternative<int64_t>(A))
      Set(-vInt(A));
    else
      Set(neg(vTensor(A)));
    return Status::ok();
  }
  case Op::Min:
  case Op::Max: {
    const RtVal &A = get(I.Operands[0]);
    bool IsMin = I.Opcode == Op::Min;
    if (std::holds_alternative<int64_t>(A)) {
      int64_t B = vInt(get(I.Operands[1]));
      Set(IsMin ? std::min(vInt(A), B) : std::max(vInt(A), B));
    } else {
      double B = real(I, 1);
      Set(mkReal(IsMin ? std::min(vReal(A), B) : std::max(vReal(A), B)));
    }
    return Status::ok();
  }
  case Op::Scale:
    Set(scale(real(I, 0), vTensor(get(I.Operands[1]))));
    return Status::ok();
  case Op::DivScale:
    Set(divide(vTensor(get(I.Operands[0])), real(I, 1)));
    return Status::ok();
  case Op::Pow:
    Set(mkReal(std::pow(real(I, 0), real(I, 1))));
    return Status::ok();

  case Op::Dot:
    Set(dot(vTensor(get(I.Operands[0])), vTensor(get(I.Operands[1]))));
    return Status::ok();
  case Op::Cross:
    Set(cross(vTensor(get(I.Operands[0])), vTensor(get(I.Operands[1]))));
    return Status::ok();
  case Op::Outer:
    Set(outer(vTensor(get(I.Operands[0])), vTensor(get(I.Operands[1]))));
    return Status::ok();
  case Op::Norm:
    Set(mkReal(norm(vTensor(get(I.Operands[0])))));
    return Status::ok();
  case Op::Normalize:
    Set(normalize(vTensor(get(I.Operands[0]))));
    return Status::ok();
  case Op::Trace:
    Set(mkReal(trace(vTensor(get(I.Operands[0])))));
    return Status::ok();
  case Op::Det:
    Set(mkReal(det(vTensor(get(I.Operands[0])))));
    return Status::ok();
  case Op::Inverse:
    Set(inverse(vTensor(get(I.Operands[0]))));
    return Status::ok();
  case Op::Transpose:
    Set(transpose(vTensor(get(I.Operands[0]))));
    return Status::ok();
  case Op::Modulate:
    Set(modulate(vTensor(get(I.Operands[0])), vTensor(get(I.Operands[1]))));
    return Status::ok();
  case Op::Lerp:
    Set(lerp(vTensor(get(I.Operands[0])), vTensor(get(I.Operands[1])),
             real(I, 2)));
    return Status::ok();
  case Op::Evals:
    Set(eigenvalues(vTensor(get(I.Operands[0]))));
    return Status::ok();
  case Op::Evecs:
    Set(eigenvectors(vTensor(get(I.Operands[0]))));
    return Status::ok();
  case Op::TensorCons: {
    Tensor T{ResTy.shape()};
    for (size_t K = 0; K < I.Operands.size(); ++K)
      T[static_cast<int>(K)] = real(I, K);
    Set(std::move(T));
    return Status::ok();
  }
  case Op::TensorIndex: {
    const Tensor &T = vTensor(get(I.Operands[0]));
    const std::vector<int> &Idx = std::get<std::vector<int>>(I.A);
    int Flat = 0;
    for (size_t K = 0; K < Idx.size(); ++K)
      Flat = Flat * T.shape()[static_cast<int>(K)] + Idx[K];
    int Rest = 1;
    for (int A = static_cast<int>(Idx.size()); A < T.shape().order(); ++A)
      Rest *= T.shape()[A];
    if (Rest == 1) {
      Set(mkReal(T[Flat]));
    } else {
      Tensor Sub{ResTy.shape()};
      for (int K = 0; K < Rest; ++K)
        Sub[K] = T[Flat * Rest + K];
      Set(std::move(Sub));
    }
    return Status::ok();
  }
  case Op::SeqCons: {
    // Sequences are represented as a flat tensor of their components for
    // interpretation purposes... except elements may be non-tensor. We store
    // sequences as a Tensor when elements are tensors, which covers the
    // language subset (sequence elements are value types; int sequences are
    // stored as reals and converted back on indexing).
    int N = static_cast<int>(I.Operands.size());
    int Per = ResTy.elem().isTensor() ? ResTy.elem().shape().numComponents()
                                      : 1;
    Tensor T{N * Per == 1 ? Shape{} : Shape{std::max(2, N * Per)}};
    // Build exactly N*Per slots; shape extent mismatch is harmless since we
    // only index through SeqIndex below, but keep it exact when possible.
    std::vector<double> Flat;
    for (const ValueId V : I.Operands) {
      const RtVal &E = get(V);
      if (std::holds_alternative<int64_t>(E))
        Flat.push_back(static_cast<double>(vInt(E)));
      else
        for (int K = 0; K < vTensor(E).numComponents(); ++K)
          Flat.push_back(vTensor(E)[K]);
    }
    if (Flat.size() == 1)
      Set(mkReal(Flat[0]));
    else
      Set(Tensor(Shape{static_cast<int>(Flat.size())}, std::move(Flat)));
    return Status::ok();
  }
  case Op::SeqIndex: {
    const Type &SeqTy = F.typeOf(I.Operands[0]);
    const Tensor &T = vTensor(get(I.Operands[0]));
    int64_t Idx = vInt(get(I.Operands[1]));
    int Per = SeqTy.elem().isTensor() ? SeqTy.elem().shape().numComponents()
                                      : 1;
    if (Idx < 0 || Idx >= SeqTy.seqLen())
      return Status::error(strf("sequence index ", Idx, " out of range"));
    if (SeqTy.elem().isInt()) {
      Set(static_cast<int64_t>(T[static_cast<int>(Idx)]));
    } else if (Per == 1) {
      Set(mkReal(T[static_cast<int>(Idx)]));
    } else {
      Tensor E{SeqTy.elem().shape()};
      for (int K = 0; K < Per; ++K)
        E[K] = T[static_cast<int>(Idx) * Per + K];
      Set(std::move(E));
    }
    return Status::ok();
  }

  case Op::Sqrt:
    Set(mkReal(std::sqrt(real(I, 0))));
    return Status::ok();
  case Op::Sin:
    Set(mkReal(std::sin(real(I, 0))));
    return Status::ok();
  case Op::Cos:
    Set(mkReal(std::cos(real(I, 0))));
    return Status::ok();
  case Op::Tan:
    Set(mkReal(std::tan(real(I, 0))));
    return Status::ok();
  case Op::Asin:
    Set(mkReal(std::asin(real(I, 0))));
    return Status::ok();
  case Op::Acos:
    Set(mkReal(std::acos(real(I, 0))));
    return Status::ok();
  case Op::Atan:
    Set(mkReal(std::atan(real(I, 0))));
    return Status::ok();
  case Op::Atan2:
    Set(mkReal(std::atan2(real(I, 0), real(I, 1))));
    return Status::ok();
  case Op::Exp:
    Set(mkReal(std::exp(real(I, 0))));
    return Status::ok();
  case Op::Log:
    Set(mkReal(std::log(real(I, 0))));
    return Status::ok();
  case Op::Floor:
    Set(mkReal(std::floor(real(I, 0))));
    return Status::ok();
  case Op::Ceil:
    Set(mkReal(std::ceil(real(I, 0))));
    return Status::ok();
  case Op::Round:
    Set(mkReal(std::round(real(I, 0))));
    return Status::ok();
  case Op::Trunc:
    Set(mkReal(std::trunc(real(I, 0))));
    return Status::ok();
  case Op::Abs: {
    const RtVal &A = get(I.Operands[0]);
    if (std::holds_alternative<int64_t>(A))
      Set(std::abs(vInt(A)));
    else
      Set(mkReal(std::abs(vReal(A))));
    return Status::ok();
  }
  case Op::Clamp:
    Set(mkReal(std::min(real(I, 2), std::max(real(I, 1), real(I, 0)))));
    return Status::ok();
  case Op::IntToReal:
    Set(mkReal(static_cast<double>(vInt(get(I.Operands[0])))));
    return Status::ok();
  case Op::RealToInt:
    Set(static_cast<int64_t>(std::floor(real(I, 0))));
    return Status::ok();

  case Op::Lt:
  case Op::Le:
  case Op::Gt:
  case Op::Ge:
  case Op::Eq:
  case Op::Ne: {
    const RtVal &A = get(I.Operands[0]);
    const RtVal &B = get(I.Operands[1]);
    auto Cmp = [&](auto X, auto Y) {
      switch (I.Opcode) {
      case Op::Lt:
        return X < Y;
      case Op::Le:
        return X <= Y;
      case Op::Gt:
        return X > Y;
      case Op::Ge:
        return X >= Y;
      case Op::Eq:
        return X == Y;
      default:
        return X != Y;
      }
    };
    if (std::holds_alternative<int64_t>(A))
      Set(Cmp(vInt(A), vInt(B)));
    else if (std::holds_alternative<bool>(A))
      Set(I.Opcode == Op::Eq ? vBool(A) == vBool(B) : vBool(A) != vBool(B));
    else if (std::holds_alternative<std::string>(A))
      Set(Cmp(std::get<std::string>(A), std::get<std::string>(B)));
    else
      Set(Cmp(vReal(A), vReal(B)));
    return Status::ok();
  }
  case Op::And:
    Set(vBool(get(I.Operands[0])) && vBool(get(I.Operands[1])));
    return Status::ok();
  case Op::Or:
    Set(vBool(get(I.Operands[0])) || vBool(get(I.Operands[1])));
    return Status::ok();
  case Op::Not:
    Set(!vBool(get(I.Operands[0])));
    return Status::ok();
  case Op::Select:
    Set(get(I.Operands[vBool(get(I.Operands[0])) ? 1 : 2]));
    return Status::ok();

  case Op::LoadImage: {
    const std::string &Path = std::get<std::string>(I.A);
    Result<Nrrd> N = nrrdRead(Path);
    if (!N.isOk())
      return Status::error(N.message());
    Result<Image> Img = Image::fromNrrd(*N, ResTy.dim(), ResTy.shape());
    if (!Img.isOk())
      return Status::error(Img.message());
    Set(std::make_shared<const Image>(Img.take()));
    return Status::ok();
  }
  case Op::WorldToImage: {
    const Image &Img = vImage(get(I.Operands[0]));
    int D = Img.dim();
    double World[3], Idx[3];
    const RtVal &Pos = get(I.Operands[1]);
    if (D == 1)
      World[0] = vReal(Pos);
    else
      for (int A = 0; A < D; ++A)
        World[A] = vTensor(Pos)[A];
    Img.worldToIndex(World, Idx);
    if (D == 1)
      Set(mkReal(Idx[0]));
    else {
      Tensor T{Shape{D}};
      for (int A = 0; A < D; ++A)
        T[A] = Idx[A];
      Set(std::move(T));
    }
    return Status::ok();
  }
  case Op::ImageGradXform: {
    const Image &Img = vImage(get(I.Operands[0]));
    int D = Img.dim();
    const std::vector<double> &Mt = Img.gradientTransform();
    if (D == 1)
      Set(mkReal(Mt[0]));
    else
      Set(Tensor(Shape{D, D}, Mt));
    return Status::ok();
  }
  case Op::InsideTest: {
    const Image &Img = vImage(get(I.Operands[0]));
    int Support = static_cast<int>(std::get<int64_t>(I.A));
    bool In = true;
    for (int A = 0; A + 1 < static_cast<int>(I.Operands.size()); ++A) {
      int64_t N = vInt(get(I.Operands[static_cast<size_t>(A + 1)]));
      if (N + 1 - Support < 0 || N + Support > Img.size(A) - 1)
        In = false;
    }
    Set(In);
    return Status::ok();
  }
  case Op::VoxelLoad: {
    const Image &Img = vImage(get(I.Operands[0]));
    const auto &VA = std::get<ir::VoxelAttr>(I.A);
    int Idx[3];
    for (size_t A = 0; A + 1 < I.Operands.size(); ++A)
      Idx[A] = static_cast<int>(vInt(get(I.Operands[A + 1]))) +
               VA.Offsets[A];
    Set(mkReal(Img.sample(Idx, VA.Comp)));
    return Status::ok();
  }
  case Op::KernelWeight: {
    const auto &KW = std::get<ir::KernelWeightAttr>(I.A);
    const Kernel *K = kernels::byName(KW.Kernel);
    if (!K)
      return Status::error(strf("unknown kernel '", KW.Kernel, "'"));
    Kernel DK = *K;
    for (int L = 0; L < KW.Deriv; ++L)
      DK = DK.derivative();
    Set(mkReal(DK.weightPoly(KW.Tap).eval(real(I, 0))));
    return Status::ok();
  }
  case Op::PolyEval: {
    const auto &Coeffs = std::get<std::vector<double>>(I.A);
    Set(mkReal(Polynomial(Coeffs).eval(real(I, 0))));
    return Status::ok();
  }

  case Op::If: {
    bool Cond = vBool(get(I.Operands[0]));
    return evalRegion(I.Regions[Cond ? 0 : 1], &I.Results, Out);
  }
  case Op::Yield: {
    assert(IfResults && "yield outside an if region");
    for (size_t K = 0; K < I.Operands.size(); ++K)
      Regs[static_cast<size_t>((*IfResults)[K])] = get(I.Operands[K]);
    return Status::ok();
  }
  case Op::Exit: {
    CallResult CR;
    CR.Kind = std::get<ir::ExitAttr>(I.A).K;
    for (ValueId V : I.Operands)
      CR.Results.push_back(get(V));
    Out = std::move(CR);
    return Status::ok();
  }

  default:
    return Status::error(strf("interpreter cannot evaluate op '",
                              ir::opName(I.Opcode), "'"));
  }
}

} // namespace

Result<CallResult> evalFunction(const ir::Function &F,
                                const std::vector<RtVal> &Args,
                                const std::vector<RtVal> &Globals) {
  Evaluator E(F, Globals);
  return E.call(Args);
}

//===----------------------------------------------------------------------===//
// Whole-program instance
//===----------------------------------------------------------------------===//

namespace {

class InterpInstance final : public rt::ProgramInstance {
public:
  explicit InterpInstance(ir::Module MIn) : M(std::move(MIn)) {
    Inputs.resize(M.Globals.size());
    for (size_t I = 0; I < M.Globals.size(); ++I)
      ByName[M.Globals[I].Name] = static_cast<int>(I);
  }

  std::vector<rt::InputDesc> inputs() const override {
    std::vector<rt::InputDesc> Out;
    for (const ir::GlobalVar &G : M.Globals)
      if (G.IsInput)
        Out.push_back({G.Name, G.Ty.str(), G.DefaultFn >= 0});
    return Out;
  }

  std::vector<rt::OutputDesc> outputs() const override {
    std::vector<rt::OutputDesc> Out;
    for (const ir::StateSlot &S : M.State)
      if (S.IsOutput)
        Out.push_back({S.Name, S.Ty.isTensor() ? S.Ty.shape() : Shape{}});
    return Out;
  }

  Status setInputReal(const std::string &Name, double V) override {
    return setVal(Name, mkReal(V), [](const Type &T) { return T.isReal(); });
  }
  Status setInputInt(const std::string &Name, int64_t V) override {
    return setVal(Name, V, [](const Type &T) { return T.isInt(); });
  }
  Status setInputBool(const std::string &Name, bool V) override {
    return setVal(Name, V, [](const Type &T) { return T.isBool(); });
  }
  Status setInputString(const std::string &Name,
                        const std::string &V) override {
    return setVal(Name, V, [](const Type &T) { return T.isString(); });
  }
  Status setInputTensor(const std::string &Name,
                        const std::vector<double> &Components) override {
    auto It = ByName.find(Name);
    if (It == ByName.end() || !M.Globals[static_cast<size_t>(It->second)].IsInput)
      return Status::error(strf("no input named '", Name, "'"));
    const Type &T = M.Globals[static_cast<size_t>(It->second)].Ty;
    if (!T.isTensor() ||
        T.shape().numComponents() != static_cast<int>(Components.size()))
      return Status::error(strf("input '", Name, "' has type ", T.str()));
    Inputs[static_cast<size_t>(It->second)] =
        Tensor(T.shape(), Components);
    return Status::ok();
  }
  Status setInputImage(const std::string &Name, const Image &Img) override {
    auto It = ByName.find(Name);
    if (It == ByName.end() || !M.Globals[static_cast<size_t>(It->second)].IsInput)
      return Status::error(strf("no input named '", Name, "'"));
    const Type &T = M.Globals[static_cast<size_t>(It->second)].Ty;
    if (!T.isImage() || T.dim() != Img.dim() || T.shape() != Img.valueShape())
      return Status::error(strf("input '", Name, "' has type ", T.str()));
    Inputs[static_cast<size_t>(It->second)] =
        std::make_shared<const Image>(Img);
    return Status::ok();
  }

  Status initialize() override;
  Result<rt::RunStats> run(const rt::RunConfig &C) override;

  observe::ProfileData profile() const override { return LastProfile; }

  // Snapshot the persistent Recorder's registry (atomic loads only): valid
  // concurrently with run(), which is what the driver's /metrics endpoint
  // relies on for live gauges.
  observe::MetricsData liveMetrics() const override {
    return Rec.metricsData();
  }

  const observe::DigestLog *digestLog() const override {
    return DLog.Entries.empty() ? nullptr : &DLog;
  }

  std::vector<int> outputDims() const override {
    if (M.IsGrid)
      return GridDims;
    return {static_cast<int>(numStable())};
  }

  Status getOutput(const std::string &Name,
                   std::vector<double> &Data) const override;

  size_t numStrands() const override { return States.size(); }
  size_t numStable() const override {
    size_t N = 0;
    for (rt::StrandStatus S : StatusVec)
      N += S == rt::StrandStatus::Stable;
    return N;
  }
  size_t numDead() const override {
    size_t N = 0;
    for (rt::StrandStatus S : StatusVec)
      N += S == rt::StrandStatus::Dead;
    return N;
  }
  size_t numFaulted() const override {
    size_t N = 0;
    for (rt::StrandStatus S : StatusVec)
      N += S == rt::StrandStatus::Faulted;
    return N;
  }

private:
  template <typename Pred>
  Status setVal(const std::string &Name, RtVal V, Pred &&P) {
    auto It = ByName.find(Name);
    if (It == ByName.end() ||
        !M.Globals[static_cast<size_t>(It->second)].IsInput)
      return Status::error(strf("no input named '", Name, "'"));
    const Type &T = M.Globals[static_cast<size_t>(It->second)].Ty;
    if (!P(T))
      return Status::error(strf("input '", Name, "' has type ", T.str()));
    Inputs[static_cast<size_t>(It->second)] = std::move(V);
    return Status::ok();
  }

  /// One canonical slot for the digest (observe/digest.h): hash it and,
  /// with the state log armed, retain its canonical bits.
  void digestSlot(double V, observe::StrandStateHasher &H) {
    H.slot(V);
    if (DLog.HasStates)
      DLog.Slots.push_back(observe::canonicalBits(V));
  }

  /// Append one digest entry over the current StatusVec and strand states.
  /// RtVals flatten in slot order — params first, then state vars, tensor
  /// components row-major, ints and bools as doubles — exactly the order
  /// the native emitter scalarizes the Strand struct, which is what makes
  /// interp and native digests bit-equal (DoublePrecision native only; a
  /// float32 native build rounds differently by design).
  void captureDigestEntry() {
    observe::StrandStateHasher H;
    for (size_t S = 0; S < States.size(); ++S) {
      uint8_t St = static_cast<uint8_t>(StatusVec[S]);
      H.status(St);
      if (DLog.HasStates)
        DLog.Status.push_back(St);
      for (const RtVal &V : States[S]) {
        if (const Tensor *T = std::get_if<Tensor>(&V))
          for (int K = 0; K < T->numComponents(); ++K)
            digestSlot((*T)[K], H);
        else if (const int64_t *I = std::get_if<int64_t>(&V))
          digestSlot(static_cast<double>(*I), H);
        else if (const bool *B = std::get_if<bool>(&V))
          digestSlot(*B ? 1.0 : 0.0, H);
        // Strings and images have no numeric slots in either engine.
      }
    }
    DLog.Entries.push_back(H.digest());
  }

  /// Canonical slot count of one strand's state (all strands identical).
  static int64_t strandSlotCount(const std::vector<RtVal> &State) {
    int64_t N = 0;
    for (const RtVal &V : State) {
      if (const Tensor *T = std::get_if<Tensor>(&V))
        N += T->numComponents();
      else if (std::holds_alternative<int64_t>(V) ||
               std::holds_alternative<bool>(V))
        ++N;
    }
    return N;
  }

  ir::Module M;
  std::map<std::string, int> ByName;
  std::vector<RtVal> Inputs;       ///< pending input values (pre-initialize)
  std::vector<RtVal> GlobalStore;  ///< all globals after initialize
  std::vector<std::vector<RtVal>> States;
  std::vector<rt::StrandStatus> StatusVec;
  std::vector<int> GridDims;
  observe::ProfileData LastProfile;
  /// Instance member (not run()-local) so liveMetrics() can scrape the
  /// registry while a run is in flight.
  observe::Recorder Rec;
  observe::DigestLog DLog; ///< digest stream of the last recorded run
  bool Initialized = false;
};

/// Count the static (line, class) instrumentation sites of a region tree —
/// the interpreter's version of the native backend's source-map table.
void addProfileSites(const ir::Region &R, observe::ProfileData &P) {
  for (const Instr &I : R.Body) {
    int C = ir::profClassOf(I.Opcode);
    if (C >= 0 && I.Loc.isValid())
      ++P.at(I.Loc.Line).Sites[static_cast<size_t>(C)];
    for (const ir::Region &Sub : I.Regions)
      addProfileSites(Sub, P);
  }
}

Status InterpInstance::initialize() {
  if (Initialized)
    return Status::error("instance already initialized");
  std::vector<RtVal> Empty;
  // Input defaults (in declaration order) for unset inputs.
  for (size_t I = 0; I < M.Globals.size(); ++I) {
    const ir::GlobalVar &G = M.Globals[I];
    if (!G.IsInput || !std::holds_alternative<std::monostate>(Inputs[I]))
      continue;
    if (G.DefaultFn < 0)
      return Status::error(strf("input '", G.Name,
                                "' has no default and was not set"));
    Result<CallResult> R = evalFunction(
        M.InputDefaults[static_cast<size_t>(G.DefaultFn)], {}, Inputs);
    if (!R.isOk())
      return Status::error(R.message());
    Inputs[I] = R->Results[0];
  }
  // Global initialization.
  std::vector<RtVal> GIArgs;
  for (size_t I = 0; I < M.Globals.size(); ++I)
    if (M.Globals[I].IsInput)
      GIArgs.push_back(Inputs[I]);
  Result<CallResult> GI = evalFunction(M.GlobalInit, GIArgs, Empty);
  if (!GI.isOk())
    return Status::error(GI.message());
  GlobalStore.resize(M.Globals.size());
  {
    size_t NonInput = 0;
    for (size_t I = 0; I < M.Globals.size(); ++I)
      GlobalStore[I] = M.Globals[I].IsInput ? Inputs[I]
                                            : GI->Results[NonInput++];
  }
  // Iterator ranges.
  std::vector<int64_t> Lo, Hi;
  for (size_t K = 0; K < M.IterLo.size(); ++K) {
    Result<CallResult> L = evalFunction(M.IterLo[K], {}, GlobalStore);
    Result<CallResult> H = evalFunction(M.IterHi[K], {}, GlobalStore);
    if (!L.isOk())
      return Status::error(L.message());
    if (!H.isOk())
      return Status::error(H.message());
    Lo.push_back(vInt(L->Results[0]));
    Hi.push_back(vInt(H->Results[0]));
    GridDims.push_back(
        static_cast<int>(std::max<int64_t>(0, Hi.back() - Lo.back() + 1)));
  }
  size_t Total = 1;
  for (int D : GridDims)
    Total *= static_cast<size_t>(D);

  // Create strands (first iterator is the slowest axis).
  States.reserve(Total);
  std::vector<int64_t> Iter(Lo.begin(), Lo.end());
  for (size_t S = 0; S < Total; ++S) {
    std::vector<RtVal> IterVals;
    for (int64_t V : Iter)
      IterVals.push_back(V);
    Result<CallResult> ArgsR = evalFunction(M.CreateArgs, IterVals, GlobalStore);
    if (!ArgsR.isOk())
      return Status::error(ArgsR.message());
    Result<CallResult> InitR =
        evalFunction(M.StrandInit, ArgsR->Results, GlobalStore);
    if (!InitR.isOk())
      return Status::error(InitR.message());
    // Full state = strand params ++ state vars.
    std::vector<RtVal> State = ArgsR->Results;
    for (RtVal &V : InitR->Results)
      State.push_back(std::move(V));
    States.push_back(std::move(State));
    // Advance the iterator (last axis fastest).
    for (size_t K = Iter.size(); K-- > 0;) {
      if (++Iter[K] <= Hi[K])
        break;
      Iter[K] = Lo[K];
    }
  }
  StatusVec.assign(Total, rt::StrandStatus::Active);
  Initialized = true;
  return Status::ok();
}

Result<rt::RunStats> InterpInstance::run(const rt::RunConfig &C) {
  if (!Initialized)
    return Result<rt::RunStats>::error("run() before initialize()");
  const int MaxSupersteps = C.MaxSupersteps;
  const int NumWorkers = C.NumWorkers;
  const bool CollectStats =
      C.CollectStats || C.CollectLifecycle || C.CollectMetrics;
  std::string FirstError;
  std::mutex ErrLock;

  observe::Profiler Prof;
  if (C.CollectProfile)
    Prof.start(NumWorkers <= 0 ? 1 : NumWorkers, ir::maxSourceLine(M));
  const bool Profiling = Prof.enabled();

  // Fault containment: with an active policy, evaluator runtime errors
  // (division by zero, out-of-range index, ...) and non-finite state are
  // trapped into StrandFault records; without one, the legacy first-error
  // path fails the whole run as before.
  rt::RunControl Ctl(C.Policy);
  rt::RunControl *CtlP = C.Policy.active() ? &Ctl : nullptr;
  const bool StrictFp = C.Policy.StrictFp;
  auto stateFinite = [](const std::vector<RtVal> &State) {
    for (const RtVal &V : State)
      if (const Tensor *T = std::get_if<Tensor>(&V))
        for (int K = 0; K < T->numComponents(); ++K)
          if (!std::isfinite((*T)[K]))
            return false;
    return true;
  };

  auto Update = [&](size_t Idx, int W) -> rt::StrandStatus {
    uint64_t *Shard = Profiling ? Prof.shard(W) : nullptr;
    Evaluator E(M.Update, GlobalStore, Shard, Prof.maxLine());
    Result<CallResult> R = E.call(States[Idx]);
    if (!R.isOk()) {
      if (CtlP) {
        CtlP->recordFault(W, static_cast<uint64_t>(Idx),
                          rt::FaultKind::Exception, R.message());
        return rt::StrandStatus::Faulted;
      }
      std::lock_guard<std::mutex> G(ErrLock);
      if (FirstError.empty())
        FirstError = R.message();
      return rt::StrandStatus::Dead;
    }
    States[Idx] = std::move(R->Results);
    rt::StrandStatus Ret = rt::StrandStatus::Dead;
    switch (R->Kind) {
    case ir::ExitAttr::Continue:
      Ret = rt::StrandStatus::Active;
      break;
    case ir::ExitAttr::Stabilize: {
      if (M.hasStabilize()) {
        Evaluator SE(M.Stabilize, GlobalStore, Shard, Prof.maxLine());
        Result<CallResult> SR = SE.call(States[Idx]);
        if (SR.isOk())
          States[Idx] = std::move(SR->Results);
      }
      Ret = rt::StrandStatus::Stable;
      break;
    }
    case ir::ExitAttr::Die:
      Ret = rt::StrandStatus::Dead;
      break;
    }
    if (StrictFp && Ret != rt::StrandStatus::Dead &&
        !stateFinite(States[Idx])) {
      CtlP->recordFault(W, static_cast<uint64_t>(Idx),
                        rt::FaultKind::NonFinite,
                        "strand state is not finite");
      return rt::StrandStatus::Faulted;
    }
    return Ret;
  };
  observe::Recorder *R = CollectStats ? &Rec : nullptr;
  Rec.start(NumWorkers <= 0 ? 0 : NumWorkers, C.CollectLifecycle,
            C.CollectMetrics);
  DLog.clear(); // stale digests must not outlive a non-digest run
  rt::StepHook Hook;
  const rt::StepHook *HookP = nullptr;
  if (C.CollectDigests || C.CollectStateLog) {
    DLog.HasStates = C.CollectStateLog;
    DLog.NumStrands = static_cast<int64_t>(States.size());
    DLog.NumSlots = States.empty() ? 0 : strandSlotCount(States[0]);
    captureDigestEntry(); // entry 0: post-initialize state
    Hook = [this](int) { captureDigestEntry(); };
    HookP = &Hook;
  }
  int Steps = rt::runParallel(StatusVec, Update, MaxSupersteps, NumWorkers,
                              C.BlockSize, R, CtlP, HookP);
  if (!FirstError.empty())
    return Result<rt::RunStats>::error(FirstError);
  if (Profiling) {
    LastProfile = Prof.take();
    addProfileSites(M.Update.Body, LastProfile);
    if (M.hasStabilize())
      addProfileSites(M.Stabilize.Body, LastProfile);
  }
  if (CtlP)
    Rec.countFault(static_cast<uint64_t>(Ctl.faultCount()));
  rt::RunStats Stats;
  if (CollectStats) {
    Stats = Rec.take(Steps, NumWorkers <= 0 ? 0 : NumWorkers);
  } else {
    Stats.Steps = Steps;
    Stats.NumWorkers = NumWorkers <= 0 ? 0 : NumWorkers;
    Stats.WallNs = Rec.nowNs();
  }
  bool Quiesced = true;
  for (rt::StrandStatus S : StatusVec)
    if (S == rt::StrandStatus::Active) {
      Quiesced = false;
      break;
    }
  if (CtlP) {
    Stats.Outcome = Ctl.finish(Quiesced);
    Stats.Faults = Ctl.takeFaults();
  } else {
    Stats.Outcome = Quiesced ? rt::RunOutcome::Converged
                             : rt::RunOutcome::StepLimit;
  }
  return Stats;
}

Status InterpInstance::getOutput(const std::string &Name,
                                 std::vector<double> &Data) const {
  int Slot = -1;
  for (size_t I = 0; I < M.State.size(); ++I)
    if (M.State[I].IsOutput && M.State[I].Name == Name)
      Slot = static_cast<int>(I);
  if (Slot < 0)
    return Status::error(strf("no output named '", Name, "'"));
  size_t StateIdx = M.StrandParams.size() + static_cast<size_t>(Slot);
  const Type &T = M.State[static_cast<size_t>(Slot)].Ty;
  int NComp = T.isTensor() ? T.shape().numComponents() : 1;

  Data.clear();
  for (size_t S = 0; S < States.size(); ++S) {
    if (M.IsGrid) {
      if (StatusVec[S] == rt::StrandStatus::Dead ||
          StatusVec[S] == rt::StrandStatus::Faulted) {
        for (int K = 0; K < NComp; ++K)
          Data.push_back(0.0);
        continue;
      }
    } else if (StatusVec[S] != rt::StrandStatus::Stable) {
      continue;
    }
    const RtVal &V = States[S][StateIdx];
    if (std::holds_alternative<int64_t>(V))
      Data.push_back(static_cast<double>(vInt(V)));
    else
      for (int K = 0; K < vTensor(V).numComponents(); ++K)
        Data.push_back(vTensor(V)[K]);
  }
  return Status::ok();
}

} // namespace

Result<std::unique_ptr<rt::ProgramInstance>> makeInstance(ir::Module M) {
  if (M.CurLevel != ir::Mid)
    return Result<std::unique_ptr<rt::ProgramInstance>>::error(
        "the interpreter engine requires a MidIR module");
  std::unique_ptr<rt::ProgramInstance> P =
      std::make_unique<InterpInstance>(std::move(M));
  return P;
}

} // namespace diderot::interp
