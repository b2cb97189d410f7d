//===--- passes/scalarize.cpp - MidIR -> LowIR -------------------------------===//
//
// The final lowering step of Section 5.3: tensor and sequence values are
// exploded into scalar SSA values, tensor operations are fully unrolled
// (the paper: "the process described in this section results in code that is
// easily vectorized" — we emit straight-line scalar code and let the host
// compiler vectorize it), kernel evaluations are expanded into Horner
// evaluation of the statically-selected polynomial piece, and
// eigendecompositions become multi-result runtime operations.
//
//===----------------------------------------------------------------------===//

#include <cassert>
#include <map>

#include "kernels/kernel.h"
#include "passes/passes.h"
#include "support/strings.h"

namespace diderot::passes {

namespace {

using ir::Instr;
using ir::Op;
using ir::ValueId;

/// Number of scalar slots a value of type \p T occupies at LowIR.
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

/// The LowIR type of slot \p I of a value of type \p T.
Type slotType(const Type &T, int I) {
  switch (T.kind()) {
  case TypeKind::Tensor:
    return Type::real();
  case TypeKind::Sequence: {
    int Per = slotCount(T.elem());
    return slotType(T.elem(), I % Per);
  }
  default:
    return T;
  }
}

class Scalarize {
public:
  explicit Scalarize(ir::Function &F) : Old(F) {}

  Status run() {
    New.Name = Old.Name;
    // Parameters.
    for (int P = 0; P < Old.NumParams; ++P) {
      const Type &T = Old.typeOf(P);
      std::vector<ValueId> Slots;
      for (int I = 0; I < slotCount(T); ++I)
        Slots.push_back(New.newValue(slotType(T, I)));
      New.NumParams = New.numValues();
      Map[P] = std::move(Slots);
    }
    for (const Type &T : Old.ResultTypes)
      for (int I = 0; I < slotCount(T); ++I)
        New.ResultTypes.push_back(slotType(T, I));

    Status S = runRegion(Old.Body, New.Body);
    if (!S.isOk())
      return Status::error(strf("@", Old.Name, ": ", S.message()));
    Old = std::move(New);
    return Status::ok();
  }

private:
  ir::Function &Old;
  ir::Function New;
  std::map<ValueId, std::vector<ValueId>> Map;
  /// Source location of the Mid instruction currently being scalarized;
  /// stamped onto everything emit() produces (profiler attribution).
  SourceLoc CurLoc;

  const std::vector<ValueId> &comps(ValueId V) const { return Map.at(V); }
  ValueId one(ValueId V) const {
    const std::vector<ValueId> &C = comps(V);
    assert(C.size() == 1 && "expected a single-slot value");
    return C[0];
  }

  ValueId emit(ir::Region &R, Op O, std::vector<ValueId> Operands, Type Ty,
               ir::Attr A = std::monostate{}) {
    Instr I(O);
    I.Loc = CurLoc;
    I.Operands = std::move(Operands);
    I.A = std::move(A);
    ValueId V = New.newValue(std::move(Ty));
    I.Results.push_back(V);
    R.Body.push_back(std::move(I));
    return V;
  }

  ValueId constReal(ir::Region &R, double D) {
    return emit(R, Op::ConstReal, {}, Type::real(), D);
  }

  /// Sum a list of scalar values with an Add chain (at least one element).
  ValueId sum(ir::Region &R, const std::vector<ValueId> &Vals) {
    assert(!Vals.empty());
    ValueId Acc = Vals[0];
    for (size_t I = 1; I < Vals.size(); ++I)
      Acc = emit(R, Op::Add, {Acc, Vals[I]}, Type::real());
    return Acc;
  }

  Status runRegion(ir::Region &OldR, ir::Region &R) {
    for (Instr &I : OldR.Body) {
      Status S = lowerInstr(I, R);
      if (!S.isOk())
        return S;
    }
    return Status::ok();
  }

  Status lowerInstr(Instr &I, ir::Region &R);

  void bind(const Instr &I, std::vector<ValueId> Slots) {
    assert(I.Results.size() == 1);
    Map[I.Results[0]] = std::move(Slots);
  }
  void bind1(const Instr &I, ValueId V) {
    bind(I, std::vector<ValueId>{V});
  }
};

Status Scalarize::lowerInstr(Instr &I, ir::Region &R) {
  CurLoc = I.Loc;
  auto PassThrough = [&]() {
    Instr NI(I.Opcode);
    NI.A = I.A;
    NI.Loc = I.Loc;
    for (ValueId V : I.Operands)
      NI.Operands.push_back(one(V));
    std::vector<ValueId> Rs;
    for (ValueId OldV : I.Results) {
      ValueId NV = New.newValue(Old.typeOf(OldV));
      Rs.push_back(NV);
      Map[OldV] = {NV};
    }
    NI.Results = std::move(Rs);
    R.Body.push_back(std::move(NI));
  };

  const Type &ResTy =
      I.Results.empty() ? Type::error() : Old.typeOf(I.Results[0]);

  switch (I.Opcode) {
  //===--- constants -------------------------------------------------------===//
  case Op::ConstTensor: {
    const Tensor &T = std::get<Tensor>(I.A);
    std::vector<ValueId> Slots;
    for (int K = 0; K < T.numComponents(); ++K)
      Slots.push_back(constReal(R, T[K]));
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::ConstBool:
  case Op::ConstInt:
  case Op::ConstReal:
  case Op::ConstString:
    PassThrough();
    return Status::ok();

  case Op::GlobalGet: {
    int N = slotCount(ResTy);
    if (N == 1) {
      PassThrough();
      return Status::ok();
    }
    Instr NI(Op::GlobalGet);
    NI.A = I.A;
    std::vector<ValueId> Slots;
    for (int K = 0; K < N; ++K)
      Slots.push_back(New.newValue(slotType(ResTy, K)));
    NI.Results = Slots;
    R.Body.push_back(std::move(NI));
    bind(I, std::move(Slots));
    return Status::ok();
  }

  //===--- arithmetic ------------------------------------------------------===//
  case Op::Add:
  case Op::Sub: {
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    const std::vector<ValueId> &B = comps(I.Operands[1]);
    std::vector<ValueId> Slots;
    for (size_t K = 0; K < A.size(); ++K)
      Slots.push_back(emit(R, I.Opcode, {A[K], B[K]}, slotType(ResTy, 0)));
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::Neg: {
    std::vector<ValueId> Slots;
    for (ValueId C : comps(I.Operands[0]))
      Slots.push_back(emit(R, Op::Neg, {C}, slotType(ResTy, 0)));
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::Scale: {
    ValueId S = one(I.Operands[0]);
    std::vector<ValueId> Slots;
    for (ValueId C : comps(I.Operands[1]))
      Slots.push_back(emit(R, Op::Mul, {S, C}, Type::real()));
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::DivScale: {
    ValueId S = one(I.Operands[1]);
    std::vector<ValueId> Slots;
    for (ValueId C : comps(I.Operands[0]))
      Slots.push_back(emit(R, Op::Div, {C, S}, Type::real()));
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::Mul:
  case Op::Div:
  case Op::Mod:
  case Op::Min:
  case Op::Max:
  case Op::Pow:
  case Op::Sqrt:
  case Op::Sin:
  case Op::Cos:
  case Op::Tan:
  case Op::Asin:
  case Op::Acos:
  case Op::Atan:
  case Op::Atan2:
  case Op::Exp:
  case Op::Log:
  case Op::Floor:
  case Op::Ceil:
  case Op::Round:
  case Op::Trunc:
  case Op::Abs:
  case Op::Clamp:
  case Op::IntToReal:
  case Op::RealToInt:
  case Op::Lt:
  case Op::Le:
  case Op::Gt:
  case Op::Ge:
  case Op::Eq:
  case Op::Ne:
  case Op::And:
  case Op::Or:
  case Op::Not:
  case Op::Select:
  case Op::InsideTest:
  case Op::VoxelLoad:
  case Op::LoadImage:
  case Op::PolyEval:
    PassThrough();
    return Status::ok();

  //===--- tensor operations ----------------------------------------------===//
  case Op::Dot: {
    const Type &LT = Old.typeOf(I.Operands[0]);
    const Type &RT = Old.typeOf(I.Operands[1]);
    int K = LT.shape().last();
    int Rows = LT.shape().numComponents() / K;
    int Cols = RT.shape().numComponents() / K;
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    const std::vector<ValueId> &B = comps(I.Operands[1]);
    std::vector<ValueId> Slots;
    for (int Ri = 0; Ri < Rows; ++Ri)
      for (int Cj = 0; Cj < Cols; ++Cj) {
        std::vector<ValueId> Terms;
        for (int L = 0; L < K; ++L)
          Terms.push_back(emit(
              R, Op::Mul,
              {A[static_cast<size_t>(Ri * K + L)],
               B[static_cast<size_t>(L * Cols + Cj)]},
              Type::real()));
        Slots.push_back(sum(R, Terms));
      }
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::Cross: {
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    const std::vector<ValueId> &B = comps(I.Operands[1]);
    auto Det2 = [&](int I0, int J0, int I1, int J1) {
      ValueId P = emit(R, Op::Mul, {A[static_cast<size_t>(I0)],
                                    B[static_cast<size_t>(J0)]},
                       Type::real());
      ValueId Q = emit(R, Op::Mul, {A[static_cast<size_t>(I1)],
                                    B[static_cast<size_t>(J1)]},
                       Type::real());
      return emit(R, Op::Sub, {P, Q}, Type::real());
    };
    if (A.size() == 2) {
      bind1(I, Det2(0, 1, 1, 0));
      return Status::ok();
    }
    bind(I, {Det2(1, 2, 2, 1), Det2(2, 0, 0, 2), Det2(0, 1, 1, 0)});
    return Status::ok();
  }
  case Op::Outer: {
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    const std::vector<ValueId> &B = comps(I.Operands[1]);
    std::vector<ValueId> Slots;
    for (ValueId X : A)
      for (ValueId Y : B)
        Slots.push_back(emit(R, Op::Mul, {X, Y}, Type::real()));
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::Norm: {
    std::vector<ValueId> Sq;
    for (ValueId C : comps(I.Operands[0]))
      Sq.push_back(emit(R, Op::Mul, {C, C}, Type::real()));
    bind1(I, emit(R, Op::Sqrt, {sum(R, Sq)}, Type::real()));
    return Status::ok();
  }
  case Op::Normalize: {
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    std::vector<ValueId> Sq;
    for (ValueId C : A)
      Sq.push_back(emit(R, Op::Mul, {C, C}, Type::real()));
    ValueId N = emit(R, Op::Sqrt, {sum(R, Sq)}, Type::real());
    // Guarded normalize: a zero vector stays zero (divide by 1 instead).
    ValueId Zero = constReal(R, 0.0);
    ValueId OneV = constReal(R, 1.0);
    ValueId IsPos = emit(R, Op::Gt, {N, Zero}, Type::boolean());
    ValueId Den = emit(R, Op::Select, {IsPos, N, OneV}, Type::real());
    std::vector<ValueId> Slots;
    for (ValueId C : A)
      Slots.push_back(emit(R, Op::Div, {C, Den}, Type::real()));
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::Trace: {
    const Type &T = Old.typeOf(I.Operands[0]);
    int N = T.shape()[0];
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    std::vector<ValueId> Diag;
    for (int K = 0; K < N; ++K)
      Diag.push_back(A[static_cast<size_t>(K * N + K)]);
    bind1(I, sum(R, Diag));
    return Status::ok();
  }
  case Op::Det: {
    const Type &T = Old.typeOf(I.Operands[0]);
    int N = T.shape()[0];
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    auto At = [&](int Ri, int Ci) { return A[static_cast<size_t>(Ri * N + Ci)]; };
    auto Mul2 = [&](ValueId X, ValueId Y) {
      return emit(R, Op::Mul, {X, Y}, Type::real());
    };
    auto Minor2 = [&](int R0, int C0, int R1, int C1) {
      return emit(R, Op::Sub,
                  {Mul2(At(R0, C0), At(R1, C1)), Mul2(At(R0, C1), At(R1, C0))},
                  Type::real());
    };
    if (N == 2) {
      bind1(I, Minor2(0, 0, 1, 1));
      return Status::ok();
    }
    if (N != 3)
      return Status::error("det supports 2x2 and 3x3 matrices");
    ValueId T0 = Mul2(At(0, 0), Minor2(1, 1, 2, 2));
    ValueId T1 = Mul2(At(0, 1), Minor2(1, 0, 2, 2));
    ValueId T2 = Mul2(At(0, 2), Minor2(1, 0, 2, 1));
    ValueId D = emit(R, Op::Sub, {T0, T1}, Type::real());
    bind1(I, emit(R, Op::Add, {D, T2}, Type::real()));
    return Status::ok();
  }
  case Op::Inverse: {
    const Type &T = Old.typeOf(I.Operands[0]);
    int N = T.shape()[0];
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    auto At = [&](int Ri, int Ci) { return A[static_cast<size_t>(Ri * N + Ci)]; };
    auto Mul2 = [&](ValueId X, ValueId Y) {
      return emit(R, Op::Mul, {X, Y}, Type::real());
    };
    auto SubV = [&](ValueId X, ValueId Y) {
      return emit(R, Op::Sub, {X, Y}, Type::real());
    };
    if (N == 2) {
      ValueId D = SubV(Mul2(At(0, 0), At(1, 1)), Mul2(At(0, 1), At(1, 0)));
      ValueId NegB = emit(R, Op::Neg, {At(0, 1)}, Type::real());
      ValueId NegC = emit(R, Op::Neg, {At(1, 0)}, Type::real());
      bind(I, {emit(R, Op::Div, {At(1, 1), D}, Type::real()),
               emit(R, Op::Div, {NegB, D}, Type::real()),
               emit(R, Op::Div, {NegC, D}, Type::real()),
               emit(R, Op::Div, {At(0, 0), D}, Type::real())});
      return Status::ok();
    }
    if (N != 3)
      return Status::error("inv supports 2x2 and 3x3 matrices");
    // Adjugate / determinant.
    auto Cof = [&](int Ci, int Cj) {
      int I0 = (Ci + 1) % 3, I1 = (Ci + 2) % 3;
      int J0 = (Cj + 1) % 3, J1 = (Cj + 2) % 3;
      return SubV(Mul2(At(I0, J0), At(I1, J1)), Mul2(At(I0, J1), At(I1, J0)));
    };
    ValueId C00 = Cof(0, 0), C01 = Cof(0, 1), C02 = Cof(0, 2);
    ValueId D0 = Mul2(At(0, 0), C00);
    ValueId D1 = Mul2(At(0, 1), C01);
    ValueId D2 = Mul2(At(0, 2), C02);
    ValueId Det3 =
        emit(R, Op::Add, {emit(R, Op::Add, {D0, D1}, Type::real()), D2},
             Type::real());
    std::vector<ValueId> Slots;
    for (int Ri = 0; Ri < 3; ++Ri)
      for (int Cj = 0; Cj < 3; ++Cj)
        Slots.push_back(
            emit(R, Op::Div, {Cof(Cj, Ri), Det3}, Type::real()));
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::Transpose: {
    const Type &T = Old.typeOf(I.Operands[0]);
    int Rows = T.shape()[0], Cols = T.shape()[1];
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    std::vector<ValueId> Slots(A.size());
    for (int Ri = 0; Ri < Rows; ++Ri)
      for (int Cj = 0; Cj < Cols; ++Cj)
        Slots[static_cast<size_t>(Cj * Rows + Ri)] =
            A[static_cast<size_t>(Ri * Cols + Cj)];
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::Modulate: {
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    const std::vector<ValueId> &B = comps(I.Operands[1]);
    std::vector<ValueId> Slots;
    for (size_t K = 0; K < A.size(); ++K)
      Slots.push_back(emit(R, Op::Mul, {A[K], B[K]}, Type::real()));
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::Lerp: {
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    const std::vector<ValueId> &B = comps(I.Operands[1]);
    ValueId T = one(I.Operands[2]);
    std::vector<ValueId> Slots;
    for (size_t K = 0; K < A.size(); ++K) {
      ValueId D = emit(R, Op::Sub, {B[K], A[K]}, Type::real());
      ValueId S = emit(R, Op::Mul, {T, D}, Type::real());
      Slots.push_back(emit(R, Op::Add, {A[K], S}, Type::real()));
    }
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::TensorCons:
  case Op::SeqCons: {
    std::vector<ValueId> Slots;
    for (ValueId V : I.Operands)
      for (ValueId C : comps(V))
        Slots.push_back(C);
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::TensorIndex: {
    const Type &T = Old.typeOf(I.Operands[0]);
    const std::vector<int> &Idx = std::get<std::vector<int>>(I.A);
    int Flat = 0;
    for (size_t K = 0; K < Idx.size(); ++K)
      Flat = Flat * T.shape()[static_cast<int>(K)] + Idx[K];
    int Rest = 1;
    for (int A2 = static_cast<int>(Idx.size()); A2 < T.shape().order(); ++A2)
      Rest *= T.shape()[A2];
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    std::vector<ValueId> Slots;
    for (int K = 0; K < Rest; ++K)
      Slots.push_back(A[static_cast<size_t>(Flat * Rest + K)]);
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::SeqIndex: {
    const Type &T = Old.typeOf(I.Operands[0]);
    int Per = slotCount(T.elem());
    int N = T.seqLen();
    const std::vector<ValueId> &A = comps(I.Operands[0]);
    ValueId Idx = one(I.Operands[1]);
    std::vector<ValueId> Slots;
    for (int C = 0; C < Per; ++C) {
      ValueId Acc = A[static_cast<size_t>(C)];
      for (int K = 1; K < N; ++K) {
        ValueId KC = emit(R, Op::ConstInt, {}, Type::integer(),
                          static_cast<int64_t>(K));
        ValueId IsK = emit(R, Op::Eq, {Idx, KC}, Type::boolean());
        Acc = emit(R, Op::Select,
                   {IsK, A[static_cast<size_t>(K * Per + C)], Acc},
                   slotType(T.elem(), C));
      }
      Slots.push_back(Acc);
    }
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::Evals:
  case Op::Evecs: {
    // Eigenvectors take the eigenvalues as operands, so evals(H) and
    // evecs(H) of one matrix share a single EigenVals after value numbering
    // and the decomposition's eigenvalue half runs once.
    const Type &T = Old.typeOf(I.Operands[0]);
    int N = T.shape()[0];
    auto Eigen = [&](Op O, std::vector<ValueId> Operands, int NumRes) {
      Instr NI(O);
      NI.A = static_cast<int64_t>(N);
      NI.Operands = std::move(Operands);
      for (int K = 0; K < NumRes; ++K)
        NI.Results.push_back(New.newValue(Type::real()));
      std::vector<ValueId> Slots = NI.Results;
      R.Body.push_back(std::move(NI));
      return Slots;
    };
    std::vector<ValueId> M = comps(I.Operands[0]);
    std::vector<ValueId> L = Eigen(Op::EigenVals, M, N);
    if (I.Opcode == Op::Evals) {
      bind(I, std::move(L));
      return Status::ok();
    }
    M.insert(M.end(), L.begin(), L.end());
    bind(I, Eigen(Op::EigenVecs, std::move(M), N * N));
    return Status::ok();
  }

  //===--- image metadata --------------------------------------------------===//
  case Op::WorldToImage: {
    ValueId Img = one(I.Operands[0]);
    const std::vector<ValueId> &Pos = comps(I.Operands[1]);
    int D = static_cast<int>(Pos.size());
    std::vector<ValueId> Slots;
    for (int Ri = 0; Ri < D; ++Ri) {
      std::vector<ValueId> Terms;
      for (int C = 0; C < D; ++C) {
        ValueId Org = emit(R, Op::ImgMeta, {Img}, Type::real(),
                           ir::MetaAttr{ir::MetaAttr::Origin, C, 0});
        ValueId Rel =
            emit(R, Op::Sub, {Pos[static_cast<size_t>(C)], Org}, Type::real());
        ValueId W = emit(R, Op::ImgMeta, {Img}, Type::real(),
                         ir::MetaAttr{ir::MetaAttr::W2I, Ri, C});
        Terms.push_back(emit(R, Op::Mul, {W, Rel}, Type::real()));
      }
      Slots.push_back(sum(R, Terms));
    }
    bind(I, std::move(Slots));
    return Status::ok();
  }
  case Op::ImageGradXform: {
    ValueId Img = one(I.Operands[0]);
    int D = Old.typeOf(I.Results[0]).isReal()
                ? 1
                : Old.typeOf(I.Results[0]).shape()[0];
    std::vector<ValueId> Slots;
    for (int Ri = 0; Ri < D; ++Ri)
      for (int C = 0; C < D; ++C)
        Slots.push_back(emit(R, Op::ImgMeta, {Img}, Type::real(),
                             ir::MetaAttr{ir::MetaAttr::GradXf, Ri, C}));
    bind(I, std::move(Slots));
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
    const Polynomial &P = DK.weightPoly(KW.Tap);
    if (P.isZero()) {
      bind1(I, constReal(R, 0.0));
      return Status::ok();
    }
    bind1(I, emit(R, Op::PolyEval, {one(I.Operands[0])}, Type::real(),
                  P.coeffs()));
    return Status::ok();
  }

  //===--- control flow ----------------------------------------------------===//
  case Op::If: {
    Instr NI(Op::If);
    NI.Loc = I.Loc;
    NI.Operands.push_back(one(I.Operands[0]));
    NI.Regions.resize(2);
    Status S = runRegion(I.Regions[0], NI.Regions[0]);
    if (!S.isOk())
      return S;
    S = runRegion(I.Regions[1], NI.Regions[1]);
    if (!S.isOk())
      return S;
    std::vector<ValueId> AllSlots;
    for (ValueId OldV : I.Results) {
      const Type &T = Old.typeOf(OldV);
      std::vector<ValueId> Slots;
      for (int K = 0; K < slotCount(T); ++K) {
        ValueId NV = New.newValue(slotType(T, K));
        Slots.push_back(NV);
        AllSlots.push_back(NV);
      }
      Map[OldV] = std::move(Slots);
    }
    NI.Results = std::move(AllSlots);
    R.Body.push_back(std::move(NI));
    return Status::ok();
  }
  case Op::Yield:
  case Op::Exit: {
    Instr NI(I.Opcode);
    NI.A = I.A;
    for (ValueId V : I.Operands)
      for (ValueId C : comps(V))
        NI.Operands.push_back(C);
    R.Body.push_back(std::move(NI));
    return Status::ok();
  }

  default:
    return Status::error(
        strf("cannot scalarize op '", ir::opName(I.Opcode), "'"));
  }
}

} // namespace

Status lowerToLow(ir::Module &M) {
  assert(M.CurLevel == ir::Mid && "scalarization consumes MidIR");
  std::vector<ir::Function *> Fns = {&M.GlobalInit, &M.StrandInit, &M.Update,
                                     &M.CreateArgs};
  if (M.hasStabilize())
    Fns.push_back(&M.Stabilize);
  for (ir::Function &F : M.InputDefaults)
    Fns.push_back(&F);
  for (size_t I = 0; I < M.IterLo.size(); ++I) {
    Fns.push_back(&M.IterLo[I]);
    Fns.push_back(&M.IterHi[I]);
  }
  for (ir::Function *F : Fns) {
    Status S = Scalarize(*F).run();
    if (!S.isOk())
      return S;
  }
  M.CurLevel = ir::Low;
  std::string Err = ir::verify(M);
  if (!Err.empty())
    return Status::error(strf("after scalarization: ", Err));
  return Status::ok();
}

Status runPipeline(ir::Module &M, const PipelineOptions &Opts) {
  Status S = normalizeFields(M);
  if (!S.isOk())
    return S;
  if (Opts.EnableContract)
    contract(M);
  S = lowerToMid(M);
  if (!S.isOk())
    return S;
  if (Opts.EnableValueNumbering) {
    valueNumber(M);
    if (Opts.EnableContract)
      contract(M);
  } else if (Opts.EnableContract) {
    contract(M);
  }
  S = lowerToLow(M);
  if (!S.isOk())
    return S;
  if (Opts.EnableValueNumbering)
    valueNumber(M);
  if (Opts.EnableContract)
    contract(M);
  return Status::ok();
}

} // namespace diderot::passes
