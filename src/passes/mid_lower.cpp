//===--- passes/mid_lower.cpp - probe expansion (HighIR -> MidIR) -----------===//
//
// Implements Section 5.3 of the paper: "code that probes a tensor field is
// translated into code that maps the world-space position to image space and
// then convolves the image values from the neighborhood of the position
// using a kernel... the partial-differentiation operators tell us where to
// use h and where to use the first derivative h' in the reconstruction."
//
// A probe of V ⊛ ∂^m h at x becomes:
//   xi   = M^{-1} x                       (WorldToImage)
//   n_a  = floor(xi_a),  f_a = xi_a - n_a  per axis
//   w[a][l][t] = h^(l)(f_a - t)           (KernelWeight per axis/level/tap)
//   for every range component c and derivative multi-index mu, the
//   separable sum contracted one axis at a time (3-D shown):
//     r0[t1][t2] = sum_t0 V[n + t][c] * w[0][cnt_0(mu)][t0]
//     r1[t2]     = sum_t1 r0[t1][t2]  * w[1][cnt_1(mu)][t1]
//     result     = sum_t2 r1[t2]      * w[2][cnt_2(mu)][t2]
//   which equals the tensor-product sum over all (2s)^d taps of
//   V[n + t][c] * prod_a w[a][cnt_a(mu)][t_a] with (2s)^d + ... + 2s
//   multiplies instead of d (2s)^d; partial sums with equal leading
//   derivative counts are identical expressions that value numbering shares.
//   covariant correction: each derivative axis is transformed to world space
//   by M^{-T} (ImageGradXform), gradients being covariant quantities.
//
// `inside(x, V ⊛ h)` becomes index-space bounds tests (InsideTest) with the
// kernel's support as the margin.
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

/// What we remember about a (dropped) Convolve instruction.
struct ConvInfo {
  ValueId Img = ir::NoValue;
  std::string Kernel;
  int Deriv = 0;
};

class MidLowering {
public:
  explicit MidLowering(ir::Function &F) : F(F) {}

  Status run() {
    Status S = runRegion(F.Body);
    if (!S.isOk())
      return Status::error(strf("@", F.Name, ": ", S.message()));
    return Status::ok();
  }

private:
  ir::Function &F;
  std::map<ValueId, ConvInfo> Convs;
  std::map<ValueId, ValueId> Replace;
  /// Source location of the instruction currently being expanded; stamped
  /// onto everything emit() produces so probe/inside expansions stay
  /// attributable to their DSL line (the profiler keys on it).
  SourceLoc CurLoc;

  ValueId mapped(ValueId V) const {
    auto It = Replace.find(V);
    return It == Replace.end() ? V : It->second;
  }

  ValueId emit(std::vector<Instr> &Out, Op O, std::vector<ValueId> Operands,
               Type Ty, ir::Attr A = std::monostate{}) {
    Instr I(O);
    I.Loc = CurLoc;
    I.Operands = std::move(Operands);
    I.A = std::move(A);
    ValueId R = F.newValue(std::move(Ty));
    I.Results.push_back(R);
    Out.push_back(std::move(I));
    return R;
  }

  /// Emit the world->index bookkeeping shared by probes and inside tests:
  /// per-axis integer base (int) and fractional position (real).
  void emitBase(std::vector<Instr> &Out, ValueId Img, ValueId Pos, int D,
                std::vector<ValueId> &BaseIdx, std::vector<ValueId> &Frac) {
    Type XiTy = D == 1 ? Type::real() : Type::vec(D);
    ValueId Xi = emit(Out, Op::WorldToImage, {Img, Pos}, XiTy);
    for (int A = 0; A < D; ++A) {
      ValueId XiA = D == 1 ? Xi
                           : emit(Out, Op::TensorIndex, {Xi}, Type::real(),
                                  std::vector<int>{A});
      ValueId Fl = emit(Out, Op::Floor, {XiA}, Type::real());
      ValueId Fr = emit(Out, Op::Sub, {XiA, Fl}, Type::real());
      ValueId N = emit(Out, Op::RealToInt, {Fl}, Type::integer());
      BaseIdx.push_back(N);
      Frac.push_back(Fr);
    }
  }

  Status expandProbe(std::vector<Instr> &Out, const Instr &ProbeI) {
    const ConvInfo &C = Convs.at(ProbeI.Operands[0]);
    ValueId Pos = mapped(ProbeI.Operands[1]);
    ValueId Img = C.Img;
    // Copy, not reference: emit() grows the value-type table, invalidating
    // references into it.
    Type ImgTy = F.typeOf(Img);
    assert(ImgTy.isImage() && "probe of a non-image convolution");
    int D = ImgTy.dim();
    Shape BaseShape = ImgTy.shape();
    int M = C.Deriv;
    const Kernel *K = kernels::byName(C.Kernel);
    if (!K)
      return Status::error(strf("unknown kernel '", C.Kernel, "'"));
    int S = K->support();

    if (M >= 2 && !BaseShape.isScalar())
      return Status::error(
          "derivatives beyond first order of tensor-valued fields are not "
          "supported");
    if (M > 2)
      return Status::error(
          "derivatives beyond second order are not supported");

    std::vector<ValueId> BaseIdx, Frac;
    emitBase(Out, Img, Pos, D, BaseIdx, Frac);

    // Kernel weights per (axis, derivative level, tap).
    int Taps = 2 * S;
    auto WIdx = [&](int A, int L, int T) {
      return (A * (M + 1) + L) * Taps + T;
    };
    std::vector<ValueId> W(static_cast<size_t>(D * (M + 1) * Taps));
    for (int A = 0; A < D; ++A)
      for (int L = 0; L <= M; ++L)
        for (int T = 0; T < Taps; ++T) {
          int Off = T + 1 - S;
          W[static_cast<size_t>(WIdx(A, L, T))] =
              emit(Out, Op::KernelWeight, {Frac[static_cast<size_t>(A)]},
                   Type::real(), ir::KernelWeightAttr{C.Kernel, L, Off});
        }

    // Convolution sums, one per (component, derivative multi-index),
    // contracted one axis at a time. The support is loaded once per
    // component, axis 0 fastest, so each run of Taps consecutive entries is
    // one row along the axis being contracted; contracting a row leaves the
    // next axis fastest. Every partial sum is emitted with the same operands
    // in the same order, so value numbering shares it across all mu with the
    // same leading per-axis derivative counts (F, ∇F and ∇⊗∇F at one
    // position share every axis-0 row of the undifferentiated weights).
    int NComp = BaseShape.numComponents();
    int NMu = 1;
    for (int I = 0; I < M; ++I)
      NMu *= D;
    std::vector<ValueId> Comps;
    Comps.reserve(static_cast<size_t>(NComp * NMu));
    int NTuples = 1;
    for (int A = 0; A < D; ++A)
      NTuples *= Taps;
    std::vector<ValueId> VoxOps = {Img};
    for (ValueId B : BaseIdx)
      VoxOps.push_back(B);
    for (int Cc = 0; Cc < NComp; ++Cc) {
      std::vector<ValueId> Support;
      Support.reserve(static_cast<size_t>(NTuples));
      for (int Tuple = 0; Tuple < NTuples; ++Tuple) {
        std::vector<int> Offsets(static_cast<size_t>(D));
        int TRem = Tuple;
        for (int A = 0; A < D; ++A) {
          Offsets[static_cast<size_t>(A)] = (TRem % Taps) + 1 - S;
          TRem /= Taps;
        }
        Support.push_back(emit(Out, Op::VoxelLoad, VoxOps, Type::real(),
                               ir::VoxelAttr{Offsets, Cc}));
      }
      for (int Mu = 0; Mu < NMu; ++Mu) {
        // Per-axis derivative counts from the multi-index.
        int Cnt[3] = {0, 0, 0};
        int Rem = Mu;
        for (int I = 0; I < M; ++I) {
          Cnt[Rem % D]++;
          Rem /= D;
        }
        // NOTE: the multi-index digits enumerate mu in "last axis fastest"
        // order; since only the per-axis counts matter for the weights, the
        // ordering convention only needs to match the TensorCons below.
        std::vector<ValueId> Part = Support;
        for (int A = 0; A < D; ++A) {
          std::vector<ValueId> Rows;
          for (size_t Row = 0; Row < Part.size(); Row += Taps) {
            ValueId Acc = ir::NoValue;
            for (int T = 0; T < Taps; ++T) {
              ValueId P = emit(Out, Op::Mul,
                               {Part[Row + static_cast<size_t>(T)],
                                W[static_cast<size_t>(WIdx(A, Cnt[A], T))]},
                               Type::real());
              Acc = Acc == ir::NoValue
                        ? P
                        : emit(Out, Op::Add, {Acc, P}, Type::real());
            }
            Rows.push_back(Acc);
          }
          Part = std::move(Rows);
        }
        Comps.push_back(Part[0]);
      }
    }

    // Assemble the index-space result tensor.
    Shape ResShape = BaseShape;
    for (int I = 0; I < M && D > 1; ++I)
      ResShape = ResShape.append(D);
    ValueId IdxRes;
    if (ResShape.isScalar())
      IdxRes = Comps[0];
    else {
      // Mu digits are "last axis fastest", matching row-major order of the
      // appended derivative axes.
      IdxRes = emit(Out, Op::TensorCons, Comps, Type::tensor(ResShape));
    }

    // Covariant correction: transform each derivative axis by M^{-T}.
    ValueId Res = IdxRes;
    if (M > 0) {
      if (D == 1) {
        // ImageGradXform of a 1-D image is the scalar 1/spacing.
        ValueId Mt = emit(Out, Op::ImageGradXform, {Img}, Type::real());
        for (int I = 0; I < M; ++I)
          Res = ResShape.isScalar()
                    ? emit(Out, Op::Mul, {Res, Mt}, Type::real())
                    : emit(Out, Op::Scale, {Mt, Res}, Type::tensor(ResShape));
      } else {
        ValueId Mt =
            emit(Out, Op::ImageGradXform, {Img}, Type::tensor(Shape{D, D}));
        ValueId MtT =
            emit(Out, Op::Transpose, {Mt}, Type::tensor(Shape{D, D}));
        // Right-multiplying by Mt^T transforms the last axis; for the
        // scalar-field Hessian the remaining (first) axis is transformed by
        // left-multiplying with Mt: H_w = M^{-T} H_i M^{-1}.
        Res = emit(Out, Op::Dot, {Res, MtT}, Type::tensor(ResShape));
        if (M == 2)
          Res = emit(Out, Op::Dot, {Mt, Res}, Type::tensor(ResShape));
      }
    }
    Replace[ProbeI.Results[0]] = Res;
    return Status::ok();
  }

  Status expandInside(std::vector<Instr> &Out, const Instr &InsideI) {
    const ConvInfo &C = Convs.at(InsideI.Operands[1]);
    ValueId Pos = mapped(InsideI.Operands[0]);
    ValueId Img = C.Img;
    int D = F.typeOf(Img).dim();
    const Kernel *K = kernels::byName(C.Kernel);
    if (!K)
      return Status::error(strf("unknown kernel '", C.Kernel, "'"));
    std::vector<ValueId> BaseIdx, Frac;
    emitBase(Out, Img, Pos, D, BaseIdx, Frac);
    std::vector<ValueId> Ops = {Img};
    for (ValueId B : BaseIdx)
      Ops.push_back(B);
    ValueId In = emit(Out, Op::InsideTest, Ops, Type::boolean(),
                      static_cast<int64_t>(K->support()));
    Replace[InsideI.Results[0]] = In;
    return Status::ok();
  }

  Status runRegion(ir::Region &R) {
    std::vector<Instr> Out;
    Out.reserve(R.Body.size());
    for (Instr &I : R.Body) {
      // Apply pending replacements to the operands first.
      for (ValueId &V : I.Operands)
        V = mapped(V);
      CurLoc = I.Loc;
      switch (I.Opcode) {
      case Op::Convolve: {
        const auto &A = std::get<ir::ConvolveAttr>(I.A);
        Convs[I.Results[0]] = {I.Operands[0], A.Kernel, A.Deriv};
        continue; // dropped
      }
      case Op::Probe: {
        Status St = expandProbe(Out, I);
        if (!St.isOk())
          return St;
        continue;
      }
      case Op::FieldInside: {
        Status St = expandInside(Out, I);
        if (!St.isOk())
          return St;
        continue;
      }
      case Op::If: {
        for (ir::Region &Sub : I.Regions) {
          Status St = runRegion(Sub);
          if (!St.isOk())
            return St;
        }
        Out.push_back(std::move(I));
        continue;
      }
      default:
        assert(!(ir::opLevels(I.Opcode) == ir::High) &&
               "unexpected High-only op after normalization");
        Out.push_back(std::move(I));
        continue;
      }
    }
    R.Body = std::move(Out);
    return Status::ok();
  }
};

} // namespace

Status lowerToMid(ir::Module &M) {
  assert(M.CurLevel == ir::High && "probe expansion consumes HighIR");
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
    Status S = MidLowering(*F).run();
    if (!S.isOk())
      return S;
  }
  M.CurLevel = ir::Mid;
  std::string Err = ir::verify(M);
  if (!Err.empty())
    return Status::error(strf("after probe expansion: ", Err));
  return Status::ok();
}

} // namespace diderot::passes
