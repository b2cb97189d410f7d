//===--- tests/probe_test.cpp - probe expansion against a direct sum --------===//
//
// Probe expansion (paper Section 5.3) checked against an independent
// reference: every probe is compiled and run on the interpreter in double
// precision and compared with a direct double-precision tensor-product sum
// over the kernel support, h^(l)(f - i) per axis, mapped to world space by
// M^{-T}. Covers tent, ctmr, bspln3 and bspln5 in 1, 2 and 3 dimensions on
// oriented images at random interior positions, for scalar fields up to
// second derivatives and vec2 fields up to first derivatives (each capped
// at the kernel's continuity, beyond which the type system rejects the
// derivative).
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "kernels/kernel.h"
#include "support/strings.h"

namespace diderot {
namespace {

/// A random image with values in [0.5, 1.5], distinct sizes per axis, and a
/// rotated, anisotropic, offset orientation.
Image randomOrientedImage(int D, int NComp, std::mt19937 &Rng) {
  static const int Sizes[3] = {13, 12, 14};
  std::vector<int> Sz(Sizes, Sizes + D);
  Image Img(D, NComp == 1 ? Shape{} : Shape{NComp}, Sz);
  std::uniform_real_distribution<double> U(0.5, 1.5);
  for (double &V : Img.data())
    V = U(Rng);
  // Column j of Dir is the world step along axis j: a rotation about z
  // (and then x in 3-D) with per-axis spacing.
  const double Sp[3] = {0.15, 0.11, 0.13};
  std::vector<double> Dir(static_cast<size_t>(D * D), 0.0);
  if (D == 1) {
    Dir[0] = -Sp[0];
  } else {
    double Cz = std::cos(0.4), Sz2 = std::sin(0.4);
    double Cx = std::cos(-0.25), Sx = std::sin(-0.25);
    double R[3][3] = {{Cz, -Sz2, 0}, {Sz2, Cz, 0}, {0, 0, 1}};
    if (D == 3) {
      double Rx[3][3] = {{1, 0, 0}, {0, Cx, -Sx}, {0, Sx, Cx}};
      double T[3][3] = {};
      for (int I = 0; I < 3; ++I)
        for (int J = 0; J < 3; ++J)
          for (int K = 0; K < 3; ++K)
            T[I][J] += Rx[I][K] * R[K][J];
      std::copy(&T[0][0], &T[0][0] + 9, &R[0][0]);
    }
    for (int I = 0; I < D; ++I)
      for (int J = 0; J < D; ++J)
        Dir[static_cast<size_t>(I * D + J)] = R[I][J] * Sp[J];
  }
  std::vector<double> Origin = {-0.7, 0.4, -0.3};
  Origin.resize(static_cast<size_t>(D));
  Img.setOrientation(Dir, Origin);
  return Img;
}

/// Direct tensor-product reconstruction of the order-\p M derivative of
/// \p Img at world position \p World: components in row-major order with
/// the derivative axes (for D > 1) appended last. \p Scale receives the
/// largest world-space sum of absolute terms, the magnitude that bounds the
/// rounding error of any summation order.
std::vector<double> referenceProbe(const Image &Img, const Kernel &K, int M,
                                   const double *World, double &Scale) {
  int D = Img.dim(), S = K.support(), Taps = 2 * S;
  double Xi[3], Fr[3];
  int N[3];
  Img.worldToIndex(World, Xi);
  for (int A = 0; A < D; ++A) {
    N[A] = static_cast<int>(std::floor(Xi[A]));
    Fr[A] = Xi[A] - N[A];
  }
  int NComp = Img.numComponents();
  int NMu = D == 1 ? 1 : (M == 0 ? 1 : (M == 1 ? D : D * D));
  int NTuples = 1;
  for (int A = 0; A < D; ++A)
    NTuples *= Taps;
  std::vector<double> Sum(static_cast<size_t>(NComp * NMu)),
      Abs(Sum.size());
  for (int C = 0; C < NComp; ++C)
    for (int Mu = 0; Mu < NMu; ++Mu) {
      int Cnt[3] = {0, 0, 0};
      if (D == 1)
        Cnt[0] = M;
      else
        for (int I = 0, Rem = Mu; I < M; ++I, Rem /= D)
          Cnt[Rem % D]++;
      double Acc = 0, AbsAcc = 0;
      for (int Tuple = 0; Tuple < NTuples; ++Tuple) {
        int Idx[3];
        double W = 1;
        for (int A = 0, Rem = Tuple; A < D; ++A, Rem /= Taps) {
          int Off = Rem % Taps + 1 - S;
          Idx[A] = N[A] + Off;
          W *= K.evalDeriv(Fr[A] - Off, Cnt[A]);
        }
        double T = Img.sample(Idx, C) * W;
        Acc += T;
        AbsAcc += std::fabs(T);
      }
      Sum[static_cast<size_t>(C * NMu + Mu)] = Acc;
      Abs[static_cast<size_t>(C * NMu + Mu)] = AbsAcc;
    }
  // Covariant correction: every derivative axis is mapped by G = M^{-T}.
  const std::vector<double> &G = Img.gradientTransform();
  auto Gat = [&](int I, int J) { return G[static_cast<size_t>(I * D + J)]; };
  std::vector<double> Out(Sum.size()), OutAbs(Sum.size());
  for (int C = 0; C < NComp; ++C) {
    const double *Si = &Sum[static_cast<size_t>(C * NMu)];
    const double *Ai = &Abs[static_cast<size_t>(C * NMu)];
    double *So = &Out[static_cast<size_t>(C * NMu)];
    double *Ao = &OutAbs[static_cast<size_t>(C * NMu)];
    if (M == 0 || D == 1) {
      double F = std::pow(std::fabs(G[0]), M), Sg = std::pow(G[0], M);
      So[0] = M == 0 ? Si[0] : Si[0] * Sg;
      Ao[0] = M == 0 ? Ai[0] : Ai[0] * F;
    } else if (M == 1) {
      for (int J = 0; J < D; ++J)
        for (int Kk = 0; Kk < D; ++Kk) {
          So[J] += Gat(J, Kk) * Si[Kk];
          Ao[J] += std::fabs(Gat(J, Kk)) * Ai[Kk];
        }
    } else {
      for (int I = 0; I < D; ++I)
        for (int J = 0; J < D; ++J)
          for (int Kk = 0; Kk < D; ++Kk)
            for (int L = 0; L < D; ++L) {
              double Gp = Gat(I, Kk) * Gat(J, L);
              So[I * D + J] += Gp * Si[Kk * D + L];
              Ao[I * D + J] += std::fabs(Gp) * Ai[Kk * D + L];
            }
    }
  }
  Scale = *std::max_element(OutAbs.begin(), OutAbs.end());
  return Out;
}

/// The Diderot type of a probe result, for the output declaration.
std::string resultType(int D, int NComp, int M) {
  std::vector<int> Dims;
  if (NComp > 1)
    Dims.push_back(NComp);
  for (int I = 0; I < M && D > 1; ++I)
    Dims.push_back(D);
  if (Dims.empty())
    return "real";
  std::string T = "tensor[";
  for (size_t I = 0; I < Dims.size(); ++I)
    T += strf(I ? "," : "", Dims[I]);
  return T + "]";
}

TEST(ProbeReference, InterpMatchesDirectTensorProductSum) {
  std::mt19937 Rng(20120611);
  int Cases = 0;
  for (const char *KName : {"tent", "ctmr", "bspln3", "bspln5"}) {
    const Kernel *K = kernels::byName(KName);
    ASSERT_NE(K, nullptr) << KName;
    for (int D = 1; D <= 3; ++D)
      for (int NComp : {1, 2})
        for (int M = 0; M <= 2; ++M) {
          if (M > K->continuity() || (NComp > 1 && M > 1))
            continue;
          SCOPED_TRACE(strf(KName, " dim ", D, " comps ", NComp, " order ",
                            M));
          std::string PosTy = D == 1 ? "real" : strf("vec", D);
          std::string Shape = NComp > 1 ? strf("[", NComp, "]") : "[]";
          // In 1-D ∇F is again a scalar field, so its derivative is ∇.
          std::string Expr = M == 0   ? "F(pos)"
                             : M == 2 ? (D == 1 ? "∇(∇F)(pos)" : "∇⊗∇F(pos)")
                             : NComp > 1 ? "∇⊗F(pos)"
                                         : "∇F(pos)";
          std::string Src = strf(
              "input image(", D, ")", Shape, " img;\ninput ", PosTy,
              " pos;\nfield#", K->continuity(), "(", D, ")", Shape,
              " F = img ⊛ ", KName, ";\nstrand S (int i) {\n  output ",
              resultType(D, NComp, M), " out = ", Expr,
              ";\n  update { stabilize; }\n}\ninitially [ S(i) | i in 0 .. 0 "
              "];\n");
          CompileOptions Opts;
          Opts.Eng = Engine::Interp;
          Opts.DoublePrecision = true;
          Result<CompiledProgram> CP = compileString(Src, Opts, "probe_ref");
          ASSERT_TRUE(CP.isOk()) << CP.message() << "\n" << Src;
          Image Img = randomOrientedImage(D, NComp, Rng);
          // Random index-space positions whose whole support is inside.
          int S = K->support();
          for (int Trial = 0; Trial < 6; ++Trial) {
            double Idx[3], World[3];
            for (int A = 0; A < D; ++A) {
              std::uniform_real_distribution<double> U(
                  S - 1 + 0.01, Img.size(A) - S - 0.01);
              Idx[A] = U(Rng);
            }
            Img.indexToWorld(Idx, World);
            Result<std::unique_ptr<rt::ProgramInstance>> I =
                CP->instantiate();
            ASSERT_TRUE(I.isOk()) << I.message();
            ASSERT_TRUE((*I)->setInputImage("img", Img).isOk());
            ASSERT_TRUE(
                (D == 1 ? (*I)->setInputReal("pos", World[0])
                        : (*I)->setInputTensor(
                              "pos", std::vector<double>(World, World + D)))
                    .isOk());
            ASSERT_TRUE((*I)->initialize().isOk());
            Result<rt::RunStats> R = (*I)->run(10, 0);
            ASSERT_TRUE(R.isOk()) << R.message();
            std::vector<double> Got;
            ASSERT_TRUE((*I)->getOutput("out", Got).isOk());
            double Scale = 0;
            std::vector<double> Want =
                referenceProbe(Img, *K, M, World, Scale);
            ASSERT_EQ(Got.size(), Want.size()) << Src;
            for (size_t C = 0; C < Want.size(); ++C)
              EXPECT_LE(std::fabs(Got[C] - Want[C]), 1e-12 * Scale)
                  << "component " << C << ": got " << Got[C] << ", want "
                  << Want[C] << "\n"
                  << Src;
          }
          ++Cases;
        }
  }
  // tent: order 0; ctmr: <= 1; bspln3/5: <= 2 (vec2 <= 1) — per dimension
  // 2 + 4 + 5 + 5.
  EXPECT_EQ(Cases, 3 * 16);
}

} // namespace
} // namespace diderot
