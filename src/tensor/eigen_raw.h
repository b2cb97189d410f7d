//===--- tensor/eigen_raw.h - raw symmetric eigensystem templates ----------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed-form symmetric 2x2/3x3 eigendecomposition on raw arrays, templated
/// over the scalar type. STL-only so generated native code (which must not
/// depend on the compiler's libraries) can include it directly; the
/// Tensor-typed wrappers live in tensor/eigen.h.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_TENSOR_EIGEN_RAW_H
#define DIDEROT_TENSOR_EIGEN_RAW_H

#include <algorithm>
#include <cmath>

namespace diderot {

/// Eigenvalues of the symmetric 2x2 matrix {{M[0],M[1]},{M[2],M[3]}},
/// descending, into L[0..1].
template <typename Real> inline void eigenvalsSym2(const Real *M, Real *L) {
  Real Mean = (M[0] + M[3]) / Real(2);
  Real Diff = (M[0] - M[3]) / Real(2);
  Real Disc = std::sqrt(Diff * Diff + M[1] * M[2]);
  L[0] = Mean + Disc;
  L[1] = Mean - Disc;
}

/// Unit eigenvectors of a symmetric 2x2 matrix for its eigenvalues L (as
/// eigenvalsSym2 returns them); V is a 2x2 row-major matrix whose row i is
/// the eigenvector for L[i].
template <typename Real>
inline void eigenvecsSym2(const Real *M, const Real *L, Real *V) {
  for (int I = 0; I < 2; ++I) {
    // (M - L I) v = 0: take the larger-magnitude row's orthogonal complement.
    Real R0[2] = {M[0] - L[I], M[1]};
    Real R1[2] = {M[2], M[3] - L[I]};
    Real N0 = R0[0] * R0[0] + R0[1] * R0[1];
    Real N1 = R1[0] * R1[0] + R1[1] * R1[1];
    Real VX, VY;
    if (N0 >= N1 && N0 > Real(0)) {
      VX = -R0[1];
      VY = R0[0];
    } else if (N1 > Real(0)) {
      VX = -R1[1];
      VY = R1[0];
    } else { // multiple of identity: any basis works
      VX = (I == 0) ? Real(1) : Real(0);
      VY = (I == 0) ? Real(0) : Real(1);
    }
    Real N = std::sqrt(VX * VX + VY * VY);
    V[2 * I + 0] = VX / N;
    V[2 * I + 1] = VY / N;
  }
}

/// Eigenvalues and unit eigenvectors of a symmetric 2x2 matrix.
template <typename Real>
inline void eigensystemSym2(const Real *M, Real *L, Real *V) {
  eigenvalsSym2(M, L);
  eigenvecsSym2(M, L, V);
}

/// Eigenvalues of a symmetric 3x3 row-major matrix M, descending, into
/// L[0..2]. Uses the trigonometric (Cardano) method, which is the approach
/// Teem's ell library takes.
template <typename Real> inline void eigenvalsSym3(const Real *M, Real *L) {
  const Real A = M[0], B = M[1], C = M[2];
  const Real D = M[4], E = M[5];
  const Real F = M[8];
  Real Q = (A + D + F) / Real(3);
  // Shifted matrix K = M - q*I; p = sqrt(tr(K^2)/6).
  Real KA = A - Q, KD = D - Q, KF = F - Q;
  Real P2 = (KA * KA + KD * KD + KF * KF + Real(2) * (B * B + C * C + E * E)) /
            Real(6);
  Real P = std::sqrt(P2);
  if (P == Real(0)) {
    L[0] = L[1] = L[2] = Q;
    return;
  }
  // det(K)/2 / p^3 = cos(3 theta)
  Real DetK = KA * (KD * KF - E * E) - B * (B * KF - E * C) +
              C * (B * E - KD * C);
  Real R = DetK / (Real(2) * P * P2);
  R = std::clamp(R, Real(-1), Real(1));
  Real Phi = std::acos(R) / Real(3);
  const Real TwoPiOver3 = Real(2.0943951023931953);
  L[0] = Q + Real(2) * P * std::cos(Phi);
  L[2] = Q + Real(2) * P * std::cos(Phi + TwoPiOver3);
  L[1] = Real(3) * Q - L[0] - L[2];
}

/// Unit-length eigenvector of symmetric 3x3 M for eigenvalue Lam, written to
/// V[0..2]. Uses cross products of rows of (M - Lam I), picking the most
/// linearly independent pair; falls back to coordinate axes for repeated
/// eigenvalues.
template <typename Real>
inline void eigenvecSym3(const Real *M, Real Lam, Real *V) {
  Real R0[3] = {M[0] - Lam, M[1], M[2]};
  Real R1[3] = {M[3], M[4] - Lam, M[5]};
  Real R2[3] = {M[6], M[7], M[8] - Lam};
  auto CrossInto = [](const Real *X, const Real *Y, Real *Out) {
    Out[0] = X[1] * Y[2] - X[2] * Y[1];
    Out[1] = X[2] * Y[0] - X[0] * Y[2];
    Out[2] = X[0] * Y[1] - X[1] * Y[0];
  };
  Real C01[3], C02[3], C12[3];
  CrossInto(R0, R1, C01);
  CrossInto(R0, R2, C02);
  CrossInto(R1, R2, C12);
  auto Sq = [](const Real *X) {
    return X[0] * X[0] + X[1] * X[1] + X[2] * X[2];
  };
  Real N01 = Sq(C01), N02 = Sq(C02), N12 = Sq(C12);
  const Real *Best = C01;
  Real BestN = N01;
  if (N02 > BestN) {
    Best = C02;
    BestN = N02;
  }
  if (N12 > BestN) {
    Best = C12;
    BestN = N12;
  }
  if (BestN <= Real(0)) {
    // (M - Lam I) has rank <= 1: pick any vector orthogonal to its image.
    // Find the largest row; if all rows vanish the matrix is Lam*I.
    const Real *Rows[3] = {R0, R1, R2};
    int BigRow = -1;
    Real BigN = Real(0);
    for (int I = 0; I < 3; ++I)
      if (Sq(Rows[I]) > BigN) {
        BigN = Sq(Rows[I]);
        BigRow = I;
      }
    if (BigRow < 0) {
      V[0] = Real(1);
      V[1] = Real(0);
      V[2] = Real(0);
      return;
    }
    // Orthogonal complement of that row: cross with the least-aligned axis.
    Real Axis[3] = {Real(0), Real(0), Real(0)};
    const Real *Rw = Rows[BigRow];
    int Min = 0;
    if (std::abs(Rw[1]) < std::abs(Rw[Min]))
      Min = 1;
    if (std::abs(Rw[2]) < std::abs(Rw[Min]))
      Min = 2;
    Axis[Min] = Real(1);
    Real Tmp[3];
    CrossInto(Rw, Axis, Tmp);
    Real N = std::sqrt(Sq(Tmp));
    V[0] = Tmp[0] / N;
    V[1] = Tmp[1] / N;
    V[2] = Tmp[2] / N;
    return;
  }
  Real N = std::sqrt(BestN);
  V[0] = Best[0] / N;
  V[1] = Best[1] / N;
  V[2] = Best[2] / N;
}

/// Unit eigenvectors of symmetric 3x3 M for its eigenvalues L (as
/// eigenvalsSym3 returns them), as rows of the row-major 3x3 matrix V.
template <typename Real>
inline void eigenvecsSym3(const Real *M, const Real *L, Real *V) {
  eigenvecSym3(M, L[0], V + 0);
  eigenvecSym3(M, L[2], V + 6);
  // Middle eigenvector: orthogonal to the other two (robust for clustered
  // eigenvalues).
  V[3] = V[7] * V[2] - V[8] * V[1];
  V[4] = V[8] * V[0] - V[6] * V[2];
  V[5] = V[6] * V[1] - V[7] * V[0];
  Real N = std::sqrt(V[3] * V[3] + V[4] * V[4] + V[5] * V[5]);
  if (N > Real(0)) {
    V[3] /= N;
    V[4] /= N;
    V[5] /= N;
  } else {
    eigenvecSym3(M, L[1], V + 3);
  }
}

/// Full symmetric 3x3 eigensystem: eigenvalues descending in L[0..2],
/// matching unit eigenvectors as rows of the row-major 3x3 matrix V.
template <typename Real>
inline void eigensystemSym3(const Real *M, Real *L, Real *V) {
  eigenvalsSym3(M, L);
  eigenvecsSym3(M, L, V);
}

} // namespace diderot

#endif // DIDEROT_TENSOR_EIGEN_RAW_H
