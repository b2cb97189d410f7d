//===--- tests/engine_test.cpp - execution engine semantics -----------------===//
//
// Differential and semantic tests of the two engines: the MidIR interpreter
// (reference semantics) and the native engine (generated C++ compiled by the
// host compiler, the paper's pipeline). Probes are validated against
// analytic fields and against the Teem-style baseline library.
//
//===----------------------------------------------------------------------===//

#include <cmath>

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "synth/synth.h"
#include "teem/probe.h"
#include "testprograms.h"

namespace diderot {
namespace {

std::unique_ptr<rt::ProgramInstance> makeInstance(const std::string &Src,
                                                  Engine Eng,
                                                  bool DoublePrec = false) {
  CompileOptions Opts;
  Opts.Eng = Eng;
  Opts.DoublePrecision = DoublePrec;
  Result<CompiledProgram> CP = compileString(Src, Opts, "test");
  EXPECT_TRUE(CP.isOk()) << CP.message();
  if (!CP.isOk())
    return nullptr;
  Result<std::unique_ptr<rt::ProgramInstance>> I = CP->instantiate();
  EXPECT_TRUE(I.isOk()) << I.message();
  if (!I.isOk())
    return nullptr;
  return I.take();
}

/// A program that probes field quantities at each strand's grid position and
/// outputs them. \p Body computes `output <ty> out = ...` from pos.
std::string probeGridProgram(const std::string &FieldDecl,
                             const std::string &OutDecl,
                             const std::string &Update, int Res = 5) {
  return strf(R"(
input image(3)[] img;
)",
              FieldDecl, R"(
input int res = )",
              Res, R"(;
strand S (int xi, int yi, int zi) {
  vec3 pos = [ -0.5 + real(xi)/real(res-1),
               -0.5 + real(yi)/real(res-1),
               -0.5 + real(zi)/real(res-1) ];
)",
              OutDecl, R"(
  update { )",
              Update, R"( stabilize; }
}
initially [ S(xi, yi, zi) | xi in 0 .. res-1, yi in 0 .. res-1,
                            zi in 0 .. res-1 ];
)");
}

//===----------------------------------------------------------------------===//
// Probe semantics vs analytic fields (interpreter engine)
//===----------------------------------------------------------------------===//

TEST(Engine, ProbeReconstructsSeparablePolynomial) {
  // f(x,y,z) = 1 + 2x - y + 0.5z + 0.25xyz: exactly reproduced by bspln3
  // (linear precision per axis, separable product).
  auto I = makeInstance(
      probeGridProgram("field#2(3)[] F = img ⊛ bspln3;",
                       "output real out = 0.0;", "out = F(pos);"),
      Engine::Interp);
  ASSERT_TRUE(I);
  ASSERT_TRUE(
      I->setInputImage("img", synth::sampledPolynomial3d(16, 1, 2, -1, 0.5,
                                                         0.25))
          .isOk());
  ASSERT_TRUE(I->initialize().isOk());
  ASSERT_TRUE(I->run(10, 1).isOk());
  std::vector<double> Out;
  ASSERT_TRUE(I->getOutput("out", Out).isOk());
  int Res = 5, K = 0;
  for (int X = 0; X < Res; ++X)
    for (int Y = 0; Y < Res; ++Y)
      for (int Z = 0; Z < Res; ++Z) {
        double PX = -0.5 + X / 4.0, PY = -0.5 + Y / 4.0, PZ = -0.5 + Z / 4.0;
        double Want = 1 + 2 * PX - PY + 0.5 * PZ + 0.25 * PX * PY * PZ;
        EXPECT_NEAR(Out[static_cast<size_t>(K++)], Want, 1e-10);
      }
}

TEST(Engine, GradientProbeMatchesAnalytic) {
  auto I = makeInstance(
      probeGridProgram("field#2(3)[] F = img ⊛ bspln3;",
                       "output vec3 out = [0.0,0.0,0.0];",
                       "out = ∇F(pos);"),
      Engine::Interp);
  ASSERT_TRUE(I);
  ASSERT_TRUE(
      I->setInputImage("img",
                       synth::sampledPolynomial3d(16, 1, 2, -1, 0.5, 0.25))
          .isOk());
  ASSERT_TRUE(I->initialize().isOk());
  ASSERT_TRUE(I->run(10, 1).isOk());
  std::vector<double> Out;
  ASSERT_TRUE(I->getOutput("out", Out).isOk());
  int Res = 5;
  size_t K = 0;
  for (int X = 0; X < Res; ++X)
    for (int Y = 0; Y < Res; ++Y)
      for (int Z = 0; Z < Res; ++Z) {
        double PX = -0.5 + X / 4.0, PY = -0.5 + Y / 4.0, PZ = -0.5 + Z / 4.0;
        EXPECT_NEAR(Out[K++], 2 + 0.25 * PY * PZ, 1e-9);
        EXPECT_NEAR(Out[K++], -1 + 0.25 * PX * PZ, 1e-9);
        EXPECT_NEAR(Out[K++], 0.5 + 0.25 * PX * PY, 1e-9);
      }
}

TEST(Engine, HessianProbeMatchesAnalytic) {
  // f = 0.25xyz: Hessian has zero diagonal and 0.25*{z,y,x} off-diagonal.
  auto I = makeInstance(
      probeGridProgram("field#2(3)[] F = img ⊛ bspln3;",
                       "output tensor[3,3] out = identity[3];",
                       "out = ∇⊗∇F(pos);"),
      Engine::Interp);
  ASSERT_TRUE(I);
  ASSERT_TRUE(I->setInputImage(
                   "img", synth::sampledPolynomial3d(16, 0, 0, 0, 0, 0.25))
                  .isOk());
  ASSERT_TRUE(I->initialize().isOk());
  ASSERT_TRUE(I->run(10, 1).isOk());
  std::vector<double> Out;
  ASSERT_TRUE(I->getOutput("out", Out).isOk());
  int Res = 5;
  size_t K = 0;
  for (int X = 0; X < Res; ++X)
    for (int Y = 0; Y < Res; ++Y)
      for (int Z = 0; Z < Res; ++Z) {
        double P[3] = {-0.5 + X / 4.0, -0.5 + Y / 4.0, -0.5 + Z / 4.0};
        double Want[9] = {0,
                          0.25 * P[2],
                          0.25 * P[1],
                          0.25 * P[2],
                          0,
                          0.25 * P[0],
                          0.25 * P[1],
                          0.25 * P[0],
                          0};
        for (int C = 0; C < 9; ++C)
          EXPECT_NEAR(Out[K++], Want[C], 1e-8);
      }
}

TEST(Engine, ProbeAgreesWithTeemBaseline) {
  // The same reconstruction through the compiler and through the Teem-style
  // library must agree to double-precision noise.
  Image Img = synth::ctHand(24);
  auto I = makeInstance(
      probeGridProgram("field#2(3)[] F = img ⊛ bspln3;",
                       "output vec3 outg = [0.0,0.0,0.0];\n"
                       "  output real outv = 0.0;",
                       "outv = F(pos); outg = ∇F(pos);"),
      Engine::Interp);
  ASSERT_TRUE(I);
  ASSERT_TRUE(I->setInputImage("img", Img).isOk());
  ASSERT_TRUE(I->initialize().isOk());
  ASSERT_TRUE(I->run(10, 1).isOk());
  std::vector<double> V, G;
  ASSERT_TRUE(I->getOutput("outv", V).isOk());
  ASSERT_TRUE(I->getOutput("outg", G).isOk());

  teem::ProbeCtx Ctx(Img);
  Ctx.setKernel(0, teem::kernelBspln3(0));
  Ctx.setKernel(1, teem::kernelBspln3(1));
  Ctx.setQuery(teem::ItemValue | teem::ItemGradient);
  Ctx.update();
  int Res = 5;
  size_t K = 0;
  for (int X = 0; X < Res; ++X)
    for (int Y = 0; Y < Res; ++Y)
      for (int Z = 0; Z < Res; ++Z) {
        double P[3] = {-0.5 + X / 4.0, -0.5 + Y / 4.0, -0.5 + Z / 4.0};
        ASSERT_TRUE(Ctx.probe(P));
        EXPECT_NEAR(V[K], Ctx.value()[0], 1e-11);
        for (int C = 0; C < 3; ++C)
          EXPECT_NEAR(G[K * 3 + static_cast<size_t>(C)], Ctx.gradient()[C],
                      1e-10);
        ++K;
      }
}

//===----------------------------------------------------------------------===//
// Native engine differential tests
//===----------------------------------------------------------------------===//

/// Run the same program+inputs on both engines, return both outputs.
void runBoth(const std::string &Src, const Image &Img,
             const std::string &OutName, std::vector<double> &A,
             std::vector<double> &B, int Workers = 1) {
  for (int Which = 0; Which < 2; ++Which) {
    auto I = makeInstance(Src, Which ? Engine::Native : Engine::Interp,
                          /*DoublePrec=*/true);
    ASSERT_TRUE(I);
    ASSERT_TRUE(I->setInputImage("img", Img).isOk());
    ASSERT_TRUE(I->initialize().isOk());
    Result<rt::RunStats> R = I->run(1000, Workers);
    ASSERT_TRUE(R.isOk()) << R.message();
    ASSERT_TRUE(I->getOutput(OutName, Which ? B : A).isOk());
  }
}

TEST(Engine, NativeMatchesInterpOnCurvatureProbes) {
  // Gradient + Hessian + tensor algebra, double precision: bitwise-close.
  std::string Src = probeGridProgram(
      "field#2(3)[] F = img ⊛ bspln3;",
      "output real out = 0.0;",
      R"(vec3 grad = ∇F(pos);
      tensor[3,3] H = ∇⊗∇F(pos);
      vec3 n = normalize(grad);
      tensor[3,3] P = identity[3] - n⊗n;
      tensor[3,3] G = (P•H•P)/(|grad| + 0.001);
      out = sqrt(max(0.0, 2.0*|G|^2 - trace(G)^2));)");
  std::vector<double> A, B;
  runBoth(Src, synth::ctHand(20), "out", A, B);
  ASSERT_EQ(A.size(), B.size());
  for (size_t K = 0; K < A.size(); ++K)
    EXPECT_NEAR(A[K], B[K], 1e-9) << "strand " << K;
}

TEST(Engine, NativeMatchesInterpOnEigensystems) {
  // Eigenvalues alone, eigenvectors that reuse the eigenvalues of the same
  // matrix, and the 2x2 routines on the Hessian's leading block.
  for (const char *Update : {
           "out = evals(H);",
           "out = evals(H)[1]*evecs(H)[1] + evecs(H)[2];",
           R"(tensor[2,2] h = [[H[0,0], H[0,1]], [H[1,0], H[1,1]]];
           out = [evals(h)[0], evecs(h)[1][0], evecs(h)[1][1]];)"}) {
    SCOPED_TRACE(Update);
    std::string Src = probeGridProgram(
        "field#2(3)[] F = img ⊛ bspln3;",
        "output vec3 out = [0.0,0.0,0.0];",
        strf("tensor[3,3] H = ∇⊗∇F(pos);\n      ", Update));
    std::vector<double> A, B;
    runBoth(Src, synth::lungVessels(20), "out", A, B);
    ASSERT_EQ(A.size(), B.size());
    for (size_t K = 0; K < A.size(); ++K)
      EXPECT_NEAR(A[K], B[K], 1e-8);
  }
}

TEST(Engine, ParallelExecutionIsDeterministic) {
  // Strands are independent; any worker count must give identical results.
  std::string Src = probeGridProgram(
      "field#2(3)[] F = img ⊛ bspln3;", "output real out = 0.0;",
      "out = F(pos) + |∇F(pos)|;", /*Res=*/9);
  Image Img = synth::ctHand(20);
  std::vector<double> Ref;
  for (int Workers : {1, 2, 4, 8}) {
    auto I = makeInstance(Src, Engine::Interp);
    ASSERT_TRUE(I);
    ASSERT_TRUE(I->setInputImage("img", Img).isOk());
    ASSERT_TRUE(I->initialize().isOk());
    ASSERT_TRUE(I->run(10, Workers).isOk());
    std::vector<double> Out;
    ASSERT_TRUE(I->getOutput("out", Out).isOk());
    if (Workers == 1)
      Ref = Out;
    else
      EXPECT_EQ(Out, Ref) << "workers=" << Workers;
  }
}

TEST(Engine, NativeParallelMatchesSequential) {
  std::string Src = probeGridProgram(
      "field#2(3)[] F = img ⊛ bspln3;", "output real out = 0.0;",
      "out = F(pos);", /*Res=*/9);
  Image Img = synth::ctHand(16);
  std::vector<double> Ref;
  for (int Workers : {1, 4}) {
    auto I = makeInstance(Src, Engine::Native);
    ASSERT_TRUE(I);
    ASSERT_TRUE(I->setInputImage("img", Img).isOk());
    ASSERT_TRUE(I->initialize().isOk());
    ASSERT_TRUE(I->run(10, Workers).isOk());
    std::vector<double> Out;
    ASSERT_TRUE(I->getOutput("out", Out).isOk());
    if (Workers == 1)
      Ref = Out;
    else
      EXPECT_EQ(Out, Ref);
  }
  // Small-block scheduling must agree as well.
  auto I = makeInstance(Src, Engine::Native);
  ASSERT_TRUE(I);
  ASSERT_TRUE(I->setInputImage("img", Img).isOk());
  ASSERT_TRUE(I->initialize().isOk());
  ASSERT_TRUE(I->run(10, 3, /*BlockSize=*/16).isOk());
  std::vector<double> Out;
  ASSERT_TRUE(I->getOutput("out", Out).isOk());
  EXPECT_EQ(Out, Ref);
}

//===----------------------------------------------------------------------===//
// Strand lifecycle semantics
//===----------------------------------------------------------------------===//

const char *LifecycleSrc = R"(
strand S (int i) {
  output real x = real(i);
  int age = 0;
  update {
    age += 1;
    if (i == 0) die;
    if (age >= i) stabilize;
    x = x + 1.0;
  }
}
initially { S(i) | i in 0 .. 4 };
)";

TEST(Engine, CollectionOutputSkipsDeadStrands) {
  for (Engine E : {Engine::Interp, Engine::Native}) {
    auto I = makeInstance(LifecycleSrc, E);
    ASSERT_TRUE(I);
    ASSERT_TRUE(I->initialize().isOk());
    ASSERT_TRUE(I->run(100, 1).isOk());
    EXPECT_EQ(I->numStrands(), 5u);
    EXPECT_EQ(I->numDead(), 1u);
    EXPECT_EQ(I->numStable(), 4u);
    std::vector<double> X;
    ASSERT_TRUE(I->getOutput("x", X).isOk());
    // Strand i stabilizes after i updates, having incremented x (i-1) times
    // (the stabilize superstep does not run the tail assignment? It does:
    // assignment precedes the next update; in update age>=i stabilizes
    // before x+=1). Strand 1: age 1 >= 1 -> stabilize with x=1.
    ASSERT_EQ(X.size(), 4u);
    EXPECT_DOUBLE_EQ(X[0], 1.0);
    EXPECT_DOUBLE_EQ(X[1], 3.0);
    EXPECT_DOUBLE_EQ(X[2], 5.0);
    EXPECT_DOUBLE_EQ(X[3], 7.0);
  }
}

TEST(Engine, StabilizeMethodRunsOnStabilize) {
  const char *Src = R"(
strand S (int i) {
  output real x = 0.0;
  update { x = 1.0; stabilize; }
  stabilize { x = 42.0; }
}
initially [ S(i) | i in 0 .. 2 ];
)";
  for (Engine E : {Engine::Interp, Engine::Native}) {
    auto I = makeInstance(Src, E);
    ASSERT_TRUE(I);
    ASSERT_TRUE(I->initialize().isOk());
    ASSERT_TRUE(I->run(10, 1).isOk());
    std::vector<double> X;
    ASSERT_TRUE(I->getOutput("x", X).isOk());
    for (double V : X)
      EXPECT_DOUBLE_EQ(V, 42.0);
  }
}

TEST(Engine, GridOutputDims) {
  const char *Src = R"(
strand S (int r, int c) {
  output real x = real(r*10 + c);
  update { stabilize; }
}
initially [ S(r, c) | r in 0 .. 2, c in 0 .. 3 ];
)";
  auto I = makeInstance(Src, Engine::Interp);
  ASSERT_TRUE(I);
  ASSERT_TRUE(I->initialize().isOk());
  ASSERT_TRUE(I->run(10, 1).isOk());
  EXPECT_EQ(I->outputDims(), (std::vector<int>{3, 4}));
  std::vector<double> X;
  ASSERT_TRUE(I->getOutput("x", X).isOk());
  ASSERT_EQ(X.size(), 12u);
  // First iterator is the slow axis; last iterator is fastest.
  EXPECT_DOUBLE_EQ(X[0], 0.0);
  EXPECT_DOUBLE_EQ(X[1], 1.0);
  EXPECT_DOUBLE_EQ(X[4], 10.0);
  EXPECT_DOUBLE_EQ(X[11], 23.0);
}

TEST(Engine, InputsDefaultsAndErrors) {
  const char *Src = R"(
input real a = 2.5;
input int n;
strand S (int i) {
  output real x = a * real(n);
  update { stabilize; }
}
initially [ S(i) | i in 0 .. 0 ];
)";
  auto I = makeInstance(Src, Engine::Interp);
  ASSERT_TRUE(I);
  // n has no default: initialize must fail until it is set.
  EXPECT_FALSE(I->initialize().isOk());
  auto I2 = makeInstance(Src, Engine::Interp);
  ASSERT_TRUE(I2);
  ASSERT_TRUE(I2->setInputInt("n", 4).isOk());
  ASSERT_TRUE(I2->initialize().isOk());
  ASSERT_TRUE(I2->run(10, 1).isOk());
  std::vector<double> X;
  ASSERT_TRUE(I2->getOutput("x", X).isOk());
  EXPECT_DOUBLE_EQ(X[0], 10.0); // default a=2.5 * n=4
  // Type errors on inputs are rejected.
  auto I3 = makeInstance(Src, Engine::Interp);
  EXPECT_FALSE(I3->setInputReal("n", 1.5).isOk());
  EXPECT_FALSE(I3->setInputReal("nothere", 1.0).isOk());
}

TEST(Engine, MaxSuperstepsBoundsRunaway) {
  const char *Src = R"(
strand S (int i) {
  output real x = 0.0;
  update { x += 1.0; }
}
initially [ S(i) | i in 0 .. 3 ];
)";
  auto I = makeInstance(Src, Engine::Interp);
  ASSERT_TRUE(I);
  ASSERT_TRUE(I->initialize().isOk());
  Result<rt::RunStats> Steps = I->run(7, 1);
  ASSERT_TRUE(Steps.isOk());
  EXPECT_EQ(Steps->Steps, 7);
  std::vector<double> X;
  ASSERT_TRUE(I->getOutput("x", X).isOk());
  EXPECT_DOUBLE_EQ(X[0], 7.0);
}

TEST(Engine, SinglePrecisionIsClose) {
  std::string Src = probeGridProgram("field#2(3)[] F = img ⊛ bspln3;",
                                     "output real out = 0.0;",
                                     "out = F(pos);");
  Image Img = synth::ctHand(16);
  std::vector<double> A, B;
  for (int DoubleP = 0; DoubleP < 2; ++DoubleP) {
    auto I = makeInstance(Src, Engine::Native, DoubleP != 0);
    ASSERT_TRUE(I);
    ASSERT_TRUE(I->setInputImage("img", Img).isOk());
    ASSERT_TRUE(I->initialize().isOk());
    ASSERT_TRUE(I->run(10, 1).isOk());
    ASSERT_TRUE(I->getOutput("out", DoubleP ? B : A).isOk());
  }
  for (size_t K = 0; K < A.size(); ++K)
    EXPECT_NEAR(A[K], B[K], 1e-4);
}

} // namespace
} // namespace diderot
