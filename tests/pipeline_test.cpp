//===--- tests/pipeline_test.cpp - compiler pass pipeline tests --------------===//
//
// Exercises the paper's compilation pipeline stage by stage: field
// normalization (Section 5.2), probe expansion (5.3), and the
// domain-specific effects of contraction and value numbering (5.4).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "frontend/parser.h"
#include "frontend/typecheck.h"
#include "passes/passes.h"
#include "simple/lower.h"
#include "ir/builder.h"
#include "testprograms.h"

namespace diderot {
namespace {

ir::Module toHigh(const std::string &Src) {
  DiagnosticEngine D;
  Parser P(Src, D);
  auto Prog = P.parseProgram();
  EXPECT_FALSE(D.hasErrors()) << D.str();
  EXPECT_TRUE(typeCheck(*Prog, D)) << D.str();
  Result<ir::Module> M = lowerToHighIR(*Prog, D);
  EXPECT_TRUE(M.isOk()) << M.message();
  return M.take();
}

/// Wrap update statements in a minimal field-using program.
std::string probeProgram(const std::string &GlobalsSrc,
                         const std::string &Update) {
  return strf(R"(
input image(3)[] img;
)",
              GlobalsSrc, R"(
strand S (int i) {
  output real out = 0.0;
  update { )",
              Update, R"( stabilize; }
}
initially [ S(i) | i in 0 .. 3 ];
)");
}

//===----------------------------------------------------------------------===//
// HighIR structure
//===----------------------------------------------------------------------===//

TEST(Pipeline, HighIrHasFieldOps) {
  ir::Module M = toHigh(probeProgram("field#2(3)[] F = img ⊛ bspln3;\n",
                                     "out = F([0.1,0.2,0.3]);"));
  EXPECT_EQ(M.CurLevel, unsigned(ir::High));
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Probe), 1);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Convolve), 1);
}

TEST(Pipeline, FieldGlobalsAreInlinedNotStored) {
  ir::Module M = toHigh(probeProgram("field#2(3)[] F = img ⊛ bspln3;\n",
                                     "out = F([0.1,0.2,0.3]);"));
  // Only the image survives as a module global; the field was inlined.
  ASSERT_EQ(M.Globals.size(), 1u);
  EXPECT_EQ(M.Globals[0].Name, "img");
}

TEST(Pipeline, NestedLoadIsHoistedToImageGlobal) {
  ir::Module M = toHigh(R"(
field#1(2)[] f = ctmr ⊛ load("x.nrrd");
strand S (int i) {
  output real out = 0.0;
  update { out = f([0.1,0.2]); stabilize; }
}
initially [ S(i) | i in 0 .. 3 ];
)");
  ASSERT_EQ(M.Globals.size(), 1u);
  EXPECT_EQ(M.Globals[0].Name, "$img0");
  EXPECT_TRUE(M.Globals[0].Ty.isImage());
  // The load happens once, in global init.
  EXPECT_EQ(ir::countOps(M.GlobalInit, ir::Op::LoadImage), 1);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::LoadImage), 0);
}

//===----------------------------------------------------------------------===//
// Normalization (Figure 10)
//===----------------------------------------------------------------------===//

/// After normalization no field-arithmetic or differentiation ops remain and
/// every probe's operand is a direct convolution.
void expectNormalized(const ir::Function &F) {
  EXPECT_EQ(ir::countOps(F, ir::Op::FieldAdd), 0);
  EXPECT_EQ(ir::countOps(F, ir::Op::FieldSub), 0);
  EXPECT_EQ(ir::countOps(F, ir::Op::FieldNeg), 0);
  EXPECT_EQ(ir::countOps(F, ir::Op::FieldScale), 0);
  EXPECT_EQ(ir::countOps(F, ir::Op::FieldDivScale), 0);
  EXPECT_EQ(ir::countOps(F, ir::Op::FieldDiff), 0);
}

TEST(Pipeline, NormalizePushesDiffToKernel) {
  ir::Module M = toHigh(probeProgram("field#2(3)[] F = img ⊛ bspln3;\n",
                                     "out = |∇F([0.1,0.2,0.3])|;"));
  ASSERT_TRUE(passes::normalizeFields(M).isOk());
  expectNormalized(M.Update);
  // The gradient probe's convolution carries one derivative level.
  std::string S = ir::print(M.Update);
  EXPECT_NE(S.find("field.convolve[bspln3']"), std::string::npos) << S;
}

TEST(Pipeline, NormalizeHessianGetsTwoDerivLevels) {
  ir::Module M = toHigh(probeProgram(
      "field#2(3)[] F = img ⊛ bspln3;\n",
      "tensor[3,3] H = ∇⊗∇F([0.1,0.2,0.3]); out = trace(H);"));
  ASSERT_TRUE(passes::normalizeFields(M).isOk());
  std::string S = ir::print(M.Update);
  EXPECT_NE(S.find("field.convolve[bspln3'']"), std::string::npos) << S;
}

TEST(Pipeline, NormalizeDistributesFieldArithmetic) {
  // (F + G)(x) => F(x) + G(x): two probes, an Add, no field arithmetic.
  ir::Module M = toHigh(probeProgram(
      R"(
input image(3)[] img2;
field#2(3)[] F = img ⊛ bspln3;
field#2(3)[] G = img2 ⊛ bspln3;
field#2(3)[] Sum = F + G;
)",
      "out = Sum([0.1,0.2,0.3]);"));
  ASSERT_TRUE(passes::normalizeFields(M).isOk());
  expectNormalized(M.Update);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Probe), 2);
  EXPECT_GE(ir::countOps(M.Update, ir::Op::Add), 1);
}

TEST(Pipeline, NormalizeScaleBecomesTensorScale) {
  // (e * F)(x) => e * F(x) — the paper's second probe rule.
  ir::Module M = toHigh(probeProgram(
      "input real s = 2.0;\nfield#2(3)[] F = img ⊛ bspln3;\n"
      "field#2(3)[] G = s * F;\n",
      "out = G([0.1,0.2,0.3]);"));
  ASSERT_TRUE(passes::normalizeFields(M).isOk());
  expectNormalized(M.Update);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Probe), 1);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Mul), 1);
}

TEST(Pipeline, NormalizeDiffOfSumDistributes) {
  // ∇(F + G) => ∇F + ∇G (with the diff pushed into both kernels).
  ir::Module M = toHigh(probeProgram(
      R"(
input image(3)[] img2;
field#2(3)[] F = img ⊛ bspln3;
field#1(3)[] G = img2 ⊛ ctmr;
field#1(3)[] Sum = F + G;
)",
      "out = |∇Sum([0.1,0.2,0.3])|;"));
  ASSERT_TRUE(passes::normalizeFields(M).isOk());
  expectNormalized(M.Update);
  std::string S = ir::print(M.Update);
  EXPECT_NE(S.find("bspln3'"), std::string::npos);
  EXPECT_NE(S.find("ctmr'"), std::string::npos);
}

TEST(Pipeline, InsideOfSumChecksBothDomains) {
  ir::Module M = toHigh(probeProgram(
      R"(
input image(3)[] img2;
field#2(3)[] F = img ⊛ bspln3;
field#2(3)[] G = img2 ⊛ bspln3;
field#2(3)[] Sum = F + G;
)",
      "if (inside([0.1,0.2,0.3], Sum)) { out = 1.0; }"));
  ASSERT_TRUE(passes::normalizeFields(M).isOk());
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::FieldInside), 2);
  EXPECT_GE(ir::countOps(M.Update, ir::Op::And), 1);
}

TEST(Pipeline, PaperProgramsNormalize) {
  for (const char *Src : {testprog::VrLite, testprog::Lic2d,
                          testprog::Isocontour, testprog::Curvature}) {
    // These programs load() files; we only check the compile stages here.
    ir::Module M = toHigh(Src);
    Status S = passes::normalizeFields(M);
    EXPECT_TRUE(S.isOk()) << S.message();
    expectNormalized(M.Update);
    expectNormalized(M.StrandInit);
  }
}

//===----------------------------------------------------------------------===//
// Probe expansion (MidIR)
//===----------------------------------------------------------------------===//

ir::Module toMid(const std::string &Src, bool Optimize = false) {
  ir::Module M = toHigh(Src);
  EXPECT_TRUE(passes::normalizeFields(M).isOk());
  if (Optimize)
    passes::contract(M);
  EXPECT_TRUE(passes::lowerToMid(M).isOk());
  if (Optimize) {
    passes::valueNumber(M);
    passes::contract(M);
  }
  return M;
}

TEST(Pipeline, MidHasNoFieldOps) {
  ir::Module M = toMid(probeProgram("field#2(3)[] F = img ⊛ bspln3;\n",
                                    "out = F([0.1,0.2,0.3]);"));
  EXPECT_EQ(M.CurLevel, unsigned(ir::Mid));
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Probe), 0);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Convolve), 0);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::WorldToImage), 1);
  // bspln3 support 2 => 4 taps/axis, 3 axes => 64 voxel loads.
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::VoxelLoad), 64);
  // 4 taps * 3 axes at one derivative level.
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::KernelWeight), 12);
}

TEST(Pipeline, GradientProbeTransformsToWorldSpace) {
  ir::Module M = toMid(probeProgram("field#2(3)[] F = img ⊛ bspln3;\n",
                                    "out = |∇F([0.1,0.2,0.3])|;"));
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::ImageGradXform), 1);
  // Two derivative levels (h, h') per axis: 24 kernel weights.
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::KernelWeight), 24);
  // The support is loaded once and contracted for each of the three
  // gradient components.
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::VoxelLoad), 64);
}

TEST(Pipeline, InsideBecomesBoundsTests) {
  ir::Module M = toMid(probeProgram(
      "field#2(3)[] F = img ⊛ bspln3;\n",
      "if (inside([0.1,0.2,0.3], F)) { out = 1.0; }"));
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::FieldInside), 0);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::InsideTest), 1);
}

//===----------------------------------------------------------------------===//
// Domain-specific optimization effects (Section 5.4)
//===----------------------------------------------------------------------===//

TEST(Pipeline, ValueNumberingSharesConvolutionsOfValueAndGradient) {
  // "if a program probes both a field F and the gradient field ∇F at the
  // same position, there are redundant convolution computations that can be
  // detected and eliminated."
  std::string Src = probeProgram(
      "field#2(3)[] F = img ⊛ bspln3;\n",
      "vec3 p = [0.1,0.2,0.3]; out = F(p) + |∇F(p)|;");
  ir::Module Plain = toMid(Src, /*Optimize=*/false);
  ir::Module Opt = toMid(Src, /*Optimize=*/true);
  // Unoptimized: the F probe and the gradient probe each load the 64-voxel
  // support once.
  EXPECT_EQ(ir::countOps(Plain.Update, ir::Op::VoxelLoad), 128);
  // The loads are shared after VN: 64 unique loads remain.
  EXPECT_EQ(ir::countOps(Opt.Update, ir::Op::VoxelLoad), 64);
  // Weight evaluations shared too: h and h' per axis = 24 unique.
  EXPECT_EQ(ir::countOps(Opt.Update, ir::Op::KernelWeight), 24);
  // And only one world-to-image transform.
  EXPECT_EQ(ir::countOps(Opt.Update, ir::Op::WorldToImage), 1);
}

TEST(Pipeline, ValueNumberingExploitsHessianSymmetry) {
  // "Another example is the symmetry of the Hessian, which is also detected
  // by our value-numbering pass": H[i][j] and H[j][i] have identical
  // convolution sums, so only 6 of the 9 component sums survive.
  std::string Src = probeProgram(
      "field#2(3)[] F = img ⊛ bspln3;\n",
      "tensor[3,3] H = ∇⊗∇F([0.1,0.2,0.3]); out = |H|;");
  ir::Module Plain = toMid(Src, false);
  ir::Module Opt = toMid(Src, true);
  int PlainAdds = ir::countOps(Plain.Update, ir::Op::Add);
  int OptAdds = ir::countOps(Opt.Update, ir::Op::Add);
  // 9 component sums of 64 taps each shrink to 6.
  EXPECT_GT(PlainAdds, OptAdds);
  EXPECT_LE(OptAdds * 3, PlainAdds * 2 + 64) << "expected ~6/9 of the sums";
  EXPECT_EQ(ir::countOps(Opt.Update, ir::Op::VoxelLoad), 64);
}

TEST(Pipeline, SeparableContractionSharesRowSumsOfValueAndGradient) {
  // Each probe sum is contracted one axis at a time: per mu, 16 axis-0 rows
  // of 4 taps, 4 axis-1 rows, one axis-2 row = 84 Mul + 63 Add. Plain F+∇F
  // is 4 such sums. After VN the axis-0 rows exist once per derivative
  // level of axis 0 (h, h': 2 x 16 rows), the axis-1 rows once per
  // (cnt_0, cnt_1) in {(0,0), (1,0), (0,1)}, and the 4 axis-2 sums are
  // distinct: 128 + 48 + 16 = 192 Mul, 96 + 36 + 12 = 144 Add (the
  // tensor-product form needed 576 Mul + 252 Add after VN).
  std::string Src = probeProgram(
      "field#2(3)[] F = img ⊛ bspln3;\n",
      "vec3 p = [0.1,0.2,0.3]; out = F(p) + |∇F(p)|;");
  ir::Module Plain = toMid(Src, /*Optimize=*/false);
  ir::Module Opt = toMid(Src, /*Optimize=*/true);
  EXPECT_EQ(ir::countOps(Plain.Update, ir::Op::Mul), 4 * 84);
  EXPECT_EQ(ir::countOps(Plain.Update, ir::Op::Add), 4 * 63 + 1);
  EXPECT_EQ(ir::countOps(Opt.Update, ir::Op::Mul), 192);
  EXPECT_EQ(ir::countOps(Opt.Update, ir::Op::Add), 144 + 1);
}

TEST(Pipeline, SeparableContractionSharesHessianPartialSums) {
  // ∇⊗∇F: 9 sums of 84 Mul + 63 Add before VN. After VN the axis-0 rows
  // exist once per cnt_0 in {0,1,2} (3 x 16 rows), the axis-1 rows once per
  // (cnt_0, cnt_1) with cnt_0 + cnt_1 <= 2 (6 x 4 rows), and the symmetric
  // H[i][j] = H[j][i] leave 6 axis-2 sums: 192 + 96 + 24 = 312 Mul,
  // 144 + 72 + 18 = 234 Add (tensor-product form: 960 Mul + 378 Add).
  std::string Src = probeProgram(
      "field#2(3)[] F = img ⊛ bspln3;\n",
      "tensor[3,3] H = ∇⊗∇F([0.1,0.2,0.3]); out = |H|;");
  ir::Module Plain = toMid(Src, false);
  ir::Module Opt = toMid(Src, true);
  EXPECT_EQ(ir::countOps(Plain.Update, ir::Op::Mul), 9 * 84);
  EXPECT_EQ(ir::countOps(Plain.Update, ir::Op::Add), 9 * 63);
  EXPECT_EQ(ir::countOps(Opt.Update, ir::Op::Mul), 312);
  EXPECT_EQ(ir::countOps(Opt.Update, ir::Op::Add), 234);
}

TEST(Pipeline, ConstantProbePositionDoesNotFoldThroughOrientation) {
  // Even with a constant probe position, the world-to-index transform is
  // runtime image metadata, so the kernel weights remain symbolic — exactly
  // 4 taps * 3 axes of them.
  ir::Module Opt = toMid(probeProgram("field#2(3)[] F = img ⊛ bspln3;\n",
                                      "out = F([0.1,0.2,0.3]);"),
                         true);
  EXPECT_EQ(ir::countOps(Opt.Update, ir::Op::KernelWeight), 12);
}

TEST(Pipeline, ContractFoldsConstantKernelWeights) {
  // When the fractional position itself is a constant, contract evaluates
  // the kernel's weight polynomial at compile time.
  ir::Function F;
  F.Name = "kw";
  F.ResultTypes = {Type::real()};
  {
    ir::Builder B(F);
    ir::ValueId Frac = B.constReal(0.25);
    ir::ValueId W = B.emit(ir::Op::KernelWeight, {Frac}, Type::real(),
                           ir::KernelWeightAttr{"bspln3", 0, 0});
    B.exit(ir::ExitAttr::Continue, {W});
    B.finish();
  }
  ir::Module M;
  M.GlobalInit = std::move(F);
  // Minimal well-formed placeholders for the other functions.
  auto Stub = [](const char *Name) {
    ir::Function S;
    S.Name = Name;
    ir::Builder B(S);
    B.exit(ir::ExitAttr::Continue, {});
    B.finish();
    return S;
  };
  M.StrandInit = Stub("strandInit");
  M.Update = Stub("update");
  M.CreateArgs = Stub("createArgs");
  M.CurLevel = ir::Mid;
  passes::contract(M);
  EXPECT_EQ(ir::countOps(M.GlobalInit, ir::Op::KernelWeight), 0);
  // The folded value is h(0.25 - 0) for bspln3.
  std::string S = ir::print(M.GlobalInit);
  EXPECT_NE(S.find("const.real"), std::string::npos) << S;
}

TEST(Pipeline, ContractFoldsArithmetic) {
  ir::Module M = toHigh(R"(
strand S (int i) {
  output real out = 0.0;
  update { out = 2.0 * 3.0 + 1.0; stabilize; }
}
initially [ S(i) | i in 0 .. 3 ];
)");
  passes::contract(M);
  std::string S = ir::print(M.Update);
  EXPECT_NE(S.find("const.real[7.0]"), std::string::npos) << S;
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Mul), 0);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Add), 0);
}

TEST(Pipeline, ContractFoldsConstantConditionals) {
  ir::Module M = toHigh(R"(
strand S (int i) {
  output real out = 0.0;
  update {
    if (1 < 2) { out = 1.0; } else { out = 2.0; }
    stabilize;
  }
}
initially [ S(i) | i in 0 .. 3 ];
)");
  passes::contract(M);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::If), 0);
}

TEST(Pipeline, DeadCodeEliminated) {
  ir::Module M = toHigh(R"(
strand S (int i) {
  output real out = 0.0;
  update {
    real unused = sqrt(123.0);
    vec3 alsoUnused = [1.0, 2.0, 3.0];
    out = 1.0;
    stabilize;
  }
}
initially [ S(i) | i in 0 .. 3 ];
)");
  passes::contract(M);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Sqrt), 0);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::TensorCons), 0);
}

//===----------------------------------------------------------------------===//
// Scalarization (LowIR)
//===----------------------------------------------------------------------===//

TEST(Pipeline, LowIrIsFullyScalar) {
  ir::Module M = toMid(probeProgram(
      "field#2(3)[] F = img ⊛ bspln3;\n",
      "vec3 g = ∇F([0.1,0.2,0.3]); out = g•g;"),
      true);
  ASSERT_TRUE(passes::lowerToLow(M).isOk());
  EXPECT_EQ(M.CurLevel, unsigned(ir::Low));
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::TensorCons), 0);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::TensorIndex), 0);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Dot), 0);
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::KernelWeight), 0);
  EXPECT_GT(ir::countOps(M.Update, ir::Op::PolyEval), 0);
  std::string Err = ir::verify(M.Update, ir::Low);
  EXPECT_EQ(Err, "");
}

TEST(Pipeline, FullPipelineOnPaperPrograms) {
  for (const char *Src : {testprog::VrLite, testprog::Lic2d,
                          testprog::Isocontour, testprog::Curvature}) {
    ir::Module M = toHigh(Src);
    Status S = passes::runPipeline(M);
    EXPECT_TRUE(S.isOk()) << S.message();
    EXPECT_EQ(M.CurLevel, unsigned(ir::Low));
  }
}

//===----------------------------------------------------------------------===//
// Field staticization (Section 5.1's duplication)
//===----------------------------------------------------------------------===//

TEST(Pipeline, ConditionalFieldsAreDuplicated) {
  // (F1 if b else F2)(x) => F1(x) if b else F2(x).
  ir::Module M = toHigh(R"(
input image(3)[] a;
input image(3)[] b;
input bool pick = true;
field#2(3)[] F1 = a ⊛ bspln3;
field#2(3)[] F2 = b ⊛ bspln3;
strand S (int i) {
  output real out = 0.0;
  update {
    out = (F1 if pick else F2)([0.1,0.2,0.3]);
    stabilize;
  }
}
initially [ S(i) | i in 0 .. 3 ];
)");
  // Both probes exist, in the two branches of an If.
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Probe), 2);
  EXPECT_GE(ir::countOps(M.Update, ir::Op::If), 1);
  Status S = passes::runPipeline(M);
  EXPECT_TRUE(S.isOk()) << S.message();
}

TEST(Pipeline, ConditionalFieldUnderGradient) {
  ir::Module M = toHigh(R"(
input image(3)[] a;
input image(3)[] b;
input bool pick = true;
field#2(3)[] F1 = a ⊛ bspln3;
field#2(3)[] F2 = b ⊛ bspln3;
strand S (int i) {
  output real out = 0.0;
  update {
    out = |∇(F1 if pick else F2)([0.1,0.2,0.3])|;
    stabilize;
  }
}
initially [ S(i) | i in 0 .. 3 ];
)");
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::FieldDiff), 2);
  EXPECT_TRUE(passes::runPipeline(M).isOk());
}

TEST(Pipeline, FieldLocalVariablesInline) {
  ir::Module M = toHigh(R"(
input image(3)[] img;
field#2(3)[] F = img ⊛ bspln3;
strand S (int i) {
  output real out = 0.0;
  update {
    field#1(3)[3] G = ∇F;
    out = |G([0.1,0.2,0.3])|;
    stabilize;
  }
}
initially [ S(i) | i in 0 .. 3 ];
)");
  EXPECT_EQ(ir::countOps(M.Update, ir::Op::Probe), 1);
  EXPECT_TRUE(passes::runPipeline(M).isOk());
}

} // namespace
} // namespace diderot
