//===--- tests/driver_test.cpp - compiler driver API tests ---------------------===//

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "nrrd/nrrd.h"
#include "synth/synth.h"

namespace diderot {
namespace {

const char *Tiny = R"(
input real s = 3.0;
strand S (int i) {
  output real x = 0.0;
  update { x = s * real(i); stabilize; }
}
initially [ S(i) | i in 0 .. 3 ];
)";

TEST(Driver, CompileStringProducesModules) {
  Result<CompiledProgram> CP = compileString(Tiny, {}, "tiny");
  ASSERT_TRUE(CP.isOk()) << CP.message();
  EXPECT_EQ(CP->midModule().CurLevel, unsigned(ir::Mid));
  EXPECT_EQ(CP->lowModule().CurLevel, unsigned(ir::Low));
  EXPECT_FALSE(CP->emitCpp().empty());
}

TEST(Driver, ParseErrorsAreReported) {
  Result<CompiledProgram> CP = compileString("strand {", {}, "broken");
  ASSERT_FALSE(CP.isOk());
  EXPECT_NE(CP.message().find("parse errors"), std::string::npos);
}

TEST(Driver, TypeErrorsAreReported) {
  Result<CompiledProgram> CP = compileString(R"(
strand S (int i) {
  output real x = true;
  update { stabilize; }
}
initially [ S(i) | i in 0 .. 3 ];
)",
                                             {}, "illtyped");
  ASSERT_FALSE(CP.isOk());
  EXPECT_NE(CP.message().find("type errors"), std::string::npos);
}

TEST(Driver, CompileFileAndNameDerivation) {
  std::string Path = ::testing::TempDir() + "/drv_test.diderot";
  {
    std::ofstream Out(Path);
    Out << Tiny;
  }
  Result<CompiledProgram> CP = compileFile(Path);
  ASSERT_TRUE(CP.isOk()) << CP.message();
  EXPECT_EQ(CP->midModule().Name, "drv_test");
  std::remove(Path.c_str());
  EXPECT_FALSE(compileFile("/no/such/file.diderot").isOk());
}

TEST(Driver, InstancesAreIndependent) {
  Result<CompiledProgram> CP = compileString(Tiny, {}, "indep");
  ASSERT_TRUE(CP.isOk()) << CP.message();
  auto I1 = CP->instantiate();
  auto I2 = CP->instantiate();
  ASSERT_TRUE(I1.isOk() && I2.isOk());
  ASSERT_TRUE((*I1)->setInputReal("s", 2.0).isOk());
  ASSERT_TRUE((*I2)->setInputReal("s", 10.0).isOk());
  ASSERT_TRUE((*I1)->initialize().isOk());
  ASSERT_TRUE((*I2)->initialize().isOk());
  ASSERT_TRUE((*I1)->run(10, 0).isOk());
  ASSERT_TRUE((*I2)->run(10, 0).isOk());
  std::vector<double> A, B;
  ASSERT_TRUE((*I1)->getOutput("x", A).isOk());
  ASSERT_TRUE((*I2)->getOutput("x", B).isOk());
  EXPECT_DOUBLE_EQ(A[3], 6.0);
  EXPECT_DOUBLE_EQ(B[3], 30.0);
}

TEST(Driver, InputIntrospection) {
  Result<CompiledProgram> CP = compileString(Tiny, {}, "inspect");
  ASSERT_TRUE(CP.isOk());
  auto I = CP->instantiate();
  ASSERT_TRUE(I.isOk());
  std::vector<rt::InputDesc> Ins = (*I)->inputs();
  ASSERT_EQ(Ins.size(), 1u);
  EXPECT_EQ(Ins[0].Name, "s");
  EXPECT_EQ(Ins[0].TypeName, "real");
  EXPECT_TRUE(Ins[0].HasDefault);
  std::vector<rt::OutputDesc> Outs = (*I)->outputs();
  ASSERT_EQ(Outs.size(), 1u);
  EXPECT_EQ(Outs[0].Name, "x");
}

TEST(Driver, LoadGlobalReadsNrrdAtInitialize) {
  // A program that load()s a file: write a NRRD, point the program at it.
  std::string Path = ::testing::TempDir() + "/drv_img.nrrd";
  Image Img = synth::sampledPolynomial2d(8, 1, 2, 0, 0); // f = 1 + 2x
  ASSERT_TRUE(nrrdWrite(Img.toNrrd(), Path).isOk());
  std::string Src = strf(R"(
field#1(2)[] f = ctmr ⊛ load(")", Path, R"(");
strand S (int i) {
  output real x = 0.0;
  update { x = f([0.25, 0.0]); stabilize; }
}
initially [ S(i) | i in 0 .. 1 ];
)");
  for (Engine E : {Engine::Interp, Engine::Native}) {
    CompileOptions Opts;
    Opts.Eng = E;
    Opts.DoublePrecision = true;
    Result<CompiledProgram> CP = compileString(Src, Opts, "loader");
    ASSERT_TRUE(CP.isOk()) << CP.message();
    auto I = CP->instantiate();
    ASSERT_TRUE(I.isOk()) << I.message();
    ASSERT_TRUE((*I)->initialize().isOk());
    ASSERT_TRUE((*I)->run(10, 0).isOk());
    std::vector<double> X;
    ASSERT_TRUE((*I)->getOutput("x", X).isOk());
    EXPECT_NEAR(X[0], 1.5, 1e-9);
  }
  std::remove(Path.c_str());
}

TEST(Driver, MissingLoadFileFailsAtInitialize) {
  std::string Src = R"(
field#1(2)[] f = ctmr ⊛ load("/no/such/file.nrrd");
strand S (int i) {
  output real x = 0.0;
  update { x = f([0.0, 0.0]); stabilize; }
}
initially [ S(i) | i in 0 .. 1 ];
)";
  CompileOptions Opts;
  Opts.Eng = Engine::Interp;
  Result<CompiledProgram> CP = compileString(Src, Opts, "missing");
  ASSERT_TRUE(CP.isOk()) << CP.message();
  auto I = CP->instantiate();
  ASSERT_TRUE(I.isOk());
  Status S = (*I)->initialize();
  EXPECT_FALSE(S.isOk());
}

TEST(Driver, OptimizationTogglesPreserveSemantics) {
  for (bool VN : {false, true})
    for (bool Contract : {false, true}) {
      CompileOptions Opts;
      Opts.Eng = Engine::Interp;
      Opts.EnableValueNumbering = VN;
      Opts.EnableContract = Contract;
      Result<CompiledProgram> CP = compileString(Tiny, Opts, "toggle");
      ASSERT_TRUE(CP.isOk()) << CP.message();
      auto I = CP->instantiate();
      ASSERT_TRUE(I.isOk());
      ASSERT_TRUE((*I)->initialize().isOk());
      ASSERT_TRUE((*I)->run(10, 0).isOk());
      std::vector<double> X;
      ASSERT_TRUE((*I)->getOutput("x", X).isOk());
      EXPECT_DOUBLE_EQ(X[2], 6.0) << "VN=" << VN << " C=" << Contract;
    }
}

} // namespace
} // namespace diderot
