//===--- tests/codegen_test.cpp - C++ emission tests --------------------------===//
//
// Textual checks of the generated translation unit (the native engine's
// output): structure, precision selection, metadata tables, and the C ABI.
// Behavior is covered by the differential engine tests; these tests pin the
// contract between the emitter and the prelude.
//
//===----------------------------------------------------------------------===//

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <unistd.h>

#include <gtest/gtest.h>

#include "codegen/config.h"
#include "driver/driver.h"
#include "support/strings.h"
#include "support/subprocess.h"
#include "testprograms.h"

#ifndef DIDEROT_REPO_DIR
#define DIDEROT_REPO_DIR "."
#endif

namespace diderot {
namespace {

std::string emit(const std::string &Src, bool DoublePrec = false) {
  CompileOptions Opts;
  Opts.DoublePrecision = DoublePrec;
  Result<CompiledProgram> CP = compileString(Src, Opts, "emit_test");
  EXPECT_TRUE(CP.isOk()) << CP.message();
  if (!CP.isOk())
    return "";
  return CP->emitCpp();
}

const char *Small = R"(
input real a = 1.5;
input image(3)[] img;
field#2(3)[] F = img ⊛ bspln3;
strand S (int i) {
  output real out = 0.0;
  update { out = a * F([0.1,0.2,0.3]); stabilize; }
}
initially [ S(i) | i in 0 .. 3 ];
)";

TEST(Codegen, PrecisionSelection) {
  EXPECT_NE(emit(Small, false).find("using Real = float;"),
            std::string::npos);
  EXPECT_NE(emit(Small, true).find("using Real = double;"),
            std::string::npos);
}

TEST(Codegen, StructuralElements) {
  std::string S = emit(Small);
  EXPECT_NE(S.find("struct Globals {"), std::string::npos);
  EXPECT_NE(S.find("struct Strand {"), std::string::npos);
  EXPECT_NE(S.find("ExitKind f_update(const Globals& G, Strand& S)"),
            std::string::npos);
  EXPECT_NE(S.find("bool f_globalInit(Globals& G"), std::string::npos);
  EXPECT_NE(S.find("void f_initStrand("), std::string::npos);
  EXPECT_NE(S.find("struct Prog : ProgramBase<Prog, Real, Strand>"),
            std::string::npos);
}

TEST(Codegen, CApiExported) {
  std::string S = emit(Small);
  size_t ExternC = S.find("extern \"C\" {");
  ASSERT_NE(ExternC, std::string::npos);
  // Every function the extern "C" block defines, by name.
  std::set<std::string> Defined;
  std::regex Def(R"(\n[a-z0-9_ ]+\*?\s*(ddr_[a-z_]+)\()");
  std::string Block = S.substr(ExternC);
  for (std::sregex_iterator It(Block.begin(), Block.end(), Def), End;
       It != End; ++It)
    Defined.insert((*It)[1]);
  EXPECT_EQ(Defined,
            (std::set<std::string>{
                "ddr_abi_version", "ddr_create", "ddr_destroy", "ddr_error",
                "ddr_set_input_scalars", "ddr_set_input_string",
                "ddr_set_input_image", "ddr_initialize", "ddr_run",
                "ddr_read", "ddr_fault_msg", "ddr_output_dims",
                "ddr_get_output"}));
  for (const char *Gone :
       {"ddr_run_stats", "ddr_run_flags", "ddr_run_policy",
        "ddr_set_fault_plan", "ddr_stats_read", "ddr_metrics_read",
        "ddr_digest_read", "ddr_outcome", "ddr_num_strands",
        "ddr_num_faulted", "ddr_num_outputs", "ddr_output_name",
        "ddr_output_comps", "ddr_output_isint", "ddr_num_inputs"})
    EXPECT_EQ(S.find(Gone), std::string::npos) << Gone;
}

TEST(Codegen, MetadataTables) {
  std::string S = emit(Small);
  EXPECT_NE(S.find("const GlobalMeta kGlobals[]"), std::string::npos);
  EXPECT_NE(S.find("{\"a\", 0, 1, 0, true, true, \"real\"}"),
            std::string::npos);
  EXPECT_NE(S.find("const OutputMeta kOutputs[]"), std::string::npos);
  EXPECT_NE(S.find("{\"out\", 1}"), std::string::npos);
}

TEST(Codegen, ProbeBecomesStraightLineCode) {
  std::string S = emit(Small);
  // Horner-form kernel weights and clamped voxel loads appear; no function
  // calls per tap.
  EXPECT_NE(S.find("clampIndex("), std::string::npos);
  EXPECT_NE(S.find("->Data[(size_t)("), std::string::npos);
  EXPECT_NE(S.find("->W2I["), std::string::npos);
  EXPECT_EQ(S.find("KernelWeight"), std::string::npos);
}

TEST(Codegen, NoDoubledConstQualifier) {
  std::string S = emit(Small);
  EXPECT_EQ(S.find("const const"), std::string::npos);
}

TEST(Codegen, DefaultsEmitted) {
  std::string S = emit(Small);
  EXPECT_NE(S.find("bool applyDefault(int GIdx)"), std::string::npos);
  EXPECT_NE(S.find("f_default_0"), std::string::npos);
}

TEST(Codegen, GridFlagAndIterators) {
  std::string S = emit(Small);
  EXPECT_NE(S.find("static constexpr bool IsGrid = true;"),
            std::string::npos);
  EXPECT_NE(S.find("static constexpr int NumIters = 1;"), std::string::npos);
  EXPECT_NE(S.find("int64_t f_iterLo0(const Globals& G)"),
            std::string::npos);
}

TEST(Codegen, CollectionProgram) {
  std::string S = emit(R"(
strand S (int i) {
  output real out = 0.0;
  update { die; }
}
initially { S(i) | i in 0 .. 3 };
)");
  EXPECT_NE(S.find("static constexpr bool IsGrid = false;"),
            std::string::npos);
  EXPECT_NE(S.find("return ExitKind::Die;"), std::string::npos);
}

TEST(Codegen, EigenCallsRuntimeRoutines) {
  std::string S = emit(R"(
input image(3)[] img;
field#2(3)[] F = img ⊛ bspln3;
strand S (int i) {
  output vec3 out = [0.0,0.0,0.0];
  update {
    out = evals(∇⊗∇F([0.1,0.2,0.3]));
    stabilize;
  }
}
initially [ S(i) | i in 0 .. 3 ];
)");
  EXPECT_NE(S.find("diderot::eigenvalsSym3("), std::string::npos);
}

TEST(Codegen, StabilizeMethodEmitted) {
  std::string S = emit(R"(
strand S (int i) {
  output real x = 0.0;
  update { stabilize; }
  stabilize { x = 42.0; }
}
initially [ S(i) | i in 0 .. 3 ];
)");
  EXPECT_NE(S.find("void f_stabilize(const Globals& G, Strand& S)"),
            std::string::npos);
  EXPECT_NE(S.find("f_stabilize(G, S);"), std::string::npos);
}

TEST(Codegen, PaperProgramsEmit) {
  for (const char *Src : {testprog::VrLite, testprog::Lic2d,
                          testprog::Isocontour, testprog::Curvature}) {
    std::string S = emit(Src);
    EXPECT_FALSE(S.empty());
    EXPECT_NE(S.find("ddr_create"), std::string::npos);
  }
}

/// The emitted C++ of the benchmark programs and the CLI smoke program
/// compiles warning-free under -Wall -Wextra -Werror, with the host
/// compiler and include root of the real host compile: an unused
/// declaration in the output is dead code the emitter should not write.
TEST(Codegen, EmittedCppIsWarningFree) {
  namespace fs = std::filesystem;
  for (const char *Rel :
       {"bench/programs/illust_vr.diderot", "bench/programs/ridge3d.diderot",
        "bench/programs/lic2d.diderot", "tests/cli_isocontour.diderot"}) {
    Result<CompiledProgram> CP =
        compileFile(std::string(DIDEROT_REPO_DIR) + "/" + Rel);
    ASSERT_TRUE(CP.isOk()) << Rel << ": " << CP.message();
    fs::path Cpp = fs::temp_directory_path() /
                   strf("ddr_warn_", ::getpid(), "_",
                        fs::path(Rel).stem().string(), ".cpp");
    {
      std::ofstream Out(Cpp);
      Out << CP->emitCpp();
    }
    support::SubprocessCommand C;
    C.Argv = support::splitCommandWords(DIDEROT_HOST_CXX);
    for (const char *F : {"-std=c++20", "-fsyntax-only", "-Wall", "-Wextra",
                          "-Werror"})
      C.Argv.push_back(F);
    C.Argv.push_back(strf("-I", DIDEROT_SRC_DIR));
    C.Argv.push_back(Cpp.string());
    Result<support::SubprocessResult> R = support::runSupervised(C);
    fs::remove(Cpp);
    ASSERT_TRUE(R.isOk()) << R.message();
    EXPECT_TRUE(R->succeeded()) << Rel << ":\n" << R->Output;
  }
}

TEST(Codegen, UpdateWritesBackFullState) {
  std::string S = emit(Small);
  // Params (i) plus state (pos not present here; out) written back on exit.
  EXPECT_NE(S.find("S.m0 = "), std::string::npos);
  EXPECT_NE(S.find("return ExitKind::Stabilize;"), std::string::npos);
}

} // namespace
} // namespace diderot
