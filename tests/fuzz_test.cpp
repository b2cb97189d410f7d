//===--- tests/fuzz_test.cpp - differential expression fuzzing -----------------===//
//
// Generates random (seeded, deterministic) Diderot programs over a small
// expression grammar and checks that every configuration agrees:
//   * interpreter with optimizations off (reference),
//   * interpreter with contract + value numbering,
//   * native engine (double precision) fully optimized.
// Any divergence indicates a bug in the optimizer, the scalarizer, or the
// code generator.
//
//===----------------------------------------------------------------------===//

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "nrrd/nrrd.h"
#include "support/strings.h"

namespace diderot {
namespace {

/// Deterministic PRNG (xorshift) so failures are reproducible by seed.
struct Rng {
  uint32_t S;
  explicit Rng(uint32_t Seed) : S(Seed * 2654435761u + 1) {}
  uint32_t next() {
    S ^= S << 13;
    S ^= S >> 17;
    S ^= S << 5;
    return S;
  }
  int range(int N) { return static_cast<int>(next() % static_cast<uint32_t>(N)); }
  double lit() { return (range(41) - 20) / 4.0; }
};

/// A random scalar expression of bounded depth over: literals, the strand
/// index (as real), safe arithmetic, math builtins, comparisons feeding
/// conditional expressions, and vec3 subexpressions collapsed by dot/norm.
std::string genScalar(Rng &R, int Depth);

std::string genVec3(Rng &R, int Depth) {
  return strf("[", genScalar(R, Depth - 1), ", ", genScalar(R, Depth - 1),
              ", ", genScalar(R, Depth - 1), "]");
}

std::string genScalar(Rng &R, int Depth) {
  if (Depth <= 0) {
    switch (R.range(3)) {
    case 0:
      return formatReal(R.lit());
    case 1:
      return "real(i)";
    default:
      return "y";
    }
  }
  switch (R.range(12)) {
  case 0:
    return strf("(", genScalar(R, Depth - 1), " + ", genScalar(R, Depth - 1),
                ")");
  case 1:
    return strf("(", genScalar(R, Depth - 1), " - ", genScalar(R, Depth - 1),
                ")");
  case 2:
    return strf("(", genScalar(R, Depth - 1), " * ", genScalar(R, Depth - 1),
                ")");
  case 3: // division guarded away from zero
    return strf("(", genScalar(R, Depth - 1), " / (abs(",
                genScalar(R, Depth - 1), ") + 1.0))");
  case 4:
    return strf("sqrt(abs(", genScalar(R, Depth - 1), "))");
  case 5:
    return strf("sin(", genScalar(R, Depth - 1), ")");
  case 6:
    return strf("min(", genScalar(R, Depth - 1), ", ",
                genScalar(R, Depth - 1), ")");
  case 7:
    return strf("max(", genScalar(R, Depth - 1), ", ",
                genScalar(R, Depth - 1), ")");
  case 8: // conditional expression
    return strf("(", genScalar(R, Depth - 1), " if ",
                genScalar(R, Depth - 1), " < ", genScalar(R, Depth - 1),
                " else ", genScalar(R, Depth - 1), ")");
  case 9: // vec3 collapsed via dot
    return strf("(", genVec3(R, Depth - 1), " • ", genVec3(R, Depth - 1),
                ")");
  case 10: // norm of a cross product
    return strf("|", genVec3(R, Depth - 1), " × ", genVec3(R, Depth - 1),
                "|");
  default:
    return strf("clamp(", genScalar(R, Depth - 1), ", -100.0, 100.0)");
  }
}

std::string genProgram(uint32_t Seed) {
  Rng R(Seed);
  std::string E1 = genScalar(R, 3);
  std::string E2 = genScalar(R, 3);
  // Two update rounds so state feeds back through the superstep.
  return strf(R"(
strand S (int i) {
  real y = real(i) * 0.5;
  int it = 0;
  output real out = 0.0;
  update {
    y = )",
              E1, R"(;
    out = out + )",
              E2, R"(;
    it += 1;
    if (it == 2) stabilize;
  }
}
initially [ S(i) | i in 0 .. 7 ];
)");
}

std::vector<double> runConfig(const std::string &Src, Engine Eng, bool Opt,
                              uint32_t Seed) {
  CompileOptions Opts;
  Opts.Eng = Eng;
  Opts.DoublePrecision = true;
  Opts.EnableContract = Opt;
  Opts.EnableValueNumbering = Opt;
  Result<CompiledProgram> CP =
      compileString(Src, Opts, strf("fuzz", Seed, Opt ? "o" : "p"));
  EXPECT_TRUE(CP.isOk()) << "seed " << Seed << "\n"
                         << Src << "\n"
                         << CP.message();
  if (!CP.isOk())
    return {};
  auto I = CP->instantiate();
  EXPECT_TRUE(I.isOk()) << I.message();
  if (!I.isOk())
    return {};
  EXPECT_TRUE((*I)->initialize().isOk());
  EXPECT_TRUE((*I)->run(10, 0).isOk());
  std::vector<double> Out;
  EXPECT_TRUE((*I)->getOutput("out", Out).isOk());
  return Out;
}

class FuzzSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzSweep, EnginesAndOptLevelsAgree) {
  uint32_t Seed = GetParam();
  std::string Src = genProgram(Seed);
  std::vector<double> Ref = runConfig(Src, Engine::Interp, false, Seed);
  std::vector<double> Opt = runConfig(Src, Engine::Interp, true, Seed);
  ASSERT_EQ(Ref.size(), 8u) << Src;
  ASSERT_EQ(Opt.size(), Ref.size());
  for (size_t K = 0; K < Ref.size(); ++K) {
    double Tol = 1e-9 * std::max(1.0, std::abs(Ref[K]));
    EXPECT_NEAR(Ref[K], Opt[K], Tol) << "seed " << Seed << " strand " << K
                                     << "\n" << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0u, 24u));

/// The native engine is expensive (host compile per program); differential
/// check on a few seeds only.
class FuzzNative : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzNative, NativeMatchesInterp) {
  uint32_t Seed = GetParam();
  std::string Src = genProgram(Seed);
  std::vector<double> Ref = runConfig(Src, Engine::Interp, false, Seed);
  std::vector<double> Nat = runConfig(Src, Engine::Native, true, Seed);
  ASSERT_EQ(Nat.size(), Ref.size());
  for (size_t K = 0; K < Ref.size(); ++K) {
    double Tol = 1e-9 * std::max(1.0, std::abs(Ref[K]));
    EXPECT_NEAR(Ref[K], Nat[K], Tol) << "seed " << Seed << " strand " << K
                                     << "\n" << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzNative, ::testing::Values(1u, 7u, 13u));

//===----------------------------------------------------------------------===//
// Malformed-NRRD corpus: every case must come back as an error Status —
// never a crash, never an attempt to allocate the declared (hostile) size.
//===----------------------------------------------------------------------===//

struct NrrdCase {
  const char *Name;
  const char *Contents;
};

/// Print a case by its name. gtest's default would dump the struct's bytes,
/// i.e. the load addresses of the two strings, into the listed test names,
/// so the names ctest discovers would change from one build to the next.
void PrintTo(const NrrdCase &C, std::ostream *OS) { *OS << C.Name; }

class NrrdMalformed : public ::testing::TestWithParam<NrrdCase> {};

TEST_P(NrrdMalformed, ParseRejectsWithoutCrashing) {
  const NrrdCase &C = GetParam();
  Result<Nrrd> R = nrrdParse(C.Contents);
  EXPECT_FALSE(R.isOk()) << C.Name << " should have been rejected";
  EXPECT_FALSE(R.message().empty()) << C.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, NrrdMalformed,
    ::testing::Values(
        NrrdCase{"empty", ""},
        NrrdCase{"magic_only", "NRRD0005"},
        NrrdCase{"no_magic", "hello\ntype: float\nsizes: 4\n\n"},
        NrrdCase{"missing_sizes",
                 "NRRD0005\ntype: float\nencoding: ascii\n\n1 2 3\n"},
        NrrdCase{"truncated_raw",
                 "NRRD0005\ntype: float\nsizes: 8 8\nencoding: raw\n\nxx"},
        NrrdCase{"truncated_ascii",
                 "NRRD0005\ntype: float\nsizes: 4 4\nencoding: ascii\n\n1 2\n"},
        NrrdCase{"zero_size",
                 "NRRD0005\ntype: float\nsizes: 0 4\nencoding: ascii\n\n\n"},
        NrrdCase{"negative_size",
                 "NRRD0005\ntype: float\nsizes: -3 4\nencoding: ascii\n\n1\n"},
        // 2^31-ish per axis: the element product overflows 64 bits across
        // five axes; must be rejected before any allocation happens.
        NrrdCase{"overflow_sizes", "NRRD0005\ntype: double\nsizes: 2000000000 "
                                   "2000000000 2000000000 2000000000 "
                                   "2000000000\nencoding: raw\n\n"},
        // Fits in 64 bits as an element count but asks for ~64 GB of text
        // samples backed by a few bytes of payload.
        NrrdCase{"huge_ascii", "NRRD0005\ntype: double\nsizes: 1000000000 "
                               "8\nencoding: ascii\n\n1 2 3\n"},
        NrrdCase{"absurd_dim_count",
                 "NRRD0005\ntype: float\nsizes: 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 "
                 "1 1 1 1 1\nencoding: ascii\n\n1\n"},
        NrrdCase{"garbage_sizes",
                 "NRRD0005\ntype: float\nsizes: 4 x\nencoding: ascii\n\n1\n"},
        NrrdCase{"dim_mismatch",
                 "NRRD0005\ntype: float\ndimension: 3\nsizes: 2 "
                 "2\nencoding: ascii\n\n1 2 3 4\n"},
        NrrdCase{"garbage_dimension",
                 "NRRD0005\ntype: float\ndimension: banana\nsizes: "
                 "2\nencoding: ascii\n\n1 2\n"},
        NrrdCase{"garbage_space_dimension",
                 "NRRD0005\ntype: float\nsizes: 2\nspace dimension: "
                 "3x\nencoding: ascii\n\n1 2\n"},
        NrrdCase{"bad_encoding",
                 "NRRD0005\ntype: float\nsizes: 2\nencoding: gzip\n\n\x1f\x8b"},
        NrrdCase{"bad_type",
                 "NRRD0005\ntype: quaternion\nsizes: 2\nencoding: "
                 "ascii\n\n1 2\n"},
        NrrdCase{"big_endian_raw", "NRRD0005\ntype: float\nsizes: "
                                   "1\nencoding: raw\nendian: big\n\n\0\0\0\0"},
        NrrdCase{"header_not_terminated",
                 "NRRD0005\ntype: float\nsizes: 2\nencoding: ascii\n1 2"}),
    [](const ::testing::TestParamInfo<NrrdCase> &I) { return I.param.Name; });

/// A well-formed file still parses after the hardening.
TEST(NrrdMalformed, WellFormedStillParses) {
  Result<Nrrd> R = nrrdParse("NRRD0005\ntype: float\ndimension: 2\nsizes: 2 "
                             "2\nencoding: ascii\n\n1 2 3 4\n");
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->numSamples(), 4u);
  EXPECT_DOUBLE_EQ(R->sampleAsDouble(3), 4.0);
}

} // namespace
} // namespace diderot
