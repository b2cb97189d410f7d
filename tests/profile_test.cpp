//===--- tests/profile_test.cpp - source-level profiler tests ----------------===//
//
// End-to-end checks of the cost profiler through both engines: per-line
// probe counts must be identical between the interpreter and the native
// backend (they execute the same program), counts must be nonzero exactly
// on the source lines that probe, the JSON exporters must emit parseable
// output, strand lifecycle events must balance the retirement counters,
// and jsonEscape must neutralize every character that can break a JSON
// string literal.
//
//===----------------------------------------------------------------------===//

#include <cctype>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "observe/observe.h"
#include "synth/synth.h"

namespace diderot {
namespace {

// A probing program with distinct cost classes on distinct lines: an
// `inside` test, a value probe, and a gradient probe. Every strand either
// dies (outside the field's domain) or stabilizes after one update, so
// dynamic counts are exact functions of the strand grid.
const char *ProbeProgram = R"(
input int res = 8;
input image(2)[] img;
field#1(2)[] f = ctmr ⊛ img;
strand S (int ui, int vi) {
  output vec2 pos = [ -0.8 + 1.6*real(ui)/real(res-1),
                      -0.8 + 1.6*real(vi)/real(res-1) ];
  update {
    if (!inside(pos, f))
      die;
    real v = f(pos);
    vec2 g = ∇f(pos);
    pos += 0.01 * normalize(g) * v;
    stabilize;
  }
}
initially [ S(ui, vi) | vi in 0 .. res-1, ui in 0 .. res-1 ];
)";

std::unique_ptr<rt::ProgramInstance> makeProbeInstance(Engine Eng) {
  CompileOptions Opts;
  Opts.Eng = Eng;
  // Double precision on both engines so inside()/die control flow (and with
  // it every dynamic count) is bit-identical.
  Opts.DoublePrecision = true;
  Result<CompiledProgram> CP = compileString(ProbeProgram, Opts, "profiled");
  EXPECT_TRUE(CP.isOk()) << CP.message();
  if (!CP.isOk())
    return nullptr;
  Result<std::unique_ptr<rt::ProgramInstance>> I = CP->instantiate();
  EXPECT_TRUE(I.isOk()) << I.message();
  if (!I.isOk())
    return nullptr;
  EXPECT_TRUE((*I)->setInputImage("img", synth::portrait(24)).isOk());
  EXPECT_TRUE((*I)->initialize().isOk());
  return I.take();
}

observe::ProfileData profiledRun(Engine Eng, int Workers,
                                 rt::RunStats *StatsOut = nullptr) {
  auto I = makeProbeInstance(Eng);
  if (!I)
    return {};
  rt::RunConfig C;
  C.MaxSupersteps = 100;
  C.NumWorkers = Workers;
  C.CollectStats = StatsOut != nullptr;
  C.CollectProfile = true;
  Result<rt::RunStats> R = I->run(C);
  EXPECT_TRUE(R.isOk()) << R.message();
  if (StatsOut && R.isOk())
    *StatsOut = *R;
  return I->profile();
}

/// The 1-indexed source lines of ProbeProgram whose text contains \p Needle.
std::vector<int> linesContaining(const char *Needle) {
  std::vector<int> Out;
  std::string Src = ProbeProgram;
  int Line = 1;
  size_t Start = 0;
  while (Start <= Src.size()) {
    size_t End = Src.find('\n', Start);
    if (End == std::string::npos)
      End = Src.size();
    if (Src.substr(Start, End - Start).find(Needle) != std::string::npos)
      Out.push_back(Line);
    Start = End + 1;
    ++Line;
  }
  return Out;
}

bool contains(const std::vector<int> &V, int X) {
  for (int E : V)
    if (E == X)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Minimal JSON well-formedness checker (same approach as observe_test.cpp:
// enough to prove the exporters emit parseable JSON without a library).
//===----------------------------------------------------------------------===//

struct JsonChecker {
  const std::string &S;
  size_t P = 0;
  bool Ok = true;

  void ws() {
    while (P < S.size() && std::isspace(static_cast<unsigned char>(S[P])))
      ++P;
  }
  bool eat(char C) {
    ws();
    if (P < S.size() && S[P] == C) {
      ++P;
      return true;
    }
    return false;
  }
  void fail() { Ok = false; }
  void value() {
    if (!Ok)
      return;
    ws();
    if (P >= S.size())
      return fail();
    char C = S[P];
    if (C == '{')
      return object();
    if (C == '[')
      return array();
    if (C == '"')
      return string();
    if (C == '-' || std::isdigit(static_cast<unsigned char>(C)))
      return number();
    for (const char *Lit : {"true", "false", "null"})
      if (S.compare(P, std::strlen(Lit), Lit) == 0) {
        P += std::strlen(Lit);
        return;
      }
    fail();
  }
  void object() {
    if (!eat('{'))
      return fail();
    if (eat('}'))
      return;
    do {
      string();
      if (!Ok || !eat(':'))
        return fail();
      value();
      if (!Ok)
        return;
    } while (eat(','));
    if (!eat('}'))
      fail();
  }
  void array() {
    if (!eat('['))
      return fail();
    if (eat(']'))
      return;
    do {
      value();
      if (!Ok)
        return;
    } while (eat(','));
    if (!eat(']'))
      fail();
  }
  void string() {
    if (!eat('"'))
      return fail();
    while (P < S.size() && S[P] != '"') {
      if (S[P] == '\\')
        ++P;
      ++P;
    }
    if (P >= S.size())
      return fail();
    ++P;
  }
  void number() {
    while (P < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[P])) || S[P] == '-' ||
            S[P] == '+' || S[P] == '.' || S[P] == 'e' || S[P] == 'E'))
      ++P;
  }
};

bool jsonParses(const std::string &Text) {
  JsonChecker C{Text};
  C.value();
  C.ws();
  return C.Ok && C.P == Text.size();
}

//===----------------------------------------------------------------------===//
// jsonEscape
//===----------------------------------------------------------------------===//

TEST(JsonEscape, QuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(observe::jsonEscape("plain text 123"), "plain text 123");
  EXPECT_EQ(observe::jsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(observe::jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(observe::jsonEscape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(observe::jsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(observe::jsonEscape("\r\b\f"), "\\r\\b\\f");
  EXPECT_EQ(observe::jsonEscape(std::string("\x01\x1f", 2)),
            "\\u0001\\u001f");
  // UTF-8 multibyte sequences pass through untouched.
  EXPECT_EQ(observe::jsonEscape("\xe2\x8a\x9b"), "\xe2\x8a\x9b");
}

TEST(JsonEscape, EscapedStringsEmbedIntoValidJson) {
  std::string Nasty = "quote\" backslash\\ newline\n ctrl\x02 end";
  std::string Doc = "{\"s\":\"" + observe::jsonEscape(Nasty) + "\"}";
  EXPECT_TRUE(jsonParses(Doc)) << Doc;
}

//===----------------------------------------------------------------------===//
// Profiler collection + wire format
//===----------------------------------------------------------------------===//

TEST(Profiler, ShardsMergeAcrossWorkers) {
  observe::Profiler P;
  EXPECT_FALSE(P.enabled());
  P.start(2, 10);
  ASSERT_TRUE(P.enabled());
  P.shard(0)[observe::Profiler::index(3, observe::ProfClass::Probe)] += 5;
  P.shard(1)[observe::Profiler::index(3, observe::ProfClass::Probe)] += 7;
  P.shard(1)[observe::Profiler::index(9, observe::ProfClass::TensorOp)] += 2;
  observe::ProfileData D = P.take();
  EXPECT_FALSE(P.enabled());
  ASSERT_EQ(D.Lines.size(), 2u);
  EXPECT_EQ(D.Lines[0].Line, 3);
  EXPECT_EQ(D.Lines[0].Counts[0], 12u);
  EXPECT_EQ(D.Lines[1].Line, 9);
  EXPECT_EQ(D.Lines[1].Counts[3], 2u);
}

TEST(Profiler, FlattenRoundTripsCountsAndSites) {
  observe::ProfileData D;
  D.Enabled = true;
  observe::ProfileLine &L = D.at(7);
  L.Counts[0] = 41;
  L.Counts[2] = 13;
  L.Sites[0] = 3;
  std::vector<uint64_t> Counts = observe::flattenProfile(D, /*Sites=*/false);
  std::vector<uint64_t> Sites = observe::flattenProfile(D, /*Sites=*/true);
  observe::ProfileData Back;
  ASSERT_TRUE(
      observe::unflattenProfile(Counts.data(), Counts.size(), Back, false));
  ASSERT_TRUE(
      observe::unflattenProfile(Sites.data(), Sites.size(), Back, true));
  const observe::ProfileLine *BL = Back.find(7);
  ASSERT_NE(BL, nullptr);
  EXPECT_EQ(BL->Counts[0], 41u);
  EXPECT_EQ(BL->Counts[2], 13u);
  EXPECT_EQ(BL->Sites[0], 3u);
  // Malformed input (truncated record) is rejected.
  observe::ProfileData Junk;
  uint64_t Bad[2] = {1, 7};
  EXPECT_FALSE(observe::unflattenProfile(Bad, 2, Junk, false));
}

//===----------------------------------------------------------------------===//
// Per-line counts: placement and cross-engine parity
//===----------------------------------------------------------------------===//

class ProfileEngines : public ::testing::TestWithParam<std::tuple<Engine, int>> {
};

TEST_P(ProfileEngines, ProbeCountsLandExactlyOnProbingLines) {
  auto [Eng, Workers] = GetParam();
  observe::ProfileData P = profiledRun(Eng, Workers);
  ASSERT_TRUE(P.Enabled);
  ASSERT_FALSE(P.Lines.empty());

  // Lines that probe the field f (value or gradient) or run inside().
  std::vector<int> FieldLines = linesContaining("f(pos)");
  std::vector<int> InsideLines = linesContaining("inside(");
  uint64_t TotalProbes = 0, TotalInside = 0;
  for (const observe::ProfileLine &L : P.Lines) {
    int Probe = static_cast<int>(observe::ProfClass::Probe);
    int Inside = static_cast<int>(observe::ProfClass::Inside);
    if (L.Counts[Probe] > 0)
      EXPECT_TRUE(contains(FieldLines, L.Line))
          << "probe count on non-probing line " << L.Line;
    if (L.Counts[Inside] > 0)
      EXPECT_TRUE(contains(InsideLines, L.Line))
          << "inside count on non-inside line " << L.Line;
    TotalProbes += L.Counts[Probe];
    TotalInside += L.Counts[Inside];
  }
  EXPECT_GT(TotalProbes, 0u);
  EXPECT_GT(TotalInside, 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, ProfileEngines,
                         ::testing::Combine(::testing::Values(Engine::Interp,
                                                              Engine::Native),
                                            ::testing::Values(0, 3)));

TEST(ProfileParity, InterpAndNativeAgreeOnPerLineProbeCounts) {
  observe::ProfileData PI = profiledRun(Engine::Interp, 0);
  observe::ProfileData PN = profiledRun(Engine::Native, 0);
  ASSERT_TRUE(PI.Enabled);
  ASSERT_TRUE(PN.Enabled);
  int Probe = static_cast<int>(observe::ProfClass::Probe);
  int Inside = static_cast<int>(observe::ProfClass::Inside);
  // Same program, same semantics: the probe and inside counts per source
  // line must match exactly across engines. (Other classes may differ —
  // scalarization changes the tensor-op and kernel-eval instruction mix.)
  for (int Line = 1; Line <= 32; ++Line) {
    const observe::ProfileLine *LI = PI.find(Line);
    const observe::ProfileLine *LN = PN.find(Line);
    uint64_t I0 = LI ? LI->Counts[Probe] : 0;
    uint64_t N0 = LN ? LN->Counts[Probe] : 0;
    EXPECT_EQ(I0, N0) << "probe count diverges on line " << Line;
    uint64_t I2 = LI ? LI->Counts[Inside] : 0;
    uint64_t N2 = LN ? LN->Counts[Inside] : 0;
    EXPECT_EQ(I2, N2) << "inside count diverges on line " << Line;
  }
}

TEST(ProfileParity, ParallelCountsMatchSequential) {
  observe::ProfileData Seq = profiledRun(Engine::Interp, 0);
  observe::ProfileData Par = profiledRun(Engine::Interp, 4);
  for (const observe::ProfileLine &L : Seq.Lines) {
    const observe::ProfileLine *PL = Par.find(L.Line);
    ASSERT_NE(PL, nullptr) << "line " << L.Line << " lost in parallel run";
    for (int C = 0; C < observe::NumProfClasses; ++C)
      EXPECT_EQ(L.Counts[C], PL->Counts[C]) << "line " << L.Line;
  }
}

TEST(Profile, DisabledRunCollectsNothing) {
  auto I = makeProbeInstance(Engine::Interp);
  ASSERT_TRUE(I);
  Result<rt::RunStats> R = I->run(100, 0);
  ASSERT_TRUE(R.isOk());
  EXPECT_FALSE(I->profile().Enabled);
  EXPECT_TRUE(I->profile().Lines.empty());
}

TEST(Profile, NativeSourceMapReportsStaticSites) {
  observe::ProfileData P = profiledRun(Engine::Native, 0);
  ASSERT_TRUE(P.Enabled);
  uint64_t Sites = 0;
  for (const observe::ProfileLine &L : P.Lines)
    for (int C = 0; C < observe::NumProfClasses; ++C)
      Sites += L.Sites[C];
  EXPECT_GT(Sites, 0u) << "DDR_READ_PROF_MAP reported no instrumented sites";
}

//===----------------------------------------------------------------------===//
// Exporters: listing, JSON, round-trip with statsJson
//===----------------------------------------------------------------------===//

TEST(ProfileExport, ListingMarksProbingLines) {
  observe::ProfileData P = profiledRun(Engine::Interp, 0);
  std::string Listing = observe::profileListing(P, ProbeProgram);
  EXPECT_NE(Listing.find("probes"), std::string::npos);
  EXPECT_NE(Listing.find("inside(pos, f)"), std::string::npos);
  EXPECT_NE(Listing.find("total"), std::string::npos);
}

TEST(ProfileExport, JsonParsesAndEmbedsSourceText) {
  rt::RunStats Stats;
  observe::ProfileData P = profiledRun(Engine::Interp, 0, &Stats);
  std::string PJ = observe::profileJson(P, ProbeProgram);
  EXPECT_TRUE(jsonParses(PJ)) << PJ;
  EXPECT_NE(PJ.find("\"line\":"), std::string::npos);
  EXPECT_NE(PJ.find("\"probe\":"), std::string::npos);
  // Driver round-trip: --profile-out and --stats-out of one run both parse.
  std::string SJ = observe::statsJson(Stats);
  EXPECT_TRUE(jsonParses(SJ)) << SJ;
}

TEST(ProfileExport, EmptyProfileStillValidJson) {
  observe::ProfileData P;
  EXPECT_TRUE(jsonParses(observe::profileJson(P, "")));
  EXPECT_NE(observe::profileListing(P, "").find("not collected"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Strand lifecycle tracing
//===----------------------------------------------------------------------===//

class LifecycleEngines
    : public ::testing::TestWithParam<std::tuple<Engine, int>> {};

TEST_P(LifecycleEngines, EventsBalanceRetirementCounters) {
  auto [Eng, Workers] = GetParam();
  auto I = makeProbeInstance(Eng);
  ASSERT_TRUE(I);
  rt::RunConfig C;
  C.MaxSupersteps = 100;
  C.NumWorkers = Workers;
  C.CollectStats = true;
  C.CollectLifecycle = true;
  Result<rt::RunStats> R = I->run(C);
  ASSERT_TRUE(R.isOk()) << R.message();

  size_t Starts = 0, Stabilizes = 0, Dies = 0;
  for (const observe::StrandEvent &E : R->Events) {
    switch (E.Kind) {
    case observe::StrandEventKind::Start:
      ++Starts;
      break;
    case observe::StrandEventKind::Stabilize:
      ++Stabilizes;
      break;
    case observe::StrandEventKind::Die:
      ++Dies;
      break;
    case observe::StrandEventKind::Fault:
      ADD_FAILURE() << "fault event in a policy-free run";
      break;
    }
    EXPECT_GE(E.Step, 0);
    if (Workers > 0)
      EXPECT_LT(E.Worker, Workers);
  }
  EXPECT_EQ(Starts, I->numStrands());
  EXPECT_EQ(Stabilizes, I->numStable());
  EXPECT_EQ(Dies, I->numDead());

  // The event log exports as valid JSON, and the Chrome trace embeds the
  // events as instant markers.
  std::string LJ = observe::lifecycleJson(*R);
  EXPECT_TRUE(jsonParses(LJ)) << LJ;
  EXPECT_NE(LJ.find("\"kind\":\"stabilize\""), std::string::npos);
  std::string CT = observe::chromeTrace(*R);
  EXPECT_TRUE(jsonParses(CT));
  EXPECT_NE(CT.find("\"ph\":\"i\""), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Engines, LifecycleEngines,
                         ::testing::Combine(::testing::Values(Engine::Interp,
                                                              Engine::Native),
                                            ::testing::Values(0, 3)));

TEST(Lifecycle, EventWireFormatRoundTrips) {
  rt::RunStats S;
  S.Events.push_back({42, 3, observe::StrandEventKind::Die, 1, 12345});
  S.Events.push_back({7, 0, observe::StrandEventKind::Start, 0, 100});
  std::vector<uint64_t> Flat = observe::flattenEvents(S);
  rt::RunStats Back;
  ASSERT_TRUE(observe::unflattenEvents(Flat.data(), Flat.size(), Back));
  ASSERT_EQ(Back.Events.size(), 2u);
  EXPECT_EQ(Back.Events[0].Strand, 42u);
  EXPECT_EQ(Back.Events[0].Kind, observe::StrandEventKind::Die);
  EXPECT_EQ(Back.Events[1].Ns, 100u);
}

//===----------------------------------------------------------------------===//
// Compiler pass timing
//===----------------------------------------------------------------------===//

TEST(PassTiming, EveryPassReportsTimeAndOpCounts) {
  Result<CompiledProgram> CP = compileString(ProbeProgram, {}, "timed");
  ASSERT_TRUE(CP.isOk()) << CP.message();
  const std::vector<PassTiming> &T = CP->passTimings();
  ASSERT_GE(T.size(), 4u);
  bool SawMidLower = false, SawScalarize = false;
  for (const PassTiming &P : T) {
    EXPECT_FALSE(P.Pass.empty());
    EXPECT_GT(P.OpsBefore, 0);
    EXPECT_GT(P.OpsAfter, 0);
    SawMidLower = SawMidLower || P.Pass == "mid_lower";
    SawScalarize = SawScalarize || P.Pass == "scalarize";
  }
  EXPECT_TRUE(SawMidLower);
  EXPECT_TRUE(SawScalarize);
}

TEST(PassTiming, DisabledPassesAreAbsent) {
  CompileOptions Opts;
  Opts.EnableContract = false;
  Opts.EnableValueNumbering = false;
  Result<CompiledProgram> CP = compileString(ProbeProgram, Opts, "timed2");
  ASSERT_TRUE(CP.isOk()) << CP.message();
  for (const PassTiming &P : CP->passTimings()) {
    EXPECT_EQ(P.Pass.find("contract"), std::string::npos);
    EXPECT_EQ(P.Pass.find("value_number"), std::string::npos);
  }
}

} // namespace
} // namespace diderot
