//===--- tests/replay_test.cpp - flight recorder record/replay ---------------===//
//
// The record/replay subsystem (docs/REPLAY.md) end to end: the ustar
// bundle archive, the manifest/digest/state wire formats, cross-scheduler
// and cross-engine digest determinism, record -> replay fidelity (including
// fault-injection plans), first-divergence diagnosis with source-map field
// names, and the daemon's failure capture (--record-on-failure, GET
// /jobs/<id>/bundle, GET /recordings, LRU bounding, metrics).
//
//===----------------------------------------------------------------------===//

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "driver/record.h"
#include "observe/fault.h"
#include "observe/replay.h"
#include "serve/daemon.h"
#include "support/tarball.h"
#include "synth/synth.h"

namespace diderot {
namespace {

namespace fs = std::filesystem;

/// Converges after four updates with real arithmetic in the loop, so every
/// superstep changes the digest.
const char *StepProgram = R"(
strand S (int i) {
  int it = 0;
  output real y = real(i);
  update {
    it += 1;
    y = (y + real(i)) / 3.0 + sqrt(y + 1.0);
    if (it == 4) stabilize;
  }
}
initially [ S(i) | i in 0 .. 7 ];
)";

/// Probe programs for the digest oracle: each update probes a field at a
/// position that moves with the probed values, so a one-ulp difference in
/// any convolution sum reaches the state. Value, gradient and Hessian of a
/// 3-D bspln3 scalar field inside an `inside` guard; the outermost strands
/// start outside the domain and die.
const char *Probe3dProgram = R"(
input image(3)[] img;
field#2(3)[] F = img ⊛ bspln3;
strand S (int i) {
  vec3 p = [-0.9 + 0.17*real(i), 0.35 - 0.06*real(i), -0.2 + 0.04*real(i)];
  int it = 0;
  output real y = 0.0;
  update {
    if (inside(p, F)) {
      tensor[3,3] H = ∇⊗∇F(p);
      vec3 g = ∇F(p);
      y += F(p) + 0.1*|g| + 0.01*trace(H);
      p += 0.05*g/(|g| + 1.0) + 0.001*(H•g);
    } else {
      die;
    }
    it += 1;
    if (it == 6) stabilize;
  }
}
initially [ S(i) | i in 0 .. 11 ];
)";

/// A 2-D vec2 field reconstructed with ctmr: value and Jacobian.
const char *Probe2dVecProgram = R"(
input image(2)[2] img;
field#1(2)[2] V = img ⊛ ctmr;
strand S (int i) {
  vec2 p = [-0.95 + 0.17*real(i), 0.5 - 0.07*real(i)];
  int it = 0;
  output vec2 y = [0.0, 0.0];
  update {
    if (inside(p, V)) {
      tensor[2,2] J = ∇⊗V(p);
      y += V(p) + 0.1*(J•p);
      p += 0.05*V(p);
    } else {
      die;
    }
    it += 1;
    if (it == 6) stabilize;
  }
}
initially [ S(i) | i in 0 .. 11 ];
)";

/// The 3-D probe program's input: ctHand with a rotated, anisotropic
/// orientation so the world-space derivative transform is non-trivial.
Image probeVolume() {
  Image Img = synth::ctHand(20);
  double C = std::cos(0.3), S = std::sin(0.3), H = 2.0 / 19.0;
  Img.setOrientation({C * H, -S * H, 0.0, S * H, C * H, 0.0, 0.0, 0.0,
                      1.1 * H},
                     {-1.0, -1.0, -1.0});
  return Img;
}

std::string tempDir(const char *Tag) {
  auto P = fs::temp_directory_path() /
           (std::string("diderot-replay-test-") + Tag + "-" +
            std::to_string(::getpid()));
  fs::create_directories(P);
  return P.string();
}

std::unique_ptr<rt::ProgramInstance> makeInstance(const CompiledProgram &CP) {
  Result<std::unique_ptr<rt::ProgramInstance>> I = CP.instantiate();
  EXPECT_TRUE(I.isOk()) << I.message();
  return I.isOk() ? std::move(*I) : nullptr;
}

Result<CompiledProgram> compileWith(Engine Eng, bool DoublePrec = false,
                                    const char *Src = StepProgram) {
  CompileOptions Opts;
  Opts.Eng = Eng;
  Opts.DoublePrecision = DoublePrec;
  return compileString(Src, Opts, "replay_step");
}

/// Run \p CP once under \p RC (digests armed), with \p Img bound to the
/// input `img` when given, and return the digest entries.
std::vector<support::Hash128> digestsUnder(const CompiledProgram &CP,
                                           rt::RunConfig RC,
                                           const Image *Img = nullptr) {
  std::unique_ptr<rt::ProgramInstance> I = makeInstance(CP);
  if (!I)
    return {};
  if (Img) {
    EXPECT_TRUE(I->setInputImage("img", *Img).isOk());
  }
  EXPECT_TRUE(I->initialize().isOk());
  RC.CollectDigests = true;
  Result<rt::RunStats> Run = I->run(RC);
  EXPECT_TRUE(Run.isOk()) << Run.message();
  const observe::DigestLog *L = I->digestLog();
  EXPECT_NE(L, nullptr);
  return L ? L->Entries : std::vector<support::Hash128>{};
}

//===----------------------------------------------------------------------===//
// Tarball
//===----------------------------------------------------------------------===//

TEST(Tarball, RoundTrip) {
  support::TarEntries In = {
      {"manifest.json", "{\"schema\":1}"},
      {"program.diderot", std::string("strand S () {}\n")},
      {"digests.tsv", std::string(4096, 'x')}, // multi-block payload
      {"empty", ""},
  };
  Result<std::string> Tar = support::tarSerialize(In);
  ASSERT_TRUE(Tar.isOk()) << Tar.message();
  EXPECT_EQ(Tar->size() % 512, 0u);
  Result<support::TarEntries> Out = support::tarParse(*Tar);
  ASSERT_TRUE(Out.isOk()) << Out.message();
  ASSERT_EQ(Out->size(), In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    EXPECT_EQ((*Out)[I].first, In[I].first);
    EXPECT_EQ((*Out)[I].second, In[I].second);
  }
}

TEST(Tarball, DirectoryRoundTripIsDeterministic) {
  std::string Dir = tempDir("tar");
  std::ofstream(Dir + "/b.txt") << "bee";
  std::ofstream(Dir + "/a.txt") << "ay";
  Result<std::string> T1 = support::tarDirectory(Dir);
  Result<std::string> T2 = support::tarDirectory(Dir);
  ASSERT_TRUE(T1.isOk()) << T1.message();
  EXPECT_EQ(*T1, *T2); // sorted names, zeroed mtimes: byte-identical
  std::string Out = Dir + "-out";
  ASSERT_TRUE(support::tarExtract(*T1, Out).isOk());
  std::ifstream A(Out + "/a.txt"), B(Out + "/b.txt");
  std::string SA, SB;
  A >> SA;
  B >> SB;
  EXPECT_EQ(SA, "ay");
  EXPECT_EQ(SB, "bee");
  fs::remove_all(Dir);
  fs::remove_all(Out);
}

TEST(Tarball, RejectsEscapingNames) {
  EXPECT_FALSE(support::tarSerialize({{"../escape", "x"}}).isOk());
  EXPECT_FALSE(support::tarSerialize({{std::string(120, 'n'), "x"}}).isOk());
  // An archive whose member name has a separator must not extract.
  Result<std::string> Tar = support::tarSerialize({{"ok.txt", "fine"}});
  ASSERT_TRUE(Tar.isOk());
  std::string Evil = *Tar;
  // Patch the name field in place ("ok.txt" -> "a/b.txt" fits).
  std::string Name = "a/b.txt";
  Evil.replace(0, Name.size() + 1, Name + '\0');
  std::string Dir = tempDir("tar-evil");
  EXPECT_FALSE(support::tarExtract(Evil, Dir).isOk());
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Wire formats
//===----------------------------------------------------------------------===//

observe::ReplayBundle sampleBundle() {
  observe::ReplayBundle B;
  B.Program = "sample";
  B.Source = "strand S () {}\n";
  B.AbiVersion = 7;
  B.CompilerId = "c++ 13";
  B.GitSha = "abc123";
  B.EngineNative = false;
  B.DoublePrecision = true;
  B.EnableContract = false;
  B.ExtraCxxFlags = "-ffp-contract=off";
  B.MaxSupersteps = 42;
  B.NumWorkers = 3;
  B.BlockSize = 16;
  B.DeadlineNs = 5000000;
  B.MaxFaults = 2;
  B.WatchdogSteps = 9;
  B.StrictFp = true;
  B.Plan.push_back({3, 1, static_cast<int>(observe::FaultKind::Injected)});
  B.Inputs.push_back({"ddro", "synth:portrait:48", false});
  B.Inputs.push_back({"img", "input-00ff.nrrd", true});
  B.SlotNames = {"param0", "pos[0]", "pos[1]", "f0"};
  B.Outcome = "fault-budget";
  B.Steps = 7;
  B.NumStrands = 144;
  B.OutputDigest = "deadbeefdeadbeefdeadbeefdeadbeef";
  return B;
}

TEST(ReplayFormat, ManifestRoundTrip) {
  observe::ReplayBundle B = sampleBundle();
  observe::ReplayBundle C;
  ASSERT_TRUE(observe::manifestFromJson(observe::manifestToJson(B), C).isOk());
  EXPECT_EQ(C.Program, B.Program);
  EXPECT_EQ(C.AbiVersion, B.AbiVersion);
  EXPECT_EQ(C.CompilerId, B.CompilerId);
  EXPECT_EQ(C.GitSha, B.GitSha);
  EXPECT_EQ(C.EngineNative, B.EngineNative);
  EXPECT_EQ(C.DoublePrecision, B.DoublePrecision);
  EXPECT_EQ(C.EnableContract, B.EnableContract);
  EXPECT_EQ(C.ExtraCxxFlags, B.ExtraCxxFlags);
  EXPECT_EQ(C.MaxSupersteps, B.MaxSupersteps);
  EXPECT_EQ(C.NumWorkers, B.NumWorkers);
  EXPECT_EQ(C.BlockSize, B.BlockSize);
  EXPECT_EQ(C.DeadlineNs, B.DeadlineNs);
  EXPECT_EQ(C.MaxFaults, B.MaxFaults);
  EXPECT_EQ(C.WatchdogSteps, B.WatchdogSteps);
  EXPECT_EQ(C.StrictFp, B.StrictFp);
  ASSERT_EQ(C.Plan.size(), 1u);
  EXPECT_EQ(C.Plan[0].Strand, 3u);
  EXPECT_EQ(C.Plan[0].Step, 1);
  ASSERT_EQ(C.Inputs.size(), 2u);
  EXPECT_EQ(C.Inputs[0].Name, "ddro");
  EXPECT_FALSE(C.Inputs[0].IsFile);
  EXPECT_TRUE(C.Inputs[1].IsFile);
  EXPECT_EQ(C.SlotNames, B.SlotNames);
  EXPECT_EQ(C.Outcome, B.Outcome);
  EXPECT_EQ(C.Steps, B.Steps);
  EXPECT_EQ(C.NumStrands, B.NumStrands);
  EXPECT_EQ(C.OutputDigest, B.OutputDigest);

  // Manifests written while two parallel schedulers existed name one in
  // "run"; the key is ignored, so those bundles still load.
  std::string Old = observe::manifestToJson(B);
  size_t Run = Old.find("\"block_size\"");
  ASSERT_NE(Run, std::string::npos);
  Old.insert(Run, "\"scheduler\": \"pooled\", ");
  observe::ReplayBundle D;
  ASSERT_TRUE(observe::manifestFromJson(Old, D).isOk());
  EXPECT_EQ(D.NumWorkers, B.NumWorkers);
  EXPECT_EQ(D.BlockSize, B.BlockSize);
}

TEST(ReplayFormat, ManifestRejectsBadSchema) {
  observe::ReplayBundle B;
  EXPECT_FALSE(observe::manifestFromJson("{\"schema\":99}", B).isOk());
  EXPECT_FALSE(observe::manifestFromJson("not json", B).isOk());
}

TEST(ReplayFormat, DigestAndStateTsvRoundTrip) {
  observe::DigestLog L;
  L.NumStrands = 2;
  L.NumSlots = 3;
  L.HasStates = true;
  L.Entries = {{1, 2}, {0xffffffffffffffffull, 0}};
  L.Status = {0, 1, 2, 3};
  L.Slots.assign(12, 0);
  L.Slots[5] = 0x3ff0000000000000ull; // 1.0
  observe::DigestLog M;
  ASSERT_TRUE(observe::digestsFromTsv(observe::digestsToTsv(L), M).isOk());
  EXPECT_EQ(M.Entries, L.Entries);
  ASSERT_TRUE(observe::statesFromTsv(observe::statesToTsv(L), M).isOk());
  EXPECT_EQ(M.NumStrands, L.NumStrands);
  EXPECT_EQ(M.NumSlots, L.NumSlots);
  EXPECT_EQ(M.Status, L.Status);
  EXPECT_EQ(M.Slots, L.Slots);
}

TEST(ReplayFormat, BundleDirectoryRoundTrip) {
  std::string Dir = tempDir("bundle");
  observe::ReplayBundle B = sampleBundle();
  B.Digests.Entries = {{7, 8}, {9, 10}};
  std::map<std::string, std::string> Files{{"input-00ff.nrrd", "NRRD0004\n"}};
  ASSERT_TRUE(observe::writeBundle(Dir, B, Files).isOk());
  // The manifest is the completion marker; every file must be present.
  EXPECT_TRUE(fs::exists(fs::path(Dir) / observe::bundleManifestFile()));
  EXPECT_TRUE(fs::exists(fs::path(Dir) / observe::bundleSourceFile()));
  EXPECT_TRUE(fs::exists(fs::path(Dir) / "input-00ff.nrrd"));
  Result<observe::ReplayBundle> C = observe::readBundle(Dir);
  ASSERT_TRUE(C.isOk()) << C.message();
  EXPECT_EQ(C->Source, B.Source);
  EXPECT_EQ(C->Digests.Entries, B.Digests.Entries);
  EXPECT_EQ(C->Outcome, "fault-budget");
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Determinism across schedulers and engines (the digest contract)
//===----------------------------------------------------------------------===//

/// The digest oracle's programs: plain arithmetic, and the two probe
/// programs with their input images.
struct DigestCase {
  const char *Name;
  const char *Src;
  std::optional<Image> Img;
};

std::vector<DigestCase> digestCases() {
  return {{"arithmetic", StepProgram, std::nullopt},
          {"bspln3 3-D value/gradient/Hessian", Probe3dProgram,
           probeVolume()},
          {"ctmr 2-D vec2 value/Jacobian", Probe2dVecProgram,
           synth::flow2d(24)}};
}

TEST(ReplayDeterminism, SchedulersAgree) {
  for (const DigestCase &DC : digestCases()) {
    SCOPED_TRACE(DC.Name);
    const Image *Img = DC.Img ? &*DC.Img : nullptr;
    Result<CompiledProgram> CP = compileWith(Engine::Interp, false, DC.Src);
    ASSERT_TRUE(CP.isOk()) << CP.message();
    rt::RunConfig Seq;
    Seq.MaxSupersteps = 100;
    Seq.NumWorkers = 0;
    std::vector<support::Hash128> A = digestsUnder(*CP, Seq, Img);
    ASSERT_GT(A.size(), 2u);
    for (int Workers : {1, 3, 4}) {
      rt::RunConfig Par = Seq;
      Par.NumWorkers = Workers;
      EXPECT_EQ(A, digestsUnder(*CP, Par, Img))
          << "sequential vs " << Workers << "-worker digest streams differ";
    }
  }
}

TEST(ReplayDeterminism, NativeDoubleMatchesInterp) {
  for (const DigestCase &DC : digestCases()) {
    SCOPED_TRACE(DC.Name);
    const Image *Img = DC.Img ? &*DC.Img : nullptr;
    Result<CompiledProgram> CI = compileWith(Engine::Interp, false, DC.Src);
    ASSERT_TRUE(CI.isOk()) << CI.message();
    Result<CompiledProgram> CN =
        compileWith(Engine::Native, /*DoublePrec=*/true, DC.Src);
    ASSERT_TRUE(CN.isOk()) << CN.message();
    rt::RunConfig RC;
    RC.MaxSupersteps = 100;
    std::vector<support::Hash128> A = digestsUnder(*CI, RC, Img);
    std::vector<support::Hash128> B = digestsUnder(*CN, RC, Img);
    ASSERT_GT(A.size(), 2u);
    ASSERT_FALSE(B.empty()) << "native digest capture missing (ABI < 7?)";
    EXPECT_EQ(A, B) << "interp vs native-double digest streams differ";
    // And across worker counts on the native side too.
    for (int Workers : {1, 3, 4}) {
      rt::RunConfig Par = RC;
      Par.NumWorkers = Workers;
      EXPECT_EQ(A, digestsUnder(*CN, Par, Img))
          << "interp vs native-double " << Workers
          << "-worker digest streams differ";
    }
  }
}

//===----------------------------------------------------------------------===//
// Record -> replay fidelity
//===----------------------------------------------------------------------===//

/// Record one interp run of StepProgram into \p Dir (state log included)
/// under \p RC and return the recorded bundle.
observe::ReplayBundle recordRun(const std::string &Dir, rt::RunConfig RC) {
  Result<CompiledProgram> CP = compileWith(Engine::Interp);
  EXPECT_TRUE(CP.isOk()) << CP.message();
  CompileOptions Opts;
  Opts.Eng = Engine::Interp;
  FlightRecorder Rec;
  Rec.begin(Dir, "replay_step", StepProgram, Opts, CP->midModule());
  std::unique_ptr<rt::ProgramInstance> I = makeInstance(*CP);
  EXPECT_TRUE(I->initialize().isOk());
  Rec.armConfig(RC);
  Result<rt::RunStats> Run = I->run(RC);
  EXPECT_TRUE(Run.isOk()) << Run.message();
  EXPECT_TRUE(Rec.finish(*I, *Run).isOk());
  return Rec.bundle();
}

TEST(ReplayFidelity, RecordReplayMatches) {
  std::string Dir = tempDir("fid");
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  observe::ReplayBundle B = recordRun(Dir, RC);
  EXPECT_EQ(B.Outcome, "converged");
  EXPECT_EQ(B.Steps, 4);
  Result<ReplayReport> R = replayBundle(Dir);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_TRUE(R->Match) << R->Text;
  EXPECT_TRUE(R->DigestsCompared);
  EXPECT_FALSE(R->Div.Diverged) << R->Div.Summary;
  EXPECT_NE(R->Text.find("verdict: MATCH"), std::string::npos);

  // A bundle recorded while the manifest still named a scheduler replays
  // the same way.
  fs::path Manifest = fs::path(Dir) / observe::bundleManifestFile();
  std::string Text;
  {
    std::ifstream In(Manifest);
    Text.assign(std::istreambuf_iterator<char>(In), {});
  }
  size_t Run = Text.find("\"block_size\"");
  ASSERT_NE(Run, std::string::npos);
  Text.insert(Run, "\"scheduler\": \"bsp\", ");
  {
    std::ofstream Out(Manifest, std::ios::trunc);
    Out << Text;
  }
  Result<ReplayReport> Old = replayBundle(Dir);
  ASSERT_TRUE(Old.isOk()) << Old.message();
  EXPECT_TRUE(Old->Match) << Old->Text;
  fs::remove_all(Dir);
}

TEST(ReplayFidelity, FaultPlanReplaysToSameOutcome) {
  std::string Dir = tempDir("fault");
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  RC.Policy.MaxFaults = 0; // first injected fault ends the run
  RC.Policy.Plan.at(3, 1, observe::FaultKind::Injected);
  observe::ReplayBundle B = recordRun(Dir, RC);
  EXPECT_EQ(B.Outcome, "fault-budget");
  ASSERT_EQ(B.Plan.size(), 1u) << "fault plan must ride in the bundle";
  Result<ReplayReport> R = replayBundle(Dir);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->ReplayedOutcome, "fault-budget");
  EXPECT_EQ(R->ReplayedSteps, B.Steps);
  EXPECT_TRUE(R->Match) << R->Text;
  fs::remove_all(Dir);
}

TEST(ReplayFidelity, PerturbationPinpointedByStrandAndField) {
  std::string Dir = tempDir("perturb");
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  recordRun(Dir, RC);
  // Tamper with the recording: strand 3's y at digest entry 2 gains one
  // ULP, and that entry's digest is bumped so the streams disagree there.
  Result<observe::ReplayBundle> BR = observe::readBundle(Dir);
  ASSERT_TRUE(BR.isOk()) << BR.message();
  observe::ReplayBundle B = *BR;
  ASSERT_TRUE(B.Digests.HasStates);
  auto YIt = std::find(B.SlotNames.begin(), B.SlotNames.end(), "y");
  ASSERT_NE(YIt, B.SlotNames.end());
  size_t YSlot = static_cast<size_t>(YIt - B.SlotNames.begin());
  size_t Strands = static_cast<size_t>(B.Digests.NumStrands);
  size_t Slots = static_cast<size_t>(B.Digests.NumSlots);
  constexpr size_t Entry = 2, Strand = 3;
  B.Digests.Slots[(Entry * Strands + Strand) * Slots + YSlot] ^= 1;
  B.Digests.Entries[Entry].Lo ^= 1;
  ASSERT_TRUE(observe::writeBundle(Dir, B).isOk());

  Result<ReplayReport> R = replayBundle(Dir);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_FALSE(R->Match);
  ASSERT_TRUE(R->Div.Diverged);
  EXPECT_EQ(R->Div.Superstep, 2);
  EXPECT_EQ(R->Div.Strand, 3);
  EXPECT_EQ(R->Div.SlotName, "y");
  EXPECT_NE(R->Text.find("field 'y'"), std::string::npos) << R->Text;
  fs::remove_all(Dir);
}

TEST(ReplayFidelity, DumpStrandUsesSourceMapNames) {
  std::string Dir = tempDir("dump");
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  observe::ReplayBundle B = recordRun(Dir, RC);
  Result<std::string> D = observe::dumpStrand(B, 3, 2);
  ASSERT_TRUE(D.isOk()) << D.message();
  EXPECT_NE(D->find("param0"), std::string::npos) << *D;
  EXPECT_NE(D->find("y"), std::string::npos) << *D;
  EXPECT_FALSE(observe::dumpStrand(B, 999, 2).isOk());
  EXPECT_FALSE(observe::dumpStrand(B, 3, 999).isOk());
  fs::remove_all(Dir);
}

TEST(ReplayFidelity, ReplaysFromTarArchive) {
  std::string Dir = tempDir("tarrep");
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  recordRun(Dir, RC);
  Result<std::string> Tar = support::tarDirectory(Dir);
  ASSERT_TRUE(Tar.isOk());
  std::string TarPath = Dir + ".tar";
  std::ofstream(TarPath, std::ios::binary) << *Tar;
  Result<ReplayReport> R = replayBundle(TarPath);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_TRUE(R->Match) << R->Text;
  fs::remove_all(Dir);
  fs::remove(TarPath);
}

//===----------------------------------------------------------------------===//
// Daemon failure capture
//===----------------------------------------------------------------------===//

#if defined(__unix__) || defined(__APPLE__)

struct Reply {
  int Code = 0;
  std::string Body;
};

Reply httpDo(int Port, const std::string &Method, const std::string &Path,
             const std::string &Body = "",
             const std::vector<std::pair<std::string, std::string>> &Headers =
                 {}) {
  Reply Out;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Out;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return Out;
  }
  std::string Wire = Method + " " + Path + " HTTP/1.1\r\n";
  for (const auto &[K, V] : Headers)
    Wire += K + ": " + V + "\r\n";
  Wire += "Content-Length: " + std::to_string(Body.size()) + "\r\n\r\n" + Body;
  size_t Off = 0;
  while (Off < Wire.size()) {
    ssize_t N = ::send(Fd, Wire.data() + Off, Wire.size() - Off, 0);
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
  char Buf[8192];
  ssize_t N;
  std::string Raw;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Raw.append(Buf, static_cast<size_t>(N));
  ::close(Fd);
  if (Raw.size() > 12)
    Out.Code = std::atoi(Raw.c_str() + 9);
  size_t HdrEnd = Raw.find("\r\n\r\n");
  if (HdrEnd != std::string::npos)
    Out.Body = Raw.substr(HdrEnd + 4);
  return Out;
}

/// Submit StepProgram with one injected fault and wait for the job to end.
/// Returns the job id.
std::string runFaultedJob(int Port) {
  Reply R = httpDo(Port, "POST", "/run", StepProgram,
                   {{"X-Diderot-Fault", "3@1"}});
  EXPECT_EQ(R.Code, 202) << R.Body;
  size_t P = R.Body.find("\"job\":\"");
  EXPECT_NE(P, std::string::npos);
  std::string Job = R.Body.substr(P + 7);
  Job = Job.substr(0, Job.find('"'));
  for (int I = 0; I < 500; ++I) {
    Reply Poll = httpDo(Port, "GET", "/jobs/" + Job);
    if (Poll.Body.find("\"state\":\"done\"") != std::string::npos ||
        Poll.Body.find("\"state\":\"failed\"") != std::string::npos)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Job;
}

serve::DaemonOptions recordingDaemonOptions(const std::string &Dir) {
  serve::DaemonOptions O;
  O.Compile.Eng = Engine::Interp;
  O.Compile.WorkDir = Dir;
  O.RecordOnFailure = true;
  O.TraceSampleN = 1; // every job sampled: the record span must appear
  return O;
}

TEST(DaemonRecord, FaultedJobBundleServedAndReplays) {
  std::string Dir = tempDir("daemon");
  serve::Daemon D;
  ASSERT_TRUE(D.start(recordingDaemonOptions(Dir)).isOk());
  std::string Job = runFaultedJob(D.port());
  D.waitIdle();

  // The job record says a bundle exists...
  Reply Poll = httpDo(D.port(), "GET", "/jobs/" + Job);
  EXPECT_NE(Poll.Body.find("\"bundle\":true"), std::string::npos) << Poll.Body;
  EXPECT_NE(Poll.Body.find("\"faulted\":1"), std::string::npos) << Poll.Body;
  EXPECT_EQ(D.counters().RecordingsTotal, 1u);

  // ...the recordings listing shows it...
  Reply List = httpDo(D.port(), "GET", "/recordings");
  EXPECT_EQ(List.Code, 200);
  EXPECT_NE(List.Body.find("\"id\":\"" + Job + "\""), std::string::npos)
      << List.Body;

  // ...the bundle is fetchable as a tar and replays to the same outcome...
  Reply Tar = httpDo(D.port(), "GET", "/jobs/" + Job + "/bundle");
  ASSERT_EQ(Tar.Code, 200);
  std::string TarPath = Dir + "/fetched.tar";
  std::ofstream(TarPath, std::ios::binary) << Tar.Body;
  Result<ReplayReport> R = replayBundle(TarPath);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_TRUE(R->Match) << R->Text;
  ASSERT_EQ(R->Bundle.Plan.size(), 1u); // the injected fault rode along
  EXPECT_EQ(R->Bundle.Plan[0].Strand, 3u);

  // ...the daemon's own replay verification agrees (and no divergence is
  // counted)...
  Reply Verify = httpDo(D.port(), "GET", "/recordings/" + Job + "/replay");
  EXPECT_EQ(Verify.Code, 200);
  EXPECT_NE(Verify.Body.find("verdict: MATCH"), std::string::npos)
      << Verify.Body;
  EXPECT_EQ(D.counters().ReplayDivergence, 0u);

  // ...and the sampled trace carries the record span.
  Reply Trace = httpDo(D.port(), "GET", "/jobs/" + Job + "/trace");
  EXPECT_NE(Trace.Body.find("\"record\""), std::string::npos) << Trace.Body;

  // Jobs without a bundle 404, unknown recordings 404, traversal rejected.
  EXPECT_EQ(httpDo(D.port(), "GET", "/jobs/nope/bundle").Code, 404);
  EXPECT_EQ(httpDo(D.port(), "GET", "/recordings/nope").Code, 404);
  EXPECT_EQ(httpDo(D.port(), "GET", "/recordings/../cache").Code, 404);
  D.stop();
  fs::remove_all(Dir);
}

TEST(DaemonRecord, ConvergedJobRecordsNothing) {
  std::string Dir = tempDir("daemon-ok");
  serve::Daemon D;
  ASSERT_TRUE(D.start(recordingDaemonOptions(Dir)).isOk());
  Reply R = httpDo(D.port(), "POST", "/run", StepProgram);
  ASSERT_EQ(R.Code, 202);
  D.waitIdle();
  EXPECT_EQ(D.counters().RecordingsTotal, 0u);
  Reply List = httpDo(D.port(), "GET", "/recordings");
  EXPECT_NE(List.Body.find("\"recordings\":[]"), std::string::npos)
      << List.Body;
  D.stop();
  fs::remove_all(Dir);
}

TEST(DaemonRecord, RecordingsCapEvictsOldest) {
  std::string Dir = tempDir("daemon-cap");
  serve::DaemonOptions O = recordingDaemonOptions(Dir);
  O.RecordingsMaxBytes = 1; // every new bundle evicts all older ones
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  std::string J1 = runFaultedJob(D.port());
  D.waitIdle();
  std::string J2 = runFaultedJob(D.port());
  D.waitIdle();
  EXPECT_EQ(D.counters().RecordingsTotal, 2u);
  EXPECT_GE(D.counters().RecordingsEvicted, 1u);
  Reply List = httpDo(D.port(), "GET", "/recordings");
  EXPECT_EQ(List.Body.find("\"id\":\"" + J1 + "\""), std::string::npos)
      << List.Body;
  EXPECT_NE(List.Body.find("\"id\":\"" + J2 + "\""), std::string::npos)
      << List.Body;
  EXPECT_EQ(httpDo(D.port(), "GET", "/jobs/" + J1 + "/bundle").Code, 404);
  D.stop();
  fs::remove_all(Dir);
}

TEST(DaemonRecord, MetricsExposeGaugesAndRecorderCounters) {
  std::string Dir = tempDir("daemon-metrics");
  serve::Daemon D;
  ASSERT_TRUE(D.start(recordingDaemonOptions(Dir)).isOk());
  runFaultedJob(D.port());
  D.waitIdle();
  Reply M = httpDo(D.port(), "GET", "/metrics");
  ASSERT_EQ(M.Code, 200);
  // The live load gauges (queue depth, jobs in flight) with gauge TYPE
  // lines, idle at scrape time.
  EXPECT_NE(M.Body.find("# TYPE diderot_daemon_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(M.Body.find("diderot_daemon_queue_depth 0"), std::string::npos);
  EXPECT_NE(M.Body.find("# TYPE diderot_daemon_jobs_inflight gauge"),
            std::string::npos);
  EXPECT_NE(M.Body.find("diderot_daemon_jobs_inflight 0"), std::string::npos);
  // The flight-recorder counters.
  EXPECT_NE(M.Body.find("diderot_daemon_recordings_total 1"),
            std::string::npos);
  EXPECT_NE(M.Body.find("diderot_daemon_recordings_evicted_total 0"),
            std::string::npos);
  EXPECT_NE(M.Body.find("diderot_daemon_replay_divergence_total 0"),
            std::string::npos);
  D.stop();
  fs::remove_all(Dir);
}

#endif // unix

} // namespace
} // namespace diderot
