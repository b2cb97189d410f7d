//===--- driver/record.cpp - flight recorder and bundle replay ---------------===//

#include "driver/record.h"

#include <atomic>
#include <filesystem>
#include <fstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "codegen/cache.h"
#include "driver/inputs.h"
#include "observe/fault.h"
#include "support/hash.h"
#include "support/strings.h"
#include "support/tarball.h"

namespace diderot {

namespace fs = std::filesystem;

namespace {

/// Canonical slot count of one strand value — the same rule the native
/// emitter (codegen/emit_cpp.cpp slotCount) and the interpreter's RtVal
/// flattening follow, so names line up with digested slots by construction.
int slotCountOf(const Type &T) {
  switch (T.kind()) {
  case TypeKind::Tensor:
    return T.shape().numComponents();
  case TypeKind::Sequence:
    return T.seqLen() * slotCountOf(T.elem());
  default:
    return 1;
  }
}

void appendSlotNames(const std::string &Base, const Type &T,
                     std::vector<std::string> &Out) {
  int N = slotCountOf(T);
  if (N == 1) {
    Out.push_back(Base);
    return;
  }
  for (int K = 0; K < N; ++K)
    Out.push_back(strf(Base, "[", K, "]"));
}

std::string readFileBytes(const std::string &Path, bool &Ok) {
  std::ifstream In(Path, std::ios::binary);
  Ok = static_cast<bool>(In);
  if (!Ok)
    return {};
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  Ok = !In.bad();
  return Bytes;
}

} // namespace

std::vector<std::string> strandSlotNames(const ir::Module &M) {
  std::vector<std::string> Names;
  for (size_t I = 0; I < M.StrandParams.size(); ++I)
    appendSlotNames(strf("param", I), M.StrandParams[I], Names);
  for (const ir::StateSlot &S : M.State)
    appendSlotNames(S.Name, S.Ty, Names);
  return Names;
}

std::string outputDigestHex(rt::ProgramInstance &I) {
  observe::StrandStateHasher H;
  std::vector<double> Data;
  for (const rt::OutputDesc &O : I.outputs()) {
    Data.clear();
    if (!I.getOutput(O.Name, Data).isOk())
      continue;
    for (double V : Data)
      H.slot(V);
  }
  return H.digest().hex();
}

std::string currentGitSha() {
  std::error_code EC;
  fs::path P = fs::current_path(EC);
  if (EC)
    return {};
  for (;; P = P.parent_path()) {
    std::ifstream Head(P / ".git" / "HEAD");
    if (Head) {
      std::string Line;
      std::getline(Head, Line);
      if (!Line.starts_with("ref: "))
        return Line; // detached HEAD: the hash itself
      std::string Ref = Line.substr(5);
      std::ifstream RefIn(P / ".git" / Ref);
      std::string Sha;
      if (RefIn && std::getline(RefIn, Sha) && !Sha.empty())
        return Sha;
      // Ref may only exist packed.
      std::ifstream Packed(P / ".git" / "packed-refs");
      std::string L;
      while (Packed && std::getline(Packed, L))
        if (L.size() > 41 && L[40] == ' ' && L.substr(41) == Ref)
          return L.substr(0, 40);
      return {};
    }
    if (P == P.parent_path())
      return {};
  }
}

//===----------------------------------------------------------------------===//
// FlightRecorder
//===----------------------------------------------------------------------===//

void FlightRecorder::begin(std::string RecDir, const std::string &ProgramName,
                           std::string Source, const CompileOptions &Opts,
                           const ir::Module &Mid) {
  Dir = std::move(RecDir);
  B = observe::ReplayBundle{};
  Files.clear();
  B.Program = ProgramName;
  B.Source = std::move(Source);
  B.AbiVersion = DdrAbiVersion;
  B.CompilerId = codegen::hostCompilerId();
  B.GitSha = currentGitSha();
  B.EngineNative = Opts.Eng == Engine::Native;
  B.DoublePrecision = Opts.DoublePrecision;
  B.EnableContract = Opts.EnableContract;
  B.EnableValueNumbering = Opts.EnableValueNumbering;
  B.ExtraCxxFlags = Opts.ExtraCxxFlags;
  B.SlotNames = strandSlotNames(Mid);
}

Status FlightRecorder::addInput(const std::string &Name,
                                const std::string &Value) {
  observe::RecordedInput In;
  In.Name = Name;
  std::error_code EC;
  if (fs::is_regular_file(Value, EC)) {
    bool Ok = false;
    std::string Bytes = readFileBytes(Value, Ok);
    if (!Ok)
      return Status::error(strf("record: cannot read input file ", Value));
    std::string File =
        observe::bundleInputFile(support::fnv1a128(Bytes).hex());
    Files[File] = std::move(Bytes);
    In.Text = File;
    In.IsFile = true;
  } else {
    In.Text = Value;
  }
  B.Inputs.push_back(std::move(In));
  return Status::ok();
}

void FlightRecorder::armConfig(rt::RunConfig &C) {
  B.MaxSupersteps = C.MaxSupersteps;
  B.NumWorkers = C.NumWorkers;
  B.BlockSize = C.BlockSize;
  B.DeadlineNs = C.Policy.DeadlineNs;
  B.MaxFaults = C.Policy.MaxFaults;
  B.WatchdogSteps = C.Policy.WatchdogSteps;
  B.StrictFp = C.Policy.StrictFp;
  B.Plan.clear();
  for (const observe::PlannedFault &F : C.Policy.Plan.Faults)
    B.Plan.push_back({F.Strand, F.Step, static_cast<int>(F.Kind)});
  C.CollectDigests = true;
  C.CollectStateLog = true;
}

Status FlightRecorder::finish(rt::ProgramInstance &I,
                              const rt::RunStats &Stats) {
  if (Dir.empty())
    return Status::error("record: finish() without begin()");
  B.Outcome = observe::runOutcomeName(Stats.Outcome);
  B.Steps = Stats.Steps;
  B.NumStrands = static_cast<int64_t>(I.numStrands());
  B.OutputDigest = outputDigestHex(I);
  if (const observe::DigestLog *L = I.digestLog())
    B.Digests = *L;
  else
    B.Digests.clear();
  return observe::writeBundle(Dir, B, Files);
}

Status FlightRecorder::finishTrapped(const std::string &OutcomeLabel) {
  if (Dir.empty())
    return Status::error("record: finishTrapped() without begin()");
  B.Outcome = OutcomeLabel;
  B.Steps = 0;
  B.NumStrands = 0;
  B.OutputDigest.clear();
  B.Digests.clear();
  return observe::writeBundle(Dir, B, Files);
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

Result<observe::ReplayBundle> loadBundle(const std::string &Path,
                                         std::string *BundleDir) {
  using RB = Result<observe::ReplayBundle>;
  std::error_code EC;
  std::string Dir = Path;
  if (fs::is_regular_file(Path, EC)) {
    // A ustar archive of a bundle directory: materialize it.
    bool Ok = false;
    std::string Bytes = readFileBytes(Path, Ok);
    if (!Ok)
      return RB::error(strf("cannot read bundle archive ", Path));
    static std::atomic<uint64_t> Counter{0};
    long Pid =
#ifndef _WIN32
        static_cast<long>(::getpid());
#else
        0;
#endif
    fs::path Tmp = fs::temp_directory_path(EC);
    if (EC)
      return RB::error("cannot locate temp directory");
    Dir = (Tmp / strf("ddr-replay-", Pid, "-",
                      Counter.fetch_add(1, std::memory_order_relaxed)))
              .string();
    Status S = support::tarExtract(Bytes, Dir);
    if (!S.isOk())
      return RB::error(strf("bundle archive: ", S.message()));
  } else if (!fs::is_directory(Path, EC)) {
    return RB::error(strf("no bundle at ", Path));
  }
  if (BundleDir)
    *BundleDir = Dir;
  return observe::readBundle(Dir);
}

Result<ReplayReport> replayBundle(const std::string &Path,
                                  const std::string &WorkDir) {
  using RR = Result<ReplayReport>;
  std::string Dir;
  Result<observe::ReplayBundle> BR = loadBundle(Path, &Dir);
  if (!BR.isOk())
    return RR::error(BR.message());
  ReplayReport R;
  R.Bundle = std::move(*BR);
  const observe::ReplayBundle &B = R.Bundle;

  CompileOptions Opts;
  Opts.Eng = B.EngineNative ? Engine::Native : Engine::Interp;
  Opts.DoublePrecision = B.DoublePrecision;
  Opts.EnableContract = B.EnableContract;
  Opts.EnableValueNumbering = B.EnableValueNumbering;
  Opts.ExtraCxxFlags = B.ExtraCxxFlags;
  Opts.WorkDir = WorkDir;
  Result<CompiledProgram> CP = compileString(
      B.Source, Opts, B.Program.empty() ? "replay" : B.Program);
  if (!CP.isOk())
    return RR::error(strf("replay recompile failed: ", CP.message()));
  Result<std::unique_ptr<rt::ProgramInstance>> Inst = CP->instantiate();
  if (!Inst.isOk())
    return RR::error(Inst.message());
  rt::ProgramInstance &I = **Inst;

  for (const observe::RecordedInput &In : B.Inputs) {
    std::string Text =
        In.IsFile ? (fs::path(Dir) / In.Text).string() : In.Text;
    Status S = setInputFromText(I, In.Name, Text);
    if (!S.isOk())
      return RR::error(strf("replay input '", In.Name, "': ", S.message()));
  }
  Status S = I.initialize();
  if (!S.isOk())
    return RR::error(S.message());

  rt::RunConfig C;
  C.MaxSupersteps = B.MaxSupersteps;
  C.NumWorkers = B.NumWorkers;
  C.BlockSize = B.BlockSize;
  C.Policy.DeadlineNs = B.DeadlineNs;
  C.Policy.MaxFaults = B.MaxFaults;
  C.Policy.WatchdogSteps = B.WatchdogSteps;
  C.Policy.StrictFp = B.StrictFp;
  for (const observe::ReplayBundle::PlannedFaultRec &F : B.Plan)
    C.Policy.Plan.at(F.Strand, F.Step, static_cast<observe::FaultKind>(F.Kind));
  // A recorded deadline verdict raced a wall clock; replaying the race on a
  // different machine proves nothing. Replay step-capped to the recorded
  // superstep count and judge by state evolution instead.
  const bool WasDeadline = B.Outcome == "deadline";
  if (WasDeadline) {
    C.Policy.DeadlineNs = 0;
    C.MaxSupersteps = B.Steps;
  }
  C.CollectDigests = true;
  C.CollectStateLog = B.Digests.HasStates;

  Result<rt::RunStats> Run = I.run(C);
  if (!Run.isOk())
    return RR::error(Run.message());
  R.ReplayedOutcome = observe::runOutcomeName(Run->Outcome);
  R.ReplayedSteps = Run->Steps;
  R.ReplayedOutputDigest = outputDigestHex(I);
  R.OutcomeMatches = R.ReplayedOutcome == B.Outcome ||
                     (WasDeadline && R.ReplayedSteps == B.Steps);
  R.OutputMatches =
      B.OutputDigest.empty() || R.ReplayedOutputDigest == B.OutputDigest;

  const observe::DigestLog *L = I.digestLog();
  if (L && !L->Entries.empty() && !B.Digests.Entries.empty()) {
    R.DigestsCompared = true;
    R.Div = observe::diagnoseDivergence(B, *L);
  }
  R.Match = R.OutcomeMatches && R.OutputMatches &&
            (!R.DigestsCompared || !R.Div.Diverged);

  std::string T;
  T += strf("replay: program '", B.Program, "' recorded ", B.Outcome,
            " after ", B.Steps, " supersteps, ", B.NumStrands, " strands\n");
  T += strf("  engine ", B.EngineNative ? "native" : "interp", ", workers ",
            B.NumWorkers, "\n");
  if (!B.GitSha.empty() || !B.CompilerId.empty())
    T += strf("  recorded by abi v", B.AbiVersion,
              B.GitSha.empty() ? "" : strf(", git ", B.GitSha.substr(0, 12)),
              "\n");
  T += strf("  outcome: replayed ", R.ReplayedOutcome, " after ",
            R.ReplayedSteps, " supersteps — ",
            R.OutcomeMatches ? "match" : "MISMATCH",
            WasDeadline && R.OutcomeMatches
                ? " (deadline replayed step-capped)"
                : "",
            "\n");
  if (R.DigestsCompared)
    T += strf("  digests: ", B.Digests.Entries.size(), " recorded / ",
              L->Entries.size(), " replayed — ",
              R.Div.Diverged ? "DIVERGED" : "identical", "\n");
  else
    T += "  digests: not compared (recording or engine lacks per-step "
         "digests)\n";
  if (R.Div.Diverged)
    T += strf("  ", R.Div.Summary, "\n");
  T += strf("  output: ",
            B.OutputDigest.empty()
                ? "not recorded"
                : (R.OutputMatches ? strf("match (", B.OutputDigest, ")")
                                   : strf("MISMATCH (recorded ", B.OutputDigest,
                                          ", replayed ",
                                          R.ReplayedOutputDigest, ")")),
            "\n");
  T += strf("  verdict: ", R.Match ? "MATCH" : "DIVERGENCE", "\n");
  R.Text = std::move(T);
  return R;
}

} // namespace diderot
