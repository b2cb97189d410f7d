//===--- driver/diderotc.cpp - the Diderot compiler command-line tool --------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// "The Diderot compiler synthesizes glue code that allows command-line
// setting of input variables" (Section 3.3.1): inputs are set with
// --input name=value; image inputs accept NRRD files or synthetic dataset
// specs (synth:hand:64 etc., see src/synth).
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "driver/inputs.h"
#include "driver/record.h"
#include "nrrd/nrrd.h"
#include "observe/observe.h"
#include "support/log.h"
#include "support/strings.h"

using namespace diderot;

namespace {

void usage() {
  std::fprintf(stderr, R"(usage: diderotc [options] program.diderot

options:
  --engine=native|interp   execution engine (default native)
  --double                 use double-precision reals (native engine)
  --no-vn                  disable value numbering
  --no-contract            disable contraction (fold + DCE)
  --emit-cpp               print the generated C++ and exit
  --emit-ir                print the optimized MidIR and exit
  --input NAME=VALUE       set an input (scalars, v1,v2,... for vectors,
                           a .nrrd path or synth:GEN:SIZE for images;
                           GEN in {hand, vessels, flow, noise, portrait})
  --workers N              worker threads of the persistent work-stealing
                           strand pool; 0 runs the sequential loop
                           (docs/SCHEDULING.md; default 1)
  --steps N                max supersteps (default 10000)
  --out FILE.nrrd          write the first output as NRRD (grid programs)
  --print-output NAME      print an output to stdout (text)
  --stats                  print a per-superstep telemetry summary (stderr)
  --stats-out FILE.json    write run telemetry as JSON (includes a "metrics"
                           registry snapshot)
  --metrics-out FILE.prom  write the metrics registry in Prometheus text
                           exposition format after the run
  --metrics-port N         serve live metrics at http://127.0.0.1:N/metrics
                           while the program runs (0 picks a free port;
                           the bound port is printed to stderr)
  --trace-out FILE.json    write a Chrome-trace (Perfetto) worker timeline
  --profile                print an annotated per-source-line cost listing
  --profile-out FILE.json  write the per-line profile as JSON
  --trace-strands          record strand start/stabilize/die events (they
                           appear in --trace-out as instant events)
  --events-out FILE.json   write the strand lifecycle event log as JSON
  --time-passes            print per-compiler-pass wall time and IR sizes
  --record DIR             write a replay bundle of this run into DIR
                           (source, options, inputs, per-superstep state
                           digests; docs/REPLAY.md)
  --replay BUNDLE          re-compile and re-run a recorded bundle (a DIR
                           or a .tar of one) and compare superstep digests;
                           exit 4 and report the first divergent superstep
                           and strand on mismatch
  --dump-strand N          with --replay: pretty-print recorded strand N
                           (no re-run) and exit
  --at-superstep K         digest entry --dump-strand reads (0 = after
                           initialize, k = after superstep k; default 0)
  --deadline-ms N          stop the run after N ms of wall-clock time
  --max-faults N           tolerate at most N trapped strand faults
                           (0 stops on the first fault)
  --watchdog N             stop after N supersteps with no strand retiring
                           (convergence watchdog; outcome "diverged")
  --strict-fp              trap strands whose state becomes non-finite
  --strict                 exit nonzero when the run outcome is not
                           "converged"
  --log-level LVL          debug|info|warn|error (default info)
  --log-json               structured JSONL log records on stderr
  --quiet                  suppress statistics (same as --log-level error)
)");
}

} // namespace

int main(int Argc, char **Argv) {
  CompileOptions Opts;
  std::string File;
  std::vector<std::pair<std::string, std::string>> Inputs;
  bool EmitCpp = false, EmitIr = false, Quiet = false, Stats = false;
  logging::Logger::Options LogOpts;
  bool Profile = false, TraceStrands = false, TimePasses = false;
  bool StrictFp = false, Strict = false;
  int Workers = 1, MaxSteps = 10000, Watchdog = 0;
  long long DeadlineMs = 0, MaxFaults = -1;
  int MetricsPort = -1;
  std::string OutFile, PrintOutput, StatsOut, TraceOut, ProfileOut, EventsOut;
  std::string MetricsOut, RecordDir, ReplayPath;
  long long DumpStrand = -1;
  int AtSuperstep = 0;

  for (int A = 1; A < Argc; ++A) {
    std::string Arg = Argv[A];
    if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (Arg == "--engine=interp") {
      Opts.Eng = Engine::Interp;
    } else if (Arg == "--engine=native") {
      Opts.Eng = Engine::Native;
    } else if (Arg == "--double") {
      Opts.DoublePrecision = true;
    } else if (Arg == "--no-vn") {
      Opts.EnableValueNumbering = false;
    } else if (Arg == "--no-contract") {
      Opts.EnableContract = false;
    } else if (Arg == "--emit-cpp") {
      EmitCpp = true;
    } else if (Arg == "--emit-ir") {
      EmitIr = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
      LogOpts.MinLevel = logging::Level::Error;
    } else if (Arg == "--log-json") {
      LogOpts.Json = true;
    } else if (Arg == "--log-level" && A + 1 < Argc) {
      if (!logging::parseLevel(Argv[++A], LogOpts.MinLevel)) {
        std::fprintf(stderr, "error: bad --log-level '%s'\n", Argv[A]);
        return 1;
      }
    } else if (Arg == "--input" && A + 1 < Argc) {
      std::string KV = Argv[++A];
      size_t Eq = KV.find('=');
      if (Eq == std::string::npos) {
        std::fprintf(stderr, "error: --input needs NAME=VALUE\n");
        return 1;
      }
      Inputs.emplace_back(KV.substr(0, Eq), KV.substr(Eq + 1));
    } else if (Arg == "--workers" && A + 1 < Argc) {
      Workers = std::atoi(Argv[++A]);
    } else if (Arg == "--steps" && A + 1 < Argc) {
      MaxSteps = std::atoi(Argv[++A]);
    } else if (Arg == "--out" && A + 1 < Argc) {
      OutFile = Argv[++A];
    } else if (Arg == "--print-output" && A + 1 < Argc) {
      PrintOutput = Argv[++A];
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--stats-out" && A + 1 < Argc) {
      StatsOut = Argv[++A];
    } else if (startsWith(Arg, "--stats-out=")) {
      StatsOut = Arg.substr(12);
    } else if (Arg == "--metrics-out" && A + 1 < Argc) {
      MetricsOut = Argv[++A];
    } else if (startsWith(Arg, "--metrics-out=")) {
      MetricsOut = Arg.substr(14);
    } else if (Arg == "--metrics-port" && A + 1 < Argc) {
      MetricsPort = std::atoi(Argv[++A]);
    } else if (startsWith(Arg, "--metrics-port=")) {
      MetricsPort = std::atoi(Arg.c_str() + 15);
    } else if (Arg == "--trace-out" && A + 1 < Argc) {
      TraceOut = Argv[++A];
    } else if (startsWith(Arg, "--trace-out=")) {
      TraceOut = Arg.substr(12);
    } else if (Arg == "--profile") {
      Profile = true;
    } else if (Arg == "--profile-out" && A + 1 < Argc) {
      ProfileOut = Argv[++A];
    } else if (startsWith(Arg, "--profile-out=")) {
      ProfileOut = Arg.substr(14);
    } else if (Arg == "--trace-strands") {
      TraceStrands = true;
    } else if (Arg == "--events-out" && A + 1 < Argc) {
      EventsOut = Argv[++A];
    } else if (startsWith(Arg, "--events-out=")) {
      EventsOut = Arg.substr(13);
    } else if (Arg == "--time-passes") {
      TimePasses = true;
    } else if (Arg == "--record" && A + 1 < Argc) {
      RecordDir = Argv[++A];
    } else if (startsWith(Arg, "--record=")) {
      RecordDir = Arg.substr(9);
    } else if (Arg == "--replay" && A + 1 < Argc) {
      ReplayPath = Argv[++A];
    } else if (startsWith(Arg, "--replay=")) {
      ReplayPath = Arg.substr(9);
    } else if (Arg == "--dump-strand" && A + 1 < Argc) {
      DumpStrand = std::atoll(Argv[++A]);
    } else if (Arg == "--at-superstep" && A + 1 < Argc) {
      AtSuperstep = std::atoi(Argv[++A]);
    } else if (Arg == "--deadline-ms" && A + 1 < Argc) {
      DeadlineMs = std::atoll(Argv[++A]);
    } else if (Arg == "--max-faults" && A + 1 < Argc) {
      MaxFaults = std::atoll(Argv[++A]);
    } else if (Arg == "--watchdog" && A + 1 < Argc) {
      Watchdog = std::atoi(Argv[++A]);
    } else if (Arg == "--strict-fp") {
      StrictFp = true;
    } else if (Arg == "--strict") {
      Strict = true;
    } else if (!Arg.empty() && Arg[0] != '-') {
      File = Arg;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return 1;
    }
  }
  logging::Logger::global().configure(LogOpts);

  // Replay mode: the bundle carries the program; no source argument.
  if (!ReplayPath.empty()) {
    if (DumpStrand >= 0) {
      Result<observe::ReplayBundle> BR = loadBundle(ReplayPath);
      if (!BR.isOk()) {
        logging::error(BR.message());
        return 1;
      }
      Result<std::string> D = observe::dumpStrand(*BR, DumpStrand, AtSuperstep);
      if (!D.isOk()) {
        logging::error(D.message());
        return 1;
      }
      std::fputs(D->c_str(), stdout);
      return 0;
    }
    Result<ReplayReport> RR = replayBundle(ReplayPath, Opts.WorkDir);
    if (!RR.isOk()) {
      logging::error(RR.message());
      return 1;
    }
    std::fputs(RR->Text.c_str(), stdout);
    return RR->Match ? 0 : 4;
  }
  if (File.empty()) {
    usage();
    return 1;
  }

  Result<CompiledProgram> CP = compileFile(File, Opts);
  if (!CP.isOk()) {
    // Compiler diagnostics are already formatted with source locations;
    // print them verbatim rather than wrapping them in a log record.
    std::fprintf(stderr, "%s\n", CP.message().c_str());
    return 1;
  }
  if (TimePasses) {
    std::fprintf(stderr, "pass timing:\n");
    std::fprintf(stderr, "  %-18s %12s %10s %10s\n", "pass", "time(ms)",
                 "ops-in", "ops-out");
    uint64_t TotalNs = 0;
    for (const PassTiming &T : CP->passTimings()) {
      std::fprintf(stderr, "  %-18s %12.3f %10d %10d\n", T.Pass.c_str(),
                   static_cast<double>(T.Ns) / 1e6, T.OpsBefore, T.OpsAfter);
      TotalNs += T.Ns;
    }
    std::fprintf(stderr, "  %-18s %12.3f\n", "total",
                 static_cast<double>(TotalNs) / 1e6);
  }
  if (EmitIr) {
    std::fputs(ir::print(CP->midModule()).c_str(), stdout);
    return 0;
  }
  if (EmitCpp) {
    std::fputs(CP->emitCpp().c_str(), stdout);
    return 0;
  }

  Result<std::unique_ptr<rt::ProgramInstance>> Inst = CP->instantiate();
  if (!Inst.isOk()) {
    logging::error(Inst.message());
    return 1;
  }
  rt::ProgramInstance &I = **Inst;

  FlightRecorder Rec;
  if (!RecordDir.empty()) {
    std::string Source;
    if (std::FILE *F = std::fopen(File.c_str(), "r")) {
      char Buf[4096];
      size_t N;
      while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
        Source.append(Buf, N);
      std::fclose(F);
    }
    Rec.begin(RecordDir, CP->midModule().Name, std::move(Source), Opts,
              CP->midModule());
  }

  // Apply inputs (shared text→input binding, driver/inputs.h).
  for (const auto &[Name, Value] : Inputs) {
    Status S = setInputFromText(I, Name, Value);
    if (!S.isOk()) {
      logging::error(S.message(), {logging::strField("input", Name)});
      return 1;
    }
    if (Rec.active()) {
      Status RS = Rec.addInput(Name, Value);
      if (!RS.isOk()) {
        logging::error(RS.message());
        return 1;
      }
    }
  }

  Status S = I.initialize();
  if (!S.isOk()) {
    logging::error(S.message());
    return 1;
  }
  rt::RunConfig RC;
  RC.MaxSupersteps = MaxSteps;
  RC.NumWorkers = Workers;
  RC.CollectStats = Stats || !StatsOut.empty() || !TraceOut.empty();
  RC.CollectProfile = Profile || !ProfileOut.empty();
  RC.CollectLifecycle = TraceStrands || !EventsOut.empty();
  // Metrics arm whenever any consumer wants them: an explicit Prometheus
  // sink, the live endpoint, or the stats outputs (whose summary table and
  // JSON carry the registry snapshot).
  RC.CollectMetrics =
      Stats || !StatsOut.empty() || !MetricsOut.empty() || MetricsPort >= 0;
  RC.Policy.DeadlineNs = DeadlineMs * 1000000;
  RC.Policy.MaxFaults = MaxFaults;
  RC.Policy.WatchdogSteps = Watchdog;
  RC.Policy.StrictFp = StrictFp;
  if (Rec.active())
    Rec.armConfig(RC);
  // Live monitoring: a background RSS sampler plus the embedded HTTP
  // endpoint, both torn down right after the run. The provider overlays the
  // sampler's gauge onto whatever engine-side snapshot is current.
  observe::RssSampler Sampler;
  observe::MetricsServer Server;
  if (MetricsPort >= 0) {
    Sampler.start();
    Status SS = Server.start(MetricsPort, [&I, &Sampler] {
      observe::MetricsData D = I.liveMetrics();
      D.Gauges[observe::MgProcessRss] = Sampler.bytes();
      return observe::prometheusText(D);
    });
    if (!SS.isOk()) {
      logging::error(SS.message());
      return 1;
    }
    logging::info("serving metrics",
                  {logging::strField(
                      "url", strf("http://127.0.0.1:", Server.port(),
                                  "/metrics"))});
  }
  Result<rt::RunStats> Run = I.run(RC);
  Server.stop();
  Sampler.stop();
  if (!Run.isOk()) {
    logging::error(Run.message());
    return 1;
  }
  // The engines cannot see process RSS; stamp the final sample host-side.
  if (Run->Metrics.Enabled)
    Run->Metrics.Gauges[observe::MgProcessRss] = observe::readProcessRssBytes();
  logging::info("run finished",
                {logging::numField("steps", static_cast<int64_t>(Run->Steps)),
                 logging::numField("strands",
                                   static_cast<uint64_t>(I.numStrands())),
                 logging::numField("stable",
                                   static_cast<uint64_t>(I.numStable())),
                 logging::numField("dead",
                                   static_cast<uint64_t>(I.numDead())),
                 logging::strField("outcome",
                                   observe::runOutcomeName(Run->Outcome))});
  for (const observe::StrandFault &F : Run->Faults)
    logging::warn("strand fault",
                  {logging::numField("strand", F.Strand),
                   logging::numField("step", static_cast<int64_t>(F.Step)),
                   logging::numField("worker",
                                     static_cast<int64_t>(F.Worker)),
                   logging::strField("kind", observe::faultKindName(F.Kind)),
                   logging::strField("message", F.Message)});
  // A run that stopped short of convergence — step-limit exhaustion,
  // deadline, divergence, fault budget — must never pass silently.
  if (Run->Outcome != observe::RunOutcome::Converged)
    logging::Logger::global().log(
        logging::Level::Warn, "run did not converge",
        {logging::strField("outcome",
                           observe::runOutcomeName(Run->Outcome)),
         logging::numField("steps", static_cast<int64_t>(Run->Steps)),
         logging::numField("faults",
                           static_cast<uint64_t>(Run->Faults.size()))});
  if (Rec.active()) {
    Status W = Rec.finish(I, *Run);
    if (!W.isOk()) {
      logging::error(W.message());
      return 1;
    }
    logging::info("wrote recording",
                  {logging::strField("dir", Rec.dir()),
                   logging::numField(
                       "digest_entries",
                       static_cast<uint64_t>(Rec.bundle().Digests.entries()))});
  }
  if (Stats)
    std::fputs(observe::formatSummary(*Run).c_str(), stderr);
  auto WriteText = [](const std::string &Path, const std::string &Text) {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      logging::error("cannot write file", {logging::strField("path", Path)});
      return false;
    }
    std::fwrite(Text.data(), 1, Text.size(), F);
    std::fclose(F);
    return true;
  };
  auto NoteWrote = [](const std::string &Path) {
    logging::info("wrote file", {logging::strField("path", Path)});
  };
  if (!StatsOut.empty()) {
    if (!WriteText(StatsOut, observe::statsJson(*Run)))
      return 1;
    NoteWrote(StatsOut);
  }
  if (!MetricsOut.empty()) {
    if (!WriteText(MetricsOut, observe::prometheusText(Run->Metrics)))
      return 1;
    NoteWrote(MetricsOut);
  }
  if (!TraceOut.empty()) {
    if (!WriteText(TraceOut, observe::chromeTrace(*Run)))
      return 1;
    NoteWrote(TraceOut);
  }
  if (Profile || !ProfileOut.empty()) {
    observe::ProfileData PD = I.profile();
    // Re-read the program text so the listing and JSON can show each line.
    std::string Source;
    if (std::FILE *F = std::fopen(File.c_str(), "r")) {
      char Buf[4096];
      size_t N;
      while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
        Source.append(Buf, N);
      std::fclose(F);
    }
    if (Profile)
      std::fputs(observe::profileListing(PD, Source).c_str(), stderr);
    if (!ProfileOut.empty()) {
      if (!WriteText(ProfileOut, observe::profileJson(PD, Source)))
        return 1;
      NoteWrote(ProfileOut);
    }
  }
  if (!EventsOut.empty()) {
    if (!WriteText(EventsOut, observe::lifecycleJson(*Run)))
      return 1;
    NoteWrote(EventsOut);
  }

  if (!OutFile.empty() && !I.outputs().empty()) {
    Result<Nrrd> N = outputToNrrd(I);
    if (!N.isOk()) {
      logging::error(N.message());
      return 1;
    }
    Status W = nrrdWrite(*N, OutFile);
    if (!W.isOk()) {
      logging::error(W.message());
      return 1;
    }
    NoteWrote(OutFile);
  }
  if (!PrintOutput.empty()) {
    std::vector<double> Data;
    S = I.getOutput(PrintOutput, Data);
    if (!S.isOk()) {
      logging::error(S.message());
      return 1;
    }
    for (double V : Data)
      std::printf("%.9g\n", V);
  }
  if (Strict && Run->Outcome != observe::RunOutcome::Converged)
    return 3;
  return 0;
}
