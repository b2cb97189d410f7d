//===--- serve/diderotd.cpp - the Diderot compile-and-run daemon -------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// Compile once, serve many: a long-lived process holding the compiled form
// of every program it has seen (serve/compile_cache.h) and running jobs
// from a bounded fair queue (serve/job_queue.h) over HTTP
// (serve/daemon.h). See docs/SERVING.md for the API and curl examples,
// docs/TRACING.md for the request-tracing and structured-logging side.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "serve/compile_cache.h"
#include "serve/daemon.h"
#include "support/log.h"
#include "support/strings.h"
#include "support/trace.h"

using namespace diderot;

namespace {

void usage() {
  std::fprintf(stderr, R"(usage: diderotd [options]

options:
  --port N            listen on 127.0.0.1:N (default 0 = ephemeral; the
                      bound port is printed to stderr)
  --port-file FILE    also write the bound port to FILE (for scripts that
                      start the daemon with --port 0)
  --job-workers N     job-queue worker threads, i.e. jobs run at once
                      (default: one per core)
  --run-workers N     strand workers per job run; 0 runs a job's strands
                      on its job worker; N >= 1 runs them on N threads of
                      the process-wide work-stealing strand pool, which
                      concurrent jobs take turns on (default 0)
  --queue-cap N       max queued jobs; beyond it POST /run gets 429
                      (default 64)
  --steps N           per-job superstep cap (default 10000)
  --deadline-ms N     default per-job wall-clock deadline (0 = none;
                      clients override with X-Diderot-Deadline-Ms)
  --drain-ms N        graceful-drain budget on SIGTERM/SIGINT: new work is
                      refused with 503 immediately, queued + running jobs
                      get up to N ms to finish, then the hard stop cancels
                      the rest (default 5000)
  --breaker-fails N   consecutive compile failures per program before its
                      requests fail fast with 503 + Retry-After
                      (0 = breaker disabled; default 3)
  --breaker-open-ms N breaker cooldown before one half-open probe compile
                      is admitted (default 10000)
  --compile-timeout-ms N  wall-clock budget for one host-compiler run; on
                      expiry the compiler's whole process group is killed
                      and the job fails with a typed error (default 120000)
  --cache-max-bytes N cap the on-disk .so cache; least-recently-used
                      artifacts are evicted after each compile (0 = no
                      cap; default 0)
  --cache-dir DIR     compiled-object cache directory (default:
                      $DIDEROT_CACHE_DIR, else the system temp scratch)
  --record-on-failure persist a replay bundle (docs/REPLAY.md) for every
                      job that ends faulted, over-deadline, diverged, or
                      compile-trapped; fetch with GET /jobs/<id>/bundle or
                      GET /recordings/<id>, verify with diderotc --replay
  --recordings-dir DIR  where failure bundles land (default:
                      <cache-dir>/recordings)
  --recordings-max-bytes N  cap the recordings directory; the oldest
                      bundles are evicted past it (0 = no cap; default 0)
  --engine=native|interp  execution engine (default native)
  --double            double-precision reals (native engine)
  --trace-sample SPEC detailed-tracing head sample rate: "1/16" or a bare
                      denominator N (1-in-N jobs), "all", "off"
                      (default 1/16; coarse per-job spans are always on)
  --trace-ring N      span trees retained for GET /trace (default 64)
  --slow-ms N         jobs slower than N ms end-to-end are traced and
                      logged even when unsampled (0 = off; default 1000)
  --log-level LVL     debug|info|warn|error (default info)
  --log-json          structured JSONL log records on stderr
  --quiet             only print errors (same as --log-level error)
)");
}

std::atomic<int> GotSignal{0};

void onSignal(int Sig) { GotSignal.store(Sig); }

/// Checked replacements for the bare atoi/atoll the numeric flags used to
/// make: a malformed or out-of-range value is a usage error naming the
/// flag, not a silent zero.
bool argInt(const char *Flag, const char *Text, int &Out) {
  if (parseInt(Text, Out))
    return true;
  std::fprintf(stderr, "error: bad %s '%s' (want an integer)\n", Flag, Text);
  return false;
}

bool argMsToNs(const char *Flag, const char *Text, int64_t &OutNs) {
  int64_t Ms = 0;
  if (parseInt64(Text, Ms) && Ms >= 0 && Ms <= INT64_MAX / 1000000) {
    OutNs = Ms * 1000000;
    return true;
  }
  std::fprintf(stderr,
               "error: bad %s '%s' (want a non-negative millisecond count)\n",
               Flag, Text);
  return false;
}

bool argMs(const char *Flag, const char *Text, int64_t &OutMs) {
  int64_t Ms = 0;
  if (parseInt64(Text, Ms) && Ms >= 0) {
    OutMs = Ms;
    return true;
  }
  std::fprintf(stderr,
               "error: bad %s '%s' (want a non-negative millisecond count)\n",
               Flag, Text);
  return false;
}

bool argBytes(const char *Flag, const char *Text, uint64_t &Out) {
  int64_t V = 0;
  if (parseInt64(Text, V) && V >= 0) {
    Out = static_cast<uint64_t>(V);
    return true;
  }
  std::fprintf(stderr, "error: bad %s '%s' (want a non-negative byte count)\n",
               Flag, Text);
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  serve::DaemonOptions Opts;
  std::string PortFile;
  logging::Logger::Options LogOpts;

  for (int A = 1; A < Argc; ++A) {
    std::string Arg = Argv[A];
    if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (Arg == "--port" && A + 1 < Argc) {
      if (!argInt("--port", Argv[++A], Opts.Port))
        return 1;
    } else if (Arg == "--port-file" && A + 1 < Argc) {
      PortFile = Argv[++A];
    } else if (Arg == "--job-workers" && A + 1 < Argc) {
      if (!argInt("--job-workers", Argv[++A], Opts.JobWorkers))
        return 1;
    } else if (Arg == "--run-workers" && A + 1 < Argc) {
      if (!argInt("--run-workers", Argv[++A], Opts.RunWorkers))
        return 1;
    } else if (Arg == "--queue-cap" && A + 1 < Argc) {
      if (!argInt("--queue-cap", Argv[++A], Opts.QueueCapacity))
        return 1;
    } else if (Arg == "--steps" && A + 1 < Argc) {
      if (!argInt("--steps", Argv[++A], Opts.MaxSupersteps))
        return 1;
    } else if (Arg == "--deadline-ms" && A + 1 < Argc) {
      if (!argMsToNs("--deadline-ms", Argv[++A], Opts.DefaultDeadlineNs))
        return 1;
    } else if (Arg == "--drain-ms" && A + 1 < Argc) {
      if (!argMs("--drain-ms", Argv[++A], Opts.DrainMs))
        return 1;
    } else if (Arg == "--breaker-fails" && A + 1 < Argc) {
      if (!argInt("--breaker-fails", Argv[++A], Opts.BreakerThreshold))
        return 1;
    } else if (Arg == "--breaker-open-ms" && A + 1 < Argc) {
      if (!argMs("--breaker-open-ms", Argv[++A], Opts.BreakerOpenMs))
        return 1;
    } else if (Arg == "--compile-timeout-ms" && A + 1 < Argc) {
      if (!argMs("--compile-timeout-ms", Argv[++A],
                 Opts.Compile.HostCompileTimeoutMs))
        return 1;
    } else if (Arg == "--cache-max-bytes" && A + 1 < Argc) {
      if (!argBytes("--cache-max-bytes", Argv[++A], Opts.Compile.CacheMaxBytes))
        return 1;
    } else if (Arg == "--cache-dir" && A + 1 < Argc) {
      Opts.Compile.WorkDir = Argv[++A];
    } else if (Arg == "--record-on-failure") {
      Opts.RecordOnFailure = true;
    } else if (Arg == "--recordings-dir" && A + 1 < Argc) {
      Opts.RecordingsDir = Argv[++A];
    } else if (Arg == "--recordings-max-bytes" && A + 1 < Argc) {
      if (!argBytes("--recordings-max-bytes", Argv[++A],
                    Opts.RecordingsMaxBytes))
        return 1;
    } else if (Arg == "--engine=interp") {
      Opts.Compile.Eng = Engine::Interp;
    } else if (Arg == "--engine=native") {
      Opts.Compile.Eng = Engine::Native;
    } else if (Arg == "--double") {
      Opts.Compile.DoublePrecision = true;
    } else if (Arg == "--trace-sample" && A + 1 < Argc) {
      uint32_t N = 0;
      if (!tracing::parseSampleSpec(Argv[++A], N)) {
        std::fprintf(stderr, "error: bad --trace-sample '%s'\n", Argv[A]);
        return 1;
      }
      Opts.TraceSampleN = N;
    } else if (Arg == "--trace-ring" && A + 1 < Argc) {
      if (!argInt("--trace-ring", Argv[++A], Opts.TraceRingCapacity))
        return 1;
    } else if (Arg == "--slow-ms" && A + 1 < Argc) {
      if (!argMsToNs("--slow-ms", Argv[++A], Opts.SlowJobNs))
        return 1;
    } else if (Arg == "--log-level" && A + 1 < Argc) {
      if (!logging::parseLevel(Argv[++A], LogOpts.MinLevel)) {
        std::fprintf(stderr, "error: bad --log-level '%s'\n", Argv[A]);
        return 1;
      }
    } else if (Arg == "--log-json") {
      LogOpts.Json = true;
    } else if (Arg == "--quiet") {
      LogOpts.MinLevel = logging::Level::Error;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage();
      return 1;
    }
  }
  logging::Logger::global().configure(LogOpts);

  serve::Daemon D;
  Status S = D.start(Opts);
  if (!S.isOk()) {
    logging::error("daemon start failed",
                   {logging::strField("error", S.message())});
    return 1;
  }
  // The daemon logs its own "daemon started" record; keep the legacy
  // human-readable line too — scripts grep for it.
  if (LogOpts.MinLevel <= logging::Level::Info && !LogOpts.Json)
    std::fprintf(stderr,
                 "diderotd listening on http://127.0.0.1:%d (cache %s)\n",
                 D.port(), D.cacheDir().c_str());
  if (!PortFile.empty()) {
    std::ofstream Out(PortFile);
    if (!Out) {
      logging::error("cannot write port file",
                     {logging::strField("path", PortFile)});
      return 1;
    }
    Out << D.port() << "\n";
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  while (GotSignal.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  logging::info("shutting down",
                {logging::numField("signal",
                                   static_cast<int64_t>(GotSignal.load()))});
  D.stampEnvMeta();
  // Graceful drain: refuse new work, let queued + running jobs finish
  // within --drain-ms, then hard-stop (which fails anything left through
  // the cancellation path — no job record stays "queued").
  bool Drained = D.drainAndStop();
  if (!Drained)
    logging::warn("drain budget exhausted; queued jobs were cancelled",
                  {logging::numField("drainMs", Opts.DrainMs)});
  return Drained ? 0 : 1;
}
