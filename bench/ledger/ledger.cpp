//===--- bench/ledger/ledger.cpp - the layer ledger benchmark ----------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// Runs one workload and prints one line per metric ("workload metric value
// unit n=N"), then a JSON object with the check counts and the metrics as
// the last line of standard output:
//
//   ledger --workload illust-vr|ridge3d|lic2d|serve-warm --seed N
//          [--seconds S] [--trace 0|1] [--smoke] [--work-dir DIR]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
// and writes LEDGER_trace.json. Compile caches live under --work-dir
// (default .bench_build/ledger-work). The exit status is nonzero when any
// output check failed. bench/ledger/README.md describes the workloads and metrics;
// bench/ledger/run.py builds this program and runs every workload.
//
//===----------------------------------------------------------------------===//

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench/ledger/workloads.h"

using namespace diderot::ledger;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "ledger: %s\nusage: ledger --workload "
               "illust-vr|ridge3d|lic2d|serve-warm --seed N [--seconds S] "
               "[--trace 0|1] [--smoke] [--work-dir DIR]\n",
               Why);
  std::exit(2);
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (!*S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int A = 1; A < Argc; ++A) {
    std::string Flag = Argv[A];
    auto Value = [&]() -> const char * {
      if (A + 1 >= Argc)
        usage(("missing value for " + Flag).c_str());
      return Argv[++A];
    };
    uint64_t N = 0;
    if (Flag == "--workload") {
      O.Workload = Value();
    } else if (Flag == "--seed") {
      if (!parseUnsigned(Value(), O.Seed))
        usage("--seed needs a whole number");
    } else if (Flag == "--seconds") {
      if (!parseUnsigned(Value(), N) || N == 0 || N > 600)
        usage("--seconds needs a whole number from 1 to 600");
      O.Seconds = static_cast<double>(N);
    } else if (Flag == "--trace") {
      std::string V = Value();
      if (V != "0" && V != "1")
        usage("--trace needs 0 or 1");
      O.Trace = V == "1";
    } else if (Flag == "--smoke") {
      O.Smoke = true;
    } else if (Flag == "--work-dir") {
      O.WorkDir = Value();
    } else if (Flag == "--setup-only") {
      O.SetupOnly = true;
    } else if (Flag == "--cache") {
      O.CacheDir = Value();
    } else {
      usage(("unknown argument " + Flag).c_str());
    }
  }
  bool Program = O.Workload == "illust-vr" || O.Workload == "ridge3d" ||
                 O.Workload == "lic2d";
  if (!Program && O.Workload != "serve-warm")
    usage("unknown or missing --workload");

  if (O.SetupOnly) {
    std::printf("%.9f\n", setupOnce(O));
    return 0;
  }

  // Untraced runs share one compile cache under the work directory, so only
  // the first run in a checkout invokes the host compiler; a traced run
  // compiles into an empty cache of its own to time the cold compile.
  namespace fs = std::filesystem;
  fs::path Root = O.WorkDir.empty()
                      ? fs::current_path() / ".bench_build" / "ledger-work"
                      : fs::path(O.WorkDir);
  fs::path Own = Root / std::to_string(::getpid());
  O.CacheDir = ((O.Trace && !O.Smoke ? Own : Root) / "cache").string();
  int Rc = Program ? runProgramWorkload(O) : runServeWorkload(O);
  std::error_code EC;
  fs::remove_all(Own, EC);
  return Rc;
}
