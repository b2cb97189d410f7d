//===--- bench/ledger/workloads.h - the layer ledger's shared pieces ---------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every ledger workload shares: the command-line options, the metric
/// and check sink (Ledger), span recording around public calls, the three
/// paper programs with their seeded inputs, and one instance lifecycle.
/// Names of layers and metrics are listed in README.md and BENCHMARK.json.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_BENCH_LEDGER_WORKLOADS_H
#define DIDEROT_BENCH_LEDGER_WORKLOADS_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "driver/driver.h"
#include "image/image.h"
#include "support/hash.h"
#include "support/trace.h"

namespace diderot::ledger {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny sizes, and traced runs keep the shared compile cache (ctest
  /// ledger_smoke).
  bool Smoke = false;
  /// Child mode: perform one set-up and print its seconds (setup_s).
  bool SetupOnly = false;
  /// Root of the compile caches (--work-dir).
  std::string WorkDir;
  /// The compile cache this run uses; a set-up child gets its parent's.
  std::string CacheDir;
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Quantile \p Q in [0,1] of \p V by linear interpolation (0 when empty).
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Run \p Fn with the calling thread pinned to the \p K-th CPU (modulo the
/// CPUs it may use), then restore its CPU set. Sequential measurements step
/// K so that they cycle over the CPUs: on a virtual machine one CPU can run
/// 40 % slower than another for minutes, and a thread otherwise stays on
/// the CPU it started on.
void onCpu(size_t K, const std::function<void()> &Fn);

/// Seconds on the process-wide trace clock, which the daemon's spans use too.
double nowS();
uint64_t nowNs();

/// splitmix64: the seeded source of every generated input and arrival.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [Lo, Hi).
  double uniform(double Lo, double Hi);

private:
  uint64_t S;
};

//===----------------------------------------------------------------------===//
// Metrics, checks and spans
//===----------------------------------------------------------------------===//

/// The metric and check sink of one workload run.
class Ledger {
public:
  explicit Ledger(std::string Workload) : Workload(std::move(Workload)) {}

  /// Record metric \p Name (value over \p N samples).
  void metric(const std::string &Name, double Value, const std::string &Unit,
              size_t N = 1);
  /// A recorded metric's value (0 when absent).
  double value(const std::string &Name) const;
  /// Input sizes, printed as the "<workload> sizes ..." line.
  void sizes(std::string S) { Sizes = std::move(S); }
  /// Count one checked operation; a failed one is reported on stderr.
  void check(bool Ok, const std::string &What);

  /// Begin a span tree for one run or request; spans go to the newest tree.
  tracing::SpanTree &beginTree(const std::string &Program);
  /// Append a finished span; returns its id.
  uint64_t span(const std::string &Name, uint64_t BeginNs, uint64_t EndNs,
                uint64_t Parent, const std::string &Cat = "ledger");
  std::vector<tracing::SpanTree> &trees() { return Trees; }

  /// The workload's metric lines, then the result object as the last line.
  void print() const;
  int exitCode() const { return Failed ? 1 : 0; }

private:
  struct Value {
    double V = 0;
    std::string Unit;
    size_t N = 1;
  };
  std::string Workload, Sizes;
  std::map<std::string, Value> Metrics;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<tracing::SpanTree> Trees;
};

/// Time the root span of \p T has covered by its children: its duration
/// minus its self time.
uint64_t coveredByChildren(const tracing::SpanTree &T);

/// Exit with a message when \p S failed: set-up errors are not measurements.
void must(const Status &S, const std::string &What);
template <typename T> T must(Result<T> R, const std::string &What) {
  if (!R.isOk())
    must(Status::error(R.message()), What);
  return R.take();
}

//===----------------------------------------------------------------------===//
// The paper programs
//===----------------------------------------------------------------------===//

enum class Prog { IllustVr, Ridge3d, Lic2d, Isocontour };

const char *progName(Prog P);
/// Source text of bench/ledger/programs/<name>.diderot.
std::string progSource(Prog P);

/// Sizes of one configuration: Bench for timed runs, Small for the baseline
/// comparison and the smoke test, Serve for the serve-warm requests.
enum class Size { Bench, Small, Serve };

/// A program's inputs: scalar parameters moved by the seed, and datasets.
struct ProgInputs {
  Prog P = Prog::IllustVr;
  baselines::VrParams Vr;
  baselines::LicParams Lic;
  baselines::RidgeParams Ridge;
  std::vector<std::pair<std::string, Image>> Images;
};

/// Generate \p P's inputs at \p S. Except at Serve sizes, the seed moves the
/// camera by at most two pixels or the domain by at most half a cell.
ProgInputs makeInputs(Prog P, Size S, uint64_t Seed);
/// Same datasets, another strand grid and seed offset.
ProgInputs withGrid(const ProgInputs &In, Size Grid, uint64_t Seed);

/// "grid 256x192; img 128x128x128; ..." for the meta block.
std::string describe(const ProgInputs &In);

/// Bind every input of \p In to \p I.
Status bindInputs(rt::ProgramInstance &I, const ProgInputs &In);

/// Compare the program's output against the hand-written baseline in
/// src/baselines at the same inputs; "" when within tolerance, else why not.
std::string compareWithBaseline(const ProgInputs &In,
                                const std::vector<double> &Out);

/// The native engine with its compile cache at \p Cache.
CompileOptions compileOptions(const std::string &Cache);

//===----------------------------------------------------------------------===//
// One instance lifecycle
//===----------------------------------------------------------------------===//

/// Seconds per public call of one lifecycle, and what it produced.
struct Lifecycle {
  double Instantiate = 0, SetInputs = 0, Initialize = 0, Run = 0,
         GetOutput = 0;
  /// Hash of every output's values: equal across repetitions and workers.
  support::Hash128 Out;
  /// The first output's values, kept only when asked for.
  std::vector<double> FirstOutput;
  rt::RunStats Stats;
  /// set inputs -> initialize -> run -> get output (run_s_p50, seq_s_min).
  double body() const { return SetInputs + Initialize + Run + GetOutput; }
  /// Including instantiate: one request of a closed-loop caller.
  double total() const { return Instantiate + body(); }
};

/// Instantiate \p CP and drive it once with \p Workers workers (0 =
/// sequential). With \p Collect the run records per-superstep telemetry and
/// \p L gets one span tree for the lifecycle.
Lifecycle runLifecycle(const CompiledProgram &CP, const ProgInputs &In,
                       int Workers, bool Collect, Ledger *L,
                       bool KeepOutput = false);

/// ru_maxrss of this process in MB.
double peakRssMb();

/// A compiled program and what its compile took: front end and passes, then
/// the first instantiate, which emits the C++ and, on an empty cache, runs
/// the host compiler.
struct ColdCompile {
  std::unique_ptr<CompiledProgram> CP;
  double CompileStringS = 0, InstantiateS = 0;
  double seconds() const { return CompileStringS + InstantiateS; }
};
ColdCompile compileCold(Prog P, const std::string &Cache);

/// Worker count of the parallel runs (the reference machine's 4 CPUs).
constexpr int Workers = 4;

/// Untraced lifecycles of one program: a warm-up at each worker count, then
/// three at 4 workers and one sequential until \p Seconds elapse, so both
/// see the same machine state. Every output must hash like the first.
struct InProcess {
  std::vector<Lifecycle> Par, Seq;
  support::Hash128 Want;
  /// Median lifecycle at 4 workers (run_s_p50).
  double parBody() const;
  /// Median sequential lifecycle.
  double seqBody() const;
  /// Fastest sequential lifecycle (seq_s_min). On a shared virtual machine
  /// single-threaded lifecycles are bimodal, at full speed or about 1.6
  /// times slower, and the share of slow ones changes from minute to
  /// minute, so the median jumps between the modes. Four workers share out
  /// the strands across CPUs and stay unimodal.
  double seqMin() const;
};
InProcess measureInProcess(Ledger &L, const CompiledProgram &CP,
                           const ProgInputs &In, double Seconds);

/// The layers of one program in a traced run: frontend, passes, codegen,
/// driver and runtime, the last from 4-worker lifecycles with per-superstep
/// collection for \p Seconds, which it returns.
std::vector<Lifecycle> programLayers(Ledger &L, const ColdCompile &C,
                                     const ProgInputs &In, const InProcess &M,
                                     double Seconds, const std::string &Cache);

/// Serve layers of a workload that has no daemon: no work done there.
void zeroServeLayers(Ledger &L);
/// The ledger's span trees as one Chrome trace (observe::mergedChromeTrace)
/// in LEDGER_trace.json.
void writeTrace(Ledger &L);

/// The two workload kinds.
int runProgramWorkload(const Options &O);
int runServeWorkload(const Options &O);
/// One set-up in this process (setup_s child mode): everything a fresh
/// process does before its first run, with the compile cache warm on disk.
double setupOnce(const Options &O);
double setupServeOnce(const Options &O);
/// Set-ups per run: a set-up is short and single-threaded, so one sample
/// moves with the CPU it lands on; setup_s is their median.
constexpr int SetupReps = 5;
/// Median of SetupReps set-ups, each in a child process with empty
/// in-process caches and the compile cache O.CacheDir already warm.
double childSetupSeconds(const Options &O);

} // namespace diderot::ledger

#endif // DIDEROT_BENCH_LEDGER_WORKLOADS_H
