//===--- runtime/host.h - the host-side program interface -------------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface through which a host application drives a Diderot program,
/// regardless of engine: the interpreter engine implements it directly over
/// MidIR; the native engine's generated C++ implements it in the emitted
/// shared object ("Diderot's runtime has been designed to allow Diderot
/// programs to be embedded as libraries in any host language that supports
/// calling C code" — Section 7).
///
/// Protocol: set inputs -> initialize() -> run(...) -> read outputs.
///
/// Multi-instance contract (what the serve daemon relies on): any number of
/// ProgramInstance objects — of the same program or different programs —
/// may coexist in one process and run() concurrently on different threads.
/// Instances share nothing mutable: each owns its inputs, globals, strand
/// state, and outputs. Interp instances own a private copy of the MidIR
/// module; native instances are objects created inside a dlopen'd shared
/// object, which stays mapped for the life of the process (the loader's
/// library cache never dlcloses, so instances may outlive the
/// CompiledProgram that made them). A single instance is NOT itself
/// thread-safe — drive it from one thread at a time; the documented
/// exceptions are liveMetrics() and the const statistics accessors.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_RUNTIME_HOST_H
#define DIDEROT_RUNTIME_HOST_H

#include <cstdint>
#include <string>
#include <vector>

#include "image/image.h"
#include "observe/digest.h"
#include "observe/profiler.h"
#include "runtime/scheduler.h"
#include "support/result.h"
#include "support/trace.h"
#include "tensor/shape.h"

namespace diderot::rt {

/// Description of one program input.
struct InputDesc {
  std::string Name;
  std::string TypeName; ///< Diderot type syntax
  bool HasDefault = false;
};

/// Description of one output (an `output` strand state variable).
struct OutputDesc {
  std::string Name;
  Shape ValShape; ///< per-strand tensor shape ([] for int outputs too)
};

/// Everything run() needs to know: scheduling shape plus which observability
/// layers to arm. All collection is off by default and costs nothing when
/// off.
struct RunConfig {
  int MaxSupersteps = 1;
  /// <= 0 selects the sequential scheduler; >= 1 the parallel scheduler on
  /// that many workers of the persistent StrandPool (docs/SCHEDULING.md).
  int NumWorkers = 0;
  int BlockSize = DefaultBlockSize;
  /// Per-superstep / per-worker telemetry (observe::Recorder).
  bool CollectStats = false;
  /// Source-level (line, op-class) counters (observe::Profiler); results are
  /// read back through ProgramInstance::profile().
  bool CollectProfile = false;
  /// Per-strand start/stabilize/die events (implies stats collection; the
  /// events ride in RunStats::Events).
  bool CollectLifecycle = false;
  /// Metrics registry: superstep/imbalance/claim-latency histograms and the
  /// live-run gauges (implies stats collection). Results ride in
  /// RunStats::Metrics; a running instance can be scraped concurrently
  /// through liveMetrics().
  bool CollectMetrics = false;
  /// Capture a 128-bit canonical state digest per superstep (entry 0 =
  /// post-initialize) for record/replay (docs/REPLAY.md); read back through
  /// digestLog().
  bool CollectDigests = false;
  /// Additionally retain the full canonicalized per-strand state behind
  /// every digest entry (memory: entries x strands x (1 + slots) words).
  /// Implies CollectDigests. Powers first-divergent-strand diagnosis and
  /// --dump-strand; leave off for plain digest recording of large grids.
  bool CollectStateLog = false;
  /// Fault-containment limits: deadline, fault budget, convergence
  /// watchdog, strict-fp, injection plan. Inert by default (Policy.active()
  /// false) — the schedulers then skip every policy branch and runs behave
  /// exactly as before.
  RunPolicy Policy;
  /// Request-trace context of the enclosing job (docs/TRACING.md). Host-side
  /// only: it never crosses the dlopen ABI (native_load.cpp translates
  /// RunConfig into a ddr_run_args), so engines ignore it; the serve daemon
  /// reads it back out of the config it passed in to stamp run spans and
  /// log records with the job's trace id.
  tracing::TraceContext Trace;
};

/// A running (or runnable) instance of a compiled Diderot program.
class ProgramInstance {
public:
  virtual ~ProgramInstance() = default;

  // -- Introspection ------------------------------------------------------
  virtual std::vector<InputDesc> inputs() const = 0;
  virtual std::vector<OutputDesc> outputs() const = 0;

  // -- Inputs (before initialize) ------------------------------------------
  virtual Status setInputReal(const std::string &Name, double V) = 0;
  virtual Status setInputInt(const std::string &Name, int64_t V) = 0;
  virtual Status setInputBool(const std::string &Name, bool V) = 0;
  virtual Status setInputString(const std::string &Name,
                                const std::string &V) = 0;
  /// Tensor-typed input; \p Components in row-major order.
  virtual Status setInputTensor(const std::string &Name,
                                const std::vector<double> &Components) = 0;
  /// Image-typed input; the image is copied into the instance.
  virtual Status setInputImage(const std::string &Name, const Image &Img) = 0;

  // -- Lifecycle ------------------------------------------------------------
  /// Apply input defaults, evaluate the globals, create the initial strands.
  virtual Status initialize() = 0;

  /// Run bulk-synchronous supersteps until every strand is stable or dead,
  /// or \p MaxSupersteps elapse. \p NumWorkers <= 0 selects the sequential
  /// scheduler (a plain loop nest); >= 1 uses the parallel scheduler on
  /// that many workers of the persistent pool (1P measures the scheduler's
  /// own overhead).
  /// \p BlockSize is the work-list granularity (strands per block).
  ///
  /// The returned RunStats always carries the superstep count (Steps),
  /// worker count, and wall time; when \p C.CollectStats is set it also
  /// carries per-superstep and per-worker telemetry (see observe/recorder.h
  /// and the exporters in observe/observe.h); with \p C.CollectLifecycle,
  /// per-strand lifecycle events; with \p C.CollectProfile, the source-level
  /// profile readable through profile() afterwards.
  virtual Result<RunStats> run(const RunConfig &C) = 0;

  /// Convenience wrapper preserving the pre-RunConfig signature.
  Result<RunStats> run(int MaxSupersteps, int NumWorkers,
                       int BlockSize = DefaultBlockSize,
                       bool CollectStats = false) {
    RunConfig C;
    C.MaxSupersteps = MaxSupersteps;
    C.NumWorkers = NumWorkers;
    C.BlockSize = BlockSize;
    C.CollectStats = CollectStats;
    return run(C);
  }

  /// Source-level profile of the most recent profiled run (Enabled=false if
  /// the last run did not collect one, or the engine cannot profile).
  virtual observe::ProfileData profile() const { return {}; }

  /// Point-in-time registry snapshot (Enabled=false when the engine cannot
  /// report metrics or no metrics-armed run has started). Safe to call from
  /// another thread while run() executes — the snapshot only loads the
  /// registry's merged atomics — which is what the driver's embedded
  /// `/metrics` endpoint does for long-running programs.
  virtual observe::MetricsData liveMetrics() const { return {}; }

  /// Digest log of the most recent run with CollectDigests set, or nullptr
  /// when the last run did not record (or the engine/ABI cannot). The
  /// pointer stays valid until the next run() or destruction.
  virtual const observe::DigestLog *digestLog() const { return nullptr; }

  // -- Outputs (after run) --------------------------------------------------
  /// Grid dimensions for grid-initialized programs (first iterator is the
  /// slowest axis); for collections, one dimension = number of stable
  /// strands.
  virtual std::vector<int> outputDims() const = 0;
  /// Fetch output \p Name: \p Data receives per-strand components (strand
  /// major, components fastest). Dead strands of a grid contribute zeros.
  virtual Status getOutput(const std::string &Name,
                           std::vector<double> &Data) const = 0;

  // -- Statistics -----------------------------------------------------------
  virtual size_t numStrands() const = 0;
  virtual size_t numStable() const = 0;
  virtual size_t numDead() const = 0;
  /// Strands parked in StrandStatus::Faulted by the most recent run's trap
  /// boundaries (0 when no policy was active). Faulted strands are not
  /// counted by numStable()/numDead() and contribute zeros to grid outputs.
  virtual size_t numFaulted() const { return 0; }
};

} // namespace diderot::rt

#endif // DIDEROT_RUNTIME_HOST_H
