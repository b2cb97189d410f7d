//===--- observe/recorder.h - runtime telemetry collection -------------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collection half of the observability subsystem: per-superstep,
/// per-worker counters and monotonic-clock spans recorded while the
/// bulk-synchronous schedulers run. The paper's evaluation (Section 6,
/// Table 2, Figure 12) is entirely about where superstep time goes; this
/// header gives every engine — interpreter and generated native code alike —
/// the same way of answering that question.
///
/// Deliberately STL-only and header-only: generated native translation units
/// include it transitively through runtime/scheduler.h and must not depend
/// on the compiler's own libraries (the same constraint as
/// runtime/native_prelude.h). The exporters (text summary, stats JSON,
/// Chrome trace) live in observe/observe.h and are host-side only.
///
/// Threading contract: the scheduler coordinator calls beginStep() before
/// the work-list is published and reads spans only after the
/// end-of-superstep barrier; each worker writes exclusively its own span
/// slot via commit(). The barriers provide the happens-before edges, so the
/// per-span fields need no atomics. The run-wide totals *are* atomics,
/// updated once per worker per superstep, and serve as an independent
/// cross-check of the span sums (tests and TSan guard them).
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_OBSERVE_RECORDER_H
#define DIDEROT_OBSERVE_RECORDER_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "observe/fault.h"
#include "observe/metrics.h"

namespace diderot::observe {

/// One worker's share of one superstep.
struct WorkerSpan {
  int Step = 0;
  uint64_t Updated = 0;          ///< strand updates executed
  uint64_t Stabilized = 0;       ///< updates that returned Stabilize
  uint64_t Died = 0;             ///< updates that returned Die
  uint64_t BlocksClaimed = 0;    ///< work-list blocks this worker claimed
  uint64_t LockAcquires = 0;     ///< work-list lock acquisitions
  uint64_t BarrierWaits = 0;     ///< barrier rendezvous this superstep
  uint64_t BeginNs = 0;          ///< span start, ns since run start
  uint64_t EndNs = 0;            ///< span end, ns since run start
};

/// Aggregate over all workers for one superstep. BeginNs/EndNs span the
/// earliest start and latest finish across workers.
struct StepStats {
  int Step = 0;
  uint64_t Updated = 0;
  uint64_t Stabilized = 0;
  uint64_t Died = 0;
  uint64_t BlocksClaimed = 0;
  uint64_t LockAcquires = 0;
  uint64_t BarrierWaits = 0;
  uint64_t BeginNs = 0;
  uint64_t EndNs = 0;
};

/// One strand lifecycle transition, recorded only when lifecycle tracing is
/// armed (Recorder::start with Lifecycle=true). Start fires once per strand
/// in its first superstep; Stabilize/Die/Fault fire on the update that
/// retires it (Fault only when a run policy's trap boundary is active).
enum class StrandEventKind : int { Start = 0, Stabilize = 1, Die = 2,
                                   Fault = 3 };

inline const char *strandEventName(StrandEventKind K) {
  switch (K) {
  case StrandEventKind::Start:
    return "start";
  case StrandEventKind::Stabilize:
    return "stabilize";
  case StrandEventKind::Die:
    return "die";
  case StrandEventKind::Fault:
    return "fault";
  }
  return "?";
}

struct StrandEvent {
  uint64_t Strand = 0;            ///< strand index in the instance
  int Step = 0;                   ///< superstep the transition happened in
  StrandEventKind Kind = StrandEventKind::Start;
  int Worker = 0;                 ///< worker that executed the update
  uint64_t Ns = 0;                ///< ns since run start
};

/// Everything a run reports back through rt::ProgramInstance::run. The
/// cheap fields (Steps, NumWorkers, WallNs) are always filled; the detailed
/// vectors are populated only when collection was requested (Enabled).
struct RunStats {
  int Steps = 0;         ///< supersteps executed
  int NumWorkers = 0;    ///< scheduler worker count (0 = sequential loop)
  bool Enabled = false;  ///< telemetry was collected for this run
  uint64_t WallNs = 0;   ///< wall-clock time of run()

  /// Per-superstep aggregates (empty unless Enabled).
  std::vector<StepStats> Supersteps;
  /// Per-worker timelines: Workers[w][s] is worker w's span in superstep s
  /// (one row even for the sequential loop; empty unless Enabled).
  std::vector<std::vector<WorkerSpan>> Workers;
  /// Run-wide totals accumulated through the Recorder's atomic counters —
  /// an independent cross-check of the span sums (Step/Begin/End unused).
  StepStats Totals;
  /// Strand lifecycle events, sorted by timestamp (empty unless lifecycle
  /// tracing was requested in addition to stats).
  std::vector<StrandEvent> Events;

  /// Registry snapshot at end of run: counters, gauges, and the superstep /
  /// imbalance / claim-latency / updates histograms (Enabled only when
  /// metrics collection was requested for the run).
  MetricsData Metrics;

  /// Why the run ended. Converged unless a RunPolicy stopped the run early
  /// or MaxSupersteps elapsed with strands still active. Always filled,
  /// independent of Enabled.
  RunOutcome Outcome = RunOutcome::Converged;
  /// Per-strand fault diagnostics trapped by the run policy's trap
  /// boundaries, in timestamp order (empty when no faults occurred).
  std::vector<StrandFault> Faults;

  uint64_t totalUpdated() const { return Totals.Updated; }
  uint64_t totalStabilized() const { return Totals.Stabilized; }
  uint64_t totalDied() const { return Totals.Died; }
  /// Strands retired (stabilized or died) — must equal
  /// numStable() + numDead() of the instance after the run. Faulted strands
  /// are accounted separately (Faults.size(), ProgramInstance::numFaulted).
  uint64_t totalRetired() const { return Totals.Stabilized + Totals.Died; }
};

/// Recompute \p R's per-superstep aggregates from its worker spans.
inline void aggregateSupersteps(RunStats &R) {
  R.Supersteps.clear();
  size_t Steps = 0;
  for (const std::vector<WorkerSpan> &Row : R.Workers)
    Steps = Row.size() > Steps ? Row.size() : Steps;
  R.Supersteps.resize(Steps);
  for (size_t S = 0; S < Steps; ++S) {
    StepStats &A = R.Supersteps[S];
    A.Step = static_cast<int>(S);
    bool First = true;
    for (const std::vector<WorkerSpan> &Row : R.Workers) {
      if (S >= Row.size())
        continue;
      const WorkerSpan &W = Row[S];
      A.Updated += W.Updated;
      A.Stabilized += W.Stabilized;
      A.Died += W.Died;
      A.BlocksClaimed += W.BlocksClaimed;
      A.LockAcquires += W.LockAcquires;
      A.BarrierWaits += W.BarrierWaits;
      A.BeginNs = First ? W.BeginNs : (W.BeginNs < A.BeginNs ? W.BeginNs
                                                             : A.BeginNs);
      A.EndNs = W.EndNs > A.EndNs ? W.EndNs : A.EndNs;
      First = false;
    }
  }
}

/// Collects spans and counters during one run. Reusable: start() resets.
class Recorder {
public:
  /// Reset and arm for a run with \p NumWorkers workers (a sequential run
  /// passes 0 and gets one timeline row). With \p Lifecycle set, per-strand
  /// start/stabilize/die events are recorded too (one event list per worker;
  /// each worker appends only to its own). With \p CollectMetrics set, the
  /// registry's gauges and histograms are armed as well: metrics() returns
  /// non-null and the schedulers record into it.
  void start(int NumWorkers, bool Lifecycle = false,
             bool CollectMetrics = false) {
    Rows.assign(static_cast<size_t>(NumWorkers < 1 ? 1 : NumWorkers), {});
    EventRows.clear();
    if (Lifecycle)
      EventRows.resize(Rows.size());
    TraceLifecycle = Lifecycle;
    MetricsArmed = CollectMetrics;
    FoldedSteps = 0;
    M.start(NumWorkers, CollectMetrics);
    T0 = Clock::now();
  }

  /// Nanoseconds since start() on the monotonic clock.
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             T0)
            .count());
  }

  /// Whether strand lifecycle events should be recorded this run.
  bool lifecycle() const { return TraceLifecycle; }

  /// Worker \p W appends a lifecycle event. Each worker owns its own event
  /// list, so no synchronization is needed beyond the scheduler barriers.
  void event(int W, const StrandEvent &E) {
    EventRows[static_cast<size_t>(W)].push_back(E);
  }

  /// The live registry when metrics collection was armed for this run,
  /// null otherwise. Schedulers gate every gauge/histogram touch on this,
  /// so the unarmed hot path is unchanged.
  Metrics *metrics() { return MetricsArmed ? &M : nullptr; }

  /// Snapshot the registry (atomic loads only): safe to call from another
  /// thread — the embedded /metrics endpoint, a live DDR_READ_METRICS —
  /// while a run is executing.
  MetricsData metricsData() const { return M.snapshot(); }

  /// Credit \p N trapped strand faults to the faults counter (engines call
  /// this from RunControl's tally before take()).
  void countFault(uint64_t N) { M.counter(McFaults).add(N); }

  /// Coordinator only, before workers are released into superstep \p Step:
  /// allocate the step's span slot in every timeline row. When metrics are
  /// armed, the previous superstep is complete at this point (the scheduler
  /// barriers order every commit before the next beginStep), so fold it
  /// into the registry's histograms and merge the per-worker cells.
  void beginStep(int Step) {
    if (MetricsArmed)
      foldCompletedSteps();
    for (std::vector<WorkerSpan> &Row : Rows) {
      Row.emplace_back();
      Row.back().Step = Step;
    }
  }

  /// Worker \p W publishes its span for the current superstep (the one most
  /// recently opened with beginStep). Each worker owns its row; the
  /// scheduler barriers order beginStep/commit/reads. The run totals are
  /// registry counters — one source of truth shared with the exporters.
  void commit(int W, const WorkerSpan &S) {
    WorkerSpan &Dst = Rows[static_cast<size_t>(W)].back();
    int Step = Dst.Step;
    Dst = S;
    Dst.Step = Step;
    M.counter(McUpdated).add(S.Updated);
    M.counter(McStabilized).add(S.Stabilized);
    M.counter(McDied).add(S.Died);
    M.counter(McBlocksClaimed).add(S.BlocksClaimed);
    M.counter(McLockAcquires).add(S.LockAcquires);
    M.counter(McBarrierWaits).add(S.BarrierWaits);
  }

  /// Assemble the final RunStats after the schedulers returned. \p StepsRun
  /// is the scheduler's return value, \p NumWorkers its worker argument.
  RunStats take(int StepsRun, int NumWorkers) {
    RunStats R;
    R.Steps = StepsRun;
    R.NumWorkers = NumWorkers < 0 ? 0 : NumWorkers;
    R.Enabled = true;
    R.WallNs = nowNs();
    if (MetricsArmed) {
      foldCompletedSteps(); // the final superstep has no following beginStep
      R.Metrics = M.snapshot();
    }
    R.Workers = std::move(Rows);
    Rows.clear();
    R.Totals.Updated = M.counter(McUpdated).value();
    R.Totals.Stabilized = M.counter(McStabilized).value();
    R.Totals.Died = M.counter(McDied).value();
    R.Totals.BlocksClaimed = M.counter(McBlocksClaimed).value();
    R.Totals.LockAcquires = M.counter(McLockAcquires).value();
    R.Totals.BarrierWaits = M.counter(McBarrierWaits).value();
    for (std::vector<StrandEvent> &Row : EventRows)
      R.Events.insert(R.Events.end(), Row.begin(), Row.end());
    EventRows.clear();
    TraceLifecycle = false;
    std::sort(R.Events.begin(), R.Events.end(),
              [](const StrandEvent &A, const StrandEvent &B) {
                return A.Ns != B.Ns ? A.Ns < B.Ns : A.Strand < B.Strand;
              });
    aggregateSupersteps(R);
    return R;
  }

private:
  /// Fold every fully-committed superstep that has not been folded yet into
  /// the step-level histograms, then merge the per-worker histogram cells.
  /// Coordinator-only; called with all rows at the same length and every
  /// span up to that length committed.
  void foldCompletedSteps() {
    size_t Done = Rows.empty() ? 0 : Rows[0].size();
    for (; FoldedSteps < Done; ++FoldedSteps) {
      uint64_t Begin = ~uint64_t(0), End = 0, Updated = 0;
      uint64_t MinDur = ~uint64_t(0), MaxDur = 0;
      for (const std::vector<WorkerSpan> &Row : Rows) {
        const WorkerSpan &S = Row[FoldedSteps];
        Begin = S.BeginNs < Begin ? S.BeginNs : Begin;
        End = S.EndNs > End ? S.EndNs : End;
        Updated += S.Updated;
        uint64_t Dur = S.EndNs - S.BeginNs;
        MinDur = Dur < MinDur ? Dur : MinDur;
        MaxDur = Dur > MaxDur ? Dur : MaxDur;
      }
      M.hist(MhStepWallNs).record(End > Begin ? End - Begin : 0);
      M.hist(MhImbalanceNs).record(MaxDur - MinDur);
      M.hist(MhUpdatesPerStep).record(Updated);
      M.counter(McSupersteps).add(1);
    }
    M.mergeCells();
  }

  using Clock = std::chrono::steady_clock;
  Clock::time_point T0{};
  bool TraceLifecycle = false;
  bool MetricsArmed = false;
  size_t FoldedSteps = 0;
  std::vector<std::vector<WorkerSpan>> Rows;
  std::vector<std::vector<StrandEvent>> EventRows;
  Metrics M; ///< counters always live; gauges/hists only when armed
};

//===----------------------------------------------------------------------===//
// Flat wire format
//===----------------------------------------------------------------------===//
//
// Generated shared objects expose collected stats through the plain C ABI
// (DDR_READ_STATS) as a flat uint64_t array, so no C++ types cross the
// dlopen boundary. Layout:
//   [0] rows (timeline rows; >= 1)     [1] steps recorded per row
//   [2] NumWorkers                      [3] WallNs
//   [4..9] totals: updated, stabilized, died, blocks, locks, barriers
//   then rows * steps records of 8: updated, stabilized, died, blocks,
//   locks, barriers, beginNs, endNs (row-major: all steps of row 0 first).

constexpr size_t StatsHeaderWords = 10;
constexpr size_t StatsRecordWords = 8;

inline std::vector<uint64_t> flattenStats(const RunStats &R) {
  size_t Rows = R.Workers.size();
  size_t Steps = Rows ? R.Workers[0].size() : 0;
  std::vector<uint64_t> Out;
  Out.reserve(StatsHeaderWords + Rows * Steps * StatsRecordWords);
  Out.push_back(Rows);
  Out.push_back(Steps);
  Out.push_back(static_cast<uint64_t>(R.NumWorkers));
  Out.push_back(R.WallNs);
  Out.push_back(R.Totals.Updated);
  Out.push_back(R.Totals.Stabilized);
  Out.push_back(R.Totals.Died);
  Out.push_back(R.Totals.BlocksClaimed);
  Out.push_back(R.Totals.LockAcquires);
  Out.push_back(R.Totals.BarrierWaits);
  for (const std::vector<WorkerSpan> &Row : R.Workers)
    for (const WorkerSpan &W : Row) {
      Out.push_back(W.Updated);
      Out.push_back(W.Stabilized);
      Out.push_back(W.Died);
      Out.push_back(W.BlocksClaimed);
      Out.push_back(W.LockAcquires);
      Out.push_back(W.BarrierWaits);
      Out.push_back(W.BeginNs);
      Out.push_back(W.EndNs);
    }
  return Out;
}

/// Inverse of flattenStats. Returns false if \p N is too small or
/// inconsistent with the header.
inline bool unflattenStats(const uint64_t *Data, size_t N, RunStats &R) {
  if (N < StatsHeaderWords)
    return false;
  size_t Rows = static_cast<size_t>(Data[0]);
  size_t Steps = static_cast<size_t>(Data[1]);
  if (N < StatsHeaderWords + Rows * Steps * StatsRecordWords)
    return false;
  R = RunStats();
  R.Enabled = true;
  R.Steps = static_cast<int>(Steps);
  R.NumWorkers = static_cast<int>(Data[2]);
  R.WallNs = Data[3];
  R.Totals.Updated = Data[4];
  R.Totals.Stabilized = Data[5];
  R.Totals.Died = Data[6];
  R.Totals.BlocksClaimed = Data[7];
  R.Totals.LockAcquires = Data[8];
  R.Totals.BarrierWaits = Data[9];
  const uint64_t *P = Data + StatsHeaderWords;
  R.Workers.resize(Rows);
  for (size_t W = 0; W < Rows; ++W) {
    R.Workers[W].resize(Steps);
    for (size_t S = 0; S < Steps; ++S) {
      WorkerSpan &Sp = R.Workers[W][S];
      Sp.Step = static_cast<int>(S);
      Sp.Updated = P[0];
      Sp.Stabilized = P[1];
      Sp.Died = P[2];
      Sp.BlocksClaimed = P[3];
      Sp.LockAcquires = P[4];
      Sp.BarrierWaits = P[5];
      Sp.BeginNs = P[6];
      Sp.EndNs = P[7];
      P += StatsRecordWords;
    }
  }
  aggregateSupersteps(R);
  return true;
}

// Strand lifecycle events cross the dlopen boundary (DDR_READ_TRACE) as
// their own flat array: [0] event count, then records of 5: strand, step,
// kind, worker, ns.

constexpr size_t EventHeaderWords = 1;
constexpr size_t EventRecordWords = 5;

inline std::vector<uint64_t> flattenEvents(const RunStats &R) {
  std::vector<uint64_t> Out;
  Out.reserve(EventHeaderWords + R.Events.size() * EventRecordWords);
  Out.push_back(R.Events.size());
  for (const StrandEvent &E : R.Events) {
    Out.push_back(E.Strand);
    Out.push_back(static_cast<uint64_t>(E.Step));
    Out.push_back(static_cast<uint64_t>(static_cast<int>(E.Kind)));
    Out.push_back(static_cast<uint64_t>(E.Worker));
    Out.push_back(E.Ns);
  }
  return Out;
}

/// Inverse of flattenEvents; replaces \p R.Events. Returns false if \p N is
/// inconsistent with the header or an event kind is out of range.
inline bool unflattenEvents(const uint64_t *Data, size_t N, RunStats &R) {
  if (N < EventHeaderWords)
    return false;
  size_t Count = static_cast<size_t>(Data[0]);
  if (N < EventHeaderWords + Count * EventRecordWords)
    return false;
  R.Events.clear();
  R.Events.reserve(Count);
  const uint64_t *P = Data + EventHeaderWords;
  for (size_t I = 0; I < Count; ++I, P += EventRecordWords) {
    if (P[2] > 3)
      return false;
    StrandEvent E;
    E.Strand = P[0];
    E.Step = static_cast<int>(P[1]);
    E.Kind = static_cast<StrandEventKind>(static_cast<int>(P[2]));
    E.Worker = static_cast<int>(P[3]);
    E.Ns = P[4];
    R.Events.push_back(E);
  }
  return true;
}

} // namespace diderot::observe

#endif // DIDEROT_OBSERVE_RECORDER_H
