//===--- src/observe/metrics.h - typed metrics registry ----------------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A typed metrics registry: `Counter`, `Gauge`, and a log-linear-bucketed
/// `Histogram` with quantile estimates, plus the value-type snapshot
/// (`MetricsData`) and its flat wire format for the `ddr_*` native ABI.
///
/// Concurrency contract (the same happens-before structure Recorder
/// documents):
///
///  - Histogram *cells* are per-worker plain structs. A worker records into
///    its own cell with unsynchronized adds during a superstep; the
///    coordinator folds every cell into the merged totals at the superstep
///    barrier (`mergeCells`), after the completion barrier has ordered the
///    workers' writes before the coordinator's reads.
///  - The *merged* totals (and all counters/gauges) are relaxed atomics with
///    a single logical writer (the coordinator, or the RSS sampler for its
///    own gauge). Concurrent readers — the embedded `/metrics` endpoint, a
///    live `ddr_read` of DDR_READ_METRICS — take `snapshot()`s that only
///    load these atomics, so live scrapes race with nothing.
///  - When the registry is not armed (`Metrics::start(_, false)`), the
///    scheduler hot paths see a null `Recorder::metrics()` and skip every
///    histogram/gauge touch; counters ride along with the spans Recorder
///    already commits, so the unarmed cost is unchanged.
///
/// This header is included by generated native translation units (via
/// recorder.h), so it must stay header-only and STL-only. Host-side code
/// (exposition formats, the RSS sampler, the HTTP endpoint) lives in
/// metrics.cpp / metrics_http.cpp behind declarations in observe.h.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_OBSERVE_METRICS_H
#define DIDEROT_OBSERVE_METRICS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace diderot {
namespace observe {

//===----------------------------------------------------------------------===//
// Log-linear bucket geometry
//===----------------------------------------------------------------------===//

/// Sub-bucket resolution: each power-of-two octave is split into
/// 2^HistSubBits linear sub-buckets, bounding the relative quantile error at
/// 2^-HistSubBits (12.5%). Values below one full octave get exact unit
/// buckets.
constexpr int HistSubBits = 3;
constexpr int HistSubBuckets = 1 << HistSubBits; // 8

/// Buckets 0..7 are exact (value == index); octaves 3..63 contribute 8
/// sub-buckets each: (64 - 3) * 8 + 8 = 496 buckets cover all of uint64.
constexpr int NumHistBuckets = (64 - HistSubBits) * HistSubBuckets + HistSubBuckets;

/// Bucket index for a value: branch-free apart from the small-value fast
/// path. Monotone in V; every uint64 maps into [0, NumHistBuckets).
inline int histBucketIndex(uint64_t V) {
  if (V < static_cast<uint64_t>(HistSubBuckets))
    return static_cast<int>(V);
  int Exp = 63;
  while (!(V >> Exp))
    --Exp; // V >= 8, so Exp >= 3
  int Shift = Exp - HistSubBits;
  int Sub = static_cast<int>((V >> Shift) & (HistSubBuckets - 1));
  return ((Exp - HistSubBits + 1) << HistSubBits) + Sub;
}

/// Smallest value mapping to bucket \p Idx.
inline uint64_t histBucketLo(int Idx) {
  if (Idx < HistSubBuckets)
    return static_cast<uint64_t>(Idx);
  int Octave = Idx >> HistSubBits; // >= 1
  int Sub = Idx & (HistSubBuckets - 1);
  int Exp = Octave + HistSubBits - 1;
  return (uint64_t(1) << Exp) +
         (static_cast<uint64_t>(Sub) << (Exp - HistSubBits));
}

/// Largest value mapping to bucket \p Idx (inclusive upper bound).
inline uint64_t histBucketHi(int Idx) {
  if (Idx < HistSubBuckets)
    return static_cast<uint64_t>(Idx);
  int Octave = Idx >> HistSubBits;
  int Exp = Octave + HistSubBits - 1;
  return histBucketLo(Idx) + (uint64_t(1) << (Exp - HistSubBits)) - 1;
}

//===----------------------------------------------------------------------===//
// Metric identifiers and descriptors
//===----------------------------------------------------------------------===//

// Fixed enumerations rather than a string-keyed map: the set of runtime
// metrics is small and closed, IDs survive the flat ABI unchanged, and the
// hot path indexes an array instead of hashing a name.

enum MetricCounterId : int {
  McUpdated = 0,    ///< strand update-method invocations
  McStabilized,     ///< strands stabilized
  McDied,           ///< strands died
  McBlocksClaimed,  ///< work-list blocks claimed by workers
  McLockAcquires,   ///< work-list lock acquisitions
  McBarrierWaits,   ///< barrier arrivals (2 per worker per superstep)
  McSupersteps,     ///< supersteps executed
  McFaults,         ///< strand faults trapped
  McBlocksStolen,   ///< blocks taken from another worker's deque
  McPoolParks,      ///< pool worker park events (one per worker per run)
  NumMetricCounters
};

enum MetricGaugeId : int {
  MgLiveStrands = 0, ///< active strands at the latest superstep boundary
  MgWorklistDepth,   ///< blocks on the work list at the latest superstep
  MgProcessRss,      ///< process resident set size in bytes (host-sampled)
  MgWorkers,         ///< configured worker count (0 = sequential)
  MgPoolThreads,     ///< threads alive in the persistent strand pool
  NumMetricGauges
};

enum MetricHistId : int {
  MhStepWallNs = 0, ///< superstep wall time (coordinator-observed), ns
  MhImbalanceNs,    ///< max-min per-worker span duration within a step, ns
  MhClaimNs,        ///< work-list block claim latency (own deque, then
                    ///< a steal scan), ns
  MhUpdatesPerStep, ///< strand updates executed per superstep
  NumMetricHists
};

/// Exposition metadata for one metric.
struct MetricDesc {
  const char *PromName; ///< Prometheus name (diderot_* with unit suffix)
  const char *JsonName; ///< key in the stats JSON "metrics" object
  const char *Help;     ///< one-line HELP text
  bool Seconds;         ///< stored as ns, exposed as seconds in Prometheus
};

inline const MetricDesc &counterDesc(int Id) {
  static const MetricDesc Descs[NumMetricCounters] = {
      {"diderot_strand_updates_total", "strand_updates_total",
       "Strand update-method invocations.", false},
      {"diderot_strand_stabilized_total", "strand_stabilized_total",
       "Strands that reached stabilize.", false},
      {"diderot_strand_died_total", "strand_died_total",
       "Strands that executed die.", false},
      {"diderot_worklist_blocks_claimed_total", "worklist_blocks_claimed_total",
       "Work-list blocks claimed by workers.", false},
      {"diderot_worklist_lock_acquires_total", "worklist_lock_acquires_total",
       "Work-list lock acquisitions.", false},
      {"diderot_barrier_waits_total", "barrier_waits_total",
       "Barrier arrivals (two per worker per superstep).", false},
      {"diderot_supersteps_total", "supersteps_total",
       "Bulk-synchronous supersteps executed.", false},
      {"diderot_strand_faults_total", "strand_faults_total",
       "Strand faults trapped by the runtime.", false},
      {"diderot_blocks_stolen_total", "blocks_stolen_total",
       "Work-list blocks stolen from another worker's deque.", false},
      {"diderot_pool_parks_total", "pool_parks_total",
       "Persistent-pool worker park events (one per worker per parallel "
       "run).", false},
  };
  return Descs[Id];
}

inline const MetricDesc &gaugeDesc(int Id) {
  static const MetricDesc Descs[NumMetricGauges] = {
      {"diderot_live_strands", "live_strands",
       "Active strands at the latest superstep boundary.", false},
      {"diderot_worklist_depth", "worklist_depth",
       "Blocks on the work list at the latest superstep boundary.", false},
      {"diderot_process_rss_bytes", "process_rss_bytes",
       "Process resident set size in bytes.", false},
      {"diderot_workers", "workers",
       "Configured worker count (0 = sequential scheduler).", false},
      {"diderot_pool_threads", "pool_threads",
       "Threads alive in the persistent strand pool.", false},
  };
  return Descs[Id];
}

inline const MetricDesc &histDesc(int Id) {
  static const MetricDesc Descs[NumMetricHists] = {
      {"diderot_superstep_wall_seconds", "superstep_wall_ns",
       "Superstep wall time.", true},
      {"diderot_worker_imbalance_seconds", "worker_imbalance_ns",
       "Spread (max - min) of per-worker span durations within a superstep.",
       true},
      {"diderot_worklist_claim_seconds", "worklist_claim_ns",
       "Work-list block claim latency (own deque, then a steal scan).",
       true},
      {"diderot_strand_updates_per_superstep", "updates_per_superstep",
       "Strand updates executed per superstep.", false},
  };
  return Descs[Id];
}

//===----------------------------------------------------------------------===//
// Snapshot value types
//===----------------------------------------------------------------------===//

/// Immutable histogram snapshot: totals plus the sparse nonzero buckets,
/// sorted by bucket index.
struct HistData {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = 0; ///< 0 when Count == 0
  uint64_t Max = 0;
  std::vector<std::pair<uint32_t, uint64_t>> Buckets; ///< (index, count)

  double mean() const {
    return Count ? static_cast<double>(Sum) / static_cast<double>(Count) : 0.0;
  }

  /// Rank-based quantile with linear interpolation inside the selected
  /// bucket, clamped to the exact observed [Min, Max]. Error is bounded by
  /// the bucket width (<= 12.5% relative for values >= 8).
  double quantile(double Q) const {
    if (Count == 0)
      return 0.0;
    if (Q <= 0.0)
      return static_cast<double>(Min);
    if (Q >= 1.0)
      return static_cast<double>(Max);
    double Target = Q * static_cast<double>(Count);
    uint64_t Cum = 0;
    for (const auto &[Idx, C] : Buckets) {
      double Prev = static_cast<double>(Cum);
      Cum += C;
      if (static_cast<double>(Cum) >= Target) {
        double Lo = static_cast<double>(histBucketLo(static_cast<int>(Idx)));
        double Hi =
            static_cast<double>(histBucketHi(static_cast<int>(Idx))) + 1.0;
        double Frac = C ? (Target - Prev) / static_cast<double>(C) : 0.0;
        double V = Lo + Frac * (Hi - Lo);
        if (V < static_cast<double>(Min))
          V = static_cast<double>(Min);
        if (V > static_cast<double>(Max))
          V = static_cast<double>(Max);
        return V;
      }
    }
    return static_cast<double>(Max);
  }
};

/// Value-type snapshot of the whole registry: what exporters format, what
/// the flat ABI carries, and what `RunStats::Metrics` stores.
struct MetricsData {
  bool Enabled = false;
  uint64_t Counters[NumMetricCounters] = {};
  int64_t Gauges[NumMetricGauges] = {};
  HistData Hists[NumMetricHists];
};

//===----------------------------------------------------------------------===//
// Live registry
//===----------------------------------------------------------------------===//

/// Monotone counter. Relaxed atomic adds: totals only, never used for
/// synchronization (the scheduler barriers provide the ordering).
class Counter {
public:
  void add(uint64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Point-in-time gauge. Single logical writer per gauge; concurrent readers.
class Gauge {
public:
  void set(int64_t N) { V.store(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// One worker's private histogram shard: plain (non-atomic) fields, written
/// only by the owning worker between barriers.
struct HistCell {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = ~uint64_t(0);
  uint64_t Max = 0;
  uint64_t Buckets[NumHistBuckets] = {};

  void record(uint64_t V) {
    ++Count;
    Sum += V;
    if (V < Min)
      Min = V;
    if (V > Max)
      Max = V;
    ++Buckets[histBucketIndex(V)];
  }

  void clear() { *this = HistCell(); }
};

/// Log-linear histogram: per-worker cells for hot-path recording, merged
/// into atomic totals at superstep barriers, snapshot-readable at any time.
class Histogram {
public:
  /// Reset the merged totals and size the per-worker cells (0 disables
  /// sharded recording; only coordinator-side record() remains valid).
  void start(int NumCells) {
    Cells.assign(static_cast<size_t>(NumCells < 0 ? 0 : NumCells), HistCell());
    MCount.store(0, std::memory_order_relaxed);
    MSum.store(0, std::memory_order_relaxed);
    MMin.store(~uint64_t(0), std::memory_order_relaxed);
    MMax.store(0, std::memory_order_relaxed);
    for (auto &B : MBuckets)
      B.store(0, std::memory_order_relaxed);
  }

  /// The calling worker's private shard. Valid worker indices only; no
  /// bounds check on the hot path.
  HistCell &cell(int W) { return Cells[static_cast<size_t>(W)]; }

  /// Record directly into the merged totals. Single-writer (coordinator or
  /// host code between runs); safe against concurrent snapshot() readers.
  void record(uint64_t V) {
    MCount.fetch_add(1, std::memory_order_relaxed);
    MSum.fetch_add(V, std::memory_order_relaxed);
    if (V < MMin.load(std::memory_order_relaxed))
      MMin.store(V, std::memory_order_relaxed);
    if (V > MMax.load(std::memory_order_relaxed))
      MMax.store(V, std::memory_order_relaxed);
    MBuckets[histBucketIndex(V)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Fold every worker cell into the merged totals and clear the cells.
  /// Coordinator-only, called after a completion barrier so the workers'
  /// plain writes happen-before these reads.
  void mergeCells() {
    for (HistCell &C : Cells) {
      if (C.Count == 0)
        continue;
      MCount.fetch_add(C.Count, std::memory_order_relaxed);
      MSum.fetch_add(C.Sum, std::memory_order_relaxed);
      if (C.Min < MMin.load(std::memory_order_relaxed))
        MMin.store(C.Min, std::memory_order_relaxed);
      if (C.Max > MMax.load(std::memory_order_relaxed))
        MMax.store(C.Max, std::memory_order_relaxed);
      for (int B = 0; B < NumHistBuckets; ++B)
        if (C.Buckets[B])
          MBuckets[B].fetch_add(C.Buckets[B], std::memory_order_relaxed);
      C.clear();
    }
  }

  /// Snapshot the merged totals (atomic loads only — never touches Cells,
  /// so it is safe concurrently with worker recording).
  void snapshot(HistData &Out) const {
    Out.Count = MCount.load(std::memory_order_relaxed);
    Out.Sum = MSum.load(std::memory_order_relaxed);
    uint64_t Mn = MMin.load(std::memory_order_relaxed);
    Out.Min = Out.Count ? Mn : 0;
    Out.Max = MMax.load(std::memory_order_relaxed);
    Out.Buckets.clear();
    for (int B = 0; B < NumHistBuckets; ++B) {
      uint64_t C = MBuckets[B].load(std::memory_order_relaxed);
      if (C)
        Out.Buckets.emplace_back(static_cast<uint32_t>(B), C);
    }
  }

private:
  std::vector<HistCell> Cells;
  std::atomic<uint64_t> MCount{0};
  std::atomic<uint64_t> MSum{0};
  std::atomic<uint64_t> MMin{~uint64_t(0)};
  std::atomic<uint64_t> MMax{0};
  std::array<std::atomic<uint64_t>, NumHistBuckets> MBuckets{};
};

/// The registry: one instance per Recorder (so one per program instance).
/// Counters are always live (Recorder's run totals are views over them);
/// gauges and histograms are recorded only when armed.
class Metrics {
public:
  /// Reset everything for a new run. \p NumWorkers sizes the per-worker
  /// histogram cells (0 = sequential still gets one cell) and fills the
  /// workers gauge; \p Arm enables gauge/histogram recording.
  void start(int NumWorkers, bool Arm) {
    Armed = Arm;
    for (Counter &C : Counters)
      C.reset();
    for (Gauge &G : Gauges)
      G.reset();
    int Cells = Arm ? (NumWorkers < 1 ? 1 : NumWorkers) : 0;
    for (Histogram &H : Hists)
      H.start(Cells);
    if (Arm)
      Gauges[MgWorkers].set(NumWorkers < 0 ? 0 : NumWorkers);
  }

  bool armed() const { return Armed; }

  Counter &counter(MetricCounterId Id) { return Counters[Id]; }
  Gauge &gauge(MetricGaugeId Id) { return Gauges[Id]; }
  Histogram &hist(MetricHistId Id) { return Hists[Id]; }

  /// Fold all per-worker histogram cells (coordinator, at a barrier).
  void mergeCells() {
    for (Histogram &H : Hists)
      H.mergeCells();
  }

  /// Atomic-loads-only snapshot; safe concurrently with a running step.
  MetricsData snapshot() const {
    MetricsData D;
    D.Enabled = Armed;
    for (int I = 0; I < NumMetricCounters; ++I)
      D.Counters[I] = Counters[I].value();
    for (int I = 0; I < NumMetricGauges; ++I)
      D.Gauges[I] = Gauges[I].value();
    for (int I = 0; I < NumMetricHists; ++I)
      Hists[I].snapshot(D.Hists[I]);
    return D;
  }

private:
  bool Armed = false;
  Counter Counters[NumMetricCounters];
  Gauge Gauges[NumMetricGauges];
  Histogram Hists[NumMetricHists];
};

//===----------------------------------------------------------------------===//
// Flat wire format (ddr_read DDR_READ_METRICS)
//===----------------------------------------------------------------------===//
//
//   [0]                enabled (0/1)
//   [1] [2] [3]        counter / gauge / histogram section lengths
//   [4 ..]             counter values
//   then               gauge values (two's-complement in uint64)
//   then per histogram: count, sum, min, max, nbuckets,
//                       nbuckets x (bucket index, bucket count)
//
// Section lengths make the format self-describing: a host linked against a
// different metric set reads the overlap and skips the rest.

constexpr size_t MetricsHeaderWords = 4;
constexpr size_t MetricsHistFixedWords = 5;

inline std::vector<uint64_t> flattenMetrics(const MetricsData &D) {
  std::vector<uint64_t> Out;
  Out.reserve(MetricsHeaderWords + NumMetricCounters + NumMetricGauges +
              NumMetricHists * (MetricsHistFixedWords + 16));
  Out.push_back(D.Enabled ? 1 : 0);
  Out.push_back(NumMetricCounters);
  Out.push_back(NumMetricGauges);
  Out.push_back(NumMetricHists);
  for (int I = 0; I < NumMetricCounters; ++I)
    Out.push_back(D.Counters[I]);
  for (int I = 0; I < NumMetricGauges; ++I)
    Out.push_back(static_cast<uint64_t>(D.Gauges[I]));
  for (int I = 0; I < NumMetricHists; ++I) {
    const HistData &H = D.Hists[I];
    Out.push_back(H.Count);
    Out.push_back(H.Sum);
    Out.push_back(H.Min);
    Out.push_back(H.Max);
    Out.push_back(H.Buckets.size());
    for (const auto &[Idx, C] : H.Buckets) {
      Out.push_back(Idx);
      Out.push_back(C);
    }
  }
  return Out;
}

/// Inverse of flattenMetrics. Tolerates a peer with more or fewer metrics
/// per section (reads the overlap, skips extras). Returns false on a
/// truncated or malformed buffer, leaving \p Out default-initialized.
inline bool unflattenMetrics(const uint64_t *Data, size_t Len,
                             MetricsData &Out) {
  Out = MetricsData();
  if (!Data || Len < MetricsHeaderWords)
    return false;
  const uint64_t NC = Data[1], NG = Data[2], NH = Data[3];
  size_t P = MetricsHeaderWords;
  if (Len - P < NC + NG)
    return false;
  for (uint64_t I = 0; I < NC; ++I, ++P)
    if (I < NumMetricCounters)
      Out.Counters[I] = Data[P];
  for (uint64_t I = 0; I < NG; ++I, ++P)
    if (I < NumMetricGauges)
      Out.Gauges[I] = static_cast<int64_t>(Data[P]);
  for (uint64_t I = 0; I < NH; ++I) {
    if (Len - P < MetricsHistFixedWords)
      return false;
    HistData H;
    H.Count = Data[P + 0];
    H.Sum = Data[P + 1];
    H.Min = Data[P + 2];
    H.Max = Data[P + 3];
    uint64_t NB = Data[P + 4];
    P += MetricsHistFixedWords;
    if (NB > (Len - P) / 2)
      return false;
    H.Buckets.reserve(static_cast<size_t>(NB));
    for (uint64_t B = 0; B < NB; ++B, P += 2)
      H.Buckets.emplace_back(static_cast<uint32_t>(Data[P]), Data[P + 1]);
    if (I < NumMetricHists)
      Out.Hists[I] = std::move(H);
  }
  Out.Enabled = Data[0] != 0;
  return true;
}

} // namespace observe
} // namespace diderot

#endif // DIDEROT_OBSERVE_METRICS_H
