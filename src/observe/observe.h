//===--- observe/observe.h - telemetry exporters -----------------------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-side exporters over observe::RunStats (see recorder.h for the
/// collection side):
///
///  * formatSummary  — human-readable per-superstep table, the thing
///                     `diderotc --stats` prints;
///  * statsJson      — machine-readable stats for the bench harness's
///                     BENCH_*.json files;
///  * chromeTrace    — Chrome-trace ("trace event format") JSON with one
///                     timeline row per worker, loadable in Perfetto or
///                     chrome://tracing; strand lifecycle events appear as
///                     "i" instant events when collected;
///  * profileListing — annotated source listing with per-line cost counters
///                     (`diderotc --profile`);
///  * profileJson    — machine-readable per-line profile, embedding the
///                     source line text;
///  * lifecycleJson  — strand start/stabilize/die event log as JSON;
///  * prometheusText — the metrics registry in Prometheus text exposition
///                     format (`diderotc --metrics-out`, and the body served
///                     by the embedded `GET /metrics` endpoint);
///  * metricsJson    — the registry as a JSON object (merged into statsJson
///                     under the "metrics" key).
///
/// Also hosts the host-only live-monitoring pieces: the process-RSS sampler
/// and the MetricsServer (a routing shim in metrics_http.cpp over the
/// shared support/http.h server, where all socket code lives).
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_OBSERVE_OBSERVE_H
#define DIDEROT_OBSERVE_OBSERVE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "observe/profiler.h"
#include "observe/recorder.h"
#include "support/result.h"
#include "support/trace.h"

namespace diderot::observe {

/// Escape \p S for embedding inside a JSON string literal: quotes and
/// backslashes are backslash-escaped, control characters become \n \t \r
/// \b \f or \u00XX. Every runtime string routed into the JSON exporters
/// below must pass through here. Forwards to the shared diderot::jsonEscape
/// in support/strings.h — one escaping routine for the whole tree.
std::string jsonEscape(const std::string &S);

/// Human-readable per-superstep summary (multi-line, trailing newline).
/// Shows, per superstep: strands updated / stabilized / died, blocks
/// claimed, and the span duration; ends with run-wide totals.
std::string formatSummary(const RunStats &R);

/// Machine-readable JSON object: run-level fields ("steps", "numWorkers",
/// "wallNs", totals) plus a "supersteps" array of per-step aggregates and a
/// "workers" array of per-worker span timelines.
std::string statsJson(const RunStats &R);

/// Chrome-trace JSON ({"traceEvents": [...]}): "M" metadata events naming
/// one thread row per worker, then one "X" complete event per (worker,
/// superstep) span with counters attached as args. Timestamps in
/// microseconds relative to run start.
std::string chromeTrace(const RunStats &R);

/// Annotated source listing: every line of \p Source prefixed with its
/// per-class cost counters (probes, kernel evals, inside tests, tensor
/// ops), hottest lines marked. Lines with no profiled sites print blank
/// counter columns. \p Source may be empty, in which case only lines with
/// counts are listed by number.
std::string profileListing(const ProfileData &P, const std::string &Source);

/// Machine-readable profile JSON: {"enabled":..., "lines":[{"line":N,
/// "text":"...", "counts":{...}, "sites":{...}}, ...]} with per-class
/// totals. Source line text is embedded (json-escaped) when available.
std::string profileJson(const ProfileData &P, const std::string &Source);

/// Strand lifecycle event log as JSON: {"events":[{"strand":N,"step":N,
/// "kind":"start|stabilize|die","worker":N,"ns":N}, ...]}.
std::string lifecycleJson(const RunStats &R);

//===----------------------------------------------------------------------===//
// Request-trace exporters (docs/TRACING.md)
//===----------------------------------------------------------------------===//

/// One job's span tree (support/trace.h) as Chrome-trace JSON, loadable in
/// Perfetto: a top-level "traceId" key, "M" metadata events naming the
/// process after the job and the tid rows (0 = request spans, 1 + w = run
/// worker w), then one "X" complete event per span with its span/parent
/// ids and args attached. Timestamps are microseconds in the tree's own
/// clock domain.
std::string spanTreeChromeTrace(const tracing::SpanTree &T);

/// Merge recent jobs into one timeline: each tree becomes its own Chrome
/// "process" (pid = position + 1) named after its job and program, all on
/// the shared clock, so queue waits and overlapping runs line up visually.
std::string mergedChromeTrace(const std::vector<tracing::SpanTree> &Trees);

/// Attach a finished run's Recorder output to \p T as children of the run
/// span \p RunSpanId: one span per (worker, superstep) on the worker's tid
/// row, plus instant-like zero-length spans for trapped faults. All
/// RunStats timestamps are relative to run start and get shifted by
/// \p RunBeginNs into the tree's clock domain. Fresh span ids come from
/// \p Ids (injectable for golden tests).
void appendRunSpans(tracing::SpanTree &T, uint64_t RunSpanId,
                    uint64_t RunBeginNs, const RunStats &R,
                    tracing::IdSource &Ids);

/// Attach one "pool" span under the run span \p RunSpanId covering
/// [\p RunBeginNs, \p RunEndNs], carrying the persistent-pool counters of
/// a parallel run (blocks stolen, park events, pool thread count,
/// worker count) as args. The numbers come from R.Metrics when the
/// registry was armed; with metrics off the span still marks the run as
/// pool-executed, with only the worker count attached.
void appendPoolSpan(tracing::SpanTree &T, uint64_t RunSpanId,
                    uint64_t RunBeginNs, uint64_t RunEndNs,
                    const RunStats &R, tracing::IdSource &Ids);

//===----------------------------------------------------------------------===//
// Metrics exposition
//===----------------------------------------------------------------------===//

/// Prometheus text exposition format (version 0.0.4): `# HELP`/`# TYPE`
/// lines, counter/gauge samples, and histograms with cumulative `le`
/// buckets at octave boundaries plus `_sum`/`_count`. Nanosecond-valued
/// metrics are exposed in seconds, per Prometheus convention.
std::string prometheusText(const MetricsData &D);

/// The registry as one JSON object: {"enabled":...,"counters":{...},
/// "gauges":{...},"histograms":{name:{"count","sum","min","max","mean",
/// "p50","p90","p99","buckets":[[index,count],...]},...}}. Time-valued
/// histograms keep raw nanoseconds here (the *_ns key names say so).
std::string metricsJson(const MetricsData &D);

/// Current resident set size of this process in bytes (via
/// /proc/self/statm; 0 where that is unavailable).
int64_t readProcessRssBytes();

/// Low-frequency background thread sampling process RSS, feeding the
/// diderot_process_rss_bytes gauge of live scrapes. bytes() is safe from
/// any thread.
class RssSampler {
public:
  RssSampler() = default;
  ~RssSampler();
  RssSampler(const RssSampler &) = delete;
  RssSampler &operator=(const RssSampler &) = delete;

  /// Take an immediate sample and start the sampler thread (no-op if
  /// already running).
  void start(int PeriodMs = 250);
  /// Stop and join the sampler thread (idempotent; the destructor calls it).
  void stop();
  int64_t bytes() const { return Rss.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> Rss{0};
  bool Quit = false; // guarded by Mu
  std::mutex Mu;
  std::condition_variable Cv;
  std::thread T;
};

/// Tiny embedded HTTP endpoint serving `GET /metrics` (Prometheus text) for
/// long-running programs (`diderotc --metrics-port`). One request per
/// connection, loopback only, hardened request parsing (support/http.h).
/// The provider callback renders the body per request and must be
/// thread-safe (snapshot reads are).
class MetricsServer {
public:
  using Provider = std::function<std::string()>;

  MetricsServer();
  ~MetricsServer();
  MetricsServer(const MetricsServer &) = delete;
  MetricsServer &operator=(const MetricsServer &) = delete;

  /// Bind 127.0.0.1:\p Port (0 picks an ephemeral port, readable via
  /// port()) and start serving \p P. Fails with a Status if the socket
  /// cannot be bound.
  Status start(int Port, Provider P);
  /// The bound port (valid after a successful start).
  int port() const;
  /// Stop accepting and join the server thread (idempotent).
  void stop();

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace diderot::observe

#endif // DIDEROT_OBSERVE_OBSERVE_H
