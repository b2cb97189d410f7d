//===--- serve/daemon.h - the diderotd compile-and-run service ---------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library behind the diderotd binary: an HTTP service that compiles
/// Diderot programs once and serves many runs of them, amortizing the
/// paper's expensive step — emitting C++ and invoking the host compiler —
/// across requests and (via the on-disk .so cache) across restarts.
///
/// API (full request/response details and curl examples in docs/SERVING.md):
///
///   POST /compile            body = Diderot source; compiles and, for the
///                            native engine, builds the .so now, so the
///                            first /run is already warm. JSON reply with
///                            the program key and whether it was cached.
///   POST /run                body = Diderot source; inputs and run limits
///                            ride in X-Diderot-* headers. Asynchronous:
///                            replies 202 with a job id (X-Diderot-Job
///                            header and JSON body), or 429 when the queue
///                            is full.
///   GET  /jobs/<id>          job state as JSON (queued/running/done/failed).
///   GET  /jobs/<id>/output   the finished job's first output as NRRD bytes
///                            (409 until the job is done).
///   GET  /jobs/<id>/trace    the job's span tree as Chrome-trace JSON
///                            (409 until the job finished; see
///                            docs/TRACING.md).
///   GET  /jobs/<id>/bundle   the job's replay bundle as a ustar stream
///                            (recorded when --record-on-failure is set and
///                            the job ended faulted / over-deadline /
///                            compile-trapped; 404 when none was recorded;
///                            see docs/REPLAY.md).
///   GET  /trace              recently sampled/slow jobs merged into one
///                            Chrome-trace timeline.
///   GET  /recordings         failure bundles on disk as JSON (id, bytes).
///   GET  /recordings/<id>    one recorded bundle as a ustar stream, even
///                            after its job record was pruned.
///   GET  /recordings/<id>/replay  re-run the recording in-process and
///                            report the comparison (diderotc --replay's
///                            verdict text); divergences bump the
///                            replay_divergence_total metric.
///   GET  /healthz            liveness + queue/cache gauges as JSON; 200
///                            as soon as the daemon accepts requests.
///   GET  /metrics            daemon counters in Prometheus text format;
///                            the latency histograms carry the trace id of
///                            the slowest sample per bucket as an
///                            OpenMetrics-style exemplar.
///
/// One Daemon owns: a ProgramRegistry (compile_cache.h), a FairScheduler
/// (job_queue.h) whose workers run jobs round-robin across programs, a job
/// table with bounded retention of finished jobs, and an http::Server.
///
/// Tracing: every request gets a TraceContext (support/trace.h) — joined
/// from an incoming W3C `traceparent` header or freshly minted — echoed
/// back as X-Diderot-Trace. Every job records its coarse spans (queue-wait,
/// compile-or-cache-hit, instantiate, initialize, run); 1-in-TraceSampleN
/// jobs additionally arm per-superstep Recorder collection and land in the
/// /trace ring. Jobs slower than SlowJobNs are promoted into the ring and
/// logged with a breakdown even when unsampled.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_SERVE_DAEMON_H
#define DIDEROT_SERVE_DAEMON_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "driver/driver.h"
#include "support/result.h"

namespace diderot::serve {

struct DaemonOptions {
  int Port = 0;          ///< 0 = pick an ephemeral port (see Daemon::port())
  int HttpThreads = 4;   ///< HTTP connection handler threads
  /// Job-queue worker threads: one per core by default. Jobs are the unit
  /// of parallelism; each runs its strands on its own worker thread.
  int JobWorkers = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  int QueueCapacity = 64;
  /// Strand workers per job run. 0 runs the strands sequentially on the job
  /// worker itself, with no thread spawned and no barrier per superstep.
  /// N >= 1 runs them on N workers of the process-wide StrandPool; runs
  /// from concurrent jobs take turns on it (docs/SERVING.md).
  int RunWorkers = 0;
  int MaxSupersteps = 10000; ///< per-job superstep cap
  /// Deadline applied to jobs that do not send X-Diderot-Deadline-Ms
  /// (0 = none). Folds into the job's RunPolicy.
  int64_t DefaultDeadlineNs = 0;
  /// Finished (done/failed) jobs retained for polling; the oldest are
  /// pruned beyond this.
  int MaxFinishedJobs = 256;
  /// Head-sampling denominator for detailed tracing: 1-in-N jobs arm
  /// per-superstep Recorder collection and are retained in the /trace
  /// ring. 0 = never, 1 = every job. Coarse spans (queue-wait, compile,
  /// instantiate, initialize, run) are recorded for every job regardless —
  /// they cost a handful of monotonic clock reads.
  uint32_t TraceSampleN = 16;
  /// Recently finished span trees retained for GET /trace.
  int TraceRingCapacity = 64;
  /// Jobs slower than this end-to-end (accept to finish) are promoted into
  /// the trace ring and logged with a queue/compile/run breakdown even when
  /// unsampled (0 = disabled).
  int64_t SlowJobNs = 1000000000;
  /// Compile circuit breaker (serve/breaker.h): consecutive compile
  /// failures per program before requests for it fail fast with 503 +
  /// Retry-After (0 = breaker disabled), and the cooldown before a
  /// half-open probe is admitted.
  int BreakerThreshold = 3;
  int64_t BreakerOpenMs = 10000;
  /// Graceful-drain budget for drainAndStop() (the diderotd SIGTERM path):
  /// how long queued + running jobs get to finish before the hard stop
  /// cancels what is left.
  int64_t DrainMs = 5000;
  /// Flight recorder (docs/REPLAY.md): persist a replay bundle for every
  /// job that ends faulted, over-deadline, diverged, over the fault budget,
  /// or compile-trapped. Costs one digest hash per strand per superstep on
  /// every job while armed (digest stream only — the full per-strand state
  /// log stays off, so memory is bounded at 16 bytes per superstep).
  bool RecordOnFailure = false;
  /// Where failure bundles land, one directory per job id; empty =
  /// <cache-dir>/recordings.
  std::string RecordingsDir;
  /// Cap the recordings directory; least-recently-written bundles are
  /// evicted after each new recording (0 = no cap).
  uint64_t RecordingsMaxBytes = 0;
  /// Options every program is compiled under. WorkDir doubles as the .so
  /// cache directory; empty = serve::defaultCacheDir().
  CompileOptions Compile;
};

class Daemon {
public:
  Daemon();
  ~Daemon(); // stops if still running

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  Status start(DaemonOptions O);
  void stop(); // idempotent

  /// Flip into draining mode: new POST /run and POST /compile get 503 +
  /// Retry-After, GETs (job polls, /healthz, /metrics) keep working, and
  /// queued + running jobs proceed normally. Idempotent.
  void beginDrain();
  /// Graceful shutdown: beginDrain(), wait up to DrainMs for the queue to
  /// empty, then stop() — which fails whatever is still queued through the
  /// cancellation path, so no job record is ever left in "queued".
  /// Returns true if the queue drained within the budget.
  bool drainAndStop();
  /// Whether beginDrain() has been called.
  bool draining() const;
  /// The bound HTTP port (valid after a successful start).
  int port() const;
  /// The .so cache directory in use.
  std::string cacheDir() const;
  /// The failure-recordings directory (valid after start; bundles only
  /// appear there when RecordOnFailure is set).
  std::string recordingsDir() const;

  /// Monotonic counters + instantaneous gauges, for tests and the bench
  /// harness (the same numbers /metrics exposes).
  struct Counters {
    uint64_t CacheHits = 0;   ///< program-registry hits
    uint64_t CacheMisses = 0; ///< program-registry misses (compiles)
    uint64_t JobsDone = 0;
    uint64_t JobsFailed = 0;
    uint64_t JobsRejected = 0;  ///< submits shed with 429
    uint64_t BreakerDenied = 0; ///< requests failed fast with 503 (breaker)
    uint64_t BreakerTrips = 0;  ///< breaker transitions into Open
    uint64_t DeadlineExpired = 0; ///< jobs failed before start (queue wait
                                  ///< consumed the whole deadline)
    uint64_t RecordingsTotal = 0;   ///< failure replay bundles written
    uint64_t RecordingsEvicted = 0; ///< bundles evicted by the size cap
    uint64_t ReplayDivergence = 0;  ///< replay verifications that diverged
    int QueueDepth = 0;
    int JobsInFlight = 0;
    int BreakerOpen = 0; ///< programs currently Open or HalfOpen
  };
  Counters counters() const;

  /// Block until no job is queued or running (tests).
  void waitIdle();

  /// Export daemon health into the environment the bench harness reads
  /// (DIDEROT_DAEMON_CACHE_HIT_RATE, DIDEROT_DAEMON_QUEUE_DEPTH), so
  /// BENCH_*.json files produced under a daemon carry its cache hit rate
  /// and queue depth in their meta block.
  void stampEnvMeta() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace diderot::serve

#endif // DIDEROT_SERVE_DAEMON_H
