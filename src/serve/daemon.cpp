//===--- serve/daemon.cpp - the diderotd compile-and-run service -------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "serve/daemon.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "codegen/cache.h"
#include "driver/inputs.h"
#include "driver/record.h"
#include "nrrd/nrrd.h"
#include "observe/fault.h"
#include "observe/observe.h"
#include "observe/replay.h"
#include "serve/breaker.h"
#include "serve/compile_cache.h"
#include "serve/job_queue.h"
#include "support/http.h"
#include "support/log.h"
#include "support/strings.h"
#include "support/tarball.h"
#include "support/trace.h"

namespace diderot::serve {

namespace {

namespace lg = diderot::logging;
namespace fs = std::filesystem;

/// Octave-bucket latency histogram, Prometheus-ready. Bucket B counts
/// samples <= 1ms * 2^B; 20 buckets reach ~9 minutes, everything slower
/// lands in +Inf only. Lock-free record, racy-but-monotonic scrape — the
/// same contract as the runtime metrics registry.
///
/// Each bucket keeps the trace id of its slowest sample as an
/// OpenMetrics-style exemplar, so a `/metrics` scrape that shows a fat
/// tail bucket also says which request to pull up in `GET /jobs/<id>/trace`.
struct LatencyHisto {
  static constexpr int NumBuckets = 20;
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> SumNs{0};
  std::atomic<uint64_t> WorstNs[NumBuckets] = {};
  mutable std::mutex ExemplarMu;          ///< guards WorstTrace only
  std::string WorstTrace[NumBuckets];     ///< 32-hex trace id per bucket

  void record(uint64_t Ns, const std::string &TraceHex = std::string()) {
    uint64_t Ms = Ns / 1000000;
    int Bucket = NumBuckets;
    for (int B = 0; B < NumBuckets; ++B)
      if (Ms <= (1ull << B)) {
        Buckets[B].fetch_add(1, std::memory_order_relaxed);
        Bucket = B;
        break;
      }
    Count.fetch_add(1, std::memory_order_relaxed);
    SumNs.fetch_add(Ns, std::memory_order_relaxed);
    if (TraceHex.empty() || Bucket >= NumBuckets)
      return;
    // Keep the worst sample per bucket. The CAS decides the winner; the
    // string store behind the mutex may briefly lag a concurrent winner,
    // which is acceptable for an exemplar.
    uint64_t Prev = WorstNs[Bucket].load(std::memory_order_relaxed);
    while (Ns > Prev)
      if (WorstNs[Bucket].compare_exchange_weak(Prev, Ns,
                                                std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> G(ExemplarMu);
        WorstTrace[Bucket] = TraceHex;
        break;
      }
  }

  /// Append HELP/TYPE/bucket/sum/count lines for metric \p Name (seconds).
  /// Buckets with a recorded exemplar append it OpenMetrics-style:
  ///   name_bucket{le="0.128"} 17 # {trace_id="<32 hex>"} 0.093
  void prom(std::string &Out, const std::string &Name,
            const std::string &Help) const {
    Out += strf("# HELP ", Name, " ", Help, "\n# TYPE ", Name,
                " histogram\n");
    uint64_t Cum = 0;
    for (int B = 0; B < NumBuckets; ++B) {
      Cum += Buckets[B].load(std::memory_order_relaxed);
      Out += strf(Name, "_bucket{le=\"", 0.001 * (1ull << B), "\"} ", Cum);
      uint64_t Worst = WorstNs[B].load(std::memory_order_relaxed);
      if (Worst) {
        std::string Trace;
        {
          std::lock_guard<std::mutex> G(ExemplarMu);
          Trace = WorstTrace[B];
        }
        if (!Trace.empty())
          Out += strf(" # {trace_id=\"", Trace, "\"} ", Worst / 1e9);
      }
      Out += "\n";
    }
    uint64_t N = Count.load(std::memory_order_relaxed);
    Out += strf(Name, "_bucket{le=\"+Inf\"} ", N, "\n");
    Out += strf(Name, "_sum ",
                SumNs.load(std::memory_order_relaxed) / 1e9, "\n");
    Out += strf(Name, "_count ", N, "\n");
  }
};

enum class JobState { Queued, Running, Done, Failed };

const char *jobStateName(JobState S) {
  switch (S) {
  case JobState::Queued:
    return "queued";
  case JobState::Running:
    return "running";
  case JobState::Done:
    return "done";
  case JobState::Failed:
    return "failed";
  }
  return "?";
}

/// One submitted run. Guarded by Impl::JobsMu (the fields are small and
/// job transitions are rare next to strand updates; one lock keeps the
/// done-then-pruned lifecycle trivially correct).
struct JobRec {
  std::string Id;
  std::string Program; ///< program name
  std::string Key;     ///< registry key
  JobState State = JobState::Queued;
  std::string Error;   ///< non-empty iff Failed
  std::string Outcome; ///< runOutcomeName once finished
  /// The breaker outcome this job owes. Resolved in runJob (success or
  /// failure at instantiate) or abandoned when the job never reaches the
  /// compiler (deadline spent in queue, drain cancellation).
  CompileBreaker::Token BreakerTok;
  int Steps = 0;
  uint64_t WallNs = 0;
  size_t Strands = 0, Stable = 0, Dead = 0, Faulted = 0;
  std::string OutputNrrd; ///< serialized first output (may be empty)

  // -- Flight recorder (docs/REPLAY.md) ------------------------------------
  /// The submitted Diderot source, retained only under --record-on-failure:
  /// whether a job needs a bundle is known after it ends, so the recorder's
  /// raw material must survive until then.
  std::string Source;
  /// Bundle directory once a failure bundle was recorded (GET
  /// /jobs/<id>/bundle); empty otherwise.
  std::string BundleDir;

  // -- Tracing (docs/TRACING.md) -------------------------------------------
  tracing::TraceContext Ctx; ///< root context; Ctx.Span = root span id
  tracing::SpanTree Tree;    ///< coarse spans always; supersteps if sampled
  uint64_t AcceptNs = 0;     ///< handler entry (steadyClock domain)
  uint64_t EnqueueNs = 0;    ///< just before Sched.submit
  uint64_t QueueWaitNs = 0, CompileNs = 0, RunNs = 0; ///< slow-log breakdown
};

} // namespace

struct Daemon::Impl {
  DaemonOptions Opts;
  std::unique_ptr<ProgramRegistry> Registry;
  /// Per-program compile circuit breaker (constructed at start(), when the
  /// thresholds are known). Declared before the job table: JobRec holds a
  /// breaker token, so Jobs must be destroyed while the breaker is alive.
  std::unique_ptr<CompileBreaker> Breaker;
  FairScheduler Sched;
  http::Server Http;

  std::mutex JobsMu;
  std::map<std::string, std::shared_ptr<JobRec>> Jobs;
  std::deque<std::string> Finished; // pruning order (oldest first)
  uint64_t NextJobId = 1;

  std::atomic<uint64_t> JobsDone{0}, JobsFailed{0}, JobsRejected{0};
  std::atomic<uint64_t> HttpRequests{0};
  std::atomic<uint64_t> DeadlineExpired{0};
  std::atomic<uint64_t> RecordingsTotal{0}, RecordingsEvicted{0};
  std::atomic<uint64_t> ReplayDivergence{0};
  /// Serializes recordings-directory scans and evictions (bundle writes
  /// themselves are atomic-per-file and land in per-job directories, so
  /// only the LRU bookkeeping needs the lock).
  std::mutex RecMu;
  LatencyHisto CompileHisto, RunHisto;

  /// Draining: POSTs are refused with 503 + Retry-After while queued and
  /// running jobs finish; GETs keep working so pollers can collect results.
  std::atomic<bool> Draining{false};

  tracing::HeadSampler Sampler;
  std::unique_ptr<tracing::TraceRing> Ring;
  uint64_t StartNs = 0; ///< steadyClock at start(), for /healthz uptime

  http::Response handle(const http::Request &Req);
  http::Response handleCompile(const http::Request &Req);
  http::Response handleRun(const http::Request &Req);
  /// 429/503 with the shed-contract headers: Retry-After (whole seconds,
  /// rounded up, at least 1) and X-Diderot-Queue-Depth, so clients can
  /// back off intelligently instead of hammering a saturated daemon.
  http::Response shedResponse(int Code, const std::string &Body,
                              int64_t RetryAfterMs);
  http::Response handleJob(const std::string &Id, bool WantOutput,
                           bool WantTrace, bool WantBundle);
  http::Response handleHealthz();
  http::Response metricsText();
  http::Response handleRecordings();
  http::Response handleRecording(const std::string &Id, bool Replay);
  void runJob(const std::shared_ptr<JobRec> &Job,
              std::shared_ptr<const CompiledProgram> Prog,
              std::vector<std::pair<std::string, std::string>> Inputs,
              rt::RunConfig RC, std::string OutputName);
  void cancelQueuedJob(const std::shared_ptr<JobRec> &Job);
  void finishJob(const std::shared_ptr<JobRec> &Job);
  void sealTrace(const std::shared_ptr<JobRec> &Job, uint64_t EndNs);
  /// Persist a failure bundle for \p Job under the recordings directory.
  /// \p P and \p Stats are null for jobs that never ran (then \p TrapLabel
  /// becomes the recorded outcome). Best-effort: a recording failure is
  /// logged, never propagated into the job's own verdict.
  void recordFailureBundle(
      const std::shared_ptr<JobRec> &Job, const CompiledProgram &Prog,
      const std::vector<std::pair<std::string, std::string>> &Inputs,
      const rt::RunConfig &RC, rt::ProgramInstance *P,
      const rt::RunStats *Stats, const char *TrapLabel);
  /// LRU-bound the recordings directory to RecordingsMaxBytes, evicting
  /// oldest-written bundles first — the same policy the .so cache applies
  /// (codegen/native_load.cpp). The newest bundle is never evicted.
  void enforceRecordingsCap();
};

namespace {

http::Response textResponse(int Code, const std::string &Body) {
  return {Code, "text/plain; charset=utf-8", Body, {}};
}

http::Response jsonResponse(int Code, const std::string &Body) {
  return {Code, "application/json", Body, {}};
}

/// Join an incoming W3C traceparent (child context, keeping the caller's
/// trace id) or mint a fresh root. The sampling decision is made here, at
/// the head of the request: an incoming sampled flag wins, otherwise the
/// daemon's own 1-in-N sampler decides.
tracing::TraceContext mintContext(const http::Request &Req,
                                  tracing::HeadSampler &Sampler) {
  tracing::IdSource &Ids = tracing::defaultIdSource();
  tracing::TraceContext Parent;
  if (tracing::parseTraceparent(Req.header("traceparent"), Parent)) {
    tracing::TraceContext C = tracing::makeChild(Parent, Ids);
    C.Sampled = Parent.Sampled || Sampler.sample();
    return C;
  }
  return tracing::makeRoot(Ids, Sampler.sample());
}

/// Echo the request's trace id so callers can correlate without parsing
/// the body — on every response, including 4xx.
http::Response withTrace(http::Response R, const std::string &TraceHex) {
  R.ExtraHeaders.emplace_back("X-Diderot-Trace", TraceHex);
  return R;
}

std::string jobJson(const JobRec &J) {
  std::ostringstream S;
  S << "{\"job\":\"" << observe::jsonEscape(J.Id) << "\""
    << ",\"state\":\"" << jobStateName(J.State) << "\""
    << ",\"program\":\"" << observe::jsonEscape(J.Program) << "\""
    << ",\"key\":\"" << J.Key << "\""
    << ",\"trace\":\"" << tracing::hexTraceId(J.Ctx.Trace) << "\"";
  if (J.State == JobState::Done) {
    S << ",\"outcome\":\"" << J.Outcome << "\""
      << ",\"steps\":" << J.Steps << ",\"wallMs\":" << (J.WallNs / 1e6)
      << ",\"strands\":" << J.Strands << ",\"stable\":" << J.Stable
      << ",\"dead\":" << J.Dead << ",\"faulted\":" << J.Faulted
      << ",\"outputBytes\":" << J.OutputNrrd.size();
  }
  if (!J.Error.empty())
    S << ",\"error\":\"" << observe::jsonEscape(J.Error) << "\"";
  if (!J.BundleDir.empty())
    S << ",\"bundle\":true";
  S << "}\n";
  return S.str();
}

} // namespace

http::Response Daemon::Impl::shedResponse(int Code, const std::string &Body,
                                          int64_t RetryAfterMs) {
  http::Response R = textResponse(Code, Body);
  int64_t Secs = (RetryAfterMs + 999) / 1000;
  R.ExtraHeaders.emplace_back("Retry-After", strf(Secs > 0 ? Secs : 1));
  R.ExtraHeaders.emplace_back("X-Diderot-Queue-Depth", strf(Sched.depth()));
  return R;
}

http::Response Daemon::Impl::handle(const http::Request &Req) {
  HttpRequests.fetch_add(1, std::memory_order_relaxed);
  // Retry-After for drain shedding: when the drain window closes the
  // process exits, so pointing clients at exactly DrainMs invites a retry
  // against a dead socket. Pad with enough slack for a restart (or for a
  // load balancer to have moved on).
  const int64_t DrainRetryMs = Opts.DrainMs + 5000;
  if (Req.Path == "/compile") {
    if (Req.Method != "POST")
      return textResponse(405, "POST only\n");
    if (Draining.load(std::memory_order_relaxed))
      return shedResponse(503, "draining: not accepting new work\n",
                          DrainRetryMs);
    return handleCompile(Req);
  }
  if (Req.Path == "/run") {
    if (Req.Method != "POST")
      return textResponse(405, "POST only\n");
    if (Draining.load(std::memory_order_relaxed))
      return shedResponse(503, "draining: not accepting new work\n",
                          DrainRetryMs);
    return handleRun(Req);
  }
  if (startsWith(Req.Path, "/jobs/")) {
    if (Req.Method != "GET")
      return textResponse(405, "GET only\n");
    std::string Rest = Req.Path.substr(6);
    bool WantOutput = false, WantTrace = false, WantBundle = false;
    size_t Slash = Rest.find('/');
    if (Slash != std::string::npos) {
      std::string Sub = Rest.substr(Slash);
      if (Sub == "/output")
        WantOutput = true;
      else if (Sub == "/trace")
        WantTrace = true;
      else if (Sub == "/bundle")
        WantBundle = true;
      else
        return textResponse(404, "not found\n");
      Rest = Rest.substr(0, Slash);
    }
    return handleJob(Rest, WantOutput, WantTrace, WantBundle);
  }
  if (Req.Path == "/recordings") {
    if (Req.Method != "GET")
      return textResponse(405, "GET only\n");
    return handleRecordings();
  }
  if (startsWith(Req.Path, "/recordings/")) {
    if (Req.Method != "GET")
      return textResponse(405, "GET only\n");
    std::string Rest = Req.Path.substr(12);
    bool Replay = false;
    if (endsWith(Rest, "/replay")) {
      Replay = true;
      Rest = Rest.substr(0, Rest.size() - 7);
    }
    return handleRecording(Rest, Replay);
  }
  if (Req.Path == "/trace" && Req.Method == "GET")
    return jsonResponse(200, observe::mergedChromeTrace(Ring->snapshot()));
  if (Req.Path == "/healthz" && Req.Method == "GET")
    return handleHealthz();
  if (Req.Path == "/metrics" && Req.Method == "GET")
    return metricsText();
  return textResponse(404, "not found\n");
}

http::Response Daemon::Impl::handleCompile(const http::Request &Req) {
  tracing::TraceContext Ctx = mintContext(Req, Sampler);
  std::string TraceHex = tracing::hexTraceId(Ctx.Trace);
  if (Req.Body.empty())
    return withTrace(textResponse(400, "empty program body\n"), TraceHex);
  std::string Name = Req.header("x-diderot-program");
  if (Name.empty())
    Name = "program";
  // Breaker admission happens before any compile work, on the same
  // content key the registry uses — a denial costs a hash, not a slot.
  std::string BKey =
      codegen::programCacheKey(Req.Body, Registry->options()).hex();
  if (CompileBreaker::Decision D = Breaker->admit(BKey); !D.Allow) {
    lg::Logger::global().logEvery(
        "breaker-deny", 2, lg::Level::Warn, "compile denied: breaker open",
        {lg::strField("key", BKey), lg::strField("trace", TraceHex)});
    return withTrace(
        shedResponse(503,
                     strf("compile breaker ", CompileBreaker::stateName(D.St),
                          " for this program\n"),
                     D.RetryAfterMs),
        TraceHex);
  }
  // The admission above must be balanced by exactly one outcome; the
  // token's destructor abandons the half-open probe slot on any exit path
  // that returns before a compile verdict exists.
  CompileBreaker::Token BTok(*Breaker, BKey);
  tracing::Clock &Clk = tracing::steadyClock();
  uint64_t T0 = Clk.nowNs();
  Result<ProgramRegistry::Lookup> L = Registry->getOrCompile(Req.Body, Name);
  if (!L.isOk()) {
    BTok.failure();
    lg::warn("compile failed", {lg::strField("program", Name),
                                lg::strField("trace", TraceHex),
                                lg::strField("error", L.message())});
    return withTrace(textResponse(400, L.message() + "\n"), TraceHex);
  }
  {
    // Warm the expensive artifact now: instantiating a native program
    // emits the C++ and builds (or disk-hits) the shared object, so the
    // first POST /run finds everything hot. Run it even on a registry hit
    // — for a healthy warm program it is a memory-cache lookup, and it is
    // what notices a program whose earlier .so build failed (or whose
    // artifact has since been corrupted): a hit must not mask that.
    Result<std::unique_ptr<rt::ProgramInstance>> Inst = L->Prog->instantiate();
    if (!Inst.isOk()) {
      BTok.failure();
      return withTrace(textResponse(400, Inst.message() + "\n"), TraceHex);
    }
  }
  BTok.success();
  uint64_t Ns = Clk.nowNs() - T0;
  if (!L->Cached)
    CompileHisto.record(Ns, TraceHex);
  lg::info("compile", {lg::strField("program", Name),
                       lg::strField("key", L->Key),
                       lg::boolField("cached", L->Cached),
                       lg::numField("ms", Ns / 1e6),
                       lg::strField("trace", TraceHex)});
  std::ostringstream S;
  S << "{\"key\":\"" << L->Key << "\",\"program\":\""
    << observe::jsonEscape(Name) << "\",\"cached\":"
    << (L->Cached ? "true" : "false") << ",\"compileMs\":" << (Ns / 1e6)
    << ",\"trace\":\"" << TraceHex << "\"}\n";
  return withTrace(jsonResponse(200, S.str()), TraceHex);
}

http::Response Daemon::Impl::handleRun(const http::Request &Req) {
  tracing::Clock &Clk = tracing::steadyClock();
  tracing::IdSource &Ids = tracing::defaultIdSource();
  uint64_t AcceptNs = Clk.nowNs();
  tracing::TraceContext Ctx = mintContext(Req, Sampler);
  std::string TraceHex = tracing::hexTraceId(Ctx.Trace);

  if (Req.Body.empty())
    return withTrace(textResponse(400, "empty program body\n"), TraceHex);
  std::string Name = Req.header("x-diderot-program");
  if (Name.empty())
    Name = "program";
  // Breaker admission before the front end runs and before a queue slot is
  // taken: a program whose compiles keep failing (or timing out under the
  // supervised runner) fails fast here with 503 + Retry-After.
  std::string BKey =
      codegen::programCacheKey(Req.Body, Registry->options()).hex();
  if (CompileBreaker::Decision D = Breaker->admit(BKey); !D.Allow) {
    lg::Logger::global().logEvery(
        "breaker-deny", 2, lg::Level::Warn, "run denied: breaker open",
        {lg::strField("key", BKey), lg::strField("trace", TraceHex)});
    return withTrace(
        shedResponse(503,
                     strf("compile breaker ", CompileBreaker::stateName(D.St),
                          " for this program\n"),
                     D.RetryAfterMs),
        TraceHex);
  }
  // Every return below must resolve this admission. Compile verdicts call
  // failure()/success(); the 400s for malformed inputs/limit headers and
  // the 429 queue-full shed return with the token still armed, and its
  // destructor releases the half-open probe slot — without this, a probe
  // that exited early would jam the breaker shut for the key forever.
  CompileBreaker::Token BTok(*Breaker, BKey);
  uint64_t CompileBeginNs = Clk.nowNs();
  Result<ProgramRegistry::Lookup> L = Registry->getOrCompile(Req.Body, Name);
  uint64_t CompileEndNs = Clk.nowNs();
  if (!L.isOk()) {
    BTok.failure();
    lg::warn("run rejected: compile failed",
             {lg::strField("program", Name), lg::strField("trace", TraceHex),
              lg::strField("error", L.message())});
    return withTrace(textResponse(400, L.message() + "\n"), TraceHex);
  }
  if (L->CompileNs)
    CompileHisto.record(L->CompileNs, TraceHex);

  // Inputs arrive as repeated X-Diderot-Input: NAME=VALUE headers; they are
  // validated on the worker, where the instance (and so the declared input
  // types) exists.
  std::vector<std::pair<std::string, std::string>> Inputs;
  for (const std::string &KV : Req.headerValues("x-diderot-input")) {
    size_t Eq = KV.find('=');
    if (Eq == std::string::npos)
      return withTrace(textResponse(400, "X-Diderot-Input needs NAME=VALUE\n"),
                       TraceHex);
    Inputs.emplace_back(KV.substr(0, Eq), KV.substr(Eq + 1));
  }
  rt::RunConfig RC;
  RC.MaxSupersteps = Opts.MaxSupersteps;
  RC.NumWorkers = Opts.RunWorkers;
  RC.Policy.DeadlineNs = Opts.DefaultDeadlineNs;
  // Run-limit headers are validated here, at the head of the request:
  // these used to go through bare atoi/atoll, where "forever" became 0
  // steps, negatives slipped into the RunPolicy, and overflow was UB.
  // Malformed values are a 400 naming the offending header, not a silent
  // zero.
  auto BadHeader = [&](const char *Header) {
    return withTrace(textResponse(400, strf("malformed ", Header,
                                            " header\n")),
                     TraceHex);
  };
  if (std::string V = Req.header("x-diderot-steps"); !V.empty()) {
    if (!parseInt(V, RC.MaxSupersteps) || RC.MaxSupersteps < 0)
      return BadHeader("X-Diderot-Steps");
  }
  if (std::string V = Req.header("x-diderot-run-workers"); !V.empty()) {
    if (!parseInt(V, RC.NumWorkers) || RC.NumWorkers < 0)
      return BadHeader("X-Diderot-Run-Workers");
  }
  if (std::string V = Req.header("x-diderot-deadline-ms"); !V.empty()) {
    int64_t Ms = 0;
    if (!parseInt64(V, Ms) || Ms < 0 || Ms > INT64_MAX / 1000000)
      return BadHeader("X-Diderot-Deadline-Ms");
    RC.Policy.DeadlineNs = Ms * 1000000;
  }
  // Deterministic fault injection for chaos drills (tests/daemon_chaos.sh):
  // each X-Diderot-Fault: STRAND@STEP header plants one injected fault at
  // that strand and superstep. The plan rides into the job's failure bundle
  // as recorded input, so a replay re-injects the same faults.
  for (const std::string &FV : Req.headerValues("x-diderot-fault")) {
    size_t At = FV.find('@');
    int64_t Strand = -1;
    int Step = -1;
    if (At == std::string::npos || !parseInt64(FV.substr(0, At), Strand) ||
        !parseInt(FV.substr(At + 1), Step) || Strand < 0 || Step < 0)
      return BadHeader("X-Diderot-Fault");
    RC.Policy.Plan.at(static_cast<uint64_t>(Strand), Step,
                      observe::FaultKind::Injected);
  }
  std::string OutputName = Req.header("x-diderot-output");

  auto Job = std::make_shared<JobRec>();
  Job->Program = Name;
  Job->Key = L->Key;
  if (Opts.RecordOnFailure)
    Job->Source = Req.Body;
  // The breaker outcome now rides with the job: the worker resolves it at
  // instantiate (runJob), and every path that kills the job before then
  // abandons it.
  Job->BreakerTok = std::move(BTok);
  Job->Ctx = Ctx;
  Job->AcceptNs = AcceptNs;
  Job->CompileNs = CompileEndNs - CompileBeginNs;
  Job->Tree.Trace = Ctx.Trace;
  Job->Tree.Sampled = Ctx.Sampled;
  Job->Tree.Program = Name;
  {
    // Root span first (Spans[0] by convention), then the compile-or-cache
    // span; EndNs of the root is sealed when the job finishes.
    tracing::Span Root;
    Root.Id = Ctx.Span;
    Root.Name = "job";
    Root.Cat = "serve";
    Root.BeginNs = AcceptNs;
    Job->Tree.add(std::move(Root));
    tracing::Span CS;
    CS.Id = Ids.nextId();
    CS.Parent = Ctx.Span;
    CS.Name = L->CompileNs ? "compile" : "cache-hit";
    CS.Cat = "serve";
    CS.BeginNs = CompileBeginNs;
    CS.EndNs = CompileEndNs;
    CS.Args.emplace_back("key", L->Key);
    Job->Tree.add(std::move(CS));
  }
  {
    std::lock_guard<std::mutex> G(JobsMu);
    Job->Id = strf("j-", NextJobId++);
    Job->Tree.Job = Job->Id;
    Jobs[Job->Id] = Job;
  }
  Job->EnqueueNs = Clk.nowNs();
  Status S = Sched.submit(
      L->Key,
      [this, Job, Prog = L->Prog, Inputs = std::move(Inputs), RC,
       OutputName]() mutable {
        runJob(Job, std::move(Prog), std::move(Inputs), RC, OutputName);
      },
      // A shutdown that discards this job before it starts must still
      // resolve the record: GET /jobs/<id> polls would otherwise see
      // "queued" forever.
      [this, Job] { cancelQueuedJob(Job); });
  if (!S.isOk()) {
    JobsRejected.fetch_add(1, std::memory_order_relaxed);
    // No compile verdict: queue-full shedding must not count against the
    // program, and must hand back the half-open probe slot if it held it.
    Job->BreakerTok.abandon();
    {
      std::lock_guard<std::mutex> G(JobsMu);
      Jobs.erase(Job->Id);
    }
    // Shedding happens in bursts; keep the log readable under overload.
    lg::Logger::global().logEvery(
        "queue-full", 2, lg::Level::Warn, "job rejected: queue full",
        {lg::strField("program", Name), lg::strField("trace", TraceHex)});
    return withTrace(shedResponse(429, S.message() + "\n",
                                  /*RetryAfterMs=*/1000),
                     TraceHex);
  }
  lg::debug("job accepted",
            {lg::strField("job", Job->Id), lg::strField("program", Name),
             lg::strField("trace", TraceHex),
             lg::boolField("sampled", Ctx.Sampled)});
  http::Response R = jsonResponse(
      202, strf("{\"job\":\"", Job->Id, "\",\"key\":\"", Job->Key,
                "\",\"trace\":\"", TraceHex, "\"}\n"));
  R.ExtraHeaders.emplace_back("X-Diderot-Job", Job->Id);
  return withTrace(std::move(R), TraceHex);
}

void Daemon::Impl::runJob(
    const std::shared_ptr<JobRec> &Job,
    std::shared_ptr<const CompiledProgram> Prog,
    std::vector<std::pair<std::string, std::string>> Inputs, rt::RunConfig RC,
    std::string OutputName) {
  tracing::Clock &Clk = tracing::steadyClock();
  tracing::IdSource &Ids = tracing::defaultIdSource();
  std::string TraceHex = tracing::hexTraceId(Job->Ctx.Trace);

  // Append a finished coarse span to the job's tree (JobsMu guards Tree).
  auto AddSpan = [&](const char *SpanName, uint64_t BeginNs, uint64_t EndNs,
                     uint64_t UseId = 0) {
    tracing::Span S;
    S.Id = UseId ? UseId : Ids.nextId();
    S.Parent = Job->Ctx.Span;
    S.Name = SpanName;
    S.Cat = "serve";
    S.BeginNs = BeginNs;
    S.EndNs = EndNs;
    std::lock_guard<std::mutex> G(JobsMu);
    Job->Tree.add(std::move(S));
  };

  uint64_t DequeueNs = Clk.nowNs();
  Job->QueueWaitNs = DequeueNs - Job->EnqueueNs;
  {
    std::lock_guard<std::mutex> G(JobsMu);
    Job->State = JobState::Running;
  }
  AddSpan("queue-wait", Job->EnqueueNs, DequeueNs);

  auto Fail = [&](const std::string &Msg) {
    uint64_t EndNs = Clk.nowNs();
    // A failure before the instantiate verdict (deadline spent in queue)
    // carries no information about the compiler: release the breaker
    // admission instead of leaking it. No-op once resolved.
    Job->BreakerTok.abandon();
    {
      std::lock_guard<std::mutex> G(JobsMu);
      Job->State = JobState::Failed;
      Job->Error = Msg;
      if (!Job->Tree.Spans.empty())
        Job->Tree.Spans[0].Args.emplace_back("error", Msg);
      JobsFailed.fetch_add(1, std::memory_order_relaxed);
      finishJob(Job);
    }
    sealTrace(Job, EndNs);
    lg::warn("job failed",
             {lg::strField("job", Job->Id),
              lg::strField("program", Job->Program),
              lg::strField("trace", TraceHex), lg::strField("error", Msg)});
  };

  // Deadline-aware admission: a job whose wall-clock deadline was fully
  // consumed by queue wait fails fast here, before paying for instantiate
  // (which for a cold native program is a host compile).
  if (RC.Policy.DeadlineNs > 0 &&
      DequeueNs - Job->AcceptNs >= static_cast<uint64_t>(RC.Policy.DeadlineNs)) {
    DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
    return Fail(strf("DeadlineExceeded: deadline of ",
                     RC.Policy.DeadlineNs / 1000000,
                     " ms elapsed while queued (waited ",
                     (DequeueNs - Job->AcceptNs) / 1000000, " ms)"));
  }

  uint64_t InstBeginNs = Clk.nowNs();
  Result<std::unique_ptr<rt::ProgramInstance>> Inst = Prog->instantiate();
  uint64_t InstEndNs = Clk.nowNs();
  AddSpan("instantiate", InstBeginNs, InstEndNs);
  if (!Inst.isOk()) {
    // Instantiate is where a native program meets the host compiler; its
    // failure (including a supervised-compile timeout) feeds the breaker.
    Job->BreakerTok.failure();
    if (Opts.RecordOnFailure) {
      uint64_t RecBeginNs = Clk.nowNs();
      recordFailureBundle(Job, *Prog, Inputs, RC, nullptr, nullptr,
                          "compile-trapped");
      AddSpan("record", RecBeginNs, Clk.nowNs());
    }
    return Fail(Inst.message());
  }
  Job->BreakerTok.success();
  rt::ProgramInstance &P = **Inst;
  for (const auto &[IName, IValue] : Inputs) {
    Status S = setInputFromText(P, IName, IValue);
    if (!S.isOk())
      return Fail(S.message());
  }
  Status S = P.initialize();
  uint64_t InitEndNs = Clk.nowNs();
  AddSpan("initialize", InstEndNs, InitEndNs);
  if (!S.isOk())
    return Fail(S.message());

  // The run span: sampled jobs arm Recorder stats so the per-superstep /
  // per-worker spans can attach underneath; unsampled jobs keep collection
  // off and pay nothing beyond the two clock reads.
  uint64_t RunSpanId = Ids.nextId();
  if (Job->Ctx.Sampled) {
    RC.CollectStats = true;
    // Parallel runs count steals and parks in the metrics registry; arm it
    // for sampled jobs so the pool span grafted below carries them.
    if (RC.NumWorkers >= 1)
      RC.CollectMetrics = true;
  }
  // Under --record-on-failure every run captures the per-superstep digest
  // stream (one 128-bit hash per superstep) so a failing job's bundle can
  // carry it; the full per-strand state log stays off, bounding the
  // recorder's memory on large grids.
  if (Opts.RecordOnFailure)
    RC.CollectDigests = true;
  RC.Trace.Trace = Job->Ctx.Trace;
  RC.Trace.Span = RunSpanId;
  RC.Trace.Sampled = Job->Ctx.Sampled;
  uint64_t RunBeginNs = Clk.nowNs();
  Result<rt::RunStats> Run = P.run(RC);
  uint64_t RunEndNs = Clk.nowNs();
  Job->RunNs = RunEndNs - RunBeginNs;
  if (!Run.isOk()) {
    AddSpan("run", RunBeginNs, RunEndNs, RunSpanId);
    if (Opts.RecordOnFailure) {
      uint64_t RecBeginNs = Clk.nowNs();
      recordFailureBundle(Job, *Prog, Inputs, RC, nullptr, nullptr,
                          "run-error");
      AddSpan("record", RecBeginNs, Clk.nowNs());
    }
    return Fail(Run.message());
  }
  {
    tracing::Span RS;
    RS.Id = RunSpanId;
    RS.Parent = Job->Ctx.Span;
    RS.Name = "run";
    RS.Cat = "serve";
    RS.BeginNs = RunBeginNs;
    RS.EndNs = RunEndNs;
    RS.Args.emplace_back("steps", strf(Run->Steps));
    RS.Args.emplace_back("outcome", observe::runOutcomeName(Run->Outcome));
    std::lock_guard<std::mutex> G(JobsMu);
    Job->Tree.add(std::move(RS));
    if (Job->Ctx.Sampled && !Run->Workers.empty())
      observe::appendRunSpans(Job->Tree, RunSpanId, RunBeginNs, *Run, Ids);
    if (Job->Ctx.Sampled && RC.NumWorkers >= 1)
      observe::appendPoolSpan(Job->Tree, RunSpanId, RunBeginNs, RunEndNs,
                              *Run, Ids);
  }

  // Failure capture (docs/REPLAY.md): a job that ended over-deadline,
  // diverged, over its fault budget, or with faulted strands leaves a
  // self-contained replay bundle behind before its record goes terminal,
  // so GET /jobs/<id>/bundle never races the write.
  if (Opts.RecordOnFailure &&
      (Run->Outcome == observe::RunOutcome::Deadline ||
       Run->Outcome == observe::RunOutcome::Diverged ||
       Run->Outcome == observe::RunOutcome::FaultBudget ||
       P.numFaulted() > 0)) {
    uint64_t RecBeginNs = Clk.nowNs();
    recordFailureBundle(Job, *Prog, Inputs, RC, &P, &*Run, nullptr);
    AddSpan("record", RecBeginNs, Clk.nowNs());
  }

  std::string NrrdBytes;
  if (!P.outputs().empty()) {
    uint64_t OutBeginNs = Clk.nowNs();
    Result<Nrrd> N = outputToNrrd(P, OutputName);
    if (!N.isOk())
      return Fail(N.message());
    Result<std::string> Bytes = nrrdSerialize(*N);
    if (!Bytes.isOk())
      return Fail(Bytes.message());
    NrrdBytes = Bytes.take();
    AddSpan("serialize-output", OutBeginNs, Clk.nowNs());
  }
  RunHisto.record(Run->WallNs, TraceHex);
  uint64_t DoneNs = Clk.nowNs();
  {
    std::lock_guard<std::mutex> G(JobsMu);
    Job->State = JobState::Done;
    Job->Outcome = observe::runOutcomeName(Run->Outcome);
    Job->Steps = Run->Steps;
    Job->WallNs = Run->WallNs;
    Job->Strands = P.numStrands();
    Job->Stable = P.numStable();
    Job->Dead = P.numDead();
    Job->Faulted = P.numFaulted();
    Job->OutputNrrd = std::move(NrrdBytes);
    JobsDone.fetch_add(1, std::memory_order_relaxed);
    finishJob(Job);
  }
  sealTrace(Job, DoneNs);
  lg::info("job done",
           {lg::strField("job", Job->Id),
            lg::strField("program", Job->Program),
            lg::strField("outcome", Job->Outcome),
            lg::numField("steps", static_cast<int64_t>(Job->Steps)),
            lg::numField("wallMs", Job->WallNs / 1e6),
            lg::strField("trace", TraceHex),
            lg::boolField("sampled", Job->Ctx.Sampled)});
}

/// Cancellation path for jobs FairScheduler::stop() discarded while still
/// queued (runs on the thread that called Daemon::stop(), after the job
/// workers joined): mark them failed so pollers get a terminal state.
void Daemon::Impl::cancelQueuedJob(const std::shared_ptr<JobRec> &Job) {
  uint64_t EndNs = tracing::steadyClock().nowNs();
  // The job never reached the compiler; give its breaker admission back
  // (the record outlives this call in the finished-jobs table, so waiting
  // for the destructor would leak the probe slot until pruning).
  Job->BreakerTok.abandon();
  {
    std::lock_guard<std::mutex> G(JobsMu);
    Job->State = JobState::Failed;
    Job->Error = "shut down before start";
    if (!Job->Tree.Spans.empty())
      Job->Tree.Spans[0].Args.emplace_back("error", Job->Error);
    JobsFailed.fetch_add(1, std::memory_order_relaxed);
    finishJob(Job);
  }
  sealTrace(Job, EndNs);
  lg::warn("job cancelled: shut down before start",
           {lg::strField("job", Job->Id),
            lg::strField("program", Job->Program),
            lg::strField("trace", tracing::hexTraceId(Job->Ctx.Trace))});
}

/// Close the root span and decide retention: sampled jobs always enter the
/// /trace ring; jobs slower than SlowJobNs are promoted even when unsampled
/// and logged with the breakdown an operator needs first (where did the
/// time go: queue, compile, or run?).
void Daemon::Impl::sealTrace(const std::shared_ptr<JobRec> &Job,
                             uint64_t EndNs) {
  tracing::SpanTree Copy;
  bool Slow = false;
  {
    std::lock_guard<std::mutex> G(JobsMu);
    if (!Job->Tree.Spans.empty())
      Job->Tree.Spans[0].EndNs = EndNs;
    Slow = Opts.SlowJobNs > 0 &&
           EndNs - Job->AcceptNs > static_cast<uint64_t>(Opts.SlowJobNs);
    if (Job->Ctx.Sampled || Slow)
      Copy = Job->Tree;
  }
  if (!Copy.Spans.empty())
    Ring->add(std::move(Copy));
  if (Slow)
    lg::warn("slow job",
             {lg::strField("job", Job->Id),
              lg::strField("program", Job->Program),
              lg::numField("totalMs", (EndNs - Job->AcceptNs) / 1e6),
              lg::numField("queueWaitMs", Job->QueueWaitNs / 1e6),
              lg::numField("compileMs", Job->CompileNs / 1e6),
              lg::numField("runMs", Job->RunNs / 1e6),
              lg::strField("trace", tracing::hexTraceId(Job->Ctx.Trace))});
}

/// JobsMu held. Record the finish order and prune the oldest finished jobs
/// beyond the retention cap so a long-lived daemon's job table stays
/// bounded.
void Daemon::Impl::finishJob(const std::shared_ptr<JobRec> &Job) {
  Finished.push_back(Job->Id);
  while (Finished.size() > static_cast<size_t>(Opts.MaxFinishedJobs)) {
    Jobs.erase(Finished.front());
    Finished.pop_front();
  }
}

void Daemon::Impl::recordFailureBundle(
    const std::shared_ptr<JobRec> &Job, const CompiledProgram &Prog,
    const std::vector<std::pair<std::string, std::string>> &Inputs,
    const rt::RunConfig &RC, rt::ProgramInstance *P,
    const rt::RunStats *Stats, const char *TrapLabel) {
  std::string Dir = (fs::path(Opts.RecordingsDir) / Job->Id).string();
  FlightRecorder Rec;
  Rec.begin(Dir, Job->Program, Job->Source, Registry->options(),
            Prog.midModule());
  for (const auto &[IName, IValue] : Inputs)
    if (Status S = Rec.addInput(IName, IValue); !S.isOk()) {
      lg::warn("recording dropped: input unreadable",
               {lg::strField("job", Job->Id), lg::strField("input", IName),
                lg::strField("error", S.message())});
      return;
    }
  // armConfig records the configuration into the bundle; it also arms the
  // capture flags on its argument, which is why it gets a copy — the run
  // this bundle describes already happened.
  rt::RunConfig Cfg = RC;
  Rec.armConfig(Cfg);
  Status W = (P && Stats) ? Rec.finish(*P, *Stats)
                          : Rec.finishTrapped(TrapLabel ? TrapLabel : "trap");
  if (!W.isOk()) {
    lg::warn("recording failed",
             {lg::strField("job", Job->Id), lg::strField("dir", Dir),
              lg::strField("error", W.message())});
    return;
  }
  RecordingsTotal.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> G(JobsMu);
    Job->BundleDir = Dir;
  }
  if (Opts.RecordingsMaxBytes > 0)
    enforceRecordingsCap();
  lg::info("failure bundle recorded",
           {lg::strField("job", Job->Id),
            lg::strField("program", Job->Program),
            lg::strField("outcome", Rec.bundle().Outcome),
            lg::strField("dir", Dir),
            lg::strField("trace", tracing::hexTraceId(Job->Ctx.Trace))});
}

void Daemon::Impl::enforceRecordingsCap() {
  std::lock_guard<std::mutex> G(RecMu);
  std::error_code EC;
  struct RecInfo {
    fs::path Path;
    fs::file_time_type MTime;
    uint64_t Bytes = 0;
  };
  std::vector<RecInfo> All;
  uint64_t Total = 0;
  for (const fs::directory_entry &E :
       fs::directory_iterator(Opts.RecordingsDir, EC)) {
    if (!E.is_directory(EC))
      continue;
    RecInfo R;
    R.Path = E.path();
    R.MTime = fs::last_write_time(E.path(), EC);
    for (const fs::directory_entry &F : fs::directory_iterator(E.path(), EC))
      if (F.is_regular_file(EC))
        R.Bytes += F.file_size(EC);
    Total += R.Bytes;
    All.push_back(std::move(R));
  }
  std::sort(All.begin(), All.end(),
            [](const RecInfo &A, const RecInfo &B) { return A.MTime < B.MTime; });
  // Oldest first, and never the newest bundle: the cap must not eat the
  // recording that triggered this sweep.
  for (size_t I = 0; I + 1 < All.size() && Total > Opts.RecordingsMaxBytes;
       ++I) {
    fs::remove_all(All[I].Path, EC);
    if (EC)
      continue;
    Total -= All[I].Bytes;
    RecordingsEvicted.fetch_add(1, std::memory_order_relaxed);
    lg::info("recording evicted",
             {lg::strField("dir", All[I].Path.string()),
              lg::numField("bytes", static_cast<int64_t>(All[I].Bytes))});
  }
}

http::Response Daemon::Impl::handleRecordings() {
  // id -> bytes, only bundles whose manifest landed (the manifest is
  // written last, so its presence marks a complete bundle).
  std::vector<std::pair<std::string, uint64_t>> Recs;
  {
    std::lock_guard<std::mutex> G(RecMu);
    std::error_code EC;
    for (const fs::directory_entry &E :
         fs::directory_iterator(Opts.RecordingsDir, EC)) {
      if (!E.is_directory(EC))
        continue;
      if (!fs::exists(E.path() / observe::bundleManifestFile(), EC))
        continue;
      uint64_t Bytes = 0;
      for (const fs::directory_entry &F : fs::directory_iterator(E.path(), EC))
        if (F.is_regular_file(EC))
          Bytes += F.file_size(EC);
      Recs.emplace_back(E.path().filename().string(), Bytes);
    }
  }
  std::sort(Recs.begin(), Recs.end());
  std::ostringstream S;
  S << "{\"recordings\":[";
  for (size_t I = 0; I < Recs.size(); ++I)
    S << (I ? "," : "") << "{\"id\":\"" << observe::jsonEscape(Recs[I].first)
      << "\",\"bytes\":" << Recs[I].second << "}";
  S << "]}\n";
  return jsonResponse(200, S.str());
}

http::Response Daemon::Impl::handleRecording(const std::string &Id,
                                             bool Replay) {
  // The id becomes a path component; reject anything that could escape the
  // recordings directory.
  if (Id.empty() || Id.find('/') != std::string::npos ||
      Id.find("..") != std::string::npos)
    return textResponse(404, "not found\n");
  std::string Dir = (fs::path(Opts.RecordingsDir) / Id).string();
  std::error_code EC;
  if (!fs::is_directory(Dir, EC) ||
      !fs::exists(fs::path(Dir) / observe::bundleManifestFile(), EC))
    return textResponse(404, "no such recording\n");
  if (!Replay) {
    Result<std::string> Tar = support::tarDirectory(Dir);
    if (!Tar.isOk())
      return textResponse(500, Tar.message() + "\n");
    return {200, "application/x-tar", Tar.take(), {}};
  }
  // Replay verification, in-process: recompile the bundled source under the
  // bundled options (sharing this daemon's .so cache) and re-run it under
  // the bundled configuration. The verdict text is diderotc --replay's.
  Result<ReplayReport> RR = replayBundle(Dir, Opts.Compile.WorkDir);
  if (!RR.isOk())
    return textResponse(500, RR.message() + "\n");
  if (!RR->Match) {
    ReplayDivergence.fetch_add(1, std::memory_order_relaxed);
    lg::warn("replay diverged from recording",
             {lg::strField("recording", Id),
              lg::strField("outcome", RR->ReplayedOutcome)});
  }
  return textResponse(200, RR->Text);
}

http::Response Daemon::Impl::handleJob(const std::string &Id, bool WantOutput,
                                       bool WantTrace, bool WantBundle) {
  if (WantBundle) {
    // Copy what is needed under the lock, then tar outside it — archiving
    // a bundle reads the filesystem and must not stall job transitions.
    std::string BundleDir;
    {
      std::lock_guard<std::mutex> G(JobsMu);
      auto It = Jobs.find(Id);
      if (It == Jobs.end())
        return textResponse(404, "no such job\n");
      const JobRec &J = *It->second;
      if (J.State != JobState::Done && J.State != JobState::Failed)
        return textResponse(409, strf("job is ", jobStateName(J.State), "\n"));
      BundleDir = J.BundleDir;
    }
    if (BundleDir.empty())
      return textResponse(404, "no bundle recorded for this job\n");
    // The recordings cap may have evicted the bundle after the job record
    // was stamped; a missing manifest means gone, not a server error.
    std::error_code EC;
    if (!fs::exists(fs::path(BundleDir) / observe::bundleManifestFile(), EC))
      return textResponse(404, "bundle was evicted by the recordings cap\n");
    Result<std::string> Tar = support::tarDirectory(BundleDir);
    if (!Tar.isOk())
      return textResponse(500, Tar.message() + "\n");
    return {200, "application/x-tar", Tar.take(), {}};
  }
  std::lock_guard<std::mutex> G(JobsMu);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return textResponse(404, "no such job\n");
  const JobRec &J = *It->second;
  if (WantTrace) {
    // The tree is sealed when the job finishes (either way); before that
    // it is still being built on the worker.
    if (J.State != JobState::Done && J.State != JobState::Failed)
      return textResponse(409, strf("job is ", jobStateName(J.State), "\n"));
    return jsonResponse(200, observe::spanTreeChromeTrace(J.Tree));
  }
  if (!WantOutput)
    return jsonResponse(200, jobJson(J));
  if (J.State == JobState::Failed)
    return textResponse(409, "job failed: " + J.Error + "\n");
  if (J.State != JobState::Done)
    return textResponse(409,
                        strf("job is ", jobStateName(J.State), "\n"));
  if (J.OutputNrrd.empty())
    return textResponse(404, "job has no output\n");
  return {200, "application/octet-stream", J.OutputNrrd, {}};
}

/// Liveness + the numbers a wait-for-ready loop or load balancer wants,
/// cheap enough to poll: a 200 here means the HTTP stack, scheduler, and
/// registry are all up.
http::Response Daemon::Impl::handleHealthz() {
  size_t NumFinished, RingSize;
  {
    std::lock_guard<std::mutex> G(JobsMu);
    NumFinished = Finished.size();
  }
  RingSize = Ring->size();
  uint64_t UpNs = tracing::steadyClock().nowNs() - StartNs;
  bool Drain = Draining.load(std::memory_order_relaxed);
  std::ostringstream S;
  S << "{\"status\":\"" << (Drain ? "draining" : "ok") << "\""
    << ",\"draining\":" << (Drain ? "true" : "false")
    << ",\"breakerOpen\":" << Breaker->numOpen()
    << ",\"queueDepth\":" << Sched.depth()
    << ",\"jobsInflight\":" << Sched.inFlight()
    << ",\"jobWorkers\":" << Opts.JobWorkers
    << ",\"programs\":" << Registry->size()
    << ",\"finishedJobs\":" << NumFinished
    << ",\"traceRing\":" << RingSize
    << ",\"traceSampleN\":" << Sampler.rate()
    << ",\"uptimeMs\":" << (UpNs / 1e6) << "}\n";
  return jsonResponse(200, S.str());
}

http::Response Daemon::Impl::metricsText() {
  std::string Out;
  auto Counter = [&](const char *Name, const char *Help, uint64_t V) {
    Out += strf("# HELP ", Name, " ", Help, "\n# TYPE ", Name,
                " counter\n", Name, " ", V, "\n");
  };
  auto Gauge = [&](const char *Name, const char *Help, int64_t V) {
    Out += strf("# HELP ", Name, " ", Help, "\n# TYPE ", Name, " gauge\n",
                Name, " ", V, "\n");
  };
  Counter("diderot_daemon_cache_hits_total",
          "Program registry hits (no front-end work)", Registry->hits());
  Counter("diderot_daemon_cache_misses_total",
          "Program registry misses (front-end compiles)",
          Registry->misses());
  codegen::NativeCacheStats NC = codegen::nativeCacheStats();
  Counter("diderot_daemon_native_mem_hits_total",
          "Native loader in-process .so hits", NC.MemHits);
  Counter("diderot_daemon_native_disk_hits_total",
          "Native loader on-disk .so hits (no host compile)", NC.DiskHits);
  Counter("diderot_daemon_native_host_compiles_total",
          "Host C++ compiler invocations", NC.HostCompiles);
  Counter("diderot_daemon_compile_timeouts_total",
          "Supervised host compiles killed at the wall-clock budget",
          NC.CompileTimeouts);
  Counter("diderot_daemon_cache_quarantined_total",
          "Corrupt cache artifacts moved into quarantine/", NC.Quarantined);
  Counter("diderot_daemon_cache_evictions_total",
          "Cache artifacts evicted by the LRU size cap", NC.Evicted);
  Counter("diderot_daemon_breaker_trips_total",
          "Compile breaker transitions into the open state",
          Breaker->trips());
  Counter("diderot_daemon_breaker_fast_fails_total",
          "Requests denied fast (503) by an open compile breaker",
          Breaker->fastFails());
  Counter("diderot_daemon_deadline_expired_total",
          "Jobs failed before start: deadline consumed by queue wait",
          DeadlineExpired.load(std::memory_order_relaxed));
  Counter("diderot_daemon_recordings_total",
          "Failure replay bundles recorded (docs/REPLAY.md)",
          RecordingsTotal.load(std::memory_order_relaxed));
  Counter("diderot_daemon_recordings_evicted_total",
          "Recorded bundles evicted by the recordings size cap",
          RecordingsEvicted.load(std::memory_order_relaxed));
  Counter("diderot_daemon_replay_divergence_total",
          "Replay verifications that diverged from their recording",
          ReplayDivergence.load(std::memory_order_relaxed));
  Counter("diderot_daemon_http_requests_total", "HTTP requests handled",
          HttpRequests.load(std::memory_order_relaxed));
  Out += strf("# HELP diderot_daemon_jobs_total Jobs by terminal state\n",
              "# TYPE diderot_daemon_jobs_total counter\n");
  Out += strf("diderot_daemon_jobs_total{state=\"done\"} ",
              JobsDone.load(std::memory_order_relaxed), "\n");
  Out += strf("diderot_daemon_jobs_total{state=\"failed\"} ",
              JobsFailed.load(std::memory_order_relaxed), "\n");
  Out += strf("diderot_daemon_jobs_total{state=\"rejected\"} ",
              JobsRejected.load(std::memory_order_relaxed), "\n");
  Gauge("diderot_daemon_queue_depth", "Jobs queued, not yet started",
        Sched.depth());
  Gauge("diderot_daemon_jobs_inflight", "Jobs executing right now",
        Sched.inFlight());
  Gauge("diderot_daemon_programs", "Programs in the registry",
        static_cast<int64_t>(Registry->size()));
  Gauge("diderot_daemon_trace_ring", "Span trees retained for GET /trace",
        static_cast<int64_t>(Ring->size()));
  Gauge("diderot_daemon_draining", "1 while the daemon is draining",
        Draining.load(std::memory_order_relaxed) ? 1 : 0);
  Gauge("diderot_daemon_breaker_open",
        "Programs whose compile breaker is open or half-open",
        Breaker->numOpen());
  // Per-key breaker state (1 open, 2 half-open). Only non-closed keys are
  // tracked, so the label cardinality stays bounded by what is failing.
  Out += strf("# HELP diderot_daemon_compile_breaker_state Compile breaker "
              "state per program key (1=open, 2=half-open)\n",
              "# TYPE diderot_daemon_compile_breaker_state gauge\n");
  for (const auto &[Key, St] : Breaker->tracked())
    if (St != CompileBreaker::State::Closed)
      Out += strf("diderot_daemon_compile_breaker_state{key=\"", Key,
                  "\"} ", St == CompileBreaker::State::Open ? 1 : 2, "\n");
  CompileHisto.prom(Out, "diderot_daemon_compile_seconds",
                    "Cold compile latency (front end + native build)");
  RunHisto.prom(Out, "diderot_daemon_run_seconds", "Job run latency");
  return {200, "text/plain; version=0.0.4; charset=utf-8", Out, {}};
}

Daemon::Daemon() : I(new Impl) {}

Daemon::~Daemon() { stop(); }

Status Daemon::start(DaemonOptions O) {
  if (O.Compile.WorkDir.empty())
    O.Compile.WorkDir = defaultCacheDir();
  if (O.RecordingsDir.empty())
    O.RecordingsDir = (fs::path(O.Compile.WorkDir) / "recordings").string();
  I->Opts = O;
  I->Registry = std::make_unique<ProgramRegistry>(O.Compile);
  CompileBreaker::Options BO;
  BO.FailureThreshold = O.BreakerThreshold;
  BO.OpenMs = O.BreakerOpenMs;
  I->Breaker = std::make_unique<CompileBreaker>(BO);
  I->Draining.store(false, std::memory_order_relaxed);
  I->Sampler.setRate(O.TraceSampleN);
  I->Ring = std::make_unique<tracing::TraceRing>(
      O.TraceRingCapacity > 0 ? static_cast<size_t>(O.TraceRingCapacity) : 1);
  I->StartNs = tracing::steadyClock().nowNs();
  FairScheduler::Options SO;
  SO.Workers = O.JobWorkers;
  SO.Capacity = O.QueueCapacity;
  I->Sched.start(SO);
  http::Server::Options HO;
  HO.HandlerThreads = O.HttpThreads;
  Status S = I->Http.start(
      O.Port, [Impl = I.get()](const http::Request &R) {
        return Impl->handle(R);
      },
      HO);
  if (!S.isOk()) {
    I->Sched.stop();
    return S;
  }
  lg::info("daemon started",
           {lg::numField("port", static_cast<int64_t>(I->Http.port())),
            lg::numField("jobWorkers", static_cast<int64_t>(O.JobWorkers)),
            lg::numField("traceSampleN", static_cast<uint64_t>(O.TraceSampleN)),
            lg::strField("cacheDir", O.Compile.WorkDir)});
  return Status::ok();
}

void Daemon::stop() {
  // HTTP first so no new jobs arrive, then the scheduler (finishes running
  // jobs, discards queued ones).
  I->Http.stop();
  I->Sched.stop();
}

void Daemon::beginDrain() {
  if (I->Draining.exchange(true, std::memory_order_relaxed))
    return;
  lg::info("draining: refusing new work",
           {lg::numField("queueDepth",
                         static_cast<int64_t>(I->Sched.depth())),
            lg::numField("inFlight",
                         static_cast<int64_t>(I->Sched.inFlight()))});
}

bool Daemon::drainAndStop() {
  beginDrain();
  bool Drained = I->Sched.waitIdleFor(I->Opts.DrainMs);
  if (!Drained)
    lg::warn("drain budget exhausted; cancelling remaining queued jobs",
             {lg::numField("drainMs", I->Opts.DrainMs),
              lg::numField("queueDepth",
                           static_cast<int64_t>(I->Sched.depth())),
              lg::numField("inFlight",
                           static_cast<int64_t>(I->Sched.inFlight()))});
  stop();
  return Drained;
}

bool Daemon::draining() const {
  return I->Draining.load(std::memory_order_relaxed);
}

int Daemon::port() const { return I->Http.port(); }

std::string Daemon::cacheDir() const { return I->Opts.Compile.WorkDir; }

std::string Daemon::recordingsDir() const { return I->Opts.RecordingsDir; }

Daemon::Counters Daemon::counters() const {
  Counters C;
  if (I->Registry) {
    C.CacheHits = I->Registry->hits();
    C.CacheMisses = I->Registry->misses();
  }
  C.JobsDone = I->JobsDone.load(std::memory_order_relaxed);
  C.JobsFailed = I->JobsFailed.load(std::memory_order_relaxed);
  C.JobsRejected = I->JobsRejected.load(std::memory_order_relaxed);
  C.DeadlineExpired = I->DeadlineExpired.load(std::memory_order_relaxed);
  C.RecordingsTotal = I->RecordingsTotal.load(std::memory_order_relaxed);
  C.RecordingsEvicted = I->RecordingsEvicted.load(std::memory_order_relaxed);
  C.ReplayDivergence = I->ReplayDivergence.load(std::memory_order_relaxed);
  if (I->Breaker) {
    C.BreakerDenied = I->Breaker->fastFails();
    C.BreakerTrips = I->Breaker->trips();
    C.BreakerOpen = I->Breaker->numOpen();
  }
  C.QueueDepth = I->Sched.depth();
  C.JobsInFlight = I->Sched.inFlight();
  return C;
}

void Daemon::waitIdle() { I->Sched.waitIdle(); }

void Daemon::stampEnvMeta() const {
  Counters C = counters();
  uint64_t Lookups = C.CacheHits + C.CacheMisses;
  double Rate = Lookups ? static_cast<double>(C.CacheHits) /
                              static_cast<double>(Lookups)
                        : 0.0;
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.4f", Rate);
  ::setenv("DIDEROT_DAEMON_CACHE_HIT_RATE", Buf, 1);
  std::snprintf(Buf, sizeof(Buf), "%d", C.QueueDepth);
  ::setenv("DIDEROT_DAEMON_QUEUE_DEPTH", Buf, 1);
}

} // namespace diderot::serve
