//===--- runtime/scheduler.h - bulk-synchronous strand scheduling -----------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strand execution model of Sections 3.3 and 5.5: "Diderot uses a
/// bulk-synchronous parallelism model. In this model, execution is divided
/// into super steps; during a super-step each strand's update method is
/// evaluated once. The program executes until all of the strands are either
/// stabilized or dead.
///
/// For the sequential target, the runtime implements this model as a loop
/// nest, with the outer loop iterating once per super-step and the inner
/// loop iterating once per strand. The parallel version ... creates a
/// collection of worker threads (the default is one per hardware core) and
/// manages a work-list of strands. To keep synchronization overhead low, the
/// strands in the work-list are organized into blocks of strands (currently
/// 4096 strands per block). During a super-step, each worker grabs and
/// updates strands until the work-list is empty. Barrier synchronization is
/// used to coordinate the threads at the end of a super step."
///
/// Two schedulers implement it: runSequential (the loop nest) and
/// runParallel (the work-list of blocks, dealt into per-worker deques with
/// block stealing, on a persistent process-wide thread pool). Both are
/// templates over the update callable so the interpreter engine and
/// compiled native programs share them, and both run each strand through
/// the same detail::stepStrand body. docs/SCHEDULING.md has the design and
/// the measurements behind it.
///
//===----------------------------------------------------------------------===//

#ifndef DIDEROT_RUNTIME_SCHEDULER_H
#define DIDEROT_RUNTIME_SCHEDULER_H

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "observe/recorder.h"

namespace diderot::rt {

/// Telemetry types surface through the runtime namespace so host code can
/// say rt::RunStats (collection lives in observe/recorder.h, the fault
/// model in observe/fault.h).
using observe::RunStats;
using observe::RunOutcome;
using observe::FaultKind;
using observe::StrandFault;

/// Lifecycle state of one strand.
enum class StrandStatus : uint8_t {
  Active,  ///< will be updated next superstep
  Stable,  ///< stabilized; state is part of the output
  Dead,    ///< died; produces no output
  Faulted, ///< trapped fault; parked, produces no output
};

/// The paper's work-list granularity.
constexpr int DefaultBlockSize = 4096;

/// Coordinator-side superstep hook (flight recorder, docs/REPLAY.md):
/// invoked with the just-completed 0-based superstep index after that
/// superstep's second barrier, when every worker is parked at the next
/// release barrier — so the strand states and the status vector are
/// barrier-ordered and safe to read without synchronization. Null (the
/// default everywhere) costs one pointer test per superstep.
using StepHook = std::function<void(int)>;

/// Declarative limits on a run, threaded through both schedulers and both
/// engines. The default-constructed policy is inert (active() is false) and
/// the schedulers skip every policy branch, so runs without limits pay
/// nothing.
struct RunPolicy {
  int64_t DeadlineNs = 0;  ///< wall-clock budget in ns; 0 = unlimited
  int64_t MaxFaults = -1;  ///< strand faults tolerated; -1 = unlimited
  int WatchdogSteps = 0;   ///< K supersteps with zero retirements =>
                           ///< Diverged; 0 = watchdog off
  bool StrictFp = false;   ///< engines reject non-finite strand state
  observe::FaultPlan Plan; ///< deterministic fault injection (tests)

  bool active() const {
    return DeadlineNs > 0 || MaxFaults >= 0 || WatchdogSteps > 0 ||
           StrictFp || !Plan.empty();
  }
};

/// Shared run-control state for one policied run: the deadline clock, the
/// stop flag, fault records, and the convergence watchdog. Workers call the
/// const-ish query/record methods; only the scheduler coordinator calls
/// begin/setStep/stepEnd/finish/takeFaults.
///
/// Threading: CurStep and QuietSteps are plain fields written by the
/// coordinator strictly between superstep barriers (or single-threaded),
/// so the barriers order them against worker reads. Fault records go into
/// per-worker rows (same ownership discipline as Recorder spans). The stop
/// flag and counters are relaxed atomics — stopping is advisory and
/// monotonic, so no ordering beyond the barriers is needed.
class RunControl {
public:
  explicit RunControl(const RunPolicy &P) : Policy(P) {}

  const RunPolicy &policy() const { return Policy; }

  /// Coordinator, once before the superstep loop: reset state and size the
  /// per-worker fault rows (a sequential run passes 0 and gets one row).
  void begin(int NumWorkers) {
    Rows.assign(static_cast<size_t>(NumWorkers < 1 ? 1 : NumWorkers), {});
    NFaults.store(0, std::memory_order_relaxed);
    StopCode.store(-1, std::memory_order_relaxed);
    Stop.store(false, std::memory_order_relaxed);
    RetiredThisStep.store(0, std::memory_order_relaxed);
    QuietSteps = 0;
    CurStep = 0;
    T0 = Clock::now();
  }

  /// Coordinator only, between barriers: the superstep about to run.
  void setStep(int S) { CurStep = S; }
  int curStep() const { return CurStep; }

  /// Nanoseconds since begin() on the monotonic clock.
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             T0)
            .count());
  }

  bool stopRequested() const {
    return Stop.load(std::memory_order_relaxed);
  }

  /// First stop reason wins; later requests only reassert the flag.
  void requestStop(RunOutcome O) {
    int Expected = -1;
    StopCode.compare_exchange_strong(Expected, static_cast<int>(O),
                                     std::memory_order_relaxed);
    Stop.store(true, std::memory_order_relaxed);
  }

  /// Check the wall-clock budget; on expiry request a Deadline stop. False
  /// fast (one comparison) when the policy has no deadline.
  bool deadlineExpired() {
    if (Policy.DeadlineNs <= 0)
      return false;
    if (static_cast<int64_t>(nowNs()) < Policy.DeadlineNs)
      return false;
    requestStop(RunOutcome::Deadline);
    return true;
  }

  /// The planned injection for \p Strand in the current superstep, or null.
  const observe::PlannedFault *injectAt(uint64_t Strand) const {
    return Policy.Plan.match(Strand, CurStep);
  }

  /// Worker \p W records a trapped fault for \p Strand. Each worker owns
  /// its row; the fault-budget check rides on the shared atomic count.
  void recordFault(int W, uint64_t Strand, FaultKind K, std::string Msg) {
    StrandFault F;
    F.Strand = Strand;
    F.Step = CurStep;
    F.Worker = W;
    F.Kind = K;
    F.Ns = nowNs();
    F.Message = std::move(Msg);
    Rows[static_cast<size_t>(W)].push_back(std::move(F));
    int64_t Count = NFaults.fetch_add(1, std::memory_order_relaxed) + 1;
    if (Policy.MaxFaults >= 0 && Count > Policy.MaxFaults)
      requestStop(RunOutcome::FaultBudget);
  }

  /// A strand left the Active state this superstep (stabilized, died, or
  /// faulted) — progress, as far as the watchdog is concerned.
  void noteRetired(uint64_t N = 1) {
    RetiredThisStep.fetch_add(N, std::memory_order_relaxed);
  }

  /// Coordinator, after each superstep's barrier: roll the watchdog and
  /// report whether the run must stop.
  bool stepEnd() {
    uint64_t Ret = RetiredThisStep.exchange(0, std::memory_order_relaxed);
    if (stopRequested())
      return true;
    if (Policy.WatchdogSteps > 0) {
      QuietSteps = Ret == 0 ? QuietSteps + 1 : 0;
      if (QuietSteps >= Policy.WatchdogSteps) {
        requestStop(RunOutcome::Diverged);
        return true;
      }
    }
    return false;
  }

  /// After the scheduler returns: resolve the verdict. \p Quiesced is
  /// whether no strand remains Active.
  RunOutcome finish(bool Quiesced) {
    int Code = StopCode.load(std::memory_order_relaxed);
    Verdict = Code >= 0 ? static_cast<RunOutcome>(Code)
              : Quiesced ? RunOutcome::Converged
                         : RunOutcome::StepLimit;
    return Verdict;
  }

  RunOutcome outcome() const { return Verdict; }

  int64_t faultCount() const {
    return NFaults.load(std::memory_order_relaxed);
  }

  /// Coordinator, after workers joined: merge the per-worker fault rows
  /// into one timestamp-ordered list.
  std::vector<StrandFault> takeFaults() {
    std::vector<StrandFault> Out;
    for (std::vector<StrandFault> &Row : Rows) {
      Out.insert(Out.end(), std::make_move_iterator(Row.begin()),
                 std::make_move_iterator(Row.end()));
      Row.clear();
    }
    std::sort(Out.begin(), Out.end(),
              [](const StrandFault &A, const StrandFault &B) {
                return A.Ns != B.Ns ? A.Ns < B.Ns : A.Strand < B.Strand;
              });
    return Out;
  }

private:
  using Clock = std::chrono::steady_clock;
  RunPolicy Policy;
  Clock::time_point T0{};
  int CurStep = 0;    // coordinator-written, barrier-ordered
  int QuietSteps = 0; // coordinator-only
  RunOutcome Verdict = RunOutcome::Converged;
  std::vector<std::vector<StrandFault>> Rows;
  std::atomic<int64_t> NFaults{0};
  std::atomic<int> StopCode{-1};
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> RetiredThisStep{0};
};

namespace detail {
/// Update callables come in two shapes: the classic Update(strandIndex) and
/// the worker-aware Update(strandIndex, workerId) used by profiled runs
/// (the worker id selects the profiler shard). Dispatch on invocability so
/// existing call sites keep compiling unchanged.
template <typename UpdateFn>
inline StrandStatus callUpdate(UpdateFn &Update, size_t I, int W) {
  if constexpr (std::is_invocable_v<UpdateFn &, size_t, int>)
    return Update(I, W);
  else
    return Update(I);
}

/// The trap boundary: run one strand update with fault containment. A
/// planned Exception injection throws a real std::runtime_error so the
/// catch path below is the one exercised; any escaping C++ exception is
/// converted into a recorded StrandFault and the strand parks in Faulted
/// instead of tearing down the process (an exception escaping a worker
/// lambda would otherwise call std::terminate).
template <typename UpdateFn>
inline StrandStatus trappedUpdate(UpdateFn &Update, size_t I, int W,
                                  RunControl &Ctl) {
  FaultKind Kind = FaultKind::Exception;
  try {
    if (const observe::PlannedFault *P =
            Ctl.injectAt(static_cast<uint64_t>(I))) {
      Kind = P->Kind;
      if (P->Kind == FaultKind::Exception)
        throw std::runtime_error("injected C++ exception");
      Ctl.recordFault(W, static_cast<uint64_t>(I), P->Kind,
                      "injected fault");
      return StrandStatus::Faulted;
    }
    return callUpdate(Update, I, W);
  } catch (const std::exception &E) {
    Ctl.recordFault(W, static_cast<uint64_t>(I), Kind, E.what());
  } catch (...) {
    Ctl.recordFault(W, static_cast<uint64_t>(I), Kind,
                    "unknown C++ exception");
  }
  return StrandStatus::Faulted;
}

/// One active strand's turn in superstep \p Step on worker \p W (timeline
/// row W; the sequential loop is worker 0): the policy checks, the update
/// (through the trap boundary when policied), the lifecycle events and the
/// span counts. Both schedulers call this, so they cannot drift apart.
/// Returns false, with the strand untouched, when the run must stop first.
///
/// Deadline amortization: deadlineExpired() costs a steady_clock read, so
/// it runs once per 256 strands (\p PolicyTick, owned by the caller)
/// instead of per strand. Tick 0 still checks before the first update, so
/// an already-expired deadline stops the run with zero work done. The stop
/// flag stays per-strand — it is one relaxed load.
template <bool Policied, typename UpdateFn>
[[gnu::always_inline]] inline bool
stepStrand(std::vector<StrandStatus> &Status, UpdateFn &Update, size_t I,
           int W, int Step, observe::Recorder *Rec, bool Trace,
           RunControl *Ctl, unsigned &PolicyTick, observe::WorkerSpan &Span) {
  if constexpr (Policied) {
    if (Ctl->stopRequested())
      return false;
    if ((PolicyTick++ & 255u) == 0 && Ctl->deadlineExpired())
      return false;
  }
  if (Trace && Step == 0)
    Rec->event(W, {static_cast<uint64_t>(I), Step,
                   observe::StrandEventKind::Start, W, Rec->nowNs()});
  StrandStatus S;
  if constexpr (Policied)
    S = trappedUpdate(Update, I, W, *Ctl);
  else
    S = callUpdate(Update, I, W);
  Status[I] = S;
  ++Span.Updated;
  Span.Stabilized += S == StrandStatus::Stable;
  Span.Died += S == StrandStatus::Dead;
  if constexpr (Policied)
    if (S != StrandStatus::Active)
      Ctl->noteRetired();
  if (Trace && S != StrandStatus::Active)
    Rec->event(W, {static_cast<uint64_t>(I), Step,
                   S == StrandStatus::Stable
                       ? observe::StrandEventKind::Stabilize
                   : S == StrandStatus::Dead
                       ? observe::StrandEventKind::Die
                       : observe::StrandEventKind::Fault,
                   W, Rec->nowNs()});
  return true;
}
} // namespace detail

/// Run supersteps sequentially until no strand is active or \p MaxSteps is
/// reached. \p Update is invoked as Update(strandIndex) and returns the
/// strand's new status. Returns the number of supersteps executed.
///
/// When \p Rec is non-null, each superstep is recorded as one span on
/// timeline row 0 (Rec must have been start()ed). The strand counters are
/// accumulated in locals either way — their cost is a few registers per
/// superstep — so the disabled path stays overhead-free.
///
/// When \p Ctl is non-null the run is policied: updates go through the trap
/// boundary (detail::trappedUpdate), the deadline is checked per strand,
/// and the coordinator consults the watchdog/stop state after each
/// superstep. Ctl->begin() is called here; the caller resolves the verdict
/// with Ctl->finish() afterwards. Faulted strands count toward
/// Span.Updated but not Stabilized/Died — fault accounting is separate
/// (RunControl::takeFaults, RunStats::Faults).
///
/// The policy dimension is a compile-time split (detail::runSequentialImpl
/// is templated on it), so the unpolicied path carries no per-strand branch
/// for the fault machinery at all.
namespace detail {
template <bool Policied, typename UpdateFn>
int runSequentialImpl(std::vector<StrandStatus> &Status, UpdateFn &Update,
                      int MaxSteps, observe::Recorder *Rec,
                      RunControl *Ctl, const StepHook *OnStep) {
  int Steps = 0;
  size_t N = Status.size();
  const bool Trace = Rec && Rec->lifecycle();
  if constexpr (Policied)
    Ctl->begin(0);
  while (Steps < MaxSteps) {
    if constexpr (Policied)
      Ctl->setStep(Steps);
    observe::WorkerSpan Span;
    if (Rec)
      Span.BeginNs = Rec->nowNs();
    bool Any = false;
    unsigned PolicyTick = 0;
    for (size_t I = 0; I < N; ++I) {
      if (Status[I] != StrandStatus::Active)
        continue;
      if (!stepStrand<Policied>(Status, Update, I, 0, Steps, Rec, Trace, Ctl,
                                PolicyTick, Span))
        break;
      Any = true;
    }
    if (!Any)
      break;
    if (Rec) {
      Span.EndNs = Rec->nowNs();
      Rec->beginStep(Steps);
      Rec->commit(0, Span);
      if (observe::Metrics *MX = Rec->metrics()) {
        uint64_t Live = 0;
        for (StrandStatus St : Status)
          Live += St == StrandStatus::Active;
        MX->gauge(observe::MgLiveStrands).set(static_cast<int64_t>(Live));
        MX->gauge(observe::MgWorklistDepth).set(0);
      }
    }
    ++Steps;
    if (OnStep && *OnStep)
      (*OnStep)(Steps - 1);
    if constexpr (Policied)
      if (Ctl->stepEnd())
        break;
  }
  return Steps;
}
} // namespace detail

template <typename UpdateFn>
int runSequential(std::vector<StrandStatus> &Status, UpdateFn &&Update,
                  int MaxSteps, observe::Recorder *Rec = nullptr,
                  RunControl *Ctl = nullptr, const StepHook *OnStep = nullptr) {
  if (Ctl)
    return detail::runSequentialImpl<true>(Status, Update, MaxSteps, Rec,
                                           Ctl, OnStep);
  return detail::runSequentialImpl<false>(Status, Update, MaxSteps, Rec,
                                          nullptr, OnStep);
}

//===----------------------------------------------------------------------===//
// Persistent pool scheduler
//===----------------------------------------------------------------------===//

/// Process-wide persistent worker pool behind runParallel. Threads are
/// spawned lazily up to the largest worker count any run has asked for,
/// park on a condvar between runs, and are never re-spawned — a diderotd
/// job worker issuing thousands of /run requests reuses the same OS threads
/// instead of paying thread churn per run (the generation counter is the
/// "futex word" the parked threads watch).
///
/// Dispatch protocol: a Lease takes RunMu (runs on the pool are serialized;
/// concurrent runParallel calls queue here), publishes the job closure,
/// bumps the generation, and wakes the pool. Each selected worker runs the
/// closure once with its slot id, then re-parks; the Lease destructor waits
/// until all of them are back. Coordination *inside* a run (the superstep
/// barriers) is the job closure's own business.
///
/// Scope note: this is a Meyers singleton in a header, and its function-
/// local static is emitted as a GNU unique symbol (`nm -DC` on a generated
/// .so lists `u guard variable for diderot::rt::StrandPool::instance()::P`).
/// The dynamic linker binds every copy to one definition, so the host and
/// every dlopen'd generated .so share a single pool: interpreter and native
/// runs in one process take turns on the same threads and the same Lease.
/// Building generated code with hidden visibility would split it into one
/// pool per .so.
class StrandPool {
public:
  static StrandPool &instance() {
    static StrandPool P;
    return P;
  }

  /// Threads currently alive in the pool (monotone under the lazy-growth
  /// policy; never shrinks until process exit).
  int threadCount() const {
    std::lock_guard<std::mutex> G(Mu);
    return static_cast<int>(Threads.size());
  }

  /// Total park events: one per worker per completed run.
  uint64_t parkCount() const {
    return Parks.load(std::memory_order_relaxed);
  }

  /// Exclusive use of the pool for one run. Construction dispatches
  /// \p Fn(slot) on \p NW workers; destruction waits for all of them to
  /// finish and re-park. \p Fn must stay alive for the Lease's lifetime.
  class Lease {
  public:
    Lease(StrandPool &P, int NW, std::function<void(int)> Fn)
        : P(P), NW(NW) {
      P.RunMu.lock();
      std::lock_guard<std::mutex> G(P.Mu);
      P.grow(NW);
      P.Job = std::move(Fn);
      P.JobWorkers = NW;
      P.JobDone = 0;
      ++P.Gen;
      P.WorkCv.notify_all();
    }

    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;

    ~Lease() {
      {
        std::unique_lock<std::mutex> L(P.Mu);
        P.DoneCv.wait(L, [&] { return P.JobDone == NW; });
        P.Job = nullptr;
        P.JobWorkers = 0;
      }
      P.RunMu.unlock();
    }

  private:
    StrandPool &P;
    int NW;
  };

private:
  StrandPool() = default;

  ~StrandPool() {
    {
      std::lock_guard<std::mutex> G(Mu);
      ShuttingDown = true;
    }
    WorkCv.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  /// Mu held. Spawn up to \p NW total threads.
  void grow(int NW) {
    while (static_cast<int>(Threads.size()) < NW) {
      int Slot = static_cast<int>(Threads.size());
      Threads.emplace_back([this, Slot] { threadMain(Slot); });
    }
  }

  void threadMain(int Slot) {
    uint64_t SeenGen = 0;
    std::unique_lock<std::mutex> L(Mu);
    for (;;) {
      WorkCv.wait(L, [&] {
        return ShuttingDown || (Gen != SeenGen && Slot < JobWorkers);
      });
      if (ShuttingDown)
        return;
      SeenGen = Gen;
      // Copy the closure so the Lease can clear the shared slot while we
      // are still inside Fn.
      std::function<void(int)> Fn = Job;
      L.unlock();
      Fn(Slot);
      L.lock();
      Parks.fetch_add(1, std::memory_order_relaxed);
      if (++JobDone == JobWorkers)
        DoneCv.notify_all();
    }
  }

  mutable std::mutex Mu;     ///< guards everything below
  std::mutex RunMu;          ///< serializes Leases (one run at a time)
  std::condition_variable WorkCv;
  std::condition_variable DoneCv;
  std::vector<std::thread> Threads;
  std::function<void(int)> Job;
  int JobWorkers = 0;
  int JobDone = 0;
  uint64_t Gen = 0;
  bool ShuttingDown = false;
  std::atomic<uint64_t> Parks{0};
};

/// Parallel supersteps on \p NumWorkers workers of the persistent
/// StrandPool. Returns the number of supersteps executed.
///
/// The coordinator (the calling thread) rebuilds the work-list of blocks
/// of \p BlockSize strands that still hold an active strand and deals it,
/// in contiguous chunks, into one deque per worker. Two barriers bound
/// every superstep. Inside it each worker pops blocks from the tail of its
/// own deque and, when that runs dry, steals from the heads of its
/// neighbours' deques instead of idling at the barrier. Each deque has its
/// own lock, so the only cross-worker traffic is actual stealing.
///
/// When \p Rec is non-null it records one span per worker per superstep
/// (timeline row = worker index). Workers only ever write their own row and
/// the superstep barriers order those writes against the coordinator's
/// beginStep()/take(), so the span paths are race-free by construction; the
/// Recorder's run-wide atomics are the only shared counters. An armed
/// metrics registry also counts steals, pool parks and the pool's thread
/// count.
///
/// When \p Ctl is non-null the run is policied (see runSequential). A stop
/// requested mid-superstep — deadline expiry, fault budget — makes every
/// worker fall out of its strand and block loops, but each still commits
/// its span and reaches both barriers, so the superstep completes cleanly:
/// no hung workers, no torn Recorder rows. The coordinator then observes
/// the stop in Ctl->stepEnd() and releases the workers back to the pool.
/// As with runSequential, the policy dimension is a compile-time split.
namespace detail {
template <bool Policied, typename UpdateFn>
int runParallelImpl(std::vector<StrandStatus> &Status, UpdateFn &Update,
                    int MaxSteps, int NumWorkers, int BlockSize,
                    observe::Recorder *Rec, RunControl *Ctl,
                    const StepHook *OnStep) {

  const size_t N = Status.size();
  const size_t NumBlocks = (N + static_cast<size_t>(BlockSize) - 1) /
                           static_cast<size_t>(BlockSize);

  std::vector<uint32_t> ActiveBlocks;
  ActiveBlocks.reserve(NumBlocks);
  bool Done = false;

  const bool Trace = Rec && Rec->lifecycle();
  // Armed metrics registry, or null. Hoisted so the hot paths pay a single
  // pointer test.
  observe::Metrics *const MX = Rec ? Rec->metrics() : nullptr;

  // Rebuild the work-list from the strand status vector. Runs between
  // barriers (workers parked), so this is also the superstep-boundary view
  // live metric scrapes see.
  auto BuildActive = [&] {
    ActiveBlocks.clear();
    for (size_t B = 0; B < NumBlocks; ++B) {
      size_t Lo = B * static_cast<size_t>(BlockSize);
      size_t Hi = std::min(N, Lo + static_cast<size_t>(BlockSize));
      for (size_t I = Lo; I < Hi; ++I)
        if (Status[I] == StrandStatus::Active) {
          ActiveBlocks.push_back(static_cast<uint32_t>(B));
          break;
        }
    }
    if (MX) {
      uint64_t Live = 0;
      for (StrandStatus St : Status)
        Live += St == StrandStatus::Active;
      MX->gauge(observe::MgLiveStrands).set(static_cast<int64_t>(Live));
      MX->gauge(observe::MgWorklistDepth)
          .set(static_cast<int64_t>(ActiveBlocks.size()));
    }
  };

  if constexpr (Policied)
    Ctl->begin(NumWorkers);

  // Edge cases first, before the pool is leased: a zero-step budget or no
  // active strand means there is no work to hand out.
  BuildActive();
  if (MaxSteps <= 0 || ActiveBlocks.empty())
    return 0;
  // Strands only ever leave the Active set, so the block count cannot grow
  // mid-run: surplus workers beyond the first superstep's block count could
  // never claim anything. Clamp before leasing.
  if (static_cast<size_t>(NumWorkers) > ActiveBlocks.size())
    NumWorkers = static_cast<int>(ActiveBlocks.size());

  // Per-worker deques. The coordinator refills them between barriers (no
  // lock needed: the barrier orders those writes against the workers);
  // during a superstep the owner pops from the tail and thieves pop from
  // the head, each under the per-deque lock. Blocks only ever leave a
  // deque, so a thief's full scan finding every deque empty is a stable
  // "superstep drained" verdict.
  struct BlockDeque {
    std::mutex Mu;
    std::vector<uint32_t> Blocks;
    size_t Head = 0; ///< steal side
    size_t Tail = 0; ///< owner side; empty when Head == Tail
  };
  std::vector<BlockDeque> Deques(static_cast<size_t>(NumWorkers));

  // Two rendezvous per superstep: workers wait for the deques, then the
  // coordinator waits for all updates to finish.
  std::barrier Sync(NumWorkers + 1);

  auto Worker = [&](int W) {
    // Workers learn the superstep number by counting barrier iterations;
    // the coordinator's Steps counter advances in lock-step with them.
    int StepNo = 0;
    // The deadline tick spans supersteps; on top of it each claimed block
    // checks the clock once.
    unsigned PolicyTick = 0;
    // This worker's private claim-latency shard; merged by the coordinator
    // at superstep barriers (observe/metrics.h documents the contract).
    observe::HistCell *const ClaimCell =
        MX ? &MX->hist(observe::MhClaimNs).cell(W) : nullptr;
    // Claim one block: own deque first (tail side), then a round-robin
    // steal scan over the others (head side). Returns false only when
    // every deque is empty.
    auto Claim = [&](uint32_t &Block, uint64_t &Locks, uint64_t &Steals) {
      {
        BlockDeque &D = Deques[static_cast<size_t>(W)];
        std::lock_guard<std::mutex> G(D.Mu);
        ++Locks;
        if (D.Head < D.Tail) {
          Block = D.Blocks[--D.Tail];
          return true;
        }
      }
      for (int K = 1; K < NumWorkers; ++K) {
        BlockDeque &V =
            Deques[static_cast<size_t>((W + K) % NumWorkers)];
        std::lock_guard<std::mutex> G(V.Mu);
        ++Locks;
        if (V.Head < V.Tail) {
          Block = V.Blocks[V.Head++];
          ++Steals;
          return true;
        }
      }
      return false;
    };
    for (;;) {
      Sync.arrive_and_wait(); // deques filled
      if (Done)
        return;
      observe::WorkerSpan Span;
      if (Rec)
        Span.BeginNs = Rec->nowNs();
      uint64_t Steals = 0;
      bool Stopping = false;
      while (!Stopping) {
        uint32_t Block;
        uint64_t Locks = 0;
        bool Got;
        if (ClaimCell) {
          uint64_t C0 = Rec->nowNs();
          Got = Claim(Block, Locks, Steals);
          ClaimCell->record(Rec->nowNs() - C0);
        } else {
          Got = Claim(Block, Locks, Steals);
        }
        Span.LockAcquires += Locks;
        if (!Got)
          break;
        ++Span.BlocksClaimed;
        if constexpr (Policied)
          if (Ctl->stopRequested() || Ctl->deadlineExpired())
            break;
        size_t Lo = static_cast<size_t>(Block) *
                    static_cast<size_t>(BlockSize);
        size_t Hi = std::min(N, Lo + static_cast<size_t>(BlockSize));
        for (size_t I = Lo; I < Hi; ++I) {
          if (Status[I] != StrandStatus::Active)
            continue;
          if (!stepStrand<Policied>(Status, Update, I, W, StepNo, Rec, Trace,
                                    Ctl, PolicyTick, Span)) {
            Stopping = true; // the coordinator handles the stop
            break;
          }
        }
      }
      ++StepNo;
      if (MX && Steals)
        MX->counter(observe::McBlocksStolen).add(Steals);
      if (Rec) {
        Span.EndNs = Rec->nowNs();
        Span.BarrierWaits = 2; // this superstep's two rendezvous
        Rec->commit(W, Span);
      }
      Sync.arrive_and_wait(); // superstep complete
    }
  };

  StrandPool &Pool = StrandPool::instance();
  int Steps = 0;
  {
    StrandPool::Lease Run(Pool, NumWorkers, Worker);
    for (;;) {
      // Deal the work-list into the deques in contiguous chunks, so each
      // worker starts on a cache-friendly span and stealing moves whole
      // far-away chunks of the index space.
      size_t Per = ActiveBlocks.size() / static_cast<size_t>(NumWorkers);
      size_t Extra = ActiveBlocks.size() % static_cast<size_t>(NumWorkers);
      size_t At = 0;
      for (int W = 0; W < NumWorkers; ++W) {
        size_t Take = Per + (static_cast<size_t>(W) < Extra ? 1 : 0);
        BlockDeque &D = Deques[static_cast<size_t>(W)];
        D.Blocks.assign(ActiveBlocks.begin() +
                            static_cast<std::ptrdiff_t>(At),
                        ActiveBlocks.begin() +
                            static_cast<std::ptrdiff_t>(At + Take));
        D.Head = 0;
        D.Tail = D.Blocks.size();
        At += Take;
      }
      if (Rec)
        Rec->beginStep(Steps); // before workers can commit this superstep
      if constexpr (Policied)
        Ctl->setStep(Steps); // barrier below orders this for workers
      Sync.arrive_and_wait(); // release workers
      Sync.arrive_and_wait(); // wait for completion
      ++Steps;
      // Workers are parked at the next release barrier here; the barrier
      // just crossed ordered their Status/strand writes before this read.
      if (OnStep && *OnStep)
        (*OnStep)(Steps - 1);
      if constexpr (Policied)
        if (Ctl->stepEnd())
          break;
      if (Steps >= MaxSteps)
        break;
      BuildActive();
      if (ActiveBlocks.empty())
        break;
      // One clock read per superstep boundary, so an expiry is caught here
      // even when the supersteps are too small for the per-block checks.
      if constexpr (Policied)
        if (Ctl->deadlineExpired())
          break;
    }
    Done = true;
    Sync.arrive_and_wait(); // release workers back to the pool
  } // Lease dtor: all workers re-parked
  if (MX) {
    MX->counter(observe::McPoolParks)
        .add(static_cast<uint64_t>(NumWorkers));
    MX->gauge(observe::MgPoolThreads).set(Pool.threadCount());
  }
  return Steps;
}
} // namespace detail

/// The parallel scheduler (see detail::runParallelImpl). \p NumWorkers < 1
/// selects runSequential; \p BlockSize <= 0 means DefaultBlockSize.
/// NumWorkers == 1 still runs the full work-list machinery (one pool
/// worker, deque, barriers), so the paper's "Seq" vs "1P" comparison — the
/// cost of the scheduler itself — stays measurable.
template <typename UpdateFn>
int runParallel(std::vector<StrandStatus> &Status, UpdateFn &&Update,
                int MaxSteps, int NumWorkers, int BlockSize = DefaultBlockSize,
                observe::Recorder *Rec = nullptr, RunControl *Ctl = nullptr,
                const StepHook *OnStep = nullptr) {
  if (NumWorkers < 1)
    return runSequential(Status, Update, MaxSteps, Rec, Ctl, OnStep);
  if (BlockSize <= 0)
    BlockSize = DefaultBlockSize;
  if (Ctl)
    return detail::runParallelImpl<true>(Status, Update, MaxSteps, NumWorkers,
                                         BlockSize, Rec, Ctl, OnStep);
  return detail::runParallelImpl<false>(Status, Update, MaxSteps, NumWorkers,
                                        BlockSize, Rec, nullptr, OnStep);
}

} // namespace diderot::rt

#endif // DIDEROT_RUNTIME_SCHEDULER_H
