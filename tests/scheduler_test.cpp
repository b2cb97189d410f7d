//===--- tests/scheduler_test.cpp - bulk-synchronous scheduler tests ---------===//

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "runtime/scheduler.h"

namespace diderot::rt {
namespace {

TEST(Scheduler, SequentialRunsUntilAllStable) {
  // Strand i stabilizes after i+1 updates.
  std::vector<StrandStatus> S(5, StrandStatus::Active);
  std::vector<int> Count(5, 0);
  int Steps = runSequential(
      S,
      [&](size_t I) {
        ++Count[I];
        return Count[I] > static_cast<int>(I) ? StrandStatus::Stable
                                              : StrandStatus::Active;
      },
      100);
  EXPECT_EQ(Steps, 5);
  for (size_t I = 0; I < 5; ++I) {
    EXPECT_EQ(S[I], StrandStatus::Stable);
    EXPECT_EQ(Count[I], static_cast<int>(I) + 1);
  }
}

TEST(Scheduler, SequentialHonorsMaxSteps) {
  std::vector<StrandStatus> S(3, StrandStatus::Active);
  int Steps = runSequential(
      S, [&](size_t) { return StrandStatus::Active; }, 7);
  EXPECT_EQ(Steps, 7);
  for (StrandStatus St : S)
    EXPECT_EQ(St, StrandStatus::Active);
}

TEST(Scheduler, SequentialSkipsNonActive) {
  std::vector<StrandStatus> S = {StrandStatus::Stable, StrandStatus::Active,
                                 StrandStatus::Dead};
  std::vector<int> Count(3, 0);
  runSequential(
      S,
      [&](size_t I) {
        ++Count[I];
        return StrandStatus::Stable;
      },
      100);
  EXPECT_EQ(Count[0], 0);
  EXPECT_EQ(Count[1], 1);
  EXPECT_EQ(Count[2], 0);
}

TEST(Scheduler, SequentialEmptyIsZeroSteps) {
  std::vector<StrandStatus> S;
  EXPECT_EQ(runSequential(S, [&](size_t) { return StrandStatus::Stable; },
                          100),
            0);
  std::vector<StrandStatus> AllDone(4, StrandStatus::Stable);
  EXPECT_EQ(runSequential(AllDone,
                          [&](size_t) { return StrandStatus::Stable; }, 100),
            0);
}

/// Parameterized over (workers, blockSize): the parallel scheduler must
/// update every active strand exactly once per superstep regardless of the
/// partitioning.
class ParallelSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelSweep, EveryStrandUpdatedExactlyOncePerStep) {
  auto [Workers, Block] = GetParam();
  const size_t N = 1000;
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  std::vector<std::atomic<int>> Count(N);
  int Steps = runParallel(
      S,
      [&](size_t I) {
        int C = ++Count[I];
        return C >= 3 ? StrandStatus::Stable : StrandStatus::Active;
      },
      100, Workers, Block);
  EXPECT_EQ(Steps, 3);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Count[I].load(), 3) << "strand " << I;
}

TEST_P(ParallelSweep, MixedLifecycles) {
  auto [Workers, Block] = GetParam();
  const size_t N = 500;
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  std::vector<std::atomic<int>> Count(N);
  runParallel(
      S,
      [&](size_t I) {
        int C = ++Count[I];
        if (I % 3 == 0)
          return StrandStatus::Dead; // dies on first update
        return C > static_cast<int>(I % 5) ? StrandStatus::Stable
                                           : StrandStatus::Active;
      },
      100, Workers, Block);
  for (size_t I = 0; I < N; ++I) {
    if (I % 3 == 0) {
      EXPECT_EQ(S[I], StrandStatus::Dead);
      EXPECT_EQ(Count[I].load(), 1);
    } else {
      EXPECT_EQ(S[I], StrandStatus::Stable);
      EXPECT_EQ(Count[I].load(), static_cast<int>(I % 5) + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 16, 4096)));

TEST(Scheduler, ParallelZeroWorkersFallsBackToSequential) {
  std::vector<StrandStatus> S(10, StrandStatus::Active);
  int Steps = runParallel(
      S, [&](size_t) { return StrandStatus::Stable; }, 100, 0);
  EXPECT_EQ(Steps, 1);
}

TEST(Scheduler, ParallelHonorsMaxSteps) {
  std::vector<StrandStatus> S(100, StrandStatus::Active);
  int Steps = runParallel(
      S, [&](size_t) { return StrandStatus::Active; }, 5, 4, 16);
  EXPECT_EQ(Steps, 5);
}

TEST(Scheduler, ParallelZeroMaxStepsSpawnsNoWorkAndRunsNothing) {
  // MaxSteps <= 0 used to spawn the full worker set, rendezvous at the
  // barrier once, and tear it down having updated nothing. Now it returns
  // before any thread exists.
  for (int MaxSteps : {0, -1}) {
    std::vector<StrandStatus> S(100, StrandStatus::Active);
    std::atomic<int> Updates{0};
    int Steps = runParallel(
        S,
        [&](size_t) {
          ++Updates;
          return StrandStatus::Stable;
        },
        MaxSteps, 4, 16);
    EXPECT_EQ(Steps, 0) << "MaxSteps " << MaxSteps;
    EXPECT_EQ(Updates.load(), 0);
    for (StrandStatus St : S)
      EXPECT_EQ(St, StrandStatus::Active);
  }
}

TEST(Scheduler, ParallelNoActiveStrandsRunsNothing) {
  std::vector<StrandStatus> Empty;
  EXPECT_EQ(runParallel(Empty,
                        [&](size_t) { return StrandStatus::Stable; }, 100,
                        4),
            0);
  std::vector<StrandStatus> AllDone(64, StrandStatus::Stable);
  AllDone[10] = StrandStatus::Dead;
  std::atomic<int> Updates{0};
  EXPECT_EQ(runParallel(AllDone,
                        [&](size_t) {
                          ++Updates;
                          return StrandStatus::Stable;
                        },
                        100, 4, 8),
            0);
  EXPECT_EQ(Updates.load(), 0);
}

TEST(Scheduler, ParallelMoreWorkersThanBlocksClampsAndCompletes) {
  // 2 blocks of work, 16 workers requested: surplus workers could never
  // claim a block (the active set only shrinks), so the scheduler clamps
  // before spawning and the run still updates every strand once per step.
  const size_t N = 2 * 8;
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  std::vector<std::atomic<int>> Count(N);
  int Steps = runParallel(
      S,
      [&](size_t I) {
        int C = ++Count[I];
        return C >= 3 ? StrandStatus::Stable : StrandStatus::Active;
      },
      100, 16, 8);
  EXPECT_EQ(Steps, 3);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Count[I].load(), 3) << "strand " << I;
}

TEST(Scheduler, ParallelClampsNonPositiveBlockSize) {
  // BlockSize <= 0 used to divide by zero computing the block count; it must
  // clamp to DefaultBlockSize and still update every strand.
  for (int Block : {0, -1, -4096}) {
    const size_t N = 1000;
    std::vector<StrandStatus> S(N, StrandStatus::Active);
    std::vector<std::atomic<int>> Count(N);
    int Steps = runParallel(
        S,
        [&](size_t I) {
          int C = ++Count[I];
          return C >= 2 ? StrandStatus::Stable : StrandStatus::Active;
        },
        100, 4, Block);
    EXPECT_EQ(Steps, 2) << "BlockSize " << Block;
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Count[I].load(), 2) << "strand " << I;
  }
}

//===----------------------------------------------------------------------===//
// Run-policy containment. This file is also compiled into test_runtime_tsan,
// so every test here certifies under ThreadSanitizer that the stop protocol
// (mid-superstep deadline/budget stop, barrier drain, worker join) is
// race-free.
//===----------------------------------------------------------------------===//

TEST(RunPolicy, DefaultIsInert) {
  RunPolicy P;
  EXPECT_FALSE(P.active());
  RunControl Ctl(P);
  Ctl.begin(0);
  EXPECT_FALSE(Ctl.deadlineExpired());
  EXPECT_FALSE(Ctl.stopRequested());
  EXPECT_EQ(Ctl.finish(true), RunOutcome::Converged);
  EXPECT_EQ(Ctl.finish(false), RunOutcome::StepLimit);
}

TEST(RunPolicy, SequentialExceptionTrappedOthersConverge) {
  std::vector<StrandStatus> S(5, StrandStatus::Active);
  RunControl Ctl((RunPolicy()));
  int Steps = runSequential(
      S,
      [&](size_t I) -> StrandStatus {
        if (I == 2)
          throw std::runtime_error("boom");
        return StrandStatus::Stable;
      },
      100, nullptr, &Ctl);
  EXPECT_EQ(Steps, 1);
  for (size_t I = 0; I < 5; ++I)
    EXPECT_EQ(S[I], I == 2 ? StrandStatus::Faulted : StrandStatus::Stable);
  std::vector<StrandFault> F = Ctl.takeFaults();
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0].Strand, 2u);
  EXPECT_EQ(F[0].Step, 0);
  EXPECT_EQ(F[0].Kind, FaultKind::Exception);
  EXPECT_EQ(F[0].Message, "boom");
  // A trapped fault under an unlimited budget does not change the verdict.
  EXPECT_EQ(Ctl.finish(true), RunOutcome::Converged);
}

TEST(RunPolicy, SequentialFaultBudgetStopsOnFirstFault) {
  RunPolicy P;
  P.MaxFaults = 0; // zero tolerance
  RunControl Ctl(P);
  std::vector<StrandStatus> S(8, StrandStatus::Active);
  int Updates = 0;
  runSequential(
      S,
      [&](size_t) -> StrandStatus {
        ++Updates;
        throw std::runtime_error("boom");
      },
      100, nullptr, &Ctl);
  // The first fault requests the stop; the per-strand check prevents any
  // further updates this superstep.
  EXPECT_EQ(Updates, 1);
  EXPECT_EQ(Ctl.faultCount(), 1);
  EXPECT_EQ(Ctl.finish(false), RunOutcome::FaultBudget);
}

TEST(RunPolicy, SequentialDeadlineStopsBeforeAnyUpdate) {
  RunPolicy P;
  P.DeadlineNs = 1; // expired by the time the first strand is reached
  RunControl Ctl(P);
  std::vector<StrandStatus> S(4, StrandStatus::Active);
  int Updates = 0;
  int Steps = runSequential(
      S,
      [&](size_t) {
        ++Updates;
        return StrandStatus::Active;
      },
      100, nullptr, &Ctl);
  EXPECT_EQ(Steps, 0);
  EXPECT_EQ(Updates, 0);
  EXPECT_EQ(Ctl.finish(false), RunOutcome::Deadline);
}

TEST(RunPolicy, SequentialWatchdogFlagsDivergence) {
  RunPolicy P;
  P.WatchdogSteps = 3;
  RunControl Ctl(P);
  std::vector<StrandStatus> S(4, StrandStatus::Active);
  int Steps = runSequential(
      S, [&](size_t) { return StrandStatus::Active; }, 100, nullptr, &Ctl);
  EXPECT_EQ(Steps, 3);
  EXPECT_EQ(Ctl.finish(false), RunOutcome::Diverged);
}

TEST(RunPolicy, SequentialWatchdogResetsOnProgress) {
  RunPolicy P;
  P.WatchdogSteps = 3;
  RunControl Ctl(P);
  // One strand retires every other superstep; the quiet streak never
  // reaches 3, so the run converges normally.
  std::vector<StrandStatus> S(8, StrandStatus::Active);
  std::vector<int> Count(8, 0);
  int Steps = runSequential(
      S,
      [&](size_t I) {
        return ++Count[I] > static_cast<int>(2 * I)
                   ? StrandStatus::Stable
                   : StrandStatus::Active;
      },
      100, nullptr, &Ctl);
  EXPECT_EQ(Steps, 15);
  EXPECT_EQ(Ctl.finish(true), RunOutcome::Converged);
}

TEST(RunPolicy, SequentialInjectionPlan) {
  RunPolicy P;
  P.Plan.at(3, 1, observe::FaultKind::Injected);
  P.Plan.at(1, 0, observe::FaultKind::Exception);
  RunControl Ctl(P);
  std::vector<StrandStatus> S(6, StrandStatus::Active);
  std::vector<int> Count(6, 0);
  runSequential(
      S,
      [&](size_t I) {
        return ++Count[I] >= 3 ? StrandStatus::Stable : StrandStatus::Active;
      },
      100, nullptr, &Ctl);
  EXPECT_EQ(S[1], StrandStatus::Faulted);
  EXPECT_EQ(S[3], StrandStatus::Faulted);
  EXPECT_EQ(Count[1], 0); // injected before the update ran
  EXPECT_EQ(Count[3], 1); // faulted in its second superstep
  for (size_t I : {0u, 2u, 4u, 5u})
    EXPECT_EQ(S[I], StrandStatus::Stable);
  std::vector<StrandFault> F = Ctl.takeFaults();
  ASSERT_EQ(F.size(), 2u);
  EXPECT_EQ(F[0].Strand, 1u);
  EXPECT_EQ(F[0].Kind, FaultKind::Exception);
  EXPECT_EQ(F[1].Strand, 3u);
  EXPECT_EQ(F[1].Step, 1);
  EXPECT_EQ(F[1].Kind, FaultKind::Injected);
  EXPECT_EQ(Ctl.finish(true), RunOutcome::Converged);
}

/// Deadline expiry mid-superstep under the full 8-worker pool: every worker
/// must drain out of its strand loop, still commit its Recorder span, reach
/// both barriers, and join — and the recorded rows must stay rectangular.
TEST(RunPolicyParallel, DeadlineStopsMidSuperstepAndJoins) {
  const int Workers = 8;
  const size_t N = 256;
  RunPolicy P;
  P.DeadlineNs = 5 * 1000 * 1000; // 5 ms; the superstep needs ~32 ms
  RunControl Ctl(P);
  observe::Recorder Rec;
  Rec.start(Workers);
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  std::atomic<int> Updates{0};
  int Steps = runParallel(
      S,
      [&](size_t) {
        Updates.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return StrandStatus::Active;
      },
      100, Workers, 4, &Rec, &Ctl);
  // runParallel returning proves all workers re-parked.
  EXPECT_EQ(Ctl.finish(false), RunOutcome::Deadline);
  EXPECT_LT(Updates.load(), static_cast<int>(N)); // stopped mid-superstep
  RunStats R = Rec.take(Steps, Workers);
  ASSERT_EQ(R.Workers.size(), static_cast<size_t>(Workers));
  uint64_t SpanSum = 0;
  for (const std::vector<observe::WorkerSpan> &Row : R.Workers) {
    // Every worker committed a span for every superstep — no torn rows.
    EXPECT_EQ(Row.size(), static_cast<size_t>(Steps));
    for (const observe::WorkerSpan &Sp : Row)
      SpanSum += Sp.Updated;
  }
  EXPECT_EQ(SpanSum, R.Totals.Updated);
  EXPECT_EQ(SpanSum, static_cast<uint64_t>(Updates.load()));
}

/// Fault-budget exhaustion with every strand throwing: the stop propagates
/// to all 8 workers, they return to the pool, and every fault recorded
/// before the stop is preserved.
TEST(RunPolicyParallel, FaultBudgetStopsAllWorkersJoin) {
  const int Workers = 8;
  const size_t N = 4096;
  RunPolicy P;
  P.MaxFaults = 10;
  RunControl Ctl(P);
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  runParallel(
      S,
      [&](size_t) -> StrandStatus { throw std::runtime_error("boom"); },
      100, Workers, 16, nullptr, &Ctl);
  EXPECT_EQ(Ctl.finish(false), RunOutcome::FaultBudget);
  // At least 11 faults were needed to trip the budget; concurrent workers
  // may overshoot slightly, but every recorded fault is consistent.
  std::vector<StrandFault> F = Ctl.takeFaults();
  EXPECT_GE(F.size(), 11u);
  EXPECT_EQ(static_cast<int64_t>(F.size()), Ctl.faultCount());
  size_t Faulted = 0;
  for (StrandStatus St : S)
    Faulted += St == StrandStatus::Faulted;
  EXPECT_EQ(Faulted, F.size());
  for (const StrandFault &Fault : F) {
    EXPECT_EQ(Fault.Kind, FaultKind::Exception);
    EXPECT_EQ(Fault.Message, "boom");
    EXPECT_GE(Fault.Worker, 0);
    EXPECT_LT(Fault.Worker, Workers);
  }
}

TEST(RunPolicyParallel, AlreadyExpiredDeadlineRunsNoUpdate) {
  RunPolicy P;
  P.DeadlineNs = 1;
  RunControl Ctl(P);
  std::vector<StrandStatus> S(100, StrandStatus::Active);
  std::atomic<int> Updates{0};
  runParallel(
      S,
      [&](size_t) {
        ++Updates;
        return StrandStatus::Active;
      },
      100, 4, 16, nullptr, &Ctl);
  // The per-block check fires before any strand of that block updates, so
  // an expired-at-entry deadline stops the run with zero work done.
  EXPECT_EQ(Ctl.finish(false), RunOutcome::Deadline);
  EXPECT_EQ(Updates.load(), 0);
}

TEST(RunPolicyParallel, WatchdogFlagsDivergence) {
  RunPolicy P;
  P.WatchdogSteps = 2;
  RunControl Ctl(P);
  std::vector<StrandStatus> S(100, StrandStatus::Active);
  int Steps = runParallel(
      S, [&](size_t) { return StrandStatus::Active; }, 100, 4, 16, nullptr,
      &Ctl);
  EXPECT_EQ(Steps, 2);
  EXPECT_EQ(Ctl.finish(false), RunOutcome::Diverged);
}

TEST(RunPolicyParallel, ExceptionTrappedOthersConverge) {
  const int Workers = 8;
  const size_t N = 500;
  RunControl Ctl((RunPolicy()));
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  std::vector<std::atomic<int>> Count(N);
  int Steps = runParallel(
      S,
      [&](size_t I) -> StrandStatus {
        if (I == 13)
          throw std::runtime_error("boom");
        int C = ++Count[I];
        return C >= 2 ? StrandStatus::Stable : StrandStatus::Active;
      },
      100, Workers, 16, nullptr, &Ctl);
  EXPECT_EQ(Steps, 2);
  EXPECT_EQ(Ctl.finish(true), RunOutcome::Converged);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(S[I], I == 13 ? StrandStatus::Faulted : StrandStatus::Stable);
  std::vector<StrandFault> F = Ctl.takeFaults();
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0].Strand, 13u);
}

} // namespace
} // namespace diderot::rt
