//===--- tests/pool_test.cpp - persistent pool scheduler tests ---------------===//
//
// The StrandPool behind runParallel, seen from the pool's side: how many
// workers each run leases and parks back (parkCount) across the
// partitioning sweep, the no-work edge cases (no lease at all), policy
// stops and the worker clamp; block stealing under imbalance; thread reuse
// across runs (the no-thread-growth property); and Lease serialization of
// concurrent runs. The superstep semantics themselves are pinned by
// scheduler_test's Parallel* and RunPolicyParallel.* cases.
//
// This file is also compiled into test_pool_tsan, so everything here
// certifies under ThreadSanitizer that the park/dispatch protocol and the
// per-deque stealing locks are race-free.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "observe/metrics.h"
#include "runtime/scheduler.h"

namespace diderot::rt {
namespace {

//===----------------------------------------------------------------------===//
// BSP semantics on the pool
//===----------------------------------------------------------------------===//

/// Pool parks since \p Parks0: one per leased worker per completed run.
uint64_t parksSince(uint64_t Parks0) {
  return StrandPool::instance().parkCount() - Parks0;
}

/// Workers a run of \p N strands leases: the request, clamped to the
/// number of blocks.
uint64_t leased(size_t N, int Workers, int Block) {
  size_t Blocks = (N + static_cast<size_t>(Block) - 1) /
                  static_cast<size_t>(Block);
  return std::min<uint64_t>(static_cast<uint64_t>(Workers), Blocks);
}

/// scheduler_test's partitioning sweep, from the pool's side: each run
/// leases min(workers, blocks) pool workers and parks each exactly once,
/// and every strand is still updated exactly once per superstep.
class PooledSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PooledSweep, EveryStrandUpdatedExactlyOncePerStep) {
  auto [Workers, Block] = GetParam();
  const size_t N = 1000;
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  std::vector<std::atomic<int>> Count(N);
  uint64_t Parks0 = StrandPool::instance().parkCount();
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
  EXPECT_EQ(parksSince(Parks0), leased(N, Workers, Block));
}

TEST_P(PooledSweep, MixedLifecycles) {
  auto [Workers, Block] = GetParam();
  const size_t N = 500;
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  std::vector<std::atomic<int>> Count(N);
  uint64_t Parks0 = StrandPool::instance().parkCount();
  runParallel(
      S,
      [&](size_t I) {
        int C = ++Count[I];
        if (I % 3 == 0)
          return StrandStatus::Dead;
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
  EXPECT_EQ(parksSince(Parks0), leased(N, Workers, Block));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PooledSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 16, 4096)));

TEST(Pooled, ZeroWorkersFallsBackToSequential) {
  std::vector<StrandStatus> S(10, StrandStatus::Active);
  int Before = StrandPool::instance().threadCount();
  uint64_t Parks0 = StrandPool::instance().parkCount();
  int Steps = runParallel(
      S, [&](size_t) { return StrandStatus::Stable; }, 100, 0);
  EXPECT_EQ(Steps, 1);
  std::fill(S.begin(), S.end(), StrandStatus::Active);
  runParallel(S, [&](size_t) { return StrandStatus::Stable; }, 100, -3);
  // The sequential fallback must not touch the pool.
  EXPECT_EQ(StrandPool::instance().threadCount(), Before);
  EXPECT_EQ(parksSince(Parks0), 0u);
}

TEST(Pooled, HonorsMaxSteps) {
  // One lease per run, not per superstep: five supersteps, four parks.
  std::vector<StrandStatus> S(100, StrandStatus::Active);
  uint64_t Parks0 = StrandPool::instance().parkCount();
  int Steps = runParallel(
      S, [&](size_t) { return StrandStatus::Active; }, 5, 4, 16);
  EXPECT_EQ(Steps, 5);
  EXPECT_EQ(parksSince(Parks0), 4u);
}

TEST(Pooled, ClampsNonPositiveBlockSize) {
  for (int Block : {0, -1, -4096}) {
    const size_t N = 1000;
    std::vector<StrandStatus> S(N, StrandStatus::Active);
    std::vector<std::atomic<int>> Count(N);
    uint64_t Parks0 = StrandPool::instance().parkCount();
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
    // The default block holds all 1000 strands: one block, one worker.
    EXPECT_EQ(parksSince(Parks0), 1u) << "BlockSize " << Block;
  }
}

//===----------------------------------------------------------------------===//
// Edge cases: no work means no dispatch
//===----------------------------------------------------------------------===//

TEST(Pooled, ZeroMaxStepsRunsNothing) {
  for (int MaxSteps : {0, -1}) {
    std::vector<StrandStatus> S(100, StrandStatus::Active);
    std::atomic<int> Updates{0};
    uint64_t Parks0 = StrandPool::instance().parkCount();
    int Steps = runParallel(
        S,
        [&](size_t) {
          ++Updates;
          return StrandStatus::Stable;
        },
        MaxSteps, 4, 16);
    EXPECT_EQ(Steps, 0) << "MaxSteps " << MaxSteps;
    EXPECT_EQ(Updates.load(), 0);
    EXPECT_EQ(parksSince(Parks0), 0u) << "no lease without work";
  }
}

TEST(Pooled, NoActiveStrandsRunsNothing) {
  uint64_t Parks0 = StrandPool::instance().parkCount();
  std::vector<StrandStatus> Empty;
  EXPECT_EQ(runParallel(Empty, [&](size_t) { return StrandStatus::Stable; },
                      100, 4),
            0);
  std::vector<StrandStatus> AllDone(64, StrandStatus::Stable);
  std::atomic<int> Updates{0};
  EXPECT_EQ(runParallel(AllDone,
                      [&](size_t) {
                        ++Updates;
                        return StrandStatus::Stable;
                      },
                      100, 4, 8),
            0);
  EXPECT_EQ(Updates.load(), 0);
  EXPECT_EQ(parksSince(Parks0), 0u) << "no lease without work";
}

TEST(Pooled, MoreWorkersThanBlocksClampsAndCompletes) {
  // 3 blocks of work, 8 workers requested: the scheduler must clamp to 3
  // leased workers and still update every strand exactly once per
  // superstep.
  const size_t N = 3 * 16;
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  std::vector<std::atomic<int>> Count(N);
  uint64_t Parks0 = StrandPool::instance().parkCount();
  int Steps = runParallel(
      S,
      [&](size_t I) {
        int C = ++Count[I];
        return C >= 2 ? StrandStatus::Stable : StrandStatus::Active;
      },
      100, 8, 16);
  EXPECT_EQ(Steps, 2);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Count[I].load(), 2) << "strand " << I;
  EXPECT_EQ(parksSince(Parks0), 3u);
}

//===----------------------------------------------------------------------===//
// Pool persistence: thread reuse, parks, lease serialization
//===----------------------------------------------------------------------===//

TEST(StrandPoolReuse, RepeatedRunsDoNotGrowThreadCount) {
  const int Workers = 4;
  auto RunOnce = [&] {
    std::vector<StrandStatus> S(256, StrandStatus::Active);
    std::vector<std::atomic<int>> Count(S.size());
    runParallel(
        S,
        [&](size_t I) {
          return ++Count[I] >= 2 ? StrandStatus::Stable
                                 : StrandStatus::Active;
        },
        100, Workers, 16);
  };
  RunOnce(); // pool warmed to >= Workers threads
  StrandPool &P = StrandPool::instance();
  int After = P.threadCount();
  EXPECT_GE(After, Workers);
  uint64_t Parks0 = P.parkCount();
  for (int R = 0; R < 20; ++R)
    RunOnce();
  // The whole point of the pool: twenty more runs, zero new threads.
  EXPECT_EQ(P.threadCount(), After);
  // Each completed run parks each of its workers exactly once.
  EXPECT_EQ(P.parkCount() - Parks0, 20u * Workers);
}

TEST(StrandPoolReuse, GrowsLazilyToLargestRequest) {
  std::vector<StrandStatus> S(4096, StrandStatus::Active);
  std::vector<std::atomic<int>> Count(S.size());
  auto Update = [&](size_t I) {
    return ++Count[I] >= 1 ? StrandStatus::Stable : StrandStatus::Active;
  };
  runParallel(S, Update, 100, 2, 64);
  StrandPool &P = StrandPool::instance();
  int AfterSmall = P.threadCount();
  EXPECT_GE(AfterSmall, 2);
  for (auto &C : Count)
    C = 0;
  std::fill(S.begin(), S.end(), StrandStatus::Active);
  runParallel(S, Update, 100, 6, 64);
  // A larger request grows the pool; a later smaller one reuses it.
  int AfterBig = P.threadCount();
  EXPECT_GE(AfterBig, 6);
  for (auto &C : Count)
    C = 0;
  std::fill(S.begin(), S.end(), StrandStatus::Active);
  runParallel(S, Update, 100, 3, 64);
  EXPECT_EQ(P.threadCount(), AfterBig);
}

TEST(StrandPoolReuse, ConcurrentRunsSerializeAndBothComplete) {
  // Two host threads issue pooled runs at once; the Lease's RunMu must
  // serialize them so both see correct per-superstep semantics.
  auto RunAndCheck = [&] {
    const size_t N = 2000;
    std::vector<StrandStatus> S(N, StrandStatus::Active);
    std::vector<std::atomic<int>> Count(N);
    int Steps = runParallel(
        S,
        [&](size_t I) {
          int C = ++Count[I];
          return C >= 3 ? StrandStatus::Stable : StrandStatus::Active;
        },
        100, 4, 64);
    EXPECT_EQ(Steps, 3);
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Count[I].load(), 3);
  };
  std::thread A(RunAndCheck), B(RunAndCheck);
  A.join();
  B.join();
}

//===----------------------------------------------------------------------===//
// Stealing
//===----------------------------------------------------------------------===//

TEST(PooledStealing, ImbalancedWorkIsStolenAndCounted) {
  // One-strand blocks, with all the heavy strands dealt to the last
  // worker's contiguous chunk: the other workers drain their own deques
  // almost instantly and must steal from the heavy one to finish the
  // superstep. The armed registry counts those steals.
  const int Workers = 4;
  const size_t N = 64; // 64 blocks of 1 strand; worker 3 gets blocks 48..63
  observe::Recorder Rec;
  Rec.start(Workers, false, /*CollectMetrics=*/true);
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  std::vector<std::atomic<int>> Hit(N);
  int Steps = runParallel(
      S,
      [&](size_t I) {
        ++Hit[I];
        if (I >= 48)
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return StrandStatus::Stable;
      },
      100, Workers, /*BlockSize=*/1, &Rec);
  EXPECT_EQ(Steps, 1);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hit[I].load(), 1) << "strand " << I; // stolen, never duplicated
  RunStats R = Rec.take(Steps, Workers);
  ASSERT_TRUE(R.Metrics.Enabled);
  EXPECT_GT(R.Metrics.Counters[observe::McBlocksStolen], 0u);
  EXPECT_EQ(R.Metrics.Counters[observe::McPoolParks],
            static_cast<uint64_t>(Workers));
  EXPECT_GE(R.Metrics.Gauges[observe::MgPoolThreads],
            static_cast<int64_t>(Workers));
  // Spans stay rectangular: one per worker per superstep.
  ASSERT_EQ(R.Workers.size(), static_cast<size_t>(Workers));
  uint64_t SpanSum = 0;
  for (const std::vector<observe::WorkerSpan> &Row : R.Workers) {
    ASSERT_EQ(Row.size(), 1u);
    SpanSum += Row[0].Updated;
  }
  EXPECT_EQ(SpanSum, N);
}

TEST(PooledStealing, BalancedWorkNeedsNoStealsToBeCorrect) {
  // No assertion on the steal count itself (a fast worker may still race
  // ahead and steal) — only that correctness never depends on it.
  const size_t N = 8 * 4096;
  observe::Recorder Rec;
  Rec.start(4, false, /*CollectMetrics=*/true);
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  std::vector<std::atomic<int>> Count(N);
  int Steps = runParallel(
      S,
      [&](size_t I) {
        int C = ++Count[I];
        return C >= 2 ? StrandStatus::Stable : StrandStatus::Active;
      },
      100, 4, 4096, &Rec);
  EXPECT_EQ(Steps, 2);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Count[I].load(), 2) << "strand " << I;
}

//===----------------------------------------------------------------------===//
// Policy containment on the pool
//===----------------------------------------------------------------------===//

TEST(PooledPolicy, DeadlineStopsMidSuperstepAndReparks) {
  const int Workers = 8;
  const size_t N = 256;
  RunPolicy P;
  P.DeadlineNs = 5 * 1000 * 1000; // 5 ms; the superstep needs ~32 ms
  RunControl Ctl(P);
  observe::Recorder Rec;
  Rec.start(Workers);
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  std::atomic<int> Updates{0};
  uint64_t Parks0 = StrandPool::instance().parkCount();
  int Steps = runParallel(
      S,
      [&](size_t) {
        Updates.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return StrandStatus::Active;
      },
      100, Workers, 4, &Rec, &Ctl);
  // runParallel returning proves the Lease drained: all workers re-parked.
  EXPECT_EQ(parksSince(Parks0), static_cast<uint64_t>(Workers));
  EXPECT_EQ(Ctl.finish(false), RunOutcome::Deadline);
  EXPECT_LT(Updates.load(), static_cast<int>(N));
  RunStats R = Rec.take(Steps, Workers);
  ASSERT_EQ(R.Workers.size(), static_cast<size_t>(Workers));
  uint64_t SpanSum = 0;
  for (const std::vector<observe::WorkerSpan> &Row : R.Workers) {
    EXPECT_EQ(Row.size(), static_cast<size_t>(Steps));
    for (const observe::WorkerSpan &Sp : Row)
      SpanSum += Sp.Updated;
  }
  EXPECT_EQ(SpanSum, static_cast<uint64_t>(Updates.load()));
  // The pool survives a policy stop: the next run reuses it.
  std::vector<StrandStatus> S2(64, StrandStatus::Active);
  EXPECT_EQ(runParallel(S2, [&](size_t) { return StrandStatus::Stable; }, 100,
                      Workers, 4),
            1);
}

TEST(PooledPolicy, FaultBudgetStopsAllWorkersRepark) {
  const int Workers = 8;
  const size_t N = 4096;
  RunPolicy P;
  P.MaxFaults = 10;
  RunControl Ctl(P);
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  uint64_t Parks0 = StrandPool::instance().parkCount();
  runParallel(
      S,
      [&](size_t) -> StrandStatus { throw std::runtime_error("boom"); },
      100, Workers, 16, nullptr, &Ctl);
  EXPECT_EQ(parksSince(Parks0), static_cast<uint64_t>(Workers));
  EXPECT_EQ(Ctl.finish(false), RunOutcome::FaultBudget);
  std::vector<StrandFault> F = Ctl.takeFaults();
  EXPECT_GE(F.size(), 11u);
  size_t Faulted = 0;
  for (StrandStatus St : S)
    Faulted += St == StrandStatus::Faulted;
  EXPECT_EQ(Faulted, F.size());
}

TEST(PooledPolicy, WatchdogFlagsDivergence) {
  RunPolicy P;
  P.WatchdogSteps = 2;
  RunControl Ctl(P);
  std::vector<StrandStatus> S(100, StrandStatus::Active);
  uint64_t Parks0 = StrandPool::instance().parkCount();
  int Steps = runParallel(
      S, [&](size_t) { return StrandStatus::Active; }, 100, 4, 16, nullptr,
      &Ctl);
  EXPECT_EQ(Steps, 2);
  EXPECT_EQ(Ctl.finish(false), RunOutcome::Diverged);
  EXPECT_EQ(parksSince(Parks0), 4u);
}

TEST(PooledPolicy, ExceptionTrappedOthersConverge) {
  const size_t N = 500;
  RunControl Ctl((RunPolicy()));
  std::vector<StrandStatus> S(N, StrandStatus::Active);
  std::vector<std::atomic<int>> Count(N);
  uint64_t Parks0 = StrandPool::instance().parkCount();
  int Steps = runParallel(
      S,
      [&](size_t I) -> StrandStatus {
        if (I == 13)
          throw std::runtime_error("boom");
        int C = ++Count[I];
        return C >= 2 ? StrandStatus::Stable : StrandStatus::Active;
      },
      100, 8, 16, nullptr, &Ctl);
  EXPECT_EQ(Steps, 2);
  EXPECT_EQ(Ctl.finish(true), RunOutcome::Converged);
  EXPECT_EQ(parksSince(Parks0), 8u);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(S[I], I == 13 ? StrandStatus::Faulted : StrandStatus::Stable);
}

} // namespace
} // namespace diderot::rt
