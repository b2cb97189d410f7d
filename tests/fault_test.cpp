//===--- tests/fault_test.cpp - fault-containment end-to-end tests -----------===//
//
// Drives the fault-tolerant runtime (docs/ROBUSTNESS.md) through both
// engines and both schedulers: injected exceptions, strict-fp NaN traps,
// interpreter evaluation errors, wall-clock deadlines, fault budgets, and
// the convergence watchdog. Every case must terminate with the right
// RunOutcome and StrandFault records — never a process abort, never a hung
// worker.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "observe/observe.h"
#include "runtime/scheduler.h"

namespace diderot {
namespace {

using observe::FaultKind;
using observe::RunOutcome;

/// Strand i stabilizes after three updates; strand 3's state goes NaN on its
/// first update (sqrt of a negative), which only strict-fp notices.
const char *NanProgram = R"(
strand S (int i) {
  int it = 0;
  output real y = 1.0;
  update {
    it += 1;
    y = (sqrt(-y) if i == 3 else y + 1.0);
    if (it == 3) stabilize;
  }
}
initially [ S(i) | i in 0 .. 7 ];
)";

/// Converges after three updates; the victim for injection plans.
const char *ConvergingProgram = R"(
strand S (int i) {
  int it = 0;
  output real y = 0.0;
  update {
    it += 1;
    y = y + real(i);
    if (it == 3) stabilize;
  }
}
initially [ S(i) | i in 0 .. 7 ];
)";

/// Never stabilizes: deadline / watchdog / step-limit fodder.
const char *DivergingProgram = R"(
strand S (int i) {
  output real y = 0.0;
  update {
    y = y + sin(y + real(i)) + 1.0;
  }
}
initially [ S(i) | i in 0 .. 7 ];
)";

std::unique_ptr<rt::ProgramInstance> makeInstance(const char *Src,
                                                  Engine Eng) {
  CompileOptions Opts;
  Opts.Eng = Eng;
  Result<CompiledProgram> CP = compileString(Src, Opts, "fault");
  EXPECT_TRUE(CP.isOk()) << CP.message();
  if (!CP.isOk())
    return nullptr;
  Result<std::unique_ptr<rt::ProgramInstance>> I = CP->instantiate();
  EXPECT_TRUE(I.isOk()) << I.message();
  if (!I.isOk())
    return nullptr;
  EXPECT_TRUE((*I)->initialize().isOk());
  return I.take();
}

/// (engine, workers): workers == 0 is the sequential loop, > 0 the pool.
class FaultMatrix
    : public ::testing::TestWithParam<std::tuple<Engine, int>> {};

TEST_P(FaultMatrix, InjectedExceptionIsTrappedAndRunConverges) {
  auto [Eng, Workers] = GetParam();
  auto I = makeInstance(ConvergingProgram, Eng);
  ASSERT_NE(I, nullptr);
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  RC.NumWorkers = Workers;
  RC.Policy.Plan.at(3, 1, FaultKind::Exception);
  Result<rt::RunStats> R = I->run(RC);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->Outcome, RunOutcome::Converged);
  EXPECT_EQ(I->numFaulted(), 1u);
  EXPECT_EQ(I->numStable(), 7u);
  EXPECT_EQ(I->numDead(), 0u);
  ASSERT_EQ(R->Faults.size(), 1u);
  EXPECT_EQ(R->Faults[0].Strand, 3u);
  EXPECT_EQ(R->Faults[0].Step, 1);
  EXPECT_EQ(R->Faults[0].Kind, FaultKind::Exception);
  EXPECT_FALSE(R->Faults[0].Message.empty());
}

TEST_P(FaultMatrix, InjectedFaultKindPropagates) {
  auto [Eng, Workers] = GetParam();
  auto I = makeInstance(ConvergingProgram, Eng);
  ASSERT_NE(I, nullptr);
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  RC.NumWorkers = Workers;
  RC.Policy.Plan.at(5, 0, FaultKind::Injected);
  Result<rt::RunStats> R = I->run(RC);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->Outcome, RunOutcome::Converged);
  ASSERT_EQ(R->Faults.size(), 1u);
  EXPECT_EQ(R->Faults[0].Strand, 5u);
  EXPECT_EQ(R->Faults[0].Kind, FaultKind::Injected);
}

TEST_P(FaultMatrix, StrictFpTrapsNaNStrand) {
  auto [Eng, Workers] = GetParam();
  auto I = makeInstance(NanProgram, Eng);
  ASSERT_NE(I, nullptr);
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  RC.NumWorkers = Workers;
  RC.Policy.StrictFp = true;
  Result<rt::RunStats> R = I->run(RC);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->Outcome, RunOutcome::Converged);
  EXPECT_EQ(I->numFaulted(), 1u);
  EXPECT_EQ(I->numStable(), 7u);
  ASSERT_EQ(R->Faults.size(), 1u);
  EXPECT_EQ(R->Faults[0].Strand, 3u);
  EXPECT_EQ(R->Faults[0].Step, 0);
  EXPECT_EQ(R->Faults[0].Kind, FaultKind::NonFinite);
}

TEST_P(FaultMatrix, WithoutStrictFpNaNPropagatesSilently) {
  auto [Eng, Workers] = GetParam();
  auto I = makeInstance(NanProgram, Eng);
  ASSERT_NE(I, nullptr);
  Result<rt::RunStats> R = I->run(100, Workers);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->Outcome, RunOutcome::Converged);
  EXPECT_EQ(I->numFaulted(), 0u);
  EXPECT_EQ(I->numStable(), 8u);
  EXPECT_TRUE(R->Faults.empty());
}

TEST_P(FaultMatrix, DeadlineStopsDivergingRun) {
  auto [Eng, Workers] = GetParam();
  auto I = makeInstance(DivergingProgram, Eng);
  ASSERT_NE(I, nullptr);
  rt::RunConfig RC;
  RC.MaxSupersteps = 1000000000;
  RC.NumWorkers = Workers;
  RC.Policy.DeadlineNs = 50 * 1000 * 1000; // 50 ms
  Result<rt::RunStats> R = I->run(RC);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->Outcome, RunOutcome::Deadline);
  EXPECT_EQ(I->numStable(), 0u);
  EXPECT_TRUE(R->Faults.empty());
}

TEST_P(FaultMatrix, WatchdogFlagsDivergence) {
  auto [Eng, Workers] = GetParam();
  auto I = makeInstance(DivergingProgram, Eng);
  ASSERT_NE(I, nullptr);
  rt::RunConfig RC;
  RC.MaxSupersteps = 100000;
  RC.NumWorkers = Workers;
  RC.Policy.WatchdogSteps = 5;
  Result<rt::RunStats> R = I->run(RC);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->Outcome, RunOutcome::Diverged);
  EXPECT_EQ(R->Steps, 5);
}

TEST_P(FaultMatrix, StepLimitReportedWithoutAnyPolicy) {
  auto [Eng, Workers] = GetParam();
  auto I = makeInstance(DivergingProgram, Eng);
  ASSERT_NE(I, nullptr);
  Result<rt::RunStats> R = I->run(3, Workers);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->Steps, 3);
  EXPECT_EQ(R->Outcome, RunOutcome::StepLimit);
}

TEST_P(FaultMatrix, ConvergedReportedWithoutAnyPolicy) {
  auto [Eng, Workers] = GetParam();
  auto I = makeInstance(ConvergingProgram, Eng);
  ASSERT_NE(I, nullptr);
  Result<rt::RunStats> R = I->run(100, Workers);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->Outcome, RunOutcome::Converged);
  EXPECT_TRUE(R->Faults.empty());
}

TEST_P(FaultMatrix, FaultBudgetStopsRun) {
  auto [Eng, Workers] = GetParam();
  auto I = makeInstance(ConvergingProgram, Eng);
  ASSERT_NE(I, nullptr);
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  RC.NumWorkers = Workers;
  RC.Policy.MaxFaults = 0; // zero tolerance
  RC.Policy.Plan.at(2, 0, FaultKind::Exception);
  Result<rt::RunStats> R = I->run(RC);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->Outcome, RunOutcome::FaultBudget);
  EXPECT_GE(R->Faults.size(), 1u);
}

/// Faults show up in the exporters: the summary names the outcome, the
/// stats JSON carries a faults array, and lifecycle tracing records a
/// "fault" strand event.
TEST_P(FaultMatrix, FaultsSurfaceThroughExporters) {
  auto [Eng, Workers] = GetParam();
  auto I = makeInstance(ConvergingProgram, Eng);
  ASSERT_NE(I, nullptr);
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  RC.NumWorkers = Workers;
  RC.CollectStats = true;
  RC.CollectLifecycle = true;
  RC.Policy.Plan.at(4, 1, FaultKind::Exception);
  Result<rt::RunStats> R = I->run(RC);
  ASSERT_TRUE(R.isOk()) << R.message();
  std::string Summary = observe::formatSummary(*R);
  EXPECT_NE(Summary.find("outcome: converged, 1 fault(s)"), std::string::npos)
      << Summary;
  std::string Json = observe::statsJson(*R);
  EXPECT_NE(Json.find("\"outcome\":\"converged\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"faults\":[{"), std::string::npos) << Json;
  std::string Trace = observe::chromeTrace(*R);
  EXPECT_NE(Trace.find("fault strand 4"), std::string::npos) << Trace;
  bool SawFaultEvent = false;
  for (const observe::StrandEvent &E : R->Events)
    SawFaultEvent |= E.Kind == observe::StrandEventKind::Fault && E.Strand == 4;
  EXPECT_TRUE(SawFaultEvent);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSchedulers, FaultMatrix,
    ::testing::Combine(::testing::Values(Engine::Interp, Engine::Native),
                       ::testing::Values(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<Engine, int>> &I) {
      return std::string(std::get<0>(I.param) == Engine::Interp ? "interp"
                                                                : "native") +
             (std::get<1>(I.param) ? "_par" : "_seq");
    });

/// Interpreter evaluation errors (here: integer division by zero) become
/// trapped faults instead of failing the whole run when a policy is active.
TEST(FaultInterp, EvalErrorBecomesTrappedFault) {
  const char *Src = R"(
strand S (int i) {
  int z = 0;
  output real y = 0.0;
  update {
    z = 1 / (i - 3);
    y = real(z);
    stabilize;
  }
}
initially [ S(i) | i in 0 .. 7 ];
)";
  auto I = makeInstance(Src, Engine::Interp);
  ASSERT_NE(I, nullptr);
  rt::RunConfig RC;
  RC.MaxSupersteps = 10;
  RC.Policy.MaxFaults = 10; // an active policy arms the trap boundary
  Result<rt::RunStats> R = I->run(RC);
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->Outcome, RunOutcome::Converged);
  EXPECT_EQ(I->numFaulted(), 1u);
  EXPECT_EQ(I->numStable(), 7u);
  ASSERT_EQ(R->Faults.size(), 1u);
  EXPECT_EQ(R->Faults[0].Strand, 3u);
  EXPECT_EQ(R->Faults[0].Kind, FaultKind::Exception);
  EXPECT_NE(R->Faults[0].Message.find("division by zero"), std::string::npos)
      << R->Faults[0].Message;
}

/// Without a policy the interpreter keeps its historical contract: an
/// evaluation error fails the run.
TEST(FaultInterp, EvalErrorWithoutPolicyFailsRun) {
  const char *Src = R"(
strand S (int i) {
  int z = 0;
  output real y = 0.0;
  update {
    z = 1 / (i - 3);
    y = real(z);
    stabilize;
  }
}
initially [ S(i) | i in 0 .. 7 ];
)";
  auto I = makeInstance(Src, Engine::Interp);
  ASSERT_NE(I, nullptr);
  Result<rt::RunStats> R = I->run(10, 0);
  EXPECT_FALSE(R.isOk());
}

/// Faulted strands contribute zeros to grid outputs, like dead strands.
TEST(FaultOutputs, FaultedStrandsAreZeroInGrids) {
  auto I = makeInstance(ConvergingProgram, Engine::Interp);
  ASSERT_NE(I, nullptr);
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  RC.Policy.Plan.at(3, 0, FaultKind::Injected);
  Result<rt::RunStats> R = I->run(RC);
  ASSERT_TRUE(R.isOk()) << R.message();
  std::vector<double> Out;
  ASSERT_TRUE(I->getOutput("y", Out).isOk());
  // `initially [...]` is a grid: every cell appears, faulted ones as zero.
  ASSERT_EQ(Out.size(), 8u);
  EXPECT_DOUBLE_EQ(Out[3], 0.0);  // faulted before its first update
  EXPECT_DOUBLE_EQ(Out[4], 12.0); // three updates of y += 4
}

/// The deadline check is amortized to one clock read per 256 strands (and
/// one per claimed block) instead of per strand. These tests pin down the
/// promptness that amortization must not cost: with updates that take
/// nanoseconds, a 20 ms deadline still stops each scheduler well inside a
/// generous CI-tolerant bound, because at cheap-update rates 256 strands
/// pass in microseconds.
TEST(DeadlinePromptness, AmortizedCheckStillStopsAllSchedulersQuickly) {
  using Clock = std::chrono::steady_clock;
  const int64_t DeadlineNs = 20 * 1000 * 1000; // 20 ms
  const int64_t BoundNs = 2000 * 1000 * 1000LL; // 2 s: CI-load tolerant
  struct Case {
    const char *Name;
    int Workers;
  };
  for (const Case &C : {Case{"sequential", 0}, Case{"parallel", 4}}) {
    rt::RunPolicy P;
    P.DeadlineNs = DeadlineNs;
    rt::RunControl Ctl(P);
    // Few cheap never-stabilizing strands: supersteps are microseconds, so
    // the run leans on the per-boundary and amortized per-strand checks.
    std::vector<rt::StrandStatus> S(512, rt::StrandStatus::Active);
    std::atomic<uint64_t> Updates{0};
    Clock::time_point T0 = Clock::now();
    rt::runParallel(
        S,
        [&](size_t) {
          Updates.fetch_add(1, std::memory_order_relaxed);
          return rt::StrandStatus::Active;
        },
        1 << 30, C.Workers, 64, nullptr, &Ctl);
    int64_t ElapsedNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             T0)
            .count();
    EXPECT_EQ(Ctl.finish(false), RunOutcome::Deadline) << C.Name;
    EXPECT_GT(Updates.load(), 0u) << C.Name;
    EXPECT_LT(ElapsedNs, BoundNs) << C.Name << " took " << ElapsedNs
                                  << " ns against a " << DeadlineNs
                                  << " ns deadline";
  }
}

} // namespace
} // namespace diderot
