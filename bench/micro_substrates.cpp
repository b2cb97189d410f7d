//===--- bench/micro_substrates.cpp - substrate micro-benchmarks -------------===//
//
// google-benchmark timings of the mathematical substrates underneath both
// the compiler's generated code and the Teem-style baseline: kernel
// evaluation (piece-table vs callback), probing (value / gradient /
// Hessian), symmetric eigendecomposition, and tensor algebra. These expose
// the architectural difference the paper credits for the performance gap:
// "a major part of the difference is Teem's use of callbacks to implement
// field probes."
//
//===----------------------------------------------------------------------===//

#include <atomic>

#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "kernels/kernel.h"
#include "observe/digest.h"
#include "runtime/scheduler.h"
#include "synth/synth.h"
#include "teem/probe.h"
#include "tensor/eigen.h"

using namespace diderot;

namespace {

//===--- kernel evaluation -------------------------------------------------===//

void BM_KernelEvalPieceTable(benchmark::State &State) {
  const Kernel &K = kernels::bspln3();
  double X = 0.37;
  for (auto _ : State) {
    benchmark::DoNotOptimize(K.eval(X));
    X += 1e-9;
  }
}
BENCHMARK(BM_KernelEvalPieceTable);

void BM_KernelEvalCallback(benchmark::State &State) {
  teem::ProbeKernel K = teem::kernelBspln3(0);
  double X = 0.37;
  for (auto _ : State) {
    benchmark::DoNotOptimize(K.Eval(X, K.Parm));
    X += 1e-9;
  }
}
BENCHMARK(BM_KernelEvalCallback);

void BM_KernelWeightPolynomialHorner(benchmark::State &State) {
  // The form the compiler emits: a fixed piece polynomial, Horner scheme.
  Polynomial P = kernels::bspln3().weightPoly(0);
  double X = 0.37;
  for (auto _ : State) {
    benchmark::DoNotOptimize(P.eval(X));
    X += 1e-9;
  }
}
BENCHMARK(BM_KernelWeightPolynomialHorner);

//===--- probing -------------------------------------------------------------===//

struct ProbeFixture {
  Image Img = synth::ctHand(32);
};

void BM_TeemProbeValue(benchmark::State &State) {
  static ProbeFixture F;
  teem::ProbeCtx Ctx(F.Img);
  Ctx.setKernel(0, teem::kernelBspln3(0));
  Ctx.setQuery(teem::ItemValue);
  Ctx.update();
  double T = 0.0;
  for (auto _ : State) {
    double P[3] = {0.3 * std::sin(T), 0.3 * std::cos(T), 0.1};
    benchmark::DoNotOptimize(Ctx.probe(P));
    T += 0.01;
  }
}
BENCHMARK(BM_TeemProbeValue);

void BM_TeemProbeValueGradient(benchmark::State &State) {
  static ProbeFixture F;
  teem::ProbeCtx Ctx(F.Img);
  Ctx.setKernel(0, teem::kernelBspln3(0));
  Ctx.setKernel(1, teem::kernelBspln3(1));
  Ctx.setQuery(teem::ItemValue | teem::ItemGradient);
  Ctx.update();
  double T = 0.0;
  for (auto _ : State) {
    double P[3] = {0.3 * std::sin(T), 0.3 * std::cos(T), 0.1};
    benchmark::DoNotOptimize(Ctx.probe(P));
    T += 0.01;
  }
}
BENCHMARK(BM_TeemProbeValueGradient);

void BM_TeemProbeHessian(benchmark::State &State) {
  static ProbeFixture F;
  teem::ProbeCtx Ctx(F.Img);
  for (int L = 0; L <= 2; ++L)
    Ctx.setKernel(L, teem::kernelBspln3(L));
  Ctx.setQuery(teem::ItemValue | teem::ItemGradient | teem::ItemHessian);
  Ctx.update();
  double T = 0.0;
  for (auto _ : State) {
    double P[3] = {0.3 * std::sin(T), 0.3 * std::cos(T), 0.1};
    benchmark::DoNotOptimize(Ctx.probe(P));
    T += 0.01;
  }
}
BENCHMARK(BM_TeemProbeHessian);

//===--- eigensystems ---------------------------------------------------------===//

void BM_EigenvalsSym3(benchmark::State &State) {
  double M[9] = {2.0, 0.4, -0.1, 0.4, 1.0, 0.3, -0.1, 0.3, -1.5};
  double L[3];
  for (auto _ : State) {
    eigenvalsSym3(M, L);
    benchmark::DoNotOptimize(L[0]);
    M[0] += 1e-12;
  }
}
BENCHMARK(BM_EigenvalsSym3);

void BM_EigensystemSym3(benchmark::State &State) {
  double M[9] = {2.0, 0.4, -0.1, 0.4, 1.0, 0.3, -0.1, 0.3, -1.5};
  double L[3], V[9];
  for (auto _ : State) {
    eigensystemSym3(M, L, V);
    benchmark::DoNotOptimize(V[0]);
    M[0] += 1e-12;
  }
}
BENCHMARK(BM_EigensystemSym3);

//===--- tensor algebra -------------------------------------------------------===//

void BM_TensorMatMul3x3(benchmark::State &State) {
  Tensor A = Tensor::identity(3);
  Tensor B(Shape{3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  for (auto _ : State) {
    Tensor C = dot(A, B);
    benchmark::DoNotOptimize(C[0]);
  }
}
BENCHMARK(BM_TensorMatMul3x3);

void BM_TensorNormalize3(benchmark::State &State) {
  Tensor V = Tensor::vector({1.0, 2.0, 3.0});
  for (auto _ : State) {
    Tensor N = normalize(V);
    benchmark::DoNotOptimize(N[0]);
  }
}
BENCHMARK(BM_TensorNormalize3);

//===--- image sampling --------------------------------------------------------===//

void BM_ImageSampleClamped(benchmark::State &State) {
  static ProbeFixture F;
  int Idx[3] = {5, 6, 7};
  for (auto _ : State) {
    benchmark::DoNotOptimize(F.Img.sample(Idx, 0));
    Idx[0] = (Idx[0] + 1) & 31;
  }
}
BENCHMARK(BM_ImageSampleClamped);

//===--- scheduler default path ------------------------------------------------===//

// The fault-tolerant runtime (RunPolicy / trap boundaries) must not tax
// unpolicied runs: these time the schedulers' default path (no RunControl),
// which the bench_diff CI gate holds to within 10% wall time.

void BM_SchedulerSequential(benchmark::State &State) {
  std::vector<int> Count(4096);
  for (auto _ : State) {
    std::vector<rt::StrandStatus> S(Count.size(), rt::StrandStatus::Active);
    std::fill(Count.begin(), Count.end(), 0);
    int Steps = rt::runSequential(
        S,
        [&](size_t I) {
          return ++Count[I] >= 4 ? rt::StrandStatus::Stable
                                 : rt::StrandStatus::Active;
        },
        100);
    benchmark::DoNotOptimize(Steps);
  }
}
BENCHMARK(BM_SchedulerSequential);

void BM_SchedulerSequentialRecorded(benchmark::State &State) {
  // Same workload as BM_SchedulerSequential with the flight recorder's
  // superstep digest armed (observe/digest.h, docs/REPLAY.md): between
  // barriers the step hook hashes every strand's status byte and state
  // slot in index order and retains the canonical bits for the state log —
  // the per-superstep cost `diderotc --record` opts a run into. Measured
  // side by side with the unarmed twin above, which stays hook-free and
  // inside the bench_diff 10% gate.
  const size_t N = 4096;
  std::vector<int> Count(N);
  observe::DigestLog Log;
  for (auto _ : State) {
    std::vector<rt::StrandStatus> S(N, rt::StrandStatus::Active);
    std::fill(Count.begin(), Count.end(), 0);
    Log.clear();
    Log.NumStrands = static_cast<int64_t>(N);
    Log.NumSlots = 1;
    Log.HasStates = true;
    rt::StepHook Capture = [&](int) {
      observe::StrandStateHasher H;
      for (size_t I = 0; I < N; ++I) {
        uint8_t St = static_cast<uint8_t>(S[I]);
        H.status(St);
        Log.Status.push_back(St);
        double V = static_cast<double>(Count[I]);
        H.slot(V);
        Log.Slots.push_back(observe::canonicalBits(V));
      }
      Log.Entries.push_back(H.digest());
    };
    Capture(0); // entry 0: the post-initialize state
    int Steps = rt::runSequential(
        S,
        [&](size_t I) {
          return ++Count[I] >= 4 ? rt::StrandStatus::Stable
                                 : rt::StrandStatus::Active;
        },
        100, nullptr, nullptr, &Capture);
    benchmark::DoNotOptimize(Steps);
    benchmark::DoNotOptimize(Log.Entries.back().Lo);
  }
}
BENCHMARK(BM_SchedulerSequentialRecorded);

void BM_SchedulerParallel(benchmark::State &State) {
  for (auto _ : State) {
    std::vector<rt::StrandStatus> S(16384, rt::StrandStatus::Active);
    std::vector<std::atomic<int>> Count(S.size());
    int Steps = rt::runParallel(
        S,
        [&](size_t I) {
          return ++Count[I] >= 2 ? rt::StrandStatus::Stable
                                 : rt::StrandStatus::Active;
        },
        100, 4, 1024);
    benchmark::DoNotOptimize(Steps);
  }
}
BENCHMARK(BM_SchedulerParallel);

void BM_SchedulerParallelMetrics(benchmark::State &State) {
  // Same workload as BM_SchedulerParallel but with the metrics registry
  // armed (per-worker cells, barrier-time folds): the overhead of the
  // instrumented path, measured side by side with the unarmed one.
  for (auto _ : State) {
    std::vector<rt::StrandStatus> S(16384, rt::StrandStatus::Active);
    std::vector<std::atomic<int>> Count(S.size());
    observe::Recorder Rec;
    Rec.start(4, /*Lifecycle=*/false, /*CollectMetrics=*/true);
    int Steps = rt::runParallel(
        S,
        [&](size_t I) {
          return ++Count[I] >= 2 ? rt::StrandStatus::Stable
                                 : rt::StrandStatus::Active;
        },
        100, 4, 1024, &Rec);
    rt::RunStats R = Rec.take(Steps, 4);
    benchmark::DoNotOptimize(R.Metrics.Counters[observe::McUpdated]);
  }
}
BENCHMARK(BM_SchedulerParallelMetrics);

/// Strand I's work in the imbalanced benchmark: ~0 for the first blocks, a
/// few microseconds for the last, a linear cost ramp across the index
/// space. Out of line, so the scheduler it is inlined into cannot change
/// its code: inlined into the worker loop, GCC 12 kept the accumulator in
/// a general register across the loop and the benchmark ran ~2.5x slower
/// for reasons that had nothing to do with scheduling.
[[gnu::noinline]] void rampWork(size_t I) {
  double Acc = 0.0;
  for (size_t K = 0; K < I / 16; ++K)
    Acc += static_cast<double>(K) * 1e-9;
  benchmark::DoNotOptimize(Acc);
}

/// Imbalanced strand cost: work grows with the strand index, so the last
/// blocks carry several times the work of the first. Workers that drain
/// their own deque steal the heavy tail's blocks instead of idling at the
/// barrier. Only meaningful with real cores to spread across — on a
/// single-core machine it measures OS timeslicing, not the scheduler.
void BM_SchedulerParallelImbalanced(benchmark::State &State) {
  const size_t N = 16384;
  for (auto _ : State) {
    std::vector<rt::StrandStatus> S(N, rt::StrandStatus::Active);
    std::vector<std::atomic<int>> Count(S.size());
    int Steps = rt::runParallel(
        S,
        [&](size_t I) {
          rampWork(I);
          return ++Count[I] >= 2 ? rt::StrandStatus::Stable
                                 : rt::StrandStatus::Active;
        },
        100, 4, 1024);
    benchmark::DoNotOptimize(Steps);
  }
}
BENCHMARK(BM_SchedulerParallelImbalanced);

//===--- BENCH json capture ----------------------------------------------------===//

/// Console output as usual, plus a BenchRecord per benchmark so the harness
/// writes the same BENCH_*.json the table/figure binaries emit (consumed by
/// bench_diff for regression gating).
class RecordingReporter : public benchmark::ConsoleReporter {
public:
  std::vector<bench::BenchRecord> Records;

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      if (R.error_occurred || R.run_type != Run::RT_Iteration)
        continue;
      bench::BenchRecord Rec;
      Rec.Name = R.benchmark_name();
      Rec.Workers = 0; // single-threaded substrate kernels
      Rec.Seconds = R.iterations > 0
                        ? R.real_accumulated_time /
                              static_cast<double>(R.iterations)
                        : R.real_accumulated_time;
      Records.push_back(std::move(Rec));
    }
    ConsoleReporter::ReportRuns(Runs);
  }
};

} // namespace

int main(int Argc, char **Argv) {
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  RecordingReporter Rep;
  benchmark::RunSpecifiedBenchmarks(&Rep);
  benchmark::Shutdown();
  bench::writeBenchJson("micro_substrates", Rep.Records);
  return 0;
}
