//===--- bench/ledger/program_workload.cpp - illust-vr, ridge3d, lic2d -------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// One paper program driven in-process by a single closed-loop caller: five
// child-process set-ups, then lifecycles at 4 workers interleaved with
// sequential ones for the run length. A traced run compiles cold, swaps the
// set-ups for the compiler layers, and adds 4-worker lifecycles with
// per-superstep collection and a span around every public call.
//
//===----------------------------------------------------------------------===//

#include <algorithm>

#include "bench/ledger/workloads.h"
#include "codegen/cache.h"
#include "frontend/parser.h"
#include "frontend/typecheck.h"
#include "observe/observe.h"
#include "simple/lower.h"

namespace diderot::ledger {

namespace {

/// Repetitions of each compiler layer in a traced run.
constexpr int LayerReps = 20;

Size gridSize(const Options &O) { return O.Smoke ? Size::Small : Size::Bench; }

Prog programOf(const std::string &Workload) {
  return Workload == "illust-vr" ? Prog::IllustVr
         : Workload == "ridge3d" ? Prog::Ridge3d
                                 : Prog::Lic2d;
}

template <typename F>
std::vector<double> field(const std::vector<Lifecycle> &V, F Get,
                          double Scale = 1) {
  std::vector<double> Out;
  for (const Lifecycle &C : V)
    Out.push_back(Scale * Get(C));
  return Out;
}

void checkOutputs(Ledger &L, const support::Hash128 &Want,
                  const std::vector<Lifecycle> &V, const std::string &What) {
  for (const Lifecycle &C : V) {
    L.check(C.Out == Want, What + ": output hash " + C.Out.hex() +
                               " differs from " + Want.hex());
    L.check(C.Stats.Outcome == observe::RunOutcome::Converged,
            What + ": run did not converge");
  }
}

/// "contract(high)" -> "contract-high": metric names use '-' where the pass
/// name has a parenthesised qualifier.
std::string passMetricName(const std::string &Pass) {
  std::string Out;
  for (char C : Pass)
    if (C == '(')
      Out += '-';
    else if (C != ')')
      Out += C;
  return "passes." + Out + "_ms";
}

void compilerLayers(Ledger &L, Prog P, const ColdCompile &C,
                    const std::string &Cache) {
  std::string Src = progSource(P), Name = progName(P);
  std::vector<double> Parse, Check, Lower;
  for (int R = 0; R < LayerReps; ++R) {
    DiagnosticEngine Diags;
    double T0 = nowS();
    Parser Prs(Src, Diags);
    std::unique_ptr<Program> Ast = Prs.parseProgram();
    double T1 = nowS();
    bool Ok = !Diags.hasErrors() && typeCheck(*Ast, Diags);
    double T2 = nowS();
    Ok = Ok && lowerToHighIR(*Ast, Diags).isOk();
    double T3 = nowS();
    L.check(Ok, Name + ": front end");
    Parse.push_back(1e3 * (T1 - T0));
    Check.push_back(1e3 * (T2 - T1));
    Lower.push_back(1e3 * (T3 - T2));
  }
  L.metric("frontend.parse_ms", median(Parse), "ms", Parse.size());
  L.metric("frontend.typecheck_ms", median(Check), "ms", Check.size());
  L.metric("simple.lower_ms", median(Lower), "ms", Lower.size());

  std::map<std::string, std::vector<double>> Passes;
  int LowOps = 0;
  for (int R = 0; R < LayerReps; ++R) {
    CompiledProgram CP =
        must(compileString(Src, compileOptions(Cache), Name), "compile");
    for (const PassTiming &T : CP.passTimings())
      Passes[passMetricName(T.Pass)].push_back(static_cast<double>(T.Ns) / 1e6);
    LowOps = CP.passTimings().back().OpsAfter;
  }
  for (const auto &[Metric, Ms] : Passes)
    L.metric(Metric, median(Ms), "ms", Ms.size());
  L.metric("passes.low_ops", LowOps, "count");

  std::vector<double> Emit, Warm;
  size_t CppBytes = 0;
  for (int R = 0; R < LayerReps; ++R) {
    double T0 = nowS();
    CppBytes = C.CP->emitCpp().size();
    double T1 = nowS();
    must(C.CP->instantiate(), "instantiate");
    double T2 = nowS();
    Emit.push_back(1e3 * (T1 - T0));
    Warm.push_back(1e3 * (T2 - T1));
  }
  L.metric("codegen.emit_ms", median(Emit), "ms", Emit.size());
  L.metric("codegen.cpp_bytes", static_cast<double>(CppBytes), "bytes");
  L.metric("codegen.instantiate_warm_ms", median(Warm), "ms", Warm.size());
  L.metric("codegen.compile_s", C.seconds(), "s");
  // The cold instantiate emitted the C++ once before the host compile.
  L.metric("codegen.host_compile_s", C.InstantiateS - median(Emit) / 1e3, "s");
  double SoBytes = 0;
  for (const codegen::CacheIndexEntry &E :
       codegen::readCacheIndexEntries(Cache))
    if (E.Program == Name)
      SoBytes = static_cast<double>(E.SoBytes);
  L.metric("codegen.so_bytes", SoBytes, "bytes");
}

/// Per-superstep layers of the traced runs, medians over runs.
void runtimeLayers(Ledger &L, const std::vector<Lifecycle> &Traced) {
  std::vector<double> Steps, Updates, Retired, Blocks, Locks, Busy, Barrier,
      Imbalance, StepP50, StepMax;
  for (const Lifecycle &C : Traced) {
    const rt::RunStats &R = C.Stats;
    Steps.push_back(R.Steps);
    Updates.push_back(static_cast<double>(R.totalUpdated()));
    Retired.push_back(static_cast<double>(R.totalRetired()));
    Blocks.push_back(static_cast<double>(R.Totals.BlocksClaimed));
    Locks.push_back(static_cast<double>(R.Totals.LockAcquires));
    // A worker the runtime did not start in a superstep (fewer blocks than
    // workers) has an empty span at time 0; the step's span, barrier wait
    // and imbalance count only the workers that ran. Busy: inside a
    // worker's superstep span, over all workers asked for. Barrier wait: a
    // worker done with its share until the step's last worker finishes.
    // Imbalance: slowest worker over the mean worker, summed over steps.
    double BusyNs = 0, WaitNs = 0, MaxSum = 0, MeanSum = 0;
    std::vector<double> StepMs;
    for (size_t S = 0; S < R.Supersteps.size(); ++S) {
      std::vector<const observe::WorkerSpan *> Ran;
      for (const std::vector<observe::WorkerSpan> &Row : R.Workers)
        if (S < Row.size() && Row[S].EndNs > 0)
          Ran.push_back(&Row[S]);
      if (Ran.empty())
        continue;
      uint64_t Begin = UINT64_MAX, End = 0;
      double Max = 0, Sum = 0;
      for (const observe::WorkerSpan *W : Ran) {
        Begin = std::min(Begin, W->BeginNs);
        End = std::max(End, W->EndNs);
        double Dur = static_cast<double>(W->EndNs - W->BeginNs);
        Max = std::max(Max, Dur);
        Sum += Dur;
      }
      for (const observe::WorkerSpan *W : Ran)
        WaitNs += static_cast<double>(End - W->EndNs);
      StepMs.push_back(static_cast<double>(End - Begin) / 1e6);
      BusyNs += Sum;
      MaxSum += Max;
      MeanSum += Sum / static_cast<double>(Ran.size());
    }
    Busy.push_back(BusyNs / (static_cast<double>(R.Workers.size()) *
                             static_cast<double>(R.WallNs)));
    Barrier.push_back(WaitNs / 1e9);
    Imbalance.push_back(MeanSum > 0 ? MaxSum / MeanSum - 1 : 0);
    StepP50.push_back(median(StepMs));
    StepMax.push_back(*std::max_element(StepMs.begin(), StepMs.end()));
  }
  size_t N = Traced.size();
  L.metric("runtime.supersteps", median(Steps), "count", N);
  L.metric("runtime.updates", median(Updates), "count", N);
  L.metric("runtime.retired", median(Retired), "count", N);
  L.metric("runtime.blocks_claimed", median(Blocks), "count", N);
  L.metric("runtime.lock_acquires", median(Locks), "count", N);
  L.metric("runtime.busy_frac", median(Busy), "ratio", N);
  L.metric("runtime.barrier_wait_s", median(Barrier), "s", N);
  L.metric("runtime.imbalance", median(Imbalance), "ratio", N);
  L.metric("runtime.step_ms_p50", median(StepP50), "ms", N);
  L.metric("runtime.step_ms_max", median(StepMax), "ms", N);
}

} // namespace

ColdCompile compileCold(Prog P, const std::string &Cache) {
  ColdCompile C;
  double T0 = nowS();
  C.CP = std::make_unique<CompiledProgram>(must(
      compileString(progSource(P), compileOptions(Cache), progName(P)),
      "compile"));
  double T1 = nowS();
  must(C.CP->instantiate(), "instantiate");
  C.CompileStringS = T1 - T0;
  C.InstantiateS = nowS() - T1;
  return C;
}

double InProcess::parBody() const {
  return median(field(Par, [](const Lifecycle &C) { return C.body(); }));
}
double InProcess::seqBody() const {
  return median(field(Seq, [](const Lifecycle &C) { return C.body(); }));
}
double InProcess::seqMin() const {
  return quantile(field(Seq, [](const Lifecycle &C) { return C.body(); }), 0);
}

InProcess measureInProcess(Ledger &L, const CompiledProgram &CP,
                           const ProgInputs &In, double Seconds) {
  InProcess M;
  Lifecycle First = runLifecycle(CP, In, Workers, false, nullptr);
  M.Want = First.Out;
  checkOutputs(L, M.Want, {First, runLifecycle(CP, In, 0, false, nullptr)},
               std::string(progName(In.P)) + " warm-up");
  double End = nowS() + Seconds;
  while (nowS() < End || M.Seq.size() < 2) {
    for (int K = 0; K < 3; ++K)
      M.Par.push_back(runLifecycle(CP, In, Workers, false, nullptr));
    onCpu(M.Seq.size(), [&] {
      M.Seq.push_back(runLifecycle(CP, In, 0, false, nullptr));
    });
  }
  checkOutputs(L, M.Want, M.Par, std::string(progName(In.P)) + " 4 workers");
  checkOutputs(L, M.Want, M.Seq, std::string(progName(In.P)) + " sequential");
  return M;
}

std::vector<Lifecycle> programLayers(Ledger &L, const ColdCompile &C,
                                     const ProgInputs &In, const InProcess &M,
                                     double Seconds, const std::string &Cache) {
  std::vector<Lifecycle> Traced;
  double End = nowS() + Seconds;
  while (nowS() < End || Traced.size() < 2)
    Traced.push_back(runLifecycle(*C.CP, In, Workers, true, &L));
  checkOutputs(L, M.Want, Traced, std::string(progName(In.P)) + " traced");

  compilerLayers(L, In.P, C, Cache);
  auto Ms = [&](double Lifecycle::*F) {
    return median(field(M.Par, [F](const Lifecycle &X) { return X.*F; }, 1e3));
  };
  L.metric("driver.set_inputs_ms", Ms(&Lifecycle::SetInputs), "ms",
           M.Par.size());
  L.metric("driver.get_output_ms", Ms(&Lifecycle::GetOutput), "ms",
           M.Par.size());
  L.metric("runtime.initialize_ms", Ms(&Lifecycle::Initialize), "ms",
           M.Par.size());
  double RunS = Ms(&Lifecycle::Run) / 1e3;
  L.metric("runtime.run_s", RunS, "s", M.Par.size());
  runtimeLayers(L, Traced);
  L.metric("runtime.updates_per_s", L.value("runtime.updates") / RunS, "1/s");
  L.metric("runtime.speedup_4w", M.seqBody() / M.parBody(), "ratio",
           M.Seq.size());
  return Traced;
}

double setupOnce(const Options &O) {
  if (O.Workload == "serve-warm")
    return setupServeOnce(O);
  Prog P = programOf(O.Workload);
  double T0 = nowS();
  ProgInputs In = makeInputs(P, gridSize(O), O.Seed);
  CompiledProgram CP = must(
      compileString(progSource(P), compileOptions(O.CacheDir), progName(P)),
      "compile");
  std::unique_ptr<rt::ProgramInstance> I = must(CP.instantiate(), "instantiate");
  must(bindInputs(*I, In), "set inputs");
  must(I->initialize(), "initialize");
  return nowS() - T0;
}

int runProgramWorkload(const Options &O) {
  Ledger L(O.Workload);
  Prog P = programOf(O.Workload);
  ProgInputs In = makeInputs(P, gridSize(O), O.Seed);
  L.sizes(describe(In) + "; " + std::to_string(Workers) + " workers");
  ColdCompile C = compileCold(P, O.CacheDir);
  if (!O.Trace)
    L.metric("setup_s", childSetupSeconds(O), "s", SetupReps);

  // The generated code against the hand-written baseline, once, on a small
  // grid over the same datasets.
  ProgInputs Small = withGrid(In, Size::Small, O.Seed);
  std::string Why = compareWithBaseline(
      Small,
      runLifecycle(*C.CP, Small, Workers, false, nullptr, true).FirstOutput);
  L.check(Why.empty(), O.Workload + " against src/baselines: " + Why);

  uint64_t CompilesBefore = codegen::nativeCacheStats().HostCompiles;
  InProcess M =
      measureInProcess(L, *C.CP, In, O.Trace ? O.Seconds / 2 : O.Seconds);
  auto Total = [](const Lifecycle &X) { return X.total(); };
  if (!O.Trace) {
    std::vector<double> Lat = field(M.Par, Total, 1e3);
    // The caller's completions per second, median over five consecutive
    // windows of the run, so that one slow stretch does not set it.
    std::vector<double> Rate;
    for (size_t W = 0; W < 5; ++W) {
      size_t Begin = Lat.size() * W / 5, End = Lat.size() * (W + 1) / 5;
      double BusyS = 0;
      for (size_t I = Begin; I < End; ++I)
        BusyS += Lat[I] / 1e3;
      Rate.push_back(static_cast<double>(End - Begin) / BusyS);
    }
    L.metric("run_s_p50", M.parBody(), "s", M.Par.size());
    L.metric("seq_s_min", M.seqMin(), "s", M.Seq.size());
    L.metric("latency_ms_p50", quantile(Lat, 0.5), "ms", Lat.size());
    L.metric("latency_ms_p90", quantile(Lat, 0.9), "ms", Lat.size());
    L.metric("jobs_per_s", median(Rate), "1/s", Lat.size());
    L.check(codegen::nativeCacheStats().HostCompiles == CompilesBefore,
            "host compiler ran in a timed phase");
    L.metric("peak_rss_mb", peakRssMb(), "MB");
    L.print();
    return L.exitCode();
  }

  std::vector<Lifecycle> Traced =
      programLayers(L, C, In, M, O.Seconds / 2, O.CacheDir);
  uint64_t Compiles = codegen::nativeCacheStats().HostCompiles - CompilesBefore;
  L.metric("codegen.host_compiles", static_cast<double>(Compiles), "count");
  L.check(Compiles == 0, "host compiler ran in a timed phase");
  // Trace accounting: the lifecycle's layers against the untraced lifecycle.
  std::vector<double> Covered;
  for (const tracing::SpanTree &T : L.trees())
    Covered.push_back(static_cast<double>(coveredByChildren(T)) / 1e9);
  double Untraced = median(field(M.Par, Total));
  L.metric("observe.trace_overhead_frac",
           median(field(Traced, Total)) / Untraced - 1, "ratio",
           Traced.size());
  L.metric("observe.explained_frac", median(Covered) / Untraced, "ratio",
           Covered.size());
  zeroServeLayers(L);
  writeTrace(L);
  L.print();
  return L.exitCode();
}

} // namespace diderot::ledger
