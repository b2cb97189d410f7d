//===--- bench/ledger/workloads.cpp - the layer ledger's shared pieces -------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "bench/ledger/workloads.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>

#include "observe/observe.h"
#include "support/subprocess.h"
#include "synth/synth.h"

namespace diderot::ledger {

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

void onCpu(size_t K, const std::function<void()> &Fn) {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  std::vector<int> Cpus;
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Allowed))
        Cpus.push_back(C);
  if (Cpus.empty()) {
    Fn();
    return;
  }
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[K % Cpus.size()], &One);
  ::sched_setaffinity(0, sizeof(One), &One);
  Fn();
  ::sched_setaffinity(0, sizeof(Allowed), &Allowed);
}

uint64_t nowNs() { return tracing::steadyClock().nowNs(); }
double nowS() { return static_cast<double>(nowNs()) / 1e9; }

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

double Rng::uniform(double Lo, double Hi) {
  return Lo + (Hi - Lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

//===----------------------------------------------------------------------===//
// Ledger
//===----------------------------------------------------------------------===//

void Ledger::metric(const std::string &Name, double Value,
                    const std::string &Unit, size_t N) {
  Metrics[Name] = {Value, Unit, N};
}

double Ledger::value(const std::string &Name) const {
  auto It = Metrics.find(Name);
  return It == Metrics.end() ? 0 : It->second.V;
}

void Ledger::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "ledger: %s: check failed: %s\n", Workload.c_str(),
                 What.c_str());
  }
}

tracing::SpanTree &Ledger::beginTree(const std::string &Program) {
  Trees.emplace_back();
  tracing::SpanTree &T = Trees.back();
  T.Trace = tracing::makeRoot(tracing::defaultIdSource(), true).Trace;
  T.Sampled = true;
  T.Program = Program;
  T.Job = Workload + "#" + std::to_string(Trees.size());
  return T;
}

uint64_t Ledger::span(const std::string &Name, uint64_t BeginNs,
                      uint64_t EndNs, uint64_t Parent,
                      const std::string &Cat) {
  tracing::Span S;
  S.Id = tracing::defaultIdSource().nextId();
  S.Parent = Parent;
  S.Name = Name;
  S.Cat = Cat;
  S.BeginNs = BeginNs;
  S.EndNs = EndNs;
  return Trees.back().add(std::move(S));
}

void Ledger::print() const {
  if (!Sizes.empty())
    std::printf("%s sizes %s\n", Workload.c_str(), Sizes.c_str());
  for (const auto &[Name, V] : Metrics)
    std::printf("%s %s %.9g %s n=%zu\n", Workload.c_str(), Name.c_str(), V.V,
                V.Unit.c_str(), V.N);
  std::string Json = "{\"correct\": ";
  Json += Failed ? "false" : "true";
  Json += ", \"attempted\": " + std::to_string(Attempted) +
          ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, V] : Metrics) {
    // Shortest text that reads back as the same double; JSON has no NaN.
    char Num[32] = "null";
    if (std::isfinite(V.V))
      *std::to_chars(Num, Num + sizeof(Num) - 1, V.V).ptr = '\0';
    Json += std::string(First ? "" : ", ") + "\"" + Name + "\": {\"value\": " +
            Num + ", \"unit\": \"" + V.Unit + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

uint64_t coveredByChildren(const tracing::SpanTree &T) {
  if (T.Spans.empty())
    return 0;
  const tracing::Span &Root = T.Spans[0];
  std::vector<std::pair<uint64_t, uint64_t>> Iv;
  for (const tracing::Span &C : T.Spans)
    if (C.Parent == Root.Id)
      Iv.emplace_back(std::max(C.BeginNs, Root.BeginNs),
                      std::min(C.EndNs, Root.EndNs));
  std::sort(Iv.begin(), Iv.end());
  uint64_t Covered = 0, Cur = Root.BeginNs;
  for (auto [B, E] : Iv) {
    B = std::max(B, Cur);
    if (E > B) {
      Covered += E - B;
      Cur = E;
    }
  }
  return Covered;
}

void must(const Status &S, const std::string &What) {
  if (!S.isOk()) {
    std::fprintf(stderr, "ledger: %s: %s\n", What.c_str(),
                 S.message().c_str());
    std::exit(2);
  }
}

//===----------------------------------------------------------------------===//
// Programs and inputs
//===----------------------------------------------------------------------===//

const char *progName(Prog P) {
  switch (P) {
  case Prog::IllustVr:
    return "illust-vr";
  case Prog::Ridge3d:
    return "ridge3d";
  case Prog::Lic2d:
    return "lic2d";
  case Prog::Isocontour:
    return "isocontour";
  }
  return "?";
}

std::string progSource(Prog P) {
  static const char *Files[] = {"illust_vr", "ridge3d", "lic2d", "isocontour"};
  std::string Path = std::string(LEDGER_DIR) + "/programs/" +
                     Files[static_cast<int>(P)] + ".diderot";
  std::ifstream In(Path);
  if (!In)
    must(Status::error("cannot open " + Path), "program source");
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

namespace {

/// Strand grid of \p P at \p Grid, moved by the seed.
void setParams(ProgInputs &In, Size Grid, uint64_t Seed) {
  bool Bench = Grid == Size::Bench;
  Rng R(Seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(In.P));
  // The serve-warm requests carry fixed inputs; the seed drives the mix.
  double Move = Grid == Size::Serve ? 0 : 1;
  switch (In.P) {
  case Prog::IllustVr: {
    In.Vr = baselines::VrParams();
    In.Vr.ResU = Bench ? 256 : 64;
    In.Vr.ResV = Bench ? 192 : 48;
    In.Vr.scaleToResolution();
    double DU = Move * R.uniform(-2, 2), DV = Move * R.uniform(-2, 2);
    for (int K = 0; K < 3; ++K)
      In.Vr.Orig[K] += DU * In.Vr.CVec[K] + DV * In.Vr.RVec[K];
    break;
  }
  case Prog::Lic2d: {
    In.Lic = baselines::LicParams();
    In.Lic.ResU = In.Lic.ResV = Bench ? 440 : 100;
    double D = Move * R.uniform(-0.5, 0.5) * (In.Lic.Hi - In.Lic.Lo) /
               (In.Lic.ResU - 1);
    In.Lic.Lo += D;
    In.Lic.Hi += D;
    break;
  }
  case Prog::Ridge3d: {
    In.Ridge = baselines::RidgeParams();
    In.Ridge.Res = Bench ? 84 : Grid == Size::Small ? 24 : 16;
    double D = Move * R.uniform(-0.5, 0.5) * (In.Ridge.Hi - In.Ridge.Lo) /
               (In.Ridge.Res - 1);
    In.Ridge.Lo += D;
    In.Ridge.Hi += D;
    break;
  }
  case Prog::Isocontour: // runs only through the daemon, on text inputs
    break;
  }
}

} // namespace

ProgInputs makeInputs(Prog P, Size S, uint64_t Seed) {
  ProgInputs In;
  In.P = P;
  setParams(In, S, Seed);
  bool Big = S == Size::Bench;
  switch (P) {
  case Prog::IllustVr:
    In.Images.emplace_back("img", synth::ctHand(Big ? 128 : 48));
    In.Images.emplace_back("xfer", synth::curvatureColormap(Big ? 64 : 32));
    break;
  case Prog::Lic2d:
    In.Images.emplace_back("vecs", synth::flow2d(Big ? 256 : 64));
    In.Images.emplace_back("rand", synth::noise2d(Big ? 256 : 64));
    break;
  case Prog::Ridge3d:
    In.Images.emplace_back(
        "lung", synth::lungVessels(Big ? 128 : S == Size::Small ? 48 : 32));
    break;
  case Prog::Isocontour:
    break;
  }
  return In;
}

ProgInputs withGrid(const ProgInputs &In, Size Grid, uint64_t Seed) {
  ProgInputs Out = In;
  setParams(Out, Grid, Seed);
  return Out;
}

std::string describe(const ProgInputs &In) {
  auto Dims = [](std::vector<int> V) {
    std::string S;
    for (int D : V) {
      if (!S.empty())
        S += 'x';
      S += std::to_string(D);
    }
    return S;
  };
  std::string Out = "grid ";
  switch (In.P) {
  case Prog::IllustVr:
    Out += Dims({In.Vr.ResU, In.Vr.ResV});
    break;
  case Prog::Lic2d:
    Out += Dims({In.Lic.ResU, In.Lic.ResV});
    break;
  case Prog::Ridge3d:
    Out += Dims({In.Ridge.Res, In.Ridge.Res, In.Ridge.Res});
    break;
  case Prog::Isocontour:
    break;
  }
  for (const auto &[Name, Img] : In.Images)
    Out += "; " + Name + " " + Dims(Img.sizes());
  return Out;
}

Status bindInputs(rt::ProgramInstance &I, const ProgInputs &In) {
  for (const auto &[Name, Img] : In.Images)
    if (Status S = I.setInputImage(Name, Img); !S.isOk())
      return S;
  std::vector<Status> All;
  auto Vec = [](const double *V) { return std::vector<double>{V[0], V[1], V[2]}; };
  switch (In.P) {
  case Prog::IllustVr: {
    const baselines::VrParams &P = In.Vr;
    All = {I.setInputInt("imgResU", P.ResU),
           I.setInputInt("imgResV", P.ResV),
           I.setInputReal("stepSz", P.StepSz),
           I.setInputReal("maxT", P.MaxT),
           I.setInputReal("isoval", 0.5 * (P.OpacMin + P.OpacMax)),
           I.setInputTensor("eye", Vec(P.Eye)),
           I.setInputTensor("orig", Vec(P.Orig)),
           I.setInputTensor("cVec", Vec(P.CVec)),
           I.setInputTensor("rVec", Vec(P.RVec))};
    break;
  }
  case Prog::Lic2d: {
    const baselines::LicParams &P = In.Lic;
    All = {I.setInputInt("resU", P.ResU),   I.setInputInt("resV", P.ResV),
           I.setInputInt("stepNum", P.StepNum), I.setInputReal("h", P.H),
           I.setInputReal("lo", P.Lo),      I.setInputReal("hi", P.Hi)};
    break;
  }
  case Prog::Ridge3d: {
    const baselines::RidgeParams &P = In.Ridge;
    All = {I.setInputInt("res", P.Res),
           I.setInputInt("stepsMax", P.StepsMax),
           I.setInputReal("epsilon", P.Epsilon),
           I.setInputReal("strength", P.Strength),
           I.setInputReal("maxStep", P.MaxStep),
           I.setInputReal("lo", P.Lo),
           I.setInputReal("hi", P.Hi)};
    break;
  }
  case Prog::Isocontour:
    break;
  }
  for (const Status &S : All)
    if (!S.isOk())
      return S;
  return Status::ok();
}

CompileOptions compileOptions(const std::string &Cache) {
  CompileOptions Opts;
  Opts.Eng = Engine::Native;
  Opts.WorkDir = Cache;
  return Opts;
}

//===----------------------------------------------------------------------===//
// Reference comparison against src/baselines
//===----------------------------------------------------------------------===//

namespace {

// Tolerances of the single-precision generated code against the
// double-precision hand-written baselines. Rays and particles whose path
// crosses a threshold (isosurface, ridge strength, convergence) within
// float rounding may end differently, so each check bounds the share of
// disagreeing pixels or points rather than demanding every one agree.
constexpr double PixelTol = 0.02;      ///< per-component absolute difference
constexpr double MinPixelAgree = 0.98; ///< share of pixels within PixelTol
constexpr double PointTol = 1e-3;      ///< ridge point distance (world units)
constexpr double MinPointAgree = 0.98; ///< share of points matched both ways

std::string comparePixels(const std::vector<double> &Ref,
                          const std::vector<double> &Out, int Comps) {
  if (Ref.size() != Out.size())
    return "output has " + std::to_string(Out.size()) + " values, baseline " +
           std::to_string(Ref.size());
  size_t Pixels = Ref.size() / static_cast<size_t>(Comps), Agree = 0;
  for (size_t P = 0; P < Pixels; ++P) {
    bool Ok = true;
    for (int C = 0; C < Comps; ++C) {
      size_t K = P * static_cast<size_t>(Comps) + static_cast<size_t>(C);
      Ok = Ok && std::fabs(Ref[K] - Out[K]) <= PixelTol;
    }
    Agree += Ok;
  }
  double Frac = static_cast<double>(Agree) / static_cast<double>(Pixels);
  if (Frac >= MinPixelAgree)
    return "";
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%.4f of pixels within %.3g of baseline",
                Frac, PixelTol);
  return Buf;
}

/// Share of points in \p A with a point of \p B within PointTol.
double matchedShare(const std::vector<std::array<double, 3>> &A,
                    const std::vector<std::array<double, 3>> &B) {
  if (A.empty())
    return B.empty() ? 1.0 : 0.0;
  size_t Hit = 0;
  for (const auto &P : A)
    for (const auto &Q : B) {
      double D2 = 0;
      for (int K = 0; K < 3; ++K)
        D2 += (P[K] - Q[K]) * (P[K] - Q[K]);
      if (D2 <= PointTol * PointTol) {
        ++Hit;
        break;
      }
    }
  return static_cast<double>(Hit) / static_cast<double>(A.size());
}

} // namespace

std::string compareWithBaseline(const ProgInputs &In,
                                const std::vector<double> &Out) {
  auto Img = [&](const char *Name) -> const Image & {
    for (const auto &[N, I] : In.Images)
      if (N == Name)
        return I;
    must(Status::error(std::string("no image ") + Name), "baseline");
    return In.Images[0].second;
  };
  switch (In.P) {
  case Prog::IllustVr:
    return comparePixels(
        baselines::illustVr(Img("img"), Img("xfer"), In.Vr).Pix, Out, 3);
  case Prog::Lic2d:
    return comparePixels(
        baselines::lic2d(Img("vecs"), Img("rand"), In.Lic).Pix, Out, 1);
  case Prog::Ridge3d: {
    std::vector<std::array<double, 3>> Ref =
        baselines::ridge3d(Img("lung"), In.Ridge);
    std::vector<std::array<double, 3>> Got(Out.size() / 3);
    for (size_t I = 0; I < Got.size(); ++I)
      Got[I] = {Out[3 * I], Out[3 * I + 1], Out[3 * I + 2]};
    double Fwd = matchedShare(Got, Ref), Back = matchedShare(Ref, Got);
    if (std::min(Fwd, Back) >= MinPointAgree && !Ref.empty())
      return "";
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "%zu ridge points vs %zu in the baseline; matched %.4f / "
                  "%.4f within %.3g",
                  Got.size(), Ref.size(), Fwd, Back, PointTol);
    return Buf;
  }
  case Prog::Isocontour:
    break;
  }
  return "no baseline for " + std::string(progName(In.P));
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Lifecycle runLifecycle(const CompiledProgram &CP, const ProgInputs &In,
                       int Workers, bool Collect, Ledger *L, bool KeepOutput) {
  Lifecycle R;
  uint64_t T0 = nowNs();
  std::unique_ptr<rt::ProgramInstance> I = must(CP.instantiate(), "instantiate");
  uint64_t T1 = nowNs();
  must(bindInputs(*I, In), "set inputs");
  uint64_t T2 = nowNs();
  must(I->initialize(), "initialize");
  uint64_t T3 = nowNs();
  rt::RunConfig C;
  C.MaxSupersteps = 100000;
  C.NumWorkers = Workers;
  C.CollectStats = Collect;
  R.Stats = must(I->run(C), "run");
  uint64_t T4 = nowNs();
  std::vector<std::vector<double>> Outs;
  for (const rt::OutputDesc &D : I->outputs()) {
    Outs.emplace_back();
    must(I->getOutput(D.Name, Outs.back()), "get output " + D.Name);
  }
  uint64_t T5 = nowNs();

  support::Fnv128 H;
  for (const std::vector<double> &O : Outs)
    H.update(O.data(), O.size() * sizeof(double));
  R.Out = H.digest();
  if (KeepOutput && !Outs.empty())
    R.FirstOutput = std::move(Outs[0]);
  auto S = [](uint64_t A, uint64_t B) { return static_cast<double>(B - A) / 1e9; };
  R.Instantiate = S(T0, T1);
  R.SetInputs = S(T1, T2);
  R.Initialize = S(T2, T3);
  R.Run = S(T3, T4);
  R.GetOutput = S(T4, T5);

  if (Collect && L) {
    L->beginTree(progName(In.P));
    uint64_t Root = L->span("lifecycle", T0, T5, 0);
    L->span("instantiate", T0, T1, Root);
    L->span("set-inputs", T1, T2, Root);
    L->span("initialize", T2, T3, Root);
    uint64_t Run = L->span("run", T3, T4, Root);
    L->span("get-output", T4, T5, Root);
    observe::appendRunSpans(L->trees().back(), Run, T3, R.Stats,
                            tracing::defaultIdSource());
  }
  return R;
}

void writeTrace(Ledger &L) {
  std::ofstream Out("LEDGER_trace.json");
  Out << observe::mergedChromeTrace(L.trees()) << "\n";
  L.check(static_cast<bool>(Out), "write LEDGER_trace.json");
}

double peakRssMb() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double childSetupSeconds(const Options &O) {
  std::vector<double> Times;
  for (int K = 0; K < SetupReps; ++K) {
    support::SubprocessCommand C;
    C.Argv = {"/proc/self/exe", "--setup-only", "--workload", O.Workload,
              "--seed", std::to_string(O.Seed), "--cache", O.CacheDir};
    if (O.Smoke)
      C.Argv.push_back("--smoke");
    C.TimeoutMs = 120000;
    support::SubprocessResult R;
    onCpu(static_cast<size_t>(K), [&] {
      R = must(support::runSupervised(C), "set-up");
    });
    if (!R.succeeded())
      must(Status::error(R.Output), "set-up child");
    // The child's last line is its set-up seconds.
    std::string Out = R.Output;
    while (!Out.empty() && Out.back() == '\n')
      Out.pop_back();
    Times.push_back(std::atof(Out.substr(Out.rfind('\n') + 1).c_str()));
  }
  return median(Times);
}

} // namespace diderot::ledger
