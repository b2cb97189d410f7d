//===--- codegen/native_load.cpp - host-compiler invocation + dlopen ---------===//
//
// The native engine's back half: write the generated translation unit to a
// scratch directory, compile it with the host system's compiler (paper
// Section 5.1) into a shared object, dlopen it, and wrap its C ABI in the
// rt::ProgramInstance interface. Compiled objects are content-addressed
// (codegen/cache.h): the 128-bit key covers the generated source, the
// compile options, the ddr_* ABI version, and the host compiler identity,
// so a cache directory can be shared across processes and daemon restarts
// and a warm cache never re-invokes the host compiler.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <dlfcn.h>
#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include "observe/observe.h"
#include "observe/profiler.h"
#include "observe/recorder.h"

#include "codegen/cache.h"
#include "codegen/config.h"
#include "codegen/native.h"
#include "driver/driver.h"
#include "support/strings.h"
#include "support/subprocess.h"

namespace diderot::codegen {

std::string hostCompilerId() {
  // The configured compiler plus the banner of the compiler that built this
  // driver (a stable proxy for the toolchain revision). See cache.h for why
  // the DIDEROT_CXX environment override is intentionally excluded.
  return strf(DIDEROT_HOST_CXX, " host=", __VERSION__);
}

support::Hash128 programCacheKey(const std::string &Text,
                                 const CompileOptions &Opts) {
  support::Fnv128 H;
  H.updateField("ddr-abi");
  H.updateField(static_cast<int64_t>(DdrAbiVersion));
  H.updateField(hostCompilerId());
  H.updateField(static_cast<int64_t>(Opts.Eng == Engine::Interp ? 0 : 1));
  H.updateField(static_cast<int64_t>(Opts.DoublePrecision ? 1 : 0));
  H.updateField(static_cast<int64_t>(Opts.EnableContract ? 1 : 0));
  H.updateField(static_cast<int64_t>(Opts.EnableValueNumbering ? 1 : 0));
  H.updateField(Opts.ExtraCxxFlags);
  H.update(Text);
  return H.digest();
}

namespace {
std::atomic<uint64_t> NMemHits{0}, NDiskHits{0}, NHostCompiles{0},
    NCompileTimeouts{0};
} // namespace

NativeCacheStats nativeCacheStats() {
  NativeCacheStats S;
  S.MemHits = NMemHits.load(std::memory_order_relaxed);
  S.DiskHits = NDiskHits.load(std::memory_order_relaxed);
  S.HostCompiles = NHostCompiles.load(std::memory_order_relaxed);
  S.CompileTimeouts = NCompileTimeouts.load(std::memory_order_relaxed);
  S.Quarantined = cacheQuarantineCount();
  S.Evicted = cacheEvictionCount();
  return S;
}

namespace fs = std::filesystem;

/// The dlsym'd C ABI of a generated program.
struct CApi {
  void *(*Create)();
  void (*Destroy)(void *);
  const char *(*Error)(void *);
  int (*SetScalars)(void *, const char *, const double *, int);
  int (*SetString)(void *, const char *, const char *);
  int (*SetImage)(void *, const char *, int, const int64_t *, int64_t,
                  const double *, const double *, const double *,
                  const double *);
  int (*Initialize)(void *);
  int (*Run)(void *, int, int, int);
  /// Like Run but with telemetry collection on (null in pre-v2 .so files).
  int (*RunStats)(void *, int, int, int);
  /// Flatten the last collected run's stats (see observe::flattenStats).
  int64_t (*StatsRead)(void *, uint64_t *, int64_t);
  /// v3 protocol (all null in older .so files, handled gracefully): Run with
  /// a flags word (1 stats, 2 profile, 4 lifecycle), then readers for the
  /// profile counters, the static source map, and the lifecycle events.
  int (*RunFlags)(void *, int, int, int, int);
  int64_t (*ProfRead)(void *, uint64_t *, int64_t);
  int64_t (*ProfMap)(void *, uint64_t *, int64_t);
  int64_t (*TraceRead)(void *, uint64_t *, int64_t);
  /// v4 protocol — the fault-containment layer (all null in older .so
  /// files). Unlike the v3 readers these do NOT degrade silently when a
  /// policy is requested: silently ignoring a deadline or fault budget
  /// would be unsafe, so run() reports an explicit error instead.
  int (*RunPolicy)(void *, int, int, int, int, int64_t, int64_t, int, int);
  int (*SetFaultPlan)(void *, const uint64_t *, int64_t);
  int (*Outcome)(void *);
  int64_t (*FaultsRead)(void *, uint64_t *, int64_t);
  const char *(*FaultMsg)(void *, int64_t);
  int64_t (*NumFaulted)(void *);
  /// v5 protocol (null in older .so files): snapshot the metrics registry
  /// (flag 8 on RunFlags arms it). Safe to call concurrently with a run —
  /// the snapshot reads only barrier-published atomics — which is what the
  /// driver's live GET /metrics endpoint uses. Degrades to deriveMetrics
  /// over the v2 stats when absent.
  int64_t (*MetricsRead)(void *, uint64_t *, int64_t);
  /// v7 protocol (null in older .so files): readers for the per-superstep
  /// digest stream and the per-strand state log armed by run flags 32/64
  /// (record/replay, docs/REPLAY.md). Degrades gracefully when absent —
  /// replay falls back to final-output-only digests, a documented weaker
  /// fidelity, unlike policies which must fail loudly.
  int64_t (*DigestRead)(void *, uint64_t *, int64_t);
  int64_t (*StateRead)(void *, uint64_t *, int64_t);
  int (*OutputDims)(void *, int64_t *, int);
  int64_t (*GetOutput)(void *, const char *, double *, int64_t);
  int64_t (*NumStrands)(void *);
  int64_t (*NumStable)(void *);
  int64_t (*NumDead)(void *);
  int (*NumOutputs)(void *);
  const char *(*OutputName)(void *, int);
  int (*OutputComps)(void *, int);
  int (*OutputIsInt)(void *, int);
};

struct LoadedLib {
  void *Handle = nullptr;
  CApi Api{};
};

namespace {

std::mutex CacheLock;
std::map<std::string, LoadedLib> LibCache;
// Singleflight: one build mutex per key, so N threads requesting the same
// not-yet-loaded program trigger one compile and N-1 waiters — the property
// the serve daemon's shared worker pool depends on.
std::map<std::string, std::shared_ptr<std::mutex>> Building;

Result<const LoadedLib *> compileAndLoad(const std::string &Source,
                                         const CompileOptions &Opts,
                                         const std::string &Name) {
  using RL = Result<const LoadedLib *>;
  std::string Key = programCacheKey(Source, Opts).hex();
  std::shared_ptr<std::mutex> Build;
  {
    std::lock_guard<std::mutex> G(CacheLock);
    auto It = LibCache.find(Key);
    if (It != LibCache.end()) {
      NMemHits.fetch_add(1, std::memory_order_relaxed);
      return &It->second;
    }
    auto &Slot = Building[Key];
    if (!Slot)
      Slot = std::make_shared<std::mutex>();
    Build = Slot;
  }
  // Serialize builds of this key only; different programs compile in
  // parallel. Re-check the cache once we hold the build lock — a concurrent
  // requester may have finished the work while we waited.
  std::lock_guard<std::mutex> BG(*Build);
  {
    std::lock_guard<std::mutex> G(CacheLock);
    auto It = LibCache.find(Key);
    if (It != LibCache.end()) {
      NMemHits.fetch_add(1, std::memory_order_relaxed);
      return &It->second;
    }
  }

  fs::path Dir = Opts.WorkDir.empty()
                     ? fs::temp_directory_path() / "diderot-cpp"
                     : fs::path(Opts.WorkDir);
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC)
    return RL::error(strf("cannot create scratch directory ", Dir.string()));
  // Artifact names are the content key alone (not the program name): the
  // same program text under two names must map to one cached object.
  std::string Stem = strf("ddr-", Key);
  fs::path CppPath = Dir / (Stem + ".cpp");
  fs::path SoPath = Dir / (Stem + ".so");
  // Write and compile under process-unique names and rename the result into
  // place, so concurrent processes building the same program never observe a
  // half-written source file or shared object (rename within a directory is
  // atomic).
  std::string Unique = strf(Stem, ".", ::getpid());
  fs::path TmpCppPath = Dir / (Unique + ".cpp");
  fs::path TmpSoPath = Dir / (Unique + ".so.tmp");

  // One supervised host-compile attempt: write the source, run the compiler
  // under a wall-clock budget (subprocess.h — the group is killed on
  // expiry, so a hung compiler can never wedge a daemon job worker), and
  // rename the result into place.
  auto HostCompile = [&]() -> Status {
    {
      std::ofstream Out(TmpCppPath);
      if (!Out)
        return Status::error(strf("cannot write ", TmpCppPath.string()));
      Out << Source;
    }
    const char *CxxEnv = std::getenv("DIDEROT_CXX");
    std::string Cxx = CxxEnv ? CxxEnv : DIDEROT_HOST_CXX;
    support::SubprocessCommand Cmd;
    // The override may carry flags ("ccache g++ -pipe"): split into words.
    Cmd.Argv = support::splitCommandWords(Cxx);
    // -O3 matches the paper's experimental setup; the generated
    // straight-line convolution code is what the host compiler vectorizes.
    for (const char *F : {"-O3", "-std=c++20", "-shared", "-fPIC"})
      Cmd.Argv.push_back(F);
    Cmd.Argv.push_back(strf("-I", DIDEROT_SRC_DIR));
    for (std::string &F : support::splitCommandWords(Opts.ExtraCxxFlags))
      Cmd.Argv.push_back(std::move(F));
    Cmd.Argv.push_back("-o");
    Cmd.Argv.push_back(TmpSoPath.string());
    Cmd.Argv.push_back(TmpCppPath.string());
    Cmd.Argv.push_back("-lpthread");
    Cmd.TimeoutMs = Opts.HostCompileTimeoutMs;
    Cmd.MaxRetries = Opts.HostCompileRetries;
    Cmd.BackoffMs = Opts.HostCompileBackoffMs;
    NHostCompiles.fetch_add(1, std::memory_order_relaxed);
    Result<support::SubprocessResult> Run = support::runSupervised(Cmd);
    auto CleanTmp = [&] {
      std::error_code E2;
      fs::remove(TmpSoPath, E2);
      fs::remove(TmpCppPath, E2);
    };
    if (!Run.isOk()) {
      CleanTmp();
      return Status::error(Run.message());
    }
    if (Run->TimedOut) {
      NCompileTimeouts.fetch_add(1, std::memory_order_relaxed);
      CleanTmp();
      return Status::error(
          strf("host compile timed out after ", Opts.HostCompileTimeoutMs,
               " ms (compiler process group killed): ", Cxx, " on ", Name));
    }
    if (!Run->succeeded()) {
      CleanTmp();
      if (Run->TermSignal != 0)
        return Status::error(strf("host compiler died on signal ",
                                  Run->TermSignal, " after ", Run->Attempts,
                                  " attempt(s):\n", Run->Output));
      return Status::error(strf("host compiler failed (exit ", Run->ExitCode,
                                "): ", Cxx, "\n", Run->Output));
    }
    fs::rename(TmpSoPath, SoPath, EC);
    if (EC && !fs::exists(SoPath))
      return Status::error(strf("cannot install ", SoPath.string()));
    if (Opts.KeepCpp)
      fs::rename(TmpCppPath, CppPath, EC); // publish under the stable name
    else
      fs::remove(TmpCppPath, EC);
    recordCacheArtifact(Dir.string(), Key, Name);
    if (Opts.CacheMaxBytes > 0)
      enforceCacheCap(Dir.string(), Opts.CacheMaxBytes, /*ProtectKey=*/Key);
    return Status::ok();
  };

  // Disk hit: verify the artifact against its index row before loading. A
  // corrupt .so (crashed writer, torn disk) is quarantined and recompiled —
  // never dlopen'd.
  if (fs::exists(SoPath) &&
      verifyCacheArtifact(Dir.string(), Key) == ArtifactVerdict::Corrupt)
    quarantineCacheArtifact(Dir.string(), Key,
                            "size/hash mismatch against index on disk hit");

  bool Compiled = false;
  if (!fs::exists(SoPath)) {
    Status S = HostCompile();
    if (!S.isOk())
      return RL::error(S.message());
    Compiled = true;
  } else {
    NDiskHits.fetch_add(1, std::memory_order_relaxed);
    touchCacheArtifact(Dir.string(), Key);
  }

  void *Handle = dlopen(SoPath.string().c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle && !Compiled) {
    // An unverifiable disk artifact (v1 index row, or an index lost in a
    // crash) can still fail to load; quarantine it and compile fresh once.
    const char *DlMsg = dlerror();
    std::string DlErr = DlMsg ? DlMsg : "unknown dlopen failure";
    quarantineCacheArtifact(Dir.string(), Key, strf("dlopen failed: ", DlErr));
    Status S = HostCompile();
    if (!S.isOk())
      return RL::error(S.message());
    Handle = dlopen(SoPath.string().c_str(), RTLD_NOW | RTLD_LOCAL);
  }
  if (!Handle)
    return RL::error(strf("dlopen failed: ", dlerror()));

  LoadedLib Lib;
  Lib.Handle = Handle;
  auto Sym = [&](const char *S) { return dlsym(Handle, S); };
  Lib.Api.Create = reinterpret_cast<void *(*)()>(Sym("ddr_create"));
  Lib.Api.Destroy = reinterpret_cast<void (*)(void *)>(Sym("ddr_destroy"));
  Lib.Api.Error =
      reinterpret_cast<const char *(*)(void *)>(Sym("ddr_error"));
  Lib.Api.SetScalars =
      reinterpret_cast<int (*)(void *, const char *, const double *, int)>(
          Sym("ddr_set_input_scalars"));
  Lib.Api.SetString =
      reinterpret_cast<int (*)(void *, const char *, const char *)>(
          Sym("ddr_set_input_string"));
  Lib.Api.SetImage = reinterpret_cast<int (*)(
      void *, const char *, int, const int64_t *, int64_t, const double *,
      const double *, const double *, const double *)>(
      Sym("ddr_set_input_image"));
  Lib.Api.Initialize =
      reinterpret_cast<int (*)(void *)>(Sym("ddr_initialize"));
  Lib.Api.Run = reinterpret_cast<int (*)(void *, int, int, int)>(
      Sym("ddr_run"));
  Lib.Api.RunStats = reinterpret_cast<int (*)(void *, int, int, int)>(
      Sym("ddr_run_stats"));
  Lib.Api.StatsRead =
      reinterpret_cast<int64_t (*)(void *, uint64_t *, int64_t)>(
          Sym("ddr_stats_read"));
  Lib.Api.RunFlags = reinterpret_cast<int (*)(void *, int, int, int, int)>(
      Sym("ddr_run_flags"));
  Lib.Api.ProfRead =
      reinterpret_cast<int64_t (*)(void *, uint64_t *, int64_t)>(
          Sym("ddr_prof_read"));
  Lib.Api.ProfMap =
      reinterpret_cast<int64_t (*)(void *, uint64_t *, int64_t)>(
          Sym("ddr_prof_map"));
  Lib.Api.TraceRead =
      reinterpret_cast<int64_t (*)(void *, uint64_t *, int64_t)>(
          Sym("ddr_trace_read"));
  Lib.Api.RunPolicy = reinterpret_cast<int (*)(void *, int, int, int, int,
                                               int64_t, int64_t, int, int)>(
      Sym("ddr_run_policy"));
  Lib.Api.SetFaultPlan =
      reinterpret_cast<int (*)(void *, const uint64_t *, int64_t)>(
          Sym("ddr_set_fault_plan"));
  Lib.Api.Outcome = reinterpret_cast<int (*)(void *)>(Sym("ddr_outcome"));
  Lib.Api.FaultsRead =
      reinterpret_cast<int64_t (*)(void *, uint64_t *, int64_t)>(
          Sym("ddr_faults_read"));
  Lib.Api.FaultMsg = reinterpret_cast<const char *(*)(void *, int64_t)>(
      Sym("ddr_fault_msg"));
  Lib.Api.NumFaulted =
      reinterpret_cast<int64_t (*)(void *)>(Sym("ddr_num_faulted"));
  Lib.Api.MetricsRead =
      reinterpret_cast<int64_t (*)(void *, uint64_t *, int64_t)>(
          Sym("ddr_metrics_read"));
  Lib.Api.DigestRead =
      reinterpret_cast<int64_t (*)(void *, uint64_t *, int64_t)>(
          Sym("ddr_digest_read"));
  Lib.Api.StateRead =
      reinterpret_cast<int64_t (*)(void *, uint64_t *, int64_t)>(
          Sym("ddr_state_read"));
  Lib.Api.OutputDims = reinterpret_cast<int (*)(void *, int64_t *, int)>(
      Sym("ddr_output_dims"));
  Lib.Api.GetOutput =
      reinterpret_cast<int64_t (*)(void *, const char *, double *, int64_t)>(
          Sym("ddr_get_output"));
  Lib.Api.NumStrands =
      reinterpret_cast<int64_t (*)(void *)>(Sym("ddr_num_strands"));
  Lib.Api.NumStable =
      reinterpret_cast<int64_t (*)(void *)>(Sym("ddr_num_stable"));
  Lib.Api.NumDead =
      reinterpret_cast<int64_t (*)(void *)>(Sym("ddr_num_dead"));
  Lib.Api.NumOutputs =
      reinterpret_cast<int (*)(void *)>(Sym("ddr_num_outputs"));
  Lib.Api.OutputName =
      reinterpret_cast<const char *(*)(void *, int)>(Sym("ddr_output_name"));
  Lib.Api.OutputComps =
      reinterpret_cast<int (*)(void *, int)>(Sym("ddr_output_comps"));
  Lib.Api.OutputIsInt =
      reinterpret_cast<int (*)(void *, int)>(Sym("ddr_output_isint"));
  if (!Lib.Api.Create || !Lib.Api.Run || !Lib.Api.GetOutput)
    return RL::error("generated library is missing ddr_* symbols");

  std::lock_guard<std::mutex> G(CacheLock);
  auto [It, _] = LibCache.emplace(Key, Lib);
  return &It->second;
}

/// rt::ProgramInstance adapter over the C ABI.
class NativeInstance final : public rt::ProgramInstance {
public:
  NativeInstance(const LoadedLib &Lib, std::shared_ptr<const NativeDescs> D)
      : Api(&Lib.Api), Prog(Api->Create()), Descs(std::move(D)) {}
  ~NativeInstance() override {
    if (Prog)
      Api->Destroy(Prog);
  }

  std::vector<rt::InputDesc> inputs() const override { return Descs->Inputs; }
  std::vector<rt::OutputDesc> outputs() const override {
    return Descs->Outputs;
  }

  Status setInputReal(const std::string &Name, double V) override {
    return check(Api->SetScalars(Prog, Name.c_str(), &V, 1));
  }
  Status setInputInt(const std::string &Name, int64_t V) override {
    double D = static_cast<double>(V);
    return check(Api->SetScalars(Prog, Name.c_str(), &D, 1));
  }
  Status setInputBool(const std::string &Name, bool V) override {
    double D = V ? 1.0 : 0.0;
    return check(Api->SetScalars(Prog, Name.c_str(), &D, 1));
  }
  Status setInputString(const std::string &Name,
                        const std::string &V) override {
    return check(Api->SetString(Prog, Name.c_str(), V.c_str()));
  }
  Status setInputTensor(const std::string &Name,
                        const std::vector<double> &C) override {
    return check(Api->SetScalars(Prog, Name.c_str(), C.data(),
                                 static_cast<int>(C.size())));
  }
  Status setInputImage(const std::string &Name, const Image &Img) override {
    int D = Img.dim();
    int64_t Sizes[3] = {1, 1, 1};
    for (int A = 0; A < D; ++A)
      Sizes[A] = Img.size(A);
    // Gradient transform is M^{-T}; worldToIndexMatrix is M^{-1}.
    return check(Api->SetImage(Prog, Name.c_str(), D, Sizes,
                               Img.numComponents(), Img.data().data(),
                               Img.worldToIndexMatrix().data(),
                               Img.gradientTransform().data(),
                               Img.origin().data()));
  }

  Status initialize() override { return check(Api->Initialize(Prog)); }

  Result<rt::RunStats> run(const rt::RunConfig &C) override {
    using RS = Result<rt::RunStats>;
    LastProfile = observe::ProfileData();
    // Each capability degrades independently when loading an older .so that
    // lacks the v3 symbols: stats fall back to the v2 ddr_run_stats entry
    // point, profile and lifecycle silently turn off.
    bool WantStats =
        (C.CollectStats || C.CollectLifecycle || C.CollectMetrics) &&
        Api->StatsRead;
    bool WantProf = C.CollectProfile && Api->RunFlags && Api->ProfRead;
    bool WantTrace = C.CollectLifecycle && Api->RunFlags && Api->TraceRead;
    // Metrics prefer the v5 in-.so registry; a v4 library degrades to
    // deriveMetrics over the stats below (claim-latency histogram empty).
    bool NativeMetrics =
        C.CollectMetrics && Api->RunFlags && Api->MetricsRead;
    bool Collect = WantStats && (Api->RunStats || Api->RunFlags);
    // A run policy must not degrade silently — ignoring a deadline or a
    // fault budget is unsafe — so a pre-v4 .so is an explicit error.
    const bool Policied = C.Policy.active();
    if (Policied && (!Api->RunPolicy || !Api->SetFaultPlan))
      return RS::error("generated library does not support run policies "
                       "(pre-v4 runtime ABI); regenerate the program");
    // The pooled scheduler rides a v6 run-flag bit; a .so predating
    // ddr_run_flags silently degrades to BSP (a scheduler choice is a
    // performance knob, not a safety contract — unlike policies below).
    bool WantPooled =
        C.Sched == rt::Scheduler::Pooled && C.NumWorkers >= 1 &&
        Api->RunFlags;
    // Digests ride the v7 run flags. A pre-v7 .so degrades gracefully:
    // LastDigests stays empty and the replay layer falls back to comparing
    // final outputs only (a documented weaker fidelity, not an error).
    bool WantDigest = (C.CollectDigests || C.CollectStateLog) &&
                      Api->RunFlags && Api->DigestRead;
    bool WantStateLog = C.CollectStateLog && WantDigest && Api->StateRead;
    LastDigests.clear();
    auto T0 = std::chrono::steady_clock::now();
    int Steps;
    int Flags = (Collect ? 1 : 0) | (WantProf ? 2 : 0) | (WantTrace ? 4 : 0) |
                (NativeMetrics ? 8 : 0) | (WantPooled ? 16 : 0) |
                (WantDigest ? 32 : 0) | (WantStateLog ? 64 : 0);
    if (Policied) {
      std::vector<uint64_t> Plan = observe::flattenPlan(C.Policy.Plan);
      if (Api->SetFaultPlan(Prog, Plan.data(),
                            static_cast<int64_t>(Plan.size())) != 0)
        return RS::error(Api->Error(Prog));
      Steps = Api->RunPolicy(Prog, C.MaxSupersteps, C.NumWorkers, C.BlockSize,
                             Flags, C.Policy.DeadlineNs, C.Policy.MaxFaults,
                             C.Policy.WatchdogSteps,
                             C.Policy.StrictFp ? 1 : 0);
    } else if (Api->RunFlags &&
               (Collect || WantProf || WantTrace || NativeMetrics ||
                WantPooled || WantDigest)) {
      Steps = Api->RunFlags(Prog, C.MaxSupersteps, C.NumWorkers, C.BlockSize,
                            Flags);
    } else if (Collect) {
      Steps = Api->RunStats(Prog, C.MaxSupersteps, C.NumWorkers, C.BlockSize);
    } else {
      Steps = Api->Run(Prog, C.MaxSupersteps, C.NumWorkers, C.BlockSize);
    }
    if (Steps < 0)
      return RS::error(Api->Error(Prog));
    if (WantDigest) {
      std::vector<uint64_t> Flat = readFlat(Api->DigestRead);
      if (!observe::unflattenDigests(Flat.data(), Flat.size(), LastDigests))
        return RS::error("generated library returned malformed digests");
      if (WantStateLog) {
        std::vector<uint64_t> St = readFlat(Api->StateRead);
        // A .so may report 0 words when the state log was not retained.
        if (St.size() >= 3 &&
            !observe::unflattenStates(St.data(), St.size(), LastDigests))
          return RS::error("generated library returned malformed state log");
      }
    }
    rt::RunStats Stats;
    if (WantProf) {
      std::vector<uint64_t> Flat = readFlat(Api->ProfRead);
      if (!observe::unflattenProfile(Flat.data(), Flat.size(), LastProfile,
                                     /*Sites=*/false))
        return RS::error("generated library returned malformed profile");
      if (Api->ProfMap) {
        std::vector<uint64_t> Map = readFlat(Api->ProfMap);
        if (!observe::unflattenProfile(Map.data(), Map.size(), LastProfile,
                                       /*Sites=*/true))
          return RS::error("generated library returned malformed profile map");
      }
      LastProfile.Enabled = true;
    }
    if (Collect) {
      std::vector<uint64_t> Flat = readFlat(Api->StatsRead);
      if (!observe::unflattenStats(Flat.data(), Flat.size(), Stats))
        return RS::error("generated library returned malformed stats");
      if (WantTrace) {
        std::vector<uint64_t> Ev = readFlat(Api->TraceRead);
        if (!observe::unflattenEvents(Ev.data(), Ev.size(), Stats))
          return RS::error("generated library returned malformed trace");
      }
      Stats.Steps = Steps;
      Status V = attachVerdict(Stats);
      if (!V.isOk())
        return RS::error(V.message());
      attachMetrics(C, NativeMetrics, Stats);
      return Stats;
    }
    Stats.Steps = Steps;
    Stats.NumWorkers = C.NumWorkers <= 0 ? 0 : C.NumWorkers;
    Stats.WallNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
    Status V = attachVerdict(Stats);
    if (!V.isOk())
      return RS::error(V.message());
    attachMetrics(C, NativeMetrics, Stats);
    return Stats;
  }

  /// Live registry snapshot while run() executes on another thread (v5
  /// libraries only; empty data when the symbol is absent).
  observe::MetricsData liveMetrics() const override {
    observe::MetricsData D;
    if (!Api->MetricsRead)
      return D;
    std::vector<uint64_t> Flat = readFlat(Api->MetricsRead);
    observe::unflattenMetrics(Flat.data(), Flat.size(), D);
    return D;
  }

  observe::ProfileData profile() const override { return LastProfile; }

  const observe::DigestLog *digestLog() const override {
    return LastDigests.Entries.empty() ? nullptr : &LastDigests;
  }

  std::vector<int> outputDims() const override {
    int64_t Dims[8] = {};
    int N = Api->OutputDims(Prog, Dims, 8);
    std::vector<int> Out;
    for (int I = 0; I < N && I < 8; ++I)
      Out.push_back(static_cast<int>(Dims[I]));
    return Out;
  }

  Status getOutput(const std::string &Name,
                   std::vector<double> &Data) const override {
    int Comps = 1;
    bool Found = false;
    for (const rt::OutputDesc &O : Descs->Outputs)
      if (O.Name == Name) {
        Comps = O.ValShape.numComponents();
        Found = true;
      }
    if (!Found)
      return Status::error(strf("no output named '", Name, "'"));
    size_t N = 1;
    for (int D : outputDims())
      N *= static_cast<size_t>(D);
    Data.assign(N * static_cast<size_t>(Comps), 0.0);
    int64_t Written = Api->GetOutput(Prog, Name.c_str(), Data.data(),
                                     static_cast<int64_t>(Data.size()));
    if (Written < 0)
      return Status::error(Api->Error(Prog));
    Data.resize(static_cast<size_t>(Written));
    return Status::ok();
  }

  size_t numStrands() const override {
    return static_cast<size_t>(Api->NumStrands(Prog));
  }
  size_t numStable() const override {
    return static_cast<size_t>(Api->NumStable(Prog));
  }
  size_t numDead() const override {
    return static_cast<size_t>(Api->NumDead(Prog));
  }
  size_t numFaulted() const override {
    return Api->NumFaulted ? static_cast<size_t>(Api->NumFaulted(Prog)) : 0;
  }

private:
  /// Read the run's verdict and fault records back out of the .so. A pre-v4
  /// library has no ddr_outcome; derive Converged/StepLimit from the
  /// retirement counts (faults cannot exist there — policied runs were
  /// rejected above).
  Status attachVerdict(rt::RunStats &Stats) const {
    if (Api->Outcome) {
      Stats.Outcome = static_cast<rt::RunOutcome>(Api->Outcome(Prog));
    } else {
      Stats.Outcome = numStable() + numDead() == numStrands()
                          ? rt::RunOutcome::Converged
                          : rt::RunOutcome::StepLimit;
    }
    if (Api->FaultsRead) {
      std::vector<uint64_t> Flat = readFlat(Api->FaultsRead);
      if (!observe::unflattenFaults(Flat.data(), Flat.size(), Stats.Faults))
        return Status::error("generated library returned malformed faults");
      if (Api->FaultMsg)
        for (size_t I = 0; I < Stats.Faults.size(); ++I)
          if (const char *Msg = Api->FaultMsg(Prog, static_cast<int64_t>(I)))
            Stats.Faults[I].Message = Msg;
    }
    return Status::ok();
  }

  /// Fill Stats.Metrics after a metrics-collecting run: read the in-.so v5
  /// registry when armed, otherwise rebuild superstep-level histograms from
  /// the spans (runs after attachVerdict so Faults are populated).
  void attachMetrics(const rt::RunConfig &C, bool NativeMetrics,
                     rt::RunStats &Stats) const {
    if (!C.CollectMetrics)
      return;
    if (NativeMetrics) {
      std::vector<uint64_t> Flat = readFlat(Api->MetricsRead);
      if (observe::unflattenMetrics(Flat.data(), Flat.size(), Stats.Metrics) &&
          Stats.Metrics.Enabled)
        return;
    }
    Stats.Metrics = observe::deriveMetrics(Stats);
  }

  Status check(int RC) {
    if (RC == 0)
      return Status::ok();
    return Status::error(Api->Error(Prog));
  }

  /// Null-size-then-fill read protocol shared by all flat-array readers.
  std::vector<uint64_t> readFlat(int64_t (*Read)(void *, uint64_t *,
                                                 int64_t)) const {
    int64_t Need = Read(Prog, nullptr, 0);
    std::vector<uint64_t> Flat(static_cast<size_t>(Need > 0 ? Need : 0));
    if (Need > 0)
      Read(Prog, Flat.data(), Need);
    return Flat;
  }

  const CApi *Api;
  void *Prog;
  std::shared_ptr<const NativeDescs> Descs;
  observe::ProfileData LastProfile;
  observe::DigestLog LastDigests; ///< digest stream of the last recorded run
};

} // namespace

std::shared_ptr<const NativeDescs> nativeDescs(const ir::Module &M) {
  auto D = std::make_shared<NativeDescs>();
  for (const ir::GlobalVar &G : M.Globals)
    if (G.IsInput)
      D->Inputs.push_back({G.Name, G.Ty.str(), G.DefaultFn >= 0});
  for (const ir::StateSlot &S : M.State)
    if (S.IsOutput)
      D->Outputs.push_back({S.Name, S.Ty.isTensor() ? S.Ty.shape() : Shape{},
                            S.Ty.isInt()});
  return D;
}

Result<const LoadedLib *> loadNativeLib(const ir::Module &M,
                                        const CompileOptions &Opts,
                                        const std::string &Name) {
  return compileAndLoad(emitCpp(M, Opts.DoublePrecision), Opts, Name);
}

std::unique_ptr<rt::ProgramInstance>
makeNativeInstance(const LoadedLib &Lib,
                   std::shared_ptr<const NativeDescs> Descs) {
  return std::make_unique<NativeInstance>(Lib, std::move(Descs));
}

} // namespace diderot::codegen
