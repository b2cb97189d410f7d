//===--- codegen/native_load.cpp - host-compiler invocation + dlopen ---------===//
//
// The native engine's back half: write the generated translation unit to a
// scratch directory, compile it with the host system's compiler (paper
// Section 5.1) into a shared object, dlopen it, and wrap its C ABI in the
// rt::ProgramInstance interface. Compiled objects are content-addressed
// (codegen/cache.h): the 128-bit key covers the generated source, the
// compile options, the ddr_* ABI version, the runtime headers the source
// includes, and the host compiler identity,
// so a cache directory can be shared across processes and daemon restarts
// and a warm cache never re-invokes the host compiler.
//
//===----------------------------------------------------------------------===//

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <dlfcn.h>
#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <type_traits>
#include "observe/observe.h"
#include "observe/profiler.h"
#include "observe/recorder.h"

#include "codegen/cache.h"
#include "codegen/config.h"
#include "codegen/native.h"
#include "driver/driver.h"
#include "runtime/ddr_abi.h"
#include "support/strings.h"
#include "support/subprocess.h"

namespace diderot::codegen {

std::string hostCompilerId() {
  // The configured compiler plus the banner of the compiler that built this
  // driver (a stable proxy for the toolchain revision). See cache.h for why
  // the DIDEROT_CXX environment override is intentionally excluded.
  return strf(DIDEROT_HOST_CXX, " host=", __VERSION__);
}

std::vector<std::string> runtimeHeaderClosure(const std::string &SrcDir) {
  namespace fs = std::filesystem;
  // Resolve like the host compiler resolves a quoted include: the including
  // file's directory first, then the -I root.
  auto Resolve = [&](const fs::path &From, const std::string &Inc) {
    fs::path Local = (fs::path(SrcDir) / From).parent_path() / Inc;
    std::error_code EC;
    if (fs::is_regular_file(Local, EC))
      return fs::relative(Local, SrcDir, EC).generic_string();
    return fs::path(Inc).lexically_normal().generic_string();
  };
  std::set<std::string> Seen = {"runtime/native_prelude.h"};
  std::vector<std::string> Work(Seen.begin(), Seen.end());
  while (!Work.empty()) {
    std::string Rel = Work.back();
    Work.pop_back();
    std::ifstream In(fs::path(SrcDir) / Rel);
    std::string Line;
    while (std::getline(In, Line)) {
      size_t P = Line.find_first_not_of(" \t");
      if (P == std::string::npos || Line[P] != '#')
        continue;
      P = Line.find_first_not_of(" \t", P + 1);
      if (P == std::string::npos || Line.compare(P, 7, "include") != 0)
        continue;
      size_t Open = Line.find('"', P + 7);
      size_t Close =
          Open == std::string::npos ? Open : Line.find('"', Open + 1);
      if (Close == std::string::npos)
        continue;
      std::string Dep =
          Resolve(Rel, Line.substr(Open + 1, Close - Open - 1));
      if (Seen.insert(Dep).second)
        Work.push_back(Dep);
    }
  }
  return {Seen.begin(), Seen.end()};
}

support::Hash128 runtimeHeaderDigest(const std::string &SrcDir) {
  support::Fnv128 H;
  for (const std::string &Rel : runtimeHeaderClosure(SrcDir)) {
    std::ifstream In(std::filesystem::path(SrcDir) / Rel, std::ios::binary);
    std::string Text((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    H.updateField(Rel);
    // A missing header hashes differently from an empty one.
    H.updateField(In ? static_cast<int64_t>(Text.size()) : int64_t{-1});
    H.update(Text);
  }
  return H.digest();
}

namespace {
/// The fixed host-compiler flags of every generated object. -O3 matches the
/// paper's experimental setup; the generated straight-line convolution code
/// is what the host compiler vectorizes. -falign-functions=64 starts each
/// function on a cache line, so the hot update and eigen routines keep
/// their 32-byte branch alignment whatever the size of the runtime code
/// emitted before them (on a 4-CPU AVX-512 Xeon VM, a 16-byte shift of
/// those functions slowed ridge3d's sequential run by a third).
constexpr const char *HostCxxFlags[] = {"-O3", "-std=c++20", "-shared",
                                        "-fPIC", "-falign-functions=64"};
} // namespace

support::Hash128 programCacheKey(const std::string &Text,
                                 const CompileOptions &Opts) {
  // Read once per process: the headers the host compiler will see.
  static const support::Hash128 Runtime = runtimeHeaderDigest(DIDEROT_SRC_DIR);
  return programCacheKey(Text, Opts, Runtime);
}

support::Hash128 programCacheKey(const std::string &Text,
                                 const CompileOptions &Opts,
                                 const support::Hash128 &RuntimeDigest) {
  support::Fnv128 H;
  H.updateField("ddr-abi");
  H.updateField(static_cast<int64_t>(DdrAbiVersion));
  H.updateField(hostCompilerId());
  for (const char *F : HostCxxFlags)
    H.updateField(F);
  H.updateField(RuntimeDigest.hex());
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

/// The dlsym'd C ABI of a generated program (runtime/ddr_abi.h), less
/// ddr_abi_version, which only the handshake calls.
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
  int (*Run)(void *, const ddr_run_args *);
  int64_t (*Read)(void *, int, uint64_t *, int64_t);
  const char *(*FaultMsg)(void *, int64_t);
  int (*OutputDims)(void *, int64_t *, int);
  int64_t (*GetOutput)(void *, const char *, double *, int64_t);
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
    for (const char *F : HostCxxFlags)
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

  // dlopen the artifact and check the version handshake. A library that
  // cannot load, or that answers a different ddr_abi_version(), is closed
  // again with the reason in Why.
  std::string Why;
  auto Open = [&]() -> void * {
    void *H = dlopen(SoPath.string().c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!H) {
      const char *DlMsg = dlerror();
      Why = strf("dlopen failed: ", DlMsg ? DlMsg : "unknown dlopen failure");
      return nullptr;
    }
    auto Version = reinterpret_cast<int (*)()>(dlsym(H, "ddr_abi_version"));
    if (Version && Version() == DdrAbiVersion)
      return H;
    Why = Version ? strf("ABI version mismatch: library has v", Version(),
                         ", driver expects v", int{DdrAbiVersion})
                  : strf("no ddr_abi_version symbol; driver expects ABI v",
                         int{DdrAbiVersion});
    dlclose(H);
    return nullptr;
  };
  void *Handle = Open();
  if (!Handle && !Compiled) {
    // An unverifiable disk artifact (no index row, e.g. one lost in a crash)
    // can still fail to load or answer another ABI version; quarantine it
    // and compile fresh once.
    quarantineCacheArtifact(Dir.string(), Key, Why);
    Status S = HostCompile();
    if (!S.isOk())
      return RL::error(S.message());
    Handle = Open();
  }
  if (!Handle)
    return RL::error(Why);

  LoadedLib Lib;
  Lib.Handle = Handle;
  auto Bind = [&](auto &Fn, const char *Sym) {
    Fn = reinterpret_cast<std::remove_reference_t<decltype(Fn)>>(
        dlsym(Handle, Sym));
    return Fn != nullptr;
  };
  CApi &A = Lib.Api;
  if (!(Bind(A.Create, "ddr_create") && Bind(A.Destroy, "ddr_destroy") &&
        Bind(A.Error, "ddr_error") &&
        Bind(A.SetScalars, "ddr_set_input_scalars") &&
        Bind(A.SetString, "ddr_set_input_string") &&
        Bind(A.SetImage, "ddr_set_input_image") &&
        Bind(A.Initialize, "ddr_initialize") && Bind(A.Run, "ddr_run") &&
        Bind(A.Read, "ddr_read") && Bind(A.FaultMsg, "ddr_fault_msg") &&
        Bind(A.OutputDims, "ddr_output_dims") &&
        Bind(A.GetOutput, "ddr_get_output"))) {
    dlclose(Handle);
    return RL::error("generated library is missing ddr_* symbols");
  }

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
    LastDigests.clear();
    const bool Collect =
        C.CollectStats || C.CollectLifecycle || C.CollectMetrics;
    const bool Digest = C.CollectDigests || C.CollectStateLog;
    std::vector<uint64_t> Plan;
    if (!C.Policy.Plan.empty())
      Plan = observe::flattenPlan(C.Policy.Plan);
    ddr_run_args A{};
    A.max_steps = C.MaxSupersteps;
    A.workers = C.NumWorkers;
    A.block_size = C.BlockSize;
    A.stats = Collect;
    A.profile = C.CollectProfile;
    A.lifecycle = C.CollectLifecycle;
    A.metrics = C.CollectMetrics;
    A.digests = Digest;
    A.state_log = C.CollectStateLog;
    A.strict_fp = C.Policy.StrictFp;
    A.watchdog_steps = C.Policy.WatchdogSteps;
    A.deadline_ns = C.Policy.DeadlineNs;
    A.max_faults = C.Policy.MaxFaults;
    A.fault_plan = Plan.empty() ? nullptr : Plan.data();
    A.fault_plan_words = static_cast<int64_t>(Plan.size());
    auto T0 = std::chrono::steady_clock::now();
    int Steps = Api->Run(Prog, &A);
    if (Steps < 0)
      return RS::error(Api->Error(Prog));
    if (Digest) {
      std::vector<uint64_t> Flat = read(DDR_READ_DIGEST);
      if (!observe::unflattenDigests(Flat.data(), Flat.size(), LastDigests))
        return RS::error("generated library returned malformed digests");
      if (C.CollectStateLog) {
        std::vector<uint64_t> St = read(DDR_READ_STATE);
        if (!observe::unflattenStates(St.data(), St.size(), LastDigests))
          return RS::error("generated library returned malformed state log");
      }
    }
    if (C.CollectProfile) {
      std::vector<uint64_t> Flat = read(DDR_READ_PROF);
      std::vector<uint64_t> Map = read(DDR_READ_PROF_MAP);
      if (!observe::unflattenProfile(Flat.data(), Flat.size(), LastProfile,
                                     /*Sites=*/false) ||
          !observe::unflattenProfile(Map.data(), Map.size(), LastProfile,
                                     /*Sites=*/true))
        return RS::error("generated library returned malformed profile");
      LastProfile.Enabled = true;
    }
    rt::RunStats Stats;
    if (Collect) {
      std::vector<uint64_t> Flat = read(DDR_READ_STATS);
      if (!observe::unflattenStats(Flat.data(), Flat.size(), Stats))
        return RS::error("generated library returned malformed stats");
      if (C.CollectLifecycle) {
        std::vector<uint64_t> Ev = read(DDR_READ_TRACE);
        if (!observe::unflattenEvents(Ev.data(), Ev.size(), Stats))
          return RS::error("generated library returned malformed trace");
      }
    } else {
      Stats.NumWorkers = C.NumWorkers <= 0 ? 0 : C.NumWorkers;
      Stats.WallNs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - T0)
              .count());
    }
    Stats.Steps = Steps;
    Status V = attachVerdict(Stats);
    if (V.isOk())
      V = attachMetrics(C, Stats);
    if (!V.isOk())
      return RS::error(V.message());
    return Stats;
  }

  /// Live registry snapshot while run() executes on another thread.
  observe::MetricsData liveMetrics() const override {
    observe::MetricsData D;
    std::vector<uint64_t> Flat = read(DDR_READ_METRICS);
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

  size_t numStrands() const override { return counts()[1]; }
  size_t numStable() const override { return counts()[2]; }
  size_t numDead() const override { return counts()[3]; }
  size_t numFaulted() const override { return counts()[4]; }

private:
  /// Read the run's verdict and fault records back out of the .so.
  Status attachVerdict(rt::RunStats &Stats) const {
    Stats.Outcome = static_cast<rt::RunOutcome>(counts()[0]);
    std::vector<uint64_t> Flat = read(DDR_READ_FAULTS);
    if (!observe::unflattenFaults(Flat.data(), Flat.size(), Stats.Faults))
      return Status::error("generated library returned malformed faults");
    for (size_t I = 0; I < Stats.Faults.size(); ++I)
      if (const char *Msg = Api->FaultMsg(Prog, static_cast<int64_t>(I)))
        Stats.Faults[I].Message = Msg;
    return Status::ok();
  }

  /// Fill Stats.Metrics from the in-.so registry after a metrics-armed run.
  Status attachMetrics(const rt::RunConfig &C, rt::RunStats &Stats) const {
    if (!C.CollectMetrics)
      return Status::ok();
    std::vector<uint64_t> Flat = read(DDR_READ_METRICS);
    if (!observe::unflattenMetrics(Flat.data(), Flat.size(), Stats.Metrics))
      return Status::error("generated library returned malformed metrics");
    return Status::ok();
  }

  Status check(int RC) {
    if (RC == 0)
      return Status::ok();
    return Status::error(Api->Error(Prog));
  }

  /// One ddr_read snapshot. ddr_read writes nothing unless the whole
  /// snapshot fits, so grow to the count it asks for and retry: a live
  /// metrics snapshot can grow between two calls. An unknown kind (< 0)
  /// reads as empty, which every unflatten* rejects.
  std::vector<uint64_t> read(int Kind) const {
    std::vector<uint64_t> Flat;
    for (;;) {
      int64_t Need = Api->Read(Prog, Kind, Flat.data(),
                               static_cast<int64_t>(Flat.size()));
      bool Fit = Need <= static_cast<int64_t>(Flat.size());
      Flat.resize(static_cast<size_t>(Need > 0 ? Need : 0));
      if (Fit)
        return Flat;
    }
  }

  /// [outcome, strands, stable, dead, faulted] of the instance.
  std::array<uint64_t, DDR_COUNTS_WORDS> counts() const {
    std::array<uint64_t, DDR_COUNTS_WORDS> N{};
    Api->Read(Prog, DDR_READ_COUNTS, N.data(), DDR_COUNTS_WORDS);
    return N;
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
