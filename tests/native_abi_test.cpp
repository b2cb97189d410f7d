//===--- tests/native_abi_test.cpp - the generated programs' C ABI -----------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// The native C ABI (runtime/ddr_abi.h) against real host-compiled shared
// objects: ddr_read's all-or-nothing copy, the loader's version handshake
// quarantining and recompiling a cached artifact that answers another
// ddr_abi_version() or none at all, and the one StrandPool all generated
// programs in a process share.
//
//===----------------------------------------------------------------------===//

#include <cstdlib>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "codegen/cache.h"
#include "codegen/config.h"
#include "driver/driver.h"
#include "runtime/ddr_abi.h"
#include "runtime/scheduler.h"

namespace fs = std::filesystem;

namespace diderot {
namespace {

/// A throwaway cache directory, removed on destruction.
struct TempDir {
  fs::path Dir;
  explicit TempDir(const std::string &Tag) {
    Dir = fs::temp_directory_path() /
          ("ddr-abi-test-" + Tag + "-" + std::to_string(::getpid()));
    fs::remove_all(Dir);
    fs::create_directories(Dir);
  }
  ~TempDir() {
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
  }
};

/// Strand i stabilizes on its (i % 5 + 1)-th update with v = i * Scale^n.
std::string program(int Scale) {
  return "strand S (int i) {\n"
         "  int n = 0;\n"
         "  output real v = real(i);\n"
         "  update {\n"
         "    n += 1;\n"
         "    v = v * " +
         std::to_string(Scale) +
         ".0;\n"
         "    if (n > i - (i / 5) * 5) stabilize;\n"
         "  }\n"
         "}\n"
         "initially [ S(i) | i in 0 .. 19 ];\n";
}

CompileOptions nativeOpts(const TempDir &T) {
  CompileOptions Opts;
  Opts.Eng = Engine::Native;
  Opts.WorkDir = T.Dir.string();
  return Opts;
}

/// Path of the cached artifact the loader uses for \p CP.
fs::path artifactPath(const TempDir &T, const CompiledProgram &CP,
                      const CompileOptions &Opts) {
  return T.Dir /
         ("ddr-" + codegen::programCacheKey(CP.emitCpp(), Opts).hex() + ".so");
}

/// Run \p CP to completion and return output v.
std::vector<double> runToOutput(const CompiledProgram &CP) {
  Result<std::unique_ptr<rt::ProgramInstance>> I = CP.instantiate();
  EXPECT_TRUE(I.isOk()) << I.message();
  if (!I.isOk())
    return {};
  EXPECT_TRUE((*I)->initialize().isOk());
  Result<rt::RunStats> R = (*I)->run(100, 2);
  EXPECT_TRUE(R.isOk()) << R.message();
  std::vector<double> V;
  EXPECT_TRUE((*I)->getOutput("v", V).isOk());
  return V;
}

TEST(NativeAbi, ReadWritesNothingUnlessTheWholeSnapshotFits) {
  TempDir T("read");
  CompileOptions Opts = nativeOpts(T);
  Result<CompiledProgram> CP = compileString(program(3), Opts, "abi_read");
  ASSERT_TRUE(CP.isOk()) << CP.message();
  runToOutput(*CP); // host-compiles the artifact
  void *H = dlopen(artifactPath(T, *CP, Opts).c_str(), RTLD_NOW | RTLD_LOCAL);
  ASSERT_NE(H, nullptr) << dlerror();
  auto Create = reinterpret_cast<void *(*)()>(dlsym(H, "ddr_create"));
  auto Destroy = reinterpret_cast<void (*)(void *)>(dlsym(H, "ddr_destroy"));
  auto Init = reinterpret_cast<int (*)(void *)>(dlsym(H, "ddr_initialize"));
  auto Run = reinterpret_cast<int (*)(void *, const ddr_run_args *)>(
      dlsym(H, "ddr_run"));
  auto Read = reinterpret_cast<int64_t (*)(void *, int, uint64_t *, int64_t)>(
      dlsym(H, "ddr_read"));
  auto Version = reinterpret_cast<int (*)()>(dlsym(H, "ddr_abi_version"));
  ASSERT_TRUE(Create && Destroy && Init && Run && Read && Version);
  EXPECT_EQ(Version(), DdrAbiVersion);

  void *P = Create();
  ASSERT_EQ(Init(P), 0);
  ddr_run_args A{};
  A.max_steps = 100;
  A.workers = 2;
  A.block_size = 4;
  A.stats = 1;
  A.metrics = 1;
  A.digests = 1;
  A.max_faults = -1;
  ASSERT_GT(Run(P, &A), 0);

  const uint64_t Sentinel = 0xfeedfacecafebeefull;
  for (int Kind : {DDR_READ_COUNTS, DDR_READ_STATS, DDR_READ_METRICS,
                   DDR_READ_FAULTS, DDR_READ_DIGEST, DDR_READ_PROF_MAP}) {
    int64_t Need = Read(P, Kind, nullptr, 0);
    ASSERT_GT(Need, 0) << "kind " << Kind;
    std::vector<uint64_t> Buf(static_cast<size_t>(Need), Sentinel);
    EXPECT_EQ(Read(P, Kind, Buf.data(), Need - 1), Need) << "kind " << Kind;
    for (uint64_t W : Buf)
      ASSERT_EQ(W, Sentinel) << "kind " << Kind << " wrote into a short buffer";
    EXPECT_EQ(Read(P, Kind, Buf.data(), Need), Need);
    EXPECT_NE(Buf, std::vector<uint64_t>(Buf.size(), Sentinel));
  }
  uint64_t Counts[DDR_COUNTS_WORDS];
  ASSERT_EQ(Read(P, DDR_READ_COUNTS, Counts, DDR_COUNTS_WORDS),
            DDR_COUNTS_WORDS);
  EXPECT_EQ(Counts[1], 20u); // strands
  EXPECT_EQ(Counts[2], 20u); // stable
  EXPECT_EQ(Read(P, 99, nullptr, 0), -1);
  Destroy(P);
  dlclose(H);
}

/// Plant a real host-compiled shared object built from \p StubSource under
/// the cache key of a program, then load that program: the handshake must
/// quarantine the stub and recompile, and the run must produce the
/// program's output.
void expectStaleArtifactIsReplaced(const std::string &Tag, int Scale,
                                   const std::string &StubSource,
                                   const std::string &Reason) {
  std::vector<double> Want;
  for (int I = 0; I < 20; ++I) {
    double V = I;
    for (int N = 0; N <= I % 5; ++N)
      V *= Scale; // exact in float: at most 19 * 11^5
    Want.push_back(V);
  }
  TempDir T(Tag);
  CompileOptions Opts = nativeOpts(T);
  // A flag no other test uses gives the program a key this process has not
  // loaded yet, so the load goes to disk and finds the stub.
  Opts.ExtraCxxFlags = "-DDDR_ABI_TEST_" + Tag;
  Result<CompiledProgram> CP = compileString(program(Scale), Opts, "abi");
  ASSERT_TRUE(CP.isOk()) << CP.message();
  fs::path Stub = T.Dir / "stub.cpp";
  {
    std::ofstream Out(Stub);
    Out << StubSource;
  }
  std::string Cmd = std::string(DIDEROT_HOST_CXX) + " -shared -fPIC -o " +
                    artifactPath(T, *CP, Opts).string() + " " +
                    Stub.string();
  ASSERT_EQ(std::system(Cmd.c_str()), 0) << Cmd;

  codegen::NativeCacheStats Before = codegen::nativeCacheStats();
  std::vector<double> Got = runToOutput(*CP);
  codegen::NativeCacheStats After = codegen::nativeCacheStats();
  EXPECT_EQ(After.Quarantined, Before.Quarantined + 1);
  EXPECT_EQ(After.HostCompiles, Before.HostCompiles + 1);
  EXPECT_EQ(Got, Want);
  std::string Why;
  for (const fs::directory_entry &E :
       fs::directory_iterator(T.Dir / codegen::cacheQuarantineDir()))
    if (E.path().extension() == ".reason")
      std::getline(std::ifstream(E.path()), Why);
  EXPECT_NE(Why.find(Reason), std::string::npos) << Why;
}

TEST(NativeAbi, OlderVersionArtifactIsQuarantinedAndRecompiled) {
  expectStaleArtifactIsReplaced(
      "v7", 7, "extern \"C\" int ddr_abi_version() { return 7; }\n",
      "library has v7");
}

TEST(NativeAbi, ArtifactWithoutAVersionIsQuarantinedAndRecompiled) {
  expectStaleArtifactIsReplaced(
      "none", 11, "extern \"C\" int ddr_create() { return 0; }\n",
      "no ddr_abi_version symbol");
}

/// StrandPool::instance()'s function-local static is a GNU unique symbol
/// in every generated .so, so the dynamic linker binds all programs loaded
/// into a process to one pool. The host executable keeps its copy out of
/// its dynamic symbol table (no -rdynamic), so interpreter runs in the host
/// use a pool of their own: a native 3-worker run parks its workers in the
/// programs' shared pool and leaves the host's untouched. Hidden visibility
/// in generated code would give every .so its own pool (docs/SCHEDULING.md).
TEST(NativeAbi, GeneratedProgramsShareOneStrandPool) {
  TempDir T("pool");
  CompileOptions Opts = nativeOpts(T);
  const char *PoolSym = "_ZZN7diderot2rt10StrandPool8instanceEvE1P";
  std::vector<void *> Handles;
  std::vector<void *> Pools;
  for (int Scale : {2, 5}) {
    Result<CompiledProgram> CP =
        compileString(program(Scale), Opts, "abi_pool");
    ASSERT_TRUE(CP.isOk()) << CP.message();
    Result<std::unique_ptr<rt::ProgramInstance>> I = CP->instantiate();
    ASSERT_TRUE(I.isOk()) << I.message();
    ASSERT_TRUE((*I)->initialize().isOk());
    void *H =
        dlopen(artifactPath(T, *CP, Opts).c_str(), RTLD_NOW | RTLD_LOCAL);
    ASSERT_NE(H, nullptr) << dlerror();
    Handles.push_back(H);
    void *Sym = dlsym(H, PoolSym);
    ASSERT_NE(Sym, nullptr) << dlerror();
    Pools.push_back(Sym);
    rt::StrandPool &Shared = *static_cast<rt::StrandPool *>(Sym);
    rt::StrandPool &Host = rt::StrandPool::instance();
    uint64_t Shared0 = Shared.parkCount(), Host0 = Host.parkCount();
    rt::RunConfig C;
    C.MaxSupersteps = 100;
    C.NumWorkers = 3;
    C.BlockSize = 4; // 20 strands, 5 blocks: all 3 workers are leased
    Result<rt::RunStats> R = (*I)->run(C);
    ASSERT_TRUE(R.isOk()) << R.message();
    EXPECT_EQ(Shared.parkCount() - Shared0, 3u) << "scale " << Scale;
    EXPECT_GE(Shared.threadCount(), 3);
    EXPECT_EQ(Host.parkCount(), Host0) << "scale " << Scale;
  }
  EXPECT_EQ(Pools[0], Pools[1]) << "two programs, two pools";
  EXPECT_NE(Pools[0], static_cast<void *>(&rt::StrandPool::instance()));
  for (void *H : Handles)
    dlclose(H);
}

} // namespace
} // namespace diderot
