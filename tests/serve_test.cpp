//===--- tests/serve_test.cpp - the diderotd daemon end to end ---------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// Compile-once-serve-many: the program registry, the daemon's HTTP job API
// against golden direct runs, concurrent mixed-program serving, and the
// content-addressed native cache (tests named *Native* use the host
// compiler and are excluded from the serve_tsan run — TSan cannot model
// the uninstrumented dlopen'd code).
//
//===----------------------------------------------------------------------===//

#include "serve/daemon.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "codegen/cache.h"
#include "nrrd/nrrd.h"
#include "serve/compile_cache.h"

namespace diderot {
namespace {

// Two small programs with distinct outputs: every strand doubles (A) or
// triples (B) its index once, then stabilizes.
const char *ProgA = R"(
input real bias = 0.0;
strand S (int i) {
  output real v = real(i);
  update { v = v * 2.0 + bias; stabilize; }
}
initially [ S(i) | i in 0 .. 7 ];
)";

const char *ProgB = R"(
input real bias = 0.0;
strand S (int i) {
  output real v = real(i);
  update { v = v * 3.0 + bias; stabilize; }
}
initially [ S(i) | i in 0 .. 7 ];
)";

// Never stabilizes — deadline and queue tests.
const char *ProgSpin = R"(
strand S (int i) {
  output real v = 0.0;
  update { v += 1.0; }
}
initially [ S(i) | i in 0 .. 3 ];
)";

std::string tempDir(const char *Tag) {
  auto P = std::filesystem::temp_directory_path() /
           (std::string("diderot-serve-test-") + Tag + "-" +
            std::to_string(::getpid()));
  std::filesystem::create_directories(P);
  return P.string();
}

/// Minimal HTTP client: send one request, return (status code, body).
struct Reply {
  int Code = 0;
  std::string Body;
  std::string Raw;
};

Reply httpDo(int Port, const std::string &Method, const std::string &Path,
             const std::string &Body = "",
             const std::vector<std::pair<std::string, std::string>> &Headers =
                 {}) {
  Reply Out;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Out;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return Out;
  }
  std::string Wire = Method + " " + Path + " HTTP/1.1\r\n";
  for (const auto &[K, V] : Headers)
    Wire += K + ": " + V + "\r\n";
  Wire += "Content-Length: " + std::to_string(Body.size()) + "\r\n\r\n";
  Wire += Body;
  size_t Off = 0;
  while (Off < Wire.size()) {
    ssize_t N = ::send(Fd, Wire.data() + Off, Wire.size() - Off, 0);
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
  char Buf[8192];
  ssize_t N;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Out.Raw.append(Buf, static_cast<size_t>(N));
  ::close(Fd);
  if (Out.Raw.size() > 12)
    Out.Code = std::atoi(Out.Raw.c_str() + 9);
  size_t HdrEnd = Out.Raw.find("\r\n\r\n");
  if (HdrEnd != std::string::npos)
    Out.Body = Out.Raw.substr(HdrEnd + 4);
  return Out;
}

std::string jsonField(const std::string &Json, const std::string &Key) {
  size_t P = Json.find("\"" + Key + "\":");
  if (P == std::string::npos)
    return "";
  P += Key.size() + 3;
  if (P < Json.size() && Json[P] == '"') {
    size_t E = Json.find('"', P + 1);
    return Json.substr(P + 1, E - P - 1);
  }
  size_t E = Json.find_first_of(",}", P);
  return Json.substr(P, E - P);
}

/// Submit a run and poll until the job leaves the queue. Returns the final
/// job JSON.
std::string runAndWait(int Port, const std::string &Src,
                       std::vector<std::pair<std::string, std::string>>
                           Headers = {}) {
  Reply R = httpDo(Port, "POST", "/run", Src, Headers);
  EXPECT_EQ(R.Code, 202) << R.Raw;
  std::string Id = jsonField(R.Body, "job");
  EXPECT_FALSE(Id.empty());
  for (int Tries = 0; Tries < 3000; ++Tries) {
    Reply J = httpDo(Port, "GET", "/jobs/" + Id);
    EXPECT_EQ(J.Code, 200);
    std::string State = jsonField(J.Body, "state");
    if (State == "done" || State == "failed")
      return J.Body;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "job " << Id << " did not finish";
  return "";
}

/// Direct (no daemon) reference run of \p Src under \p Opts.
std::vector<double> goldenRun(const std::string &Src,
                              const CompileOptions &Opts) {
  Result<CompiledProgram> CP = compileString(Src, Opts, "golden");
  EXPECT_TRUE(CP.isOk()) << CP.message();
  Result<std::unique_ptr<rt::ProgramInstance>> I = CP->instantiate();
  EXPECT_TRUE(I.isOk()) << I.message();
  EXPECT_TRUE((*I)->initialize().isOk());
  EXPECT_TRUE((*I)->run(100, 0).isOk());
  std::vector<double> Data;
  EXPECT_TRUE((*I)->getOutput("v", Data).isOk());
  return Data;
}

/// Fetch a finished job's output and decode the NRRD samples.
std::vector<double> fetchOutput(int Port, const std::string &JobJson) {
  std::vector<double> Out;
  std::string Id = jsonField(JobJson, "job");
  Reply R = httpDo(Port, "GET", "/jobs/" + Id + "/output");
  EXPECT_EQ(R.Code, 200) << R.Raw;
  Result<Nrrd> N = nrrdParse(R.Body);
  EXPECT_TRUE(N.isOk()) << (N.isOk() ? "" : N.message());
  if (!N.isOk())
    return Out;
  for (size_t S = 0; S < N->numSamples(); ++S)
    Out.push_back(N->sampleAsDouble(S));
  return Out;
}

serve::DaemonOptions interpOptions(const std::string &CacheDir) {
  serve::DaemonOptions O;
  O.Compile.Eng = Engine::Interp;
  O.Compile.WorkDir = CacheDir;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Program registry
//===----------------------------------------------------------------------===//

TEST(ProgramRegistry, CachesBySourceContent) {
  CompileOptions Opts;
  Opts.Eng = Engine::Interp;
  serve::ProgramRegistry Reg(Opts);
  auto L1 = Reg.getOrCompile(ProgA, "a");
  ASSERT_TRUE(L1.isOk()) << L1.message();
  EXPECT_FALSE(L1->Cached);
  EXPECT_GT(L1->CompileNs, 0u);
  // Same source, different name: still a hit (content-addressed).
  auto L2 = Reg.getOrCompile(ProgA, "other-name");
  ASSERT_TRUE(L2.isOk());
  EXPECT_TRUE(L2->Cached);
  EXPECT_EQ(L1->Key, L2->Key);
  EXPECT_EQ(L1->Prog.get(), L2->Prog.get());
  auto L3 = Reg.getOrCompile(ProgB, "b");
  ASSERT_TRUE(L3.isOk());
  EXPECT_FALSE(L3->Cached);
  EXPECT_NE(L3->Key, L1->Key);
  EXPECT_EQ(Reg.hits(), 1u);
  EXPECT_EQ(Reg.misses(), 2u);
  EXPECT_EQ(Reg.size(), 2u);
}

TEST(ProgramRegistry, CompileErrorsPropagate) {
  CompileOptions CO;
  CO.Eng = Engine::Interp;
  serve::ProgramRegistry Reg(CO);
  auto L = Reg.getOrCompile("strand S { not diderot", "broken");
  EXPECT_FALSE(L.isOk());
}

TEST(ProgramRegistry, ConcurrentFirstLookupsCompileOnce) {
  CompileOptions CO;
  CO.Eng = Engine::Interp;
  serve::ProgramRegistry Reg(CO);
  constexpr int N = 8;
  std::latch Go(N);
  std::vector<std::shared_ptr<const CompiledProgram>> Got(N);
  std::vector<std::thread> Threads;
  for (int T = 0; T < N; ++T)
    Threads.emplace_back([&, T] {
      Go.arrive_and_wait();
      auto L = Reg.getOrCompile(ProgA, "a");
      ASSERT_TRUE(L.isOk()) << L.message();
      Got[T] = L->Prog;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Reg.misses(), 1u);
  EXPECT_EQ(Reg.hits(), static_cast<uint64_t>(N - 1));
  for (const auto &P : Got)
    EXPECT_EQ(P.get(), Got[0].get());
}

//===----------------------------------------------------------------------===//
// Warm instantiate: the shared object is resolved once per CompiledProgram.
// These use the host compiler but run the generated code sequentially, so
// they stay in the serve_tsan run, which checks the load memo.
//===----------------------------------------------------------------------===//

namespace {

/// A native program whose artifacts persist across runs of this suite, so
/// only the first run pays the host compile.
Result<CompiledProgram> compileWarmProgram() {
  CompileOptions CO;
  CO.Eng = Engine::Native;
  CO.WorkDir = (std::filesystem::temp_directory_path() /
                "diderot-serve-test-warm-instantiate")
                   .string();
  return compileString(ProgA, CO, "warm");
}

/// Load-path counters: each resolution of a shared object bumps one.
uint64_t nativeLoads() {
  codegen::NativeCacheStats S = codegen::nativeCacheStats();
  return S.MemHits + S.DiskHits + S.HostCompiles;
}

std::vector<double> runToOutput(rt::ProgramInstance &I) {
  std::vector<double> Out;
  EXPECT_TRUE(I.setInputReal("bias", 0.5).isOk());
  EXPECT_TRUE(I.initialize().isOk());
  EXPECT_TRUE(I.run(100, 0).isOk());
  EXPECT_TRUE(I.getOutput("v", Out).isOk());
  return Out;
}

} // namespace

TEST(WarmInstantiate, LaterInstancesSkipTheLoader) {
  Result<CompiledProgram> CP = compileWarmProgram();
  ASSERT_TRUE(CP.isOk()) << CP.message();
  Result<std::unique_ptr<rt::ProgramInstance>> First = CP->instantiate();
  ASSERT_TRUE(First.isOk()) << First.message();
  std::vector<double> Want = runToOutput(**First);
  ASSERT_EQ(Want.size(), 8u);
  codegen::NativeCacheStats Before = codegen::nativeCacheStats();
  for (int R = 0; R < 100; ++R) {
    Result<std::unique_ptr<rt::ProgramInstance>> I = CP->instantiate();
    ASSERT_TRUE(I.isOk()) << I.message();
    ASSERT_EQ(runToOutput(**I), Want) << "instance " << R;
  }
  codegen::NativeCacheStats After = codegen::nativeCacheStats();
  EXPECT_EQ(After.MemHits, Before.MemHits);
  EXPECT_EQ(After.DiskHits, Before.DiskHits);
  EXPECT_EQ(After.HostCompiles, Before.HostCompiles);
}

TEST(WarmInstantiate, ConcurrentFirstInstantiatesLoadOnce) {
  Result<CompiledProgram> CP = compileWarmProgram();
  ASSERT_TRUE(CP.isOk()) << CP.message();
  uint64_t LoadsBefore = nativeLoads();
  constexpr int N = 8;
  std::latch Go(N);
  std::vector<std::vector<double>> Outs(N);
  std::vector<std::thread> Threads;
  for (int T = 0; T < N; ++T)
    Threads.emplace_back([&, T] {
      Go.arrive_and_wait();
      Result<std::unique_ptr<rt::ProgramInstance>> I = CP->instantiate();
      ASSERT_TRUE(I.isOk()) << I.message();
      Outs[T] = runToOutput(**I);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(nativeLoads() - LoadsBefore, 1u);
  ASSERT_EQ(Outs[0].size(), 8u);
  for (const std::vector<double> &O : Outs)
    EXPECT_EQ(O, Outs[0]);
}

//===----------------------------------------------------------------------===//
// Cache keys (the satellite: late differences must change the key)
//===----------------------------------------------------------------------===//

TEST(CacheKey, SourcesDifferingLateGetDistinctKeys) {
  // Two multi-kilobyte sources identical except for the very last byte —
  // the class of collision the old std::hash<size_t> key could not rule
  // out and a content hash must.
  std::string Base(8192, 'x');
  CompileOptions Opts;
  std::string A = Base + "1";
  std::string B = Base + "2";
  EXPECT_NE(codegen::programCacheKey(A, Opts).hex(),
            codegen::programCacheKey(B, Opts).hex());
}

TEST(CacheKey, OptionsChangeKey) {
  CompileOptions Base;
  CompileOptions Dbl = Base;
  Dbl.DoublePrecision = true;
  CompileOptions Flags = Base;
  Flags.ExtraCxxFlags = "-ffast-math";
  CompileOptions NoVn = Base;
  NoVn.EnableValueNumbering = false;
  std::string Src = "strand S (int i) { update { stabilize; } }";
  auto K = [&](const CompileOptions &O) {
    return codegen::programCacheKey(Src, O).hex();
  };
  EXPECT_NE(K(Base), K(Dbl));
  EXPECT_NE(K(Base), K(Flags));
  EXPECT_NE(K(Base), K(NoVn));
  EXPECT_EQ(K(Base), K(CompileOptions{}));
}

TEST(CacheKey, KeyIsStableAndWellFormed) {
  CompileOptions Opts;
  std::string K1 = codegen::programCacheKey("prog", Opts).hex();
  std::string K2 = codegen::programCacheKey("prog", Opts).hex();
  EXPECT_EQ(K1, K2);
  ASSERT_EQ(K1.size(), 32u);
  for (char C : K1)
    EXPECT_TRUE((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f'));
}

TEST(CacheKey, RuntimeHeaderEditChangesKey) {
  // The generated C++ only #includes the prelude, so the key must cover the
  // prelude's include closure: a warm cache must not keep serving objects
  // built against an edited runtime header.
  namespace fs = std::filesystem;
  fs::path Src = fs::path(__FILE__).parent_path().parent_path() / "src";
  std::vector<std::string> Closure = codegen::runtimeHeaderClosure(Src);
  for (const char *H : {"runtime/native_prelude.h", "runtime/scheduler.h",
                        "observe/recorder.h", "observe/metrics.h",
                        "observe/fault.h", "observe/digest.h",
                        "observe/profiler.h", "support/hash.h",
                        "tensor/eigen_raw.h"})
    EXPECT_NE(std::find(Closure.begin(), Closure.end(), H), Closure.end())
        << H << " missing from the runtime header closure";
  CompileOptions Opts;
  // The two-argument key hashes the configured source tree's closure.
  EXPECT_EQ(codegen::programCacheKey("prog", Opts).hex(),
            codegen::programCacheKey("prog", Opts,
                                     codegen::runtimeHeaderDigest(Src))
                .hex());

  fs::path Tmp = fs::temp_directory_path() /
                 ("diderot-runtime-closure-" + std::to_string(::getpid()));
  for (const std::string &Rel : Closure) {
    fs::create_directories((Tmp / Rel).parent_path());
    fs::copy_file(Src / Rel, Tmp / Rel, fs::copy_options::overwrite_existing);
  }
  auto Key = [&] {
    return codegen::programCacheKey("prog", Opts,
                                    codegen::runtimeHeaderDigest(Tmp))
        .hex();
  };
  std::string Before = Key();
  EXPECT_EQ(Before, codegen::programCacheKey("prog", Opts).hex());
  for (const char *Rel : {"runtime/scheduler.h", "support/hash.h"}) {
    // Flip one byte, then restore it.
    fs::path P = Tmp / Rel;
    std::string Text;
    {
      std::ifstream In(P, std::ios::binary);
      Text.assign(std::istreambuf_iterator<char>(In), {});
    }
    ASSERT_FALSE(Text.empty());
    std::string Edited = Text;
    Edited.back() = Edited.back() == ' ' ? '\t' : ' ';
    std::ofstream(P, std::ios::binary | std::ios::trunc) << Edited;
    EXPECT_NE(Key(), Before) << "one-byte edit of " << Rel;
    std::ofstream(P, std::ios::binary | std::ios::trunc) << Text;
    EXPECT_EQ(Key(), Before);
  }
  fs::remove_all(Tmp);
}

//===----------------------------------------------------------------------===//
// Daemon HTTP API (interp engine — native covered by *Native* tests)
//===----------------------------------------------------------------------===//

TEST(Daemon, CompileIsCachedOnSecondPost) {
  serve::Daemon D;
  ASSERT_TRUE(D.start(interpOptions(tempDir("compile"))).isOk());
  Reply R1 = httpDo(D.port(), "POST", "/compile", ProgA,
                    {{"X-Diderot-Program", "a"}});
  EXPECT_EQ(R1.Code, 200) << R1.Raw;
  EXPECT_EQ(jsonField(R1.Body, "cached"), "false");
  Reply R2 = httpDo(D.port(), "POST", "/compile", ProgA);
  EXPECT_EQ(R2.Code, 200);
  EXPECT_EQ(jsonField(R2.Body, "cached"), "true");
  EXPECT_EQ(jsonField(R1.Body, "key"), jsonField(R2.Body, "key"));
  Reply Bad = httpDo(D.port(), "POST", "/compile", "strand { nope");
  EXPECT_EQ(Bad.Code, 400);
  EXPECT_EQ(httpDo(D.port(), "GET", "/compile").Code, 405);
  D.stop();
}

TEST(Daemon, RunMatchesGoldenDirectRun) {
  serve::DaemonOptions O = interpOptions(tempDir("golden"));
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  std::string Job = runAndWait(D.port(), ProgA,
                               {{"X-Diderot-Input", "bias=0.5"}});
  EXPECT_EQ(jsonField(Job, "state"), "done");
  EXPECT_EQ(jsonField(Job, "outcome"), "converged");
  std::vector<double> Served = fetchOutput(D.port(), Job);
  Result<CompiledProgram> CP =
      compileString(ProgA, O.Compile, "golden");
  ASSERT_TRUE(CP.isOk());
  auto I = CP->instantiate();
  ASSERT_TRUE(I.isOk());
  ASSERT_TRUE((*I)->setInputReal("bias", 0.5).isOk());
  ASSERT_TRUE((*I)->initialize().isOk());
  ASSERT_TRUE((*I)->run(100, 0).isOk());
  std::vector<double> Golden;
  ASSERT_TRUE((*I)->getOutput("v", Golden).isOk());
  ASSERT_EQ(Served.size(), Golden.size());
  for (size_t K = 0; K < Golden.size(); ++K)
    EXPECT_DOUBLE_EQ(Served[K], Golden[K]) << "sample " << K;
  D.stop();
}

TEST(Daemon, ServesDistinctProgramsConcurrently) {
  serve::DaemonOptions O = interpOptions(tempDir("mixed"));
  O.JobWorkers = 4;
  O.HttpThreads = 8;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  std::vector<double> GoldA = goldenRun(ProgA, O.Compile);
  std::vector<double> GoldB = goldenRun(ProgB, O.Compile);
  ASSERT_FALSE(GoldA.empty());
  ASSERT_NE(GoldA, GoldB);

  std::atomic<int> Failures{0};
  std::vector<std::thread> Clients;
  for (int T = 0; T < 6; ++T)
    Clients.emplace_back([&, T] {
      // Threads interleave identical and distinct programs.
      const std::string Src = (T % 2) ? ProgB : ProgA;
      const std::vector<double> &Gold = (T % 2) ? GoldB : GoldA;
      for (int R = 0; R < 3; ++R) {
        std::string Job = runAndWait(D.port(), Src);
        if (jsonField(Job, "state") != "done") {
          ++Failures;
          continue;
        }
        std::vector<double> Got = fetchOutput(D.port(), Job);
        if (Got != Gold)
          ++Failures;
      }
    });
  for (std::thread &C : Clients)
    C.join();
  EXPECT_EQ(Failures.load(), 0);
  // 18 jobs over 2 distinct programs: exactly 2 registry misses.
  serve::Daemon::Counters C = D.counters();
  EXPECT_EQ(C.JobsDone, 18u);
  EXPECT_EQ(C.CacheMisses, 2u);
  EXPECT_GE(C.CacheHits, 16u);
  D.stop();
}

TEST(Daemon, DeadlineJobReportsDeadlineOutcome) {
  serve::Daemon D;
  ASSERT_TRUE(D.start(interpOptions(tempDir("deadline"))).isOk());
  std::string Job = runAndWait(D.port(), ProgSpin,
                               {{"X-Diderot-Steps", "100000000"},
                                {"X-Diderot-Deadline-Ms", "100"}});
  EXPECT_EQ(jsonField(Job, "state"), "done");
  EXPECT_EQ(jsonField(Job, "outcome"), "deadline");
  D.stop();
}

TEST(Daemon, FullQueueRejectsWith429) {
  serve::DaemonOptions O = interpOptions(tempDir("full"));
  O.QueueCapacity = 0; // every submit is shed
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  Reply R = httpDo(D.port(), "POST", "/run", ProgA);
  EXPECT_EQ(R.Code, 429) << R.Raw;
  EXPECT_EQ(D.counters().JobsRejected, 1u);
  // The rejected job must not linger in the job table.
  EXPECT_EQ(httpDo(D.port(), "GET", "/jobs/j-1").Code, 404);
  D.stop();
}

TEST(Daemon, JobErrorsAndUnknownRoutes) {
  serve::Daemon D;
  ASSERT_TRUE(D.start(interpOptions(tempDir("errors"))).isOk());
  EXPECT_EQ(httpDo(D.port(), "GET", "/jobs/nope").Code, 404);
  EXPECT_EQ(httpDo(D.port(), "GET", "/nothing").Code, 404);
  EXPECT_EQ(httpDo(D.port(), "POST", "/run", "").Code, 400);
  Reply BadInput = httpDo(D.port(), "POST", "/run", ProgA,
                          {{"X-Diderot-Input", "no-equals-sign"}});
  EXPECT_EQ(BadInput.Code, 400);
  // A job that fails at input binding: state failed, output gives 409.
  std::string Job = runAndWait(D.port(), ProgA,
                               {{"X-Diderot-Input", "nosuch=1"}});
  EXPECT_EQ(jsonField(Job, "state"), "failed");
  EXPECT_NE(jsonField(Job, "error").find("nosuch"), std::string::npos);
  std::string Id = jsonField(Job, "job");
  EXPECT_EQ(httpDo(D.port(), "GET", "/jobs/" + Id + "/output").Code, 409);
  D.stop();
}

TEST(Daemon, MetricsExposeDaemonCounters) {
  serve::Daemon D;
  ASSERT_TRUE(D.start(interpOptions(tempDir("metrics"))).isOk());
  runAndWait(D.port(), ProgA);
  runAndWait(D.port(), ProgA);
  Reply M = httpDo(D.port(), "GET", "/metrics");
  EXPECT_EQ(M.Code, 200);
  for (const char *Series :
       {"diderot_daemon_cache_hits_total", "diderot_daemon_cache_misses_total",
        "diderot_daemon_queue_depth", "diderot_daemon_jobs_inflight",
        "diderot_daemon_jobs_total{state=\"done\"} 2",
        "diderot_daemon_run_seconds_count 2",
        "diderot_daemon_native_host_compiles_total"})
    EXPECT_NE(M.Body.find(Series), std::string::npos) << Series;
  D.stop();
}

TEST(Daemon, StampEnvMetaExportsCacheHitRate) {
  ::unsetenv("DIDEROT_DAEMON_CACHE_HIT_RATE");
  ::unsetenv("DIDEROT_DAEMON_QUEUE_DEPTH");
  serve::Daemon D;
  ASSERT_TRUE(D.start(interpOptions(tempDir("stamp"))).isOk());
  runAndWait(D.port(), ProgA); // miss
  runAndWait(D.port(), ProgA); // hit
  D.stampEnvMeta();
  const char *Rate = std::getenv("DIDEROT_DAEMON_CACHE_HIT_RATE");
  const char *Depth = std::getenv("DIDEROT_DAEMON_QUEUE_DEPTH");
  ASSERT_NE(Rate, nullptr);
  ASSERT_NE(Depth, nullptr);
  EXPECT_DOUBLE_EQ(std::atof(Rate), 0.5);
  EXPECT_STREQ(Depth, "0");
  D.stop();
}

//===----------------------------------------------------------------------===//
// Cache directory helpers
//===----------------------------------------------------------------------===//

TEST(CompileCache, DefaultCacheDirHonorsEnv) {
  ::setenv("DIDEROT_CACHE_DIR", "/tmp/custom-diderot-cache", 1);
  EXPECT_EQ(serve::defaultCacheDir(), "/tmp/custom-diderot-cache");
  ::unsetenv("DIDEROT_CACHE_DIR");
  EXPECT_NE(serve::defaultCacheDir().find("diderot-cpp"), std::string::npos);
}

TEST(CompileCache, ReadCacheIndexSkipsMalformedLines) {
  std::string Dir = tempDir("index");
  {
    std::string Key(32, 'a');
    std::ofstream Out(std::filesystem::path(Dir) /
                      codegen::cacheIndexFile());
    Out << Key << "\tiso\t1700000000000\tg++ host=12\n";
    Out << "short-key\tx\t0\tcc\n"; // skipped: key not 32 hex chars
    Out << "not a tsv line\n";      // skipped: too few columns
  }
  std::vector<serve::CacheEntry> E = serve::readCacheIndex(Dir);
  ASSERT_EQ(E.size(), 1u);
  EXPECT_EQ(E[0].Key, std::string(32, 'a'));
  EXPECT_EQ(E[0].Program, "iso");
  EXPECT_EQ(E[0].UnixMs, 1700000000000ll);
  EXPECT_EQ(E[0].CompilerId, "g++ host=12");
  EXPECT_TRUE(serve::readCacheIndex(tempDir("empty-index")).empty());
}

//===----------------------------------------------------------------------===//
// Native engine: the on-disk content-addressed cache
//===----------------------------------------------------------------------===//

TEST(DaemonNative, WarmCacheSurvivesPoisonedCompiler) {
  // The acceptance test for compile-once-serve-many: after warm-up, break
  // the host compiler; a warm POST /run must still succeed with zero new
  // host-compiler invocations, and a *cold* program must fail — proving
  // the poison was real, not ignored.
  std::string Cache = tempDir("poison");
  serve::DaemonOptions O;
  O.Compile.Eng = Engine::Native;
  O.Compile.WorkDir = Cache;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  Reply Warm = httpDo(D.port(), "POST", "/compile", ProgA);
  ASSERT_EQ(Warm.Code, 200) << Warm.Raw;
  uint64_t CompilesAfterWarmup = codegen::nativeCacheStats().HostCompiles;

  ::setenv("DIDEROT_CXX", "/nonexistent/poisoned-cxx", 1);
  std::string Job = runAndWait(D.port(), ProgA);
  EXPECT_EQ(jsonField(Job, "state"), "done") << Job;
  EXPECT_EQ(jsonField(Job, "outcome"), "converged");
  EXPECT_EQ(codegen::nativeCacheStats().HostCompiles, CompilesAfterWarmup)
      << "warm run must not invoke the host compiler";

  // The poison must bite a never-seen program (otherwise the assertion
  // above proves nothing).
  std::string Cold = runAndWait(D.port(), ProgB);
  EXPECT_EQ(jsonField(Cold, "state"), "failed") << Cold;
  ::unsetenv("DIDEROT_CXX");
  D.stop();
}

TEST(DaemonNative, CacheDirHoldsContentAddressedArtifacts) {
  std::string Cache = tempDir("artifacts");
  serve::DaemonOptions O;
  O.Compile.Eng = Engine::Native;
  O.Compile.WorkDir = Cache;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  Reply R = httpDo(D.port(), "POST", "/compile", ProgA,
                   {{"X-Diderot-Program", "prog-a"}});
  ASSERT_EQ(R.Code, 200) << R.Raw;

  // The .so is named by the *generated C++* key (not the source key in the
  // reply), so find it via the index the loader appended.
  std::vector<serve::CacheEntry> Index = serve::readCacheIndex(Cache);
  ASSERT_EQ(Index.size(), 1u);
  EXPECT_EQ(Index[0].Program, "prog-a");
  EXPECT_EQ(Index[0].CompilerId, codegen::hostCompilerId());
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(Cache) /
                                      ("ddr-" + Index[0].Key + ".so")));
  D.stop();
}

//===----------------------------------------------------------------------===//
// Admission control: shed headers, graceful drain, queued-deadline expiry
//===----------------------------------------------------------------------===//

TEST(Daemon, ShedResponsesCarryRetryAfterAndQueueDepth) {
  serve::DaemonOptions O = interpOptions(tempDir("shed-headers"));
  O.QueueCapacity = 0; // every submit is shed with 429
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  Reply R = httpDo(D.port(), "POST", "/run", ProgA);
  EXPECT_EQ(R.Code, 429) << R.Raw;
  EXPECT_NE(R.Raw.find("Retry-After:"), std::string::npos) << R.Raw;
  EXPECT_NE(R.Raw.find("X-Diderot-Queue-Depth:"), std::string::npos) << R.Raw;
  D.stop();
}

TEST(Daemon, DrainingRefusesNewWorkButKeepsGets) {
  serve::DaemonOptions O = interpOptions(tempDir("drain-gate"));
  O.DrainMs = 1000;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  std::string Done = runAndWait(D.port(), ProgA);
  std::string Id = jsonField(Done, "job");

  EXPECT_FALSE(D.draining());
  D.beginDrain();
  D.beginDrain(); // idempotent
  EXPECT_TRUE(D.draining());

  // POSTs are shed with the full retry contract. The hint must outlast
  // the drain window itself — when DrainMs expires the process exits, so
  // a client told to retry at exactly DrainMs would hit a dead socket.
  // DrainMs 1000 + 5 s restart slack = 6 s.
  Reply R = httpDo(D.port(), "POST", "/run", ProgA);
  EXPECT_EQ(R.Code, 503) << R.Raw;
  EXPECT_NE(R.Raw.find("Retry-After: 6\r\n"), std::string::npos) << R.Raw;
  EXPECT_EQ(httpDo(D.port(), "POST", "/compile", ProgA).Code, 503);

  // ...while polls, health, and metrics keep answering so clients can
  // collect results during the drain window.
  EXPECT_EQ(httpDo(D.port(), "GET", "/jobs/" + Id).Code, 200);
  Reply H = httpDo(D.port(), "GET", "/healthz");
  EXPECT_EQ(H.Code, 200);
  EXPECT_NE(H.Body.find("\"status\":\"draining\""), std::string::npos)
      << H.Body;
  Reply M = httpDo(D.port(), "GET", "/metrics");
  EXPECT_EQ(M.Code, 200);
  EXPECT_NE(M.Body.find("diderot_daemon_draining 1"), std::string::npos);

  EXPECT_TRUE(D.drainAndStop()); // nothing queued: drains immediately
}

TEST(Daemon, DrainAndStopLetsRunningJobsFinish) {
  serve::DaemonOptions O = interpOptions(tempDir("drain-finish"));
  O.JobWorkers = 1;
  O.DrainMs = 10000;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  // A job that spins until its 300 ms deadline: long enough that the drain
  // below overlaps it, short enough that it finishes well inside DrainMs.
  Reply R = httpDo(D.port(), "POST", "/run", ProgSpin,
                   {{"X-Diderot-Steps", "100000000"},
                    {"X-Diderot-Deadline-Ms", "300"}});
  ASSERT_EQ(R.Code, 202) << R.Raw;

  EXPECT_TRUE(D.drainAndStop());
  serve::Daemon::Counters C = D.counters();
  EXPECT_EQ(C.JobsDone, 1u);   // the running job finished, not cancelled
  EXPECT_EQ(C.JobsFailed, 0u);
  EXPECT_EQ(C.QueueDepth, 0);
}

TEST(Daemon, DrainBudgetExhaustedCancelsQueuedJobsNotRunningOnes) {
  serve::DaemonOptions O = interpOptions(tempDir("drain-exhaust"));
  O.JobWorkers = 1;
  O.DrainMs = 50; // far less than the running job needs
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  // One job occupies the single worker for ~1 s; a second waits behind it.
  ASSERT_EQ(httpDo(D.port(), "POST", "/run", ProgSpin,
                   {{"X-Diderot-Steps", "100000000"},
                    {"X-Diderot-Deadline-Ms", "1000"}})
                .Code,
            202);
  ASSERT_EQ(httpDo(D.port(), "POST", "/run", ProgA).Code, 202);

  EXPECT_FALSE(D.drainAndStop()); // the budget cannot cover the running job
  serve::Daemon::Counters C = D.counters();
  // The running job was allowed to finish; the queued one was resolved
  // through the cancellation path — nothing is left parked in "queued".
  EXPECT_EQ(C.JobsDone, 1u);
  EXPECT_EQ(C.JobsFailed, 1u);
  EXPECT_EQ(C.QueueDepth, 0);
  EXPECT_EQ(C.JobsInFlight, 0);
}

TEST(Daemon, DeadlineSpentInQueueFailsFastBeforeRunning) {
  serve::DaemonOptions O = interpOptions(tempDir("queued-deadline"));
  O.JobWorkers = 1;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  // Occupy the only worker for ~400 ms...
  ASSERT_EQ(httpDo(D.port(), "POST", "/run", ProgSpin,
                   {{"X-Diderot-Steps", "100000000"},
                    {"X-Diderot-Deadline-Ms", "400"}})
                .Code,
            202);
  // ...then queue a job whose whole 50 ms deadline will elapse while it
  // waits. It must fail fast at dequeue — before instantiate — with a
  // typed DeadlineExceeded error, not run with a budget it no longer has.
  std::string Job = runAndWait(D.port(), ProgA,
                               {{"X-Diderot-Deadline-Ms", "50"}});
  EXPECT_EQ(jsonField(Job, "state"), "failed") << Job;
  EXPECT_NE(jsonField(Job, "error").find("DeadlineExceeded"),
            std::string::npos)
      << Job;
  EXPECT_NE(jsonField(Job, "error").find("while queued"), std::string::npos);
  EXPECT_EQ(D.counters().DeadlineExpired, 1u);
  D.stop();
}

//===----------------------------------------------------------------------===//
// Compile circuit breaker (interp engine: deterministic frontend errors)
//===----------------------------------------------------------------------===//

TEST(Daemon, BreakerOpensAfterRepeatedCompileFailures) {
  serve::DaemonOptions O = interpOptions(tempDir("breaker-open"));
  O.BreakerThreshold = 2;
  O.BreakerOpenMs = 60000; // long: this test never waits out the cooldown
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  const char *Broken = "strand S (int i) { this does not parse }";
  // The first two failures are real compile attempts answered 400...
  EXPECT_EQ(httpDo(D.port(), "POST", "/run", Broken).Code, 400);
  EXPECT_EQ(httpDo(D.port(), "POST", "/run", Broken).Code, 400);
  // ...the third is denied by the now-open breaker without compiling.
  Reply R = httpDo(D.port(), "POST", "/run", Broken);
  EXPECT_EQ(R.Code, 503) << R.Raw;
  EXPECT_NE(R.Raw.find("Retry-After:"), std::string::npos) << R.Raw;
  EXPECT_NE(R.Body.find("breaker"), std::string::npos) << R.Body;
  // /compile for the same program is covered by the same breaker.
  EXPECT_EQ(httpDo(D.port(), "POST", "/compile", Broken).Code, 503);

  serve::Daemon::Counters C = D.counters();
  EXPECT_EQ(C.BreakerTrips, 1u);
  EXPECT_EQ(C.BreakerDenied, 2u);
  EXPECT_EQ(C.BreakerOpen, 1);

  // A healthy program is not affected — breakers are per key.
  EXPECT_EQ(jsonField(runAndWait(D.port(), ProgA), "state"), "done");

  Reply H = httpDo(D.port(), "GET", "/healthz");
  EXPECT_NE(H.Body.find("\"breakerOpen\":1"), std::string::npos) << H.Body;
  Reply M = httpDo(D.port(), "GET", "/metrics");
  EXPECT_NE(M.Body.find("diderot_daemon_compile_breaker_state"),
            std::string::npos);
  EXPECT_NE(M.Body.find("diderot_daemon_breaker_trips_total 1"),
            std::string::npos);
  D.stop();
}

//===----------------------------------------------------------------------===//
// Native engine: supervised compiles, timeout containment, recovery, LRU
//===----------------------------------------------------------------------===//

namespace {

/// Install an executable fake-compiler script and point DIDEROT_CXX at it.
std::string plantFakeCxx(const std::string &Dir, const std::string &Body) {
  std::string Path = Dir + "/fake-cxx.sh";
  {
    std::ofstream Out(Path);
    Out << "#!/bin/sh\n" << Body;
  }
  std::filesystem::permissions(Path,
                               std::filesystem::perms::owner_all |
                                   std::filesystem::perms::group_read |
                                   std::filesystem::perms::others_read);
  return Path;
}

} // namespace

TEST(DaemonNative, HungCompilerIsKilledAtTheTimeoutAndTheWorkerSurvives) {
  std::string Cache = tempDir("hung-cxx");
  const char *Warm = R"(
strand S (int i) {
  output real v = real(i);
  update { v = v * 7.0; stabilize; }
}
initially [ S(i) | i in 0 .. 7 ];
)";
  // Pre-warm one program's artifact under the default (generous) compile
  // timeout, so the recovery phase below never needs a real host compile —
  // under a loaded ctest run a second real compile could itself outlast
  // the tight 10 s budget we are about to configure.
  {
    serve::DaemonOptions O;
    O.Compile.Eng = Engine::Native;
    O.Compile.WorkDir = Cache;
    serve::Daemon D;
    ASSERT_TRUE(D.start(O).isOk());
    Reply R = httpDo(D.port(), "POST", "/compile", Warm);
    ASSERT_EQ(R.Code, 200) << R.Raw;
    D.stop();
  }

  serve::DaemonOptions O;
  O.Compile.Eng = Engine::Native;
  O.Compile.WorkDir = Cache;
  O.Compile.HostCompileTimeoutMs = 10000;
  O.Compile.HostCompileRetries = 0;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  // A compiler that wedges (and spawns a child of its own, so only a
  // process-group kill can clean it up). The hung program is distinct from
  // the warm one, so it misses the cache and must invoke the compiler.
  ::setenv("DIDEROT_CXX", plantFakeCxx(Cache, "sleep 600 &\nwait\n").c_str(),
           1);
  const char *Hung = R"(
strand S (int i) {
  output real v = real(i);
  update { v = v * 19.0; stabilize; }
}
initially [ S(i) | i in 0 .. 7 ];
)";
  uint64_t TimeoutsBefore = codegen::nativeCacheStats().CompileTimeouts;
  auto T0 = std::chrono::steady_clock::now();
  // POST /compile builds the .so synchronously, so the timeout surfaces in
  // the response itself.
  Reply R = httpDo(D.port(), "POST", "/compile", Hung);
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  // The compile was killed at its 10 s budget — not after sleep(600).
  EXPECT_EQ(R.Code, 400) << R.Raw;
  EXPECT_NE(R.Body.find("timed out"), std::string::npos) << R.Body;
  EXPECT_GE(ElapsedMs, 10000);
  EXPECT_LT(ElapsedMs, 60000);
  EXPECT_EQ(codegen::nativeCacheStats().CompileTimeouts, TimeoutsBefore + 1);
  ::unsetenv("DIDEROT_CXX");

  // The worker is reusable: the same daemon serves the pre-warmed program
  // to completion (a disk hit — no host compile involved).
  std::string Job = runAndWait(D.port(), Warm);
  EXPECT_EQ(jsonField(Job, "state"), "done") << Job;

  Reply M = httpDo(D.port(), "GET", "/metrics");
  EXPECT_NE(M.Body.find("diderot_daemon_compile_timeouts_total"),
            std::string::npos);
  D.stop();
}

TEST(DaemonNative, BreakerClosesAfterAHalfOpenProbeSucceeds) {
  std::string Cache = tempDir("breaker-probe");
  serve::DaemonOptions O;
  O.Compile.Eng = Engine::Native;
  O.Compile.WorkDir = Cache;
  O.BreakerThreshold = 1;
  O.BreakerOpenMs = 300;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  const char *Prog = R"(
strand S (int i) {
  output real v = real(i);
  update { v = v * 11.0; stabilize; }
}
initially [ S(i) | i in 0 .. 7 ];
)";
  // Poisoned compiler: the first attempt fails and (threshold 1) trips the
  // breaker; the second is denied fast without touching the compiler.
  // (/compile builds the .so synchronously — the failure is in-band.)
  ::setenv("DIDEROT_CXX", "/nonexistent/poisoned-cxx", 1);
  uint64_t CompilesBefore = codegen::nativeCacheStats().HostCompiles;
  EXPECT_EQ(httpDo(D.port(), "POST", "/compile", Prog).Code, 400);
  EXPECT_EQ(httpDo(D.port(), "POST", "/compile", Prog).Code, 503);
  EXPECT_EQ(codegen::nativeCacheStats().HostCompiles, CompilesBefore + 1)
      << "the denied request must not consume a compile attempt";
  EXPECT_EQ(D.counters().BreakerOpen, 1);

  // Heal the compiler, wait out the cooldown: the next request is the
  // single half-open probe, succeeds, and closes the breaker.
  ::unsetenv("DIDEROT_CXX");
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  std::string Job = runAndWait(D.port(), Prog);
  EXPECT_EQ(jsonField(Job, "state"), "done") << Job;
  serve::Daemon::Counters C = D.counters();
  EXPECT_EQ(C.BreakerOpen, 0);
  EXPECT_EQ(C.BreakerTrips, 1u);
  D.stop();
}

TEST(DaemonNative, AbandonedHalfOpenProbeDoesNotJamTheBreaker) {
  std::string Cache = tempDir("breaker-abandon");
  serve::DaemonOptions O;
  O.Compile.Eng = Engine::Native;
  O.Compile.WorkDir = Cache;
  O.BreakerThreshold = 1;
  O.BreakerOpenMs = 300;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  const char *Prog = R"(
strand S (int i) {
  output real v = real(i);
  update { v = v * 23.0; stabilize; }
}
initially [ S(i) | i in 0 .. 7 ];
)";
  // Trip the breaker with a poisoned compiler (threshold 1).
  ::setenv("DIDEROT_CXX", "/nonexistent/poisoned-cxx", 1);
  ASSERT_EQ(httpDo(D.port(), "POST", "/compile", Prog).Code, 400);
  ASSERT_EQ(D.counters().BreakerOpen, 1);

  // Cooldown over: the next /run is admitted as the single half-open
  // probe — but it 400s on a malformed limit header before any compile
  // verdict exists. The probe must be released, not leaked: before the
  // fix the breaker stayed jammed, denying this key 503 forever.
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  Reply Bad = httpDo(D.port(), "POST", "/run", Prog,
                     {{"X-Diderot-Steps", "banana"}});
  EXPECT_EQ(Bad.Code, 400) << Bad.Raw;

  // Still admitted (another malformed request, another release)...
  Bad = httpDo(D.port(), "POST", "/run", Prog,
               {{"X-Diderot-Deadline-Ms", "-1"}});
  EXPECT_EQ(Bad.Code, 400) << Bad.Raw;

  // ...and with the compiler healed, a well-formed request probes,
  // succeeds, and closes the breaker.
  ::unsetenv("DIDEROT_CXX");
  std::string Job = runAndWait(D.port(), Prog);
  EXPECT_EQ(jsonField(Job, "state"), "done") << Job;
  EXPECT_EQ(D.counters().BreakerOpen, 0);
  D.stop();
}

TEST(DaemonNative, LruCapEvictsTheColdestArtifact) {
  std::string Cache = tempDir("lru-cap");
  serve::DaemonOptions O;
  O.Compile.Eng = Engine::Native;
  O.Compile.WorkDir = Cache;
  O.Compile.CacheMaxBytes = 1; // every compile evicts everything unprotected
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  const char *ProgOld = R"(
strand S (int i) {
  output real v = real(i);
  update { v = v * 13.0; stabilize; }
}
initially [ S(i) | i in 0 .. 7 ];
)";
  const char *ProgNew = R"(
strand S (int i) {
  output real v = real(i);
  update { v = v * 17.0; stabilize; }
}
initially [ S(i) | i in 0 .. 7 ];
)";
  uint64_t EvictedBefore = codegen::nativeCacheStats().Evicted;
  ASSERT_EQ(httpDo(D.port(), "POST", "/compile", ProgOld).Code, 200);
  // The just-installed artifact is protected from its own enforcement pass.
  auto CountSo = [&] {
    int N = 0;
    for (const auto &E : std::filesystem::directory_iterator(Cache))
      if (E.path().extension() == ".so")
        ++N;
    return N;
  };
  EXPECT_EQ(CountSo(), 1);
  ASSERT_EQ(httpDo(D.port(), "POST", "/compile", ProgNew).Code, 200);
  // The second compile's enforcement evicted the first (cold, unprotected).
  EXPECT_EQ(CountSo(), 1);
  EXPECT_GT(codegen::nativeCacheStats().Evicted, EvictedBefore);
  D.stop();
}

} // namespace diderot
