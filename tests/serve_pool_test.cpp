//===--- tests/serve_pool_test.cpp - parallel job runs through the daemon ----===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// The serving-side face of the persistent StrandPool: a daemon configured
// with --run-workers N >= 1 runs its jobs on the pool, repeated /run jobs
// reuse the parked threads instead of growing the pool, concurrent jobs
// take turns on it, and the run-limit headers that used to go through
// bare atoi now 400 on malformed values. Interp-engine only, so
// the whole file also compiles into the serve_pool_tsan target (the runs
// execute in-process, on the host's own pool singleton — which is exactly
// what lets these tests observe the thread count directly).
//
//===----------------------------------------------------------------------===//

#include "serve/daemon.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
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

#include "nrrd/nrrd.h"
#include "runtime/scheduler.h"

namespace diderot {
namespace {

/// Four 4096-strand work-list blocks (the daemon runs with the default
/// block size), so a 4-worker run leases every worker and a 2-worker run
/// has two blocks per deque; strand i stabilizes after (i % 4) + 1 updates.
const char *PoolProg = R"(
strand S (int i) {
  int it = 0;
  output real v = real(i);
  update {
    it += 1;
    v = v + 1.0;
    if (it > i - (i / 4) * 4) stabilize;
  }
}
initially [ S(i) | i in 0 .. 16383 ];
)";

std::string tempDir(const char *Tag) {
  auto P = std::filesystem::temp_directory_path() /
           (std::string("diderot-serve-pool-test-") + Tag + "-" +
            std::to_string(::getpid()));
  std::filesystem::create_directories(P);
  return P.string();
}

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

std::string runAndWait(int Port, const std::string &Src,
                       std::vector<std::pair<std::string, std::string>>
                           Headers = {}) {
  Reply R = httpDo(Port, "POST", "/run", Src, Headers);
  EXPECT_EQ(R.Code, 202) << R.Raw;
  std::string Id = jsonField(R.Body, "job");
  EXPECT_FALSE(Id.empty());
  for (int Tries = 0; Tries < 600; ++Tries) {
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

serve::DaemonOptions pooledOptions(const std::string &CacheDir,
                                   int RunWorkers = 4) {
  serve::DaemonOptions O;
  O.Compile.Eng = Engine::Interp;
  O.Compile.WorkDir = CacheDir;
  O.RunWorkers = RunWorkers;
  return O;
}

/// Fetch a finished job's output and decode the NRRD samples.
std::vector<double> fetchOutput(int Port, const std::string &JobJson) {
  std::vector<double> Out;
  Reply R = httpDo(Port, "GET", "/jobs/" + jsonField(JobJson, "job") +
                                    "/output");
  EXPECT_EQ(R.Code, 200) << R.Raw;
  Result<Nrrd> N = nrrdParse(R.Body);
  EXPECT_TRUE(N.isOk()) << (N.isOk() ? "" : N.message());
  if (!N.isOk())
    return Out;
  for (size_t S = 0; S < N->numSamples(); ++S)
    Out.push_back(N->sampleAsDouble(S));
  return Out;
}

} // namespace

TEST(ServePool, PooledDefaultRunsJobsToDone) {
  serve::Daemon D;
  ASSERT_TRUE(D.start(pooledOptions(tempDir("default"))).isOk());
  std::string Job = runAndWait(D.port(), PoolProg);
  EXPECT_EQ(jsonField(Job, "state"), "done");
  serve::Daemon::Counters C = D.counters();
  EXPECT_EQ(C.JobsDone, 1u);
  EXPECT_EQ(C.JobsFailed, 0u);
  D.stop();
}

TEST(ServePool, RepeatedJobsReuseParkedThreads) {
  // The acceptance property of the whole PR: N jobs through a pooled
  // daemon park and reuse the same pool threads — the pool warms once and
  // never grows after that. Interp runs execute in the daemon's (= this
  // test's) process, so the singleton we interrogate is the one the jobs
  // ran on.
  serve::Daemon D;
  ASSERT_TRUE(D.start(pooledOptions(tempDir("reuse"))).isOk());
  EXPECT_EQ(jsonField(runAndWait(D.port(), PoolProg), "state"), "done");
  rt::StrandPool &P = rt::StrandPool::instance();
  int Warm = P.threadCount();
  EXPECT_GE(Warm, 1);
  uint64_t Parks0 = P.parkCount();
  const int Jobs = 10;
  for (int J = 0; J < Jobs; ++J)
    EXPECT_EQ(jsonField(runAndWait(D.port(), PoolProg), "state"), "done");
  EXPECT_EQ(P.threadCount(), Warm) << "pool grew across identical jobs";
  // Every job parked its workers back (>= because other activity on the
  // process-wide pool may add parks, never remove them).
  EXPECT_GE(P.parkCount() - Parks0, static_cast<uint64_t>(Jobs));
  EXPECT_EQ(D.counters().JobsDone, static_cast<uint64_t>(Jobs) + 1);
  D.stop();
}

TEST(ServePool, ConcurrentJobsTakeTurnsOnOnePool) {
  // Four job workers each run a 2-worker job at once. The pool is one per
  // process, so the runs queue on its Lease instead of spawning 2 threads
  // per job: every job still finishes with the right output, and the pool
  // holds 2 threads (or whatever an earlier test in this process grew it
  // to), not 8.
  serve::DaemonOptions O = pooledOptions(tempDir("turns"), 2);
  O.JobWorkers = 4;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  rt::StrandPool &P = rt::StrandPool::instance();
  const int Before = P.threadCount();
  // Strand i ends at i + (i % 4) + 1: one update per superstep it was live.
  std::vector<double> Golden;
  for (int I = 0; I < 16384; ++I)
    Golden.push_back(I + I % 4 + 1);
  const int Jobs = 8;
  std::vector<std::string> Ids;
  for (int J = 0; J < Jobs; ++J) {
    Reply R = httpDo(D.port(), "POST", "/run", PoolProg);
    ASSERT_EQ(R.Code, 202) << R.Raw;
    Ids.push_back(jsonField(R.Body, "job"));
  }
  for (const std::string &Id : Ids) {
    std::string Job;
    for (int Tries = 0; Tries < 600; ++Tries) {
      Job = httpDo(D.port(), "GET", "/jobs/" + Id).Body;
      std::string State = jsonField(Job, "state");
      if (State == "done" || State == "failed")
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(jsonField(Job, "state"), "done") << Job;
    EXPECT_EQ(fetchOutput(D.port(), Job), Golden) << "job " << Id;
  }
  EXPECT_EQ(P.threadCount(), std::max(Before, 2));
  EXPECT_EQ(D.counters().JobsDone, static_cast<uint64_t>(Jobs));
  D.stop();
}

TEST(ServePool, MalformedRunHeadersAre400NamingTheHeader) {
  serve::Daemon D;
  ASSERT_TRUE(D.start(pooledOptions(tempDir("badhdr"))).isOk());
  struct Case {
    const char *Header;
    const char *Value;
  };
  for (const Case &C : {Case{"X-Diderot-Steps", "ten"},
                        Case{"X-Diderot-Steps", "-1"},
                        Case{"X-Diderot-Steps", "1e9"},
                        Case{"X-Diderot-Run-Workers", "4x"},
                        Case{"X-Diderot-Run-Workers", "-2"},
                        Case{"X-Diderot-Deadline-Ms", "soon"},
                        Case{"X-Diderot-Deadline-Ms", "-5"},
                        // Would overflow ns: must be rejected, not wrap.
                        Case{"X-Diderot-Deadline-Ms",
                             "99999999999999999999"}}) {
    Reply R = httpDo(D.port(), "POST", "/run", PoolProg,
                     {{C.Header, C.Value}});
    EXPECT_EQ(R.Code, 400) << C.Header << ": " << C.Value << "\n" << R.Raw;
    EXPECT_NE(R.Body.find(C.Header), std::string::npos)
        << "400 body must name the offending header; got: " << R.Body;
  }
  // Nothing was enqueued by any of those.
  serve::Daemon::Counters C = D.counters();
  EXPECT_EQ(C.JobsDone + C.JobsFailed, 0u);
  // Well-formed values on the same headers still work.
  EXPECT_EQ(jsonField(runAndWait(D.port(), PoolProg,
                                 {{"X-Diderot-Steps", "50"},
                                  {"X-Diderot-Run-Workers", "2"},
                                  {"X-Diderot-Deadline-Ms", "60000"}}),
                      "state"),
            "done");
  D.stop();
}

TEST(ServePool, StopWithQueuedJobsFailsThemAsCancelled) {
  // One job worker held by a spinning job with a generous deadline; the
  // jobs queued behind it are cancelled by stop() and must surface as
  // failed with the shutdown message, not vanish.
  const char *Spin = R"(
strand S (int i) {
  output real v = 0.0;
  update { v += 1.0; }
}
initially [ S(i) | i in 0 .. 3 ];
)";
  serve::DaemonOptions O = pooledOptions(tempDir("cancel"), 1);
  O.JobWorkers = 1;
  O.MaxSupersteps = 1000000000; // the deadline, not the step cap, ends it
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  Reply Gate = httpDo(D.port(), "POST", "/run", Spin,
                      {{"X-Diderot-Deadline-Ms", "400"}});
  ASSERT_EQ(Gate.Code, 202) << Gate.Raw;
  Reply Queued = httpDo(D.port(), "POST", "/run", PoolProg);
  ASSERT_EQ(Queued.Code, 202) << Queued.Raw;
  std::string QueuedId = jsonField(Queued.Body, "job");
  // Give the worker a moment to pick up the gate job, then stop: the
  // spinning job finishes at its deadline, the queued one is cancelled.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  uint64_t FailedBefore = D.counters().JobsFailed;
  D.stop();
  EXPECT_EQ(D.counters().JobsFailed, FailedBefore + 1);
  (void)QueuedId;
}

} // namespace diderot
