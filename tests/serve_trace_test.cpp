//===--- tests/serve_trace_test.cpp - end-to-end request tracing -------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// The daemon's tracing surface (docs/TRACING.md): every job's span tree is
// retrievable at GET /jobs/<id>/trace with the coarse spans the acceptance
// bar names (queue-wait, compile-or-cache-hit, instantiate, run); incoming
// W3C traceparent headers join the caller's trace; X-Diderot-Trace is
// echoed on every response; GET /trace merges the sampled ring;
// GET /healthz reports liveness; /metrics histograms carry trace-id
// exemplars; and concurrent jobs never bleed spans into each other's
// trees. All cases use the interp engine (no host compiler), so the whole
// binary runs under TSan as serve_trace_tsan.
//
//===----------------------------------------------------------------------===//

#include "serve/daemon.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
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

#include "serve/compile_cache.h"
#include "support/trace.h"

namespace diderot {
namespace {

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

std::string tempDir(const char *Tag) {
  auto P = std::filesystem::temp_directory_path() /
           (std::string("diderot-serve-trace-test-") + Tag + "-" +
            std::to_string(::getpid()));
  std::filesystem::create_directories(P);
  return P.string();
}

struct Reply {
  int Code = 0;
  std::string Body;
  std::string Raw;

  /// Value of response header \p Name ("" when absent).
  std::string header(const std::string &Name) const {
    std::string Needle = "\r\n" + Name + ": ";
    size_t P = Raw.find(Needle);
    if (P == std::string::npos)
      return "";
    P += Needle.size();
    size_t E = Raw.find("\r\n", P);
    return Raw.substr(P, E - P);
  }
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

/// Submit a run, wait for a terminal state, return the accept Reply and the
/// final job JSON through the out-params.
void runAndWait(int Port, const std::string &Src, Reply &Accept,
                std::string &FinalJson,
                std::vector<std::pair<std::string, std::string>> Headers =
                    {}) {
  Accept = httpDo(Port, "POST", "/run", Src, Headers);
  ASSERT_EQ(Accept.Code, 202) << Accept.Raw;
  std::string Id = jsonField(Accept.Body, "job");
  ASSERT_FALSE(Id.empty());
  for (int Tries = 0; Tries < 600; ++Tries) {
    Reply J = httpDo(Port, "GET", "/jobs/" + Id);
    ASSERT_EQ(J.Code, 200);
    std::string State = jsonField(J.Body, "state");
    if (State == "done" || State == "failed") {
      FinalJson = J.Body;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "job " << Id << " did not finish";
}

serve::DaemonOptions interpOptions(const std::string &CacheDir) {
  serve::DaemonOptions O;
  O.Compile.Eng = Engine::Interp;
  O.Compile.WorkDir = CacheDir;
  return O;
}

//===----------------------------------------------------------------------===//
// The acceptance bar: every job's trace is retrievable with the core spans
//===----------------------------------------------------------------------===//

TEST(ServeTrace, EveryJobTraceRetrievableEvenUnsampled) {
  serve::DaemonOptions O = interpOptions(tempDir("every"));
  O.TraceSampleN = 0; // detailed sampling off — coarse spans must remain
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  Reply Accept;
  std::string Json;
  runAndWait(D.port(), ProgA, Accept, Json);
  EXPECT_EQ(jsonField(Json, "state"), "done") << Json;

  std::string TraceId = jsonField(Json, "trace");
  ASSERT_EQ(TraceId.size(), 32u) << Json;
  EXPECT_EQ(Accept.header("X-Diderot-Trace"), TraceId);

  std::string Id = jsonField(Json, "job");
  Reply T = httpDo(D.port(), "GET", "/jobs/" + Id + "/trace");
  ASSERT_EQ(T.Code, 200) << T.Raw;
  // The spans the acceptance criterion names, under the job's one trace id.
  EXPECT_NE(T.Body.find("\"traceId\":\"" + TraceId + "\""),
            std::string::npos)
      << T.Body;
  EXPECT_NE(T.Body.find("\"queue-wait\""), std::string::npos) << T.Body;
  bool CompileOrHit =
      T.Body.find("\"compile\"") != std::string::npos ||
      T.Body.find("\"cache-hit\"") != std::string::npos;
  EXPECT_TRUE(CompileOrHit) << T.Body;
  EXPECT_NE(T.Body.find("\"instantiate\""), std::string::npos);
  EXPECT_NE(T.Body.find("\"run\""), std::string::npos);
  // Unsampled: no per-superstep Recorder spans.
  EXPECT_EQ(T.Body.find("superstep"), std::string::npos);
  EXPECT_EQ(jsonField(T.Body, "sampled"), "false");
  D.stop();
}

TEST(ServeTrace, SampledJobCarriesSuperstepSpans) {
  serve::DaemonOptions O = interpOptions(tempDir("sampled"));
  O.TraceSampleN = 1; // every job
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  Reply Accept;
  std::string Json;
  runAndWait(D.port(), ProgA, Accept, Json);
  std::string Id = jsonField(Json, "job");
  Reply T = httpDo(D.port(), "GET", "/jobs/" + Id + "/trace");
  ASSERT_EQ(T.Code, 200);
  EXPECT_EQ(jsonField(T.Body, "sampled"), "true");
  EXPECT_NE(T.Body.find("superstep"), std::string::npos)
      << "sampled jobs attach Recorder spans under the run span: " << T.Body;
  D.stop();
}

TEST(ServeTrace, TraceConflictUntilFinished) {
  serve::DaemonOptions O = interpOptions(tempDir("conflict"));
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  Reply T = httpDo(D.port(), "GET", "/jobs/j-999/trace");
  EXPECT_EQ(T.Code, 404);
  D.stop();
}

//===----------------------------------------------------------------------===//
// Traceparent join and header echo
//===----------------------------------------------------------------------===//

TEST(ServeTrace, JoinsIncomingTraceparent) {
  serve::DaemonOptions O = interpOptions(tempDir("join"));
  O.TraceSampleN = 0; // incoming sampled flag alone must arm sampling
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  const std::string CallerTrace = "0af7651916cd43dd8448eb211c80319c";
  Reply Accept;
  std::string Json;
  runAndWait(D.port(), ProgA, Accept, Json,
             {{"traceparent", "00-" + CallerTrace +
                                  "-b7ad6b7169203331-01"}});
  // The job joined the caller's trace instead of minting a fresh one.
  EXPECT_EQ(jsonField(Json, "trace"), CallerTrace) << Json;
  EXPECT_EQ(Accept.header("X-Diderot-Trace"), CallerTrace);
  // Sampled flag propagated: the job landed in the /trace ring.
  Reply Merged = httpDo(D.port(), "GET", "/trace");
  ASSERT_EQ(Merged.Code, 200);
  EXPECT_NE(Merged.Body.find(CallerTrace), std::string::npos) << Merged.Body;
  D.stop();
}

TEST(ServeTrace, EchoesTraceOnErrorsToo) {
  serve::DaemonOptions O = interpOptions(tempDir("echo400"));
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  Reply R = httpDo(D.port(), "POST", "/run", "");
  EXPECT_EQ(R.Code, 400);
  EXPECT_EQ(R.header("X-Diderot-Trace").size(), 32u) << R.Raw;
  Reply C = httpDo(D.port(), "POST", "/compile", "");
  EXPECT_EQ(C.Code, 400);
  EXPECT_EQ(C.header("X-Diderot-Trace").size(), 32u);
  D.stop();
}

TEST(ServeTrace, CompileEchoesTrace) {
  serve::DaemonOptions O = interpOptions(tempDir("compile"));
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  Reply R = httpDo(D.port(), "POST", "/compile", ProgA);
  ASSERT_EQ(R.Code, 200) << R.Raw;
  std::string Hex = R.header("X-Diderot-Trace");
  EXPECT_EQ(Hex.size(), 32u);
  EXPECT_EQ(jsonField(R.Body, "trace"), Hex);
  D.stop();
}

//===----------------------------------------------------------------------===//
// /trace, /healthz, and exemplars
//===----------------------------------------------------------------------===//

TEST(ServeTrace, MergedTraceHoldsRecentJobs) {
  serve::DaemonOptions O = interpOptions(tempDir("merged"));
  O.TraceSampleN = 1;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  Reply Accept;
  std::string JsonA, JsonB;
  runAndWait(D.port(), ProgA, Accept, JsonA);
  runAndWait(D.port(), ProgB, Accept, JsonB);
  Reply Merged = httpDo(D.port(), "GET", "/trace");
  ASSERT_EQ(Merged.Code, 200);
  EXPECT_NE(Merged.Body.find(jsonField(JsonA, "trace")), std::string::npos);
  EXPECT_NE(Merged.Body.find(jsonField(JsonB, "trace")), std::string::npos);
  EXPECT_NE(Merged.Body.find("\"jobs\":2"), std::string::npos)
      << Merged.Body;
  D.stop();
}

TEST(ServeTrace, HealthzReportsReadiness) {
  serve::DaemonOptions O = interpOptions(tempDir("healthz"));
  O.JobWorkers = 2;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  Reply H = httpDo(D.port(), "GET", "/healthz");
  ASSERT_EQ(H.Code, 200) << H.Raw;
  EXPECT_EQ(jsonField(H.Body, "status"), "ok");
  EXPECT_EQ(jsonField(H.Body, "queueDepth"), "0");
  EXPECT_EQ(jsonField(H.Body, "jobWorkers"), "2");
  EXPECT_FALSE(jsonField(H.Body, "uptimeMs").empty());
  D.stop();

  // By default there is one job worker per core.
  serve::Daemon Dflt;
  ASSERT_TRUE(Dflt.start(interpOptions(tempDir("healthz-default"))).isOk());
  Reply HD = httpDo(Dflt.port(), "GET", "/healthz");
  ASSERT_EQ(HD.Code, 200) << HD.Raw;
  EXPECT_EQ(jsonField(HD.Body, "jobWorkers"),
            std::to_string(std::max(1u, std::thread::hardware_concurrency())));
  Dflt.stop();
}

TEST(ServeTrace, MetricsCarryTraceIdExemplars) {
  serve::DaemonOptions O = interpOptions(tempDir("exemplar"));
  O.TraceSampleN = 1;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  Reply Accept;
  std::string Json;
  runAndWait(D.port(), ProgA, Accept, Json);
  Reply M = httpDo(D.port(), "GET", "/metrics");
  ASSERT_EQ(M.Code, 200);
  // The run histogram's worst bucket names the job that produced it.
  size_t P = M.Body.find("diderot_daemon_run_seconds_bucket");
  ASSERT_NE(P, std::string::npos);
  EXPECT_NE(M.Body.find("# {trace_id=\"" + jsonField(Json, "trace") + "\"}",
                        P),
            std::string::npos)
      << M.Body.substr(P, 2000);
  D.stop();
}

TEST(ServeTrace, SlowJobsArePromotedUnsampled) {
  serve::DaemonOptions O = interpOptions(tempDir("slow"));
  O.TraceSampleN = 0; // never sampled...
  O.SlowJobNs = 1;    // ...but everything is "slow", so everything promotes
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());
  Reply Accept;
  std::string Json;
  runAndWait(D.port(), ProgA, Accept, Json);
  Reply Merged = httpDo(D.port(), "GET", "/trace");
  ASSERT_EQ(Merged.Code, 200);
  EXPECT_NE(Merged.Body.find(jsonField(Json, "trace")), std::string::npos)
      << Merged.Body;
  D.stop();
}

//===----------------------------------------------------------------------===//
// Isolation: concurrent jobs never share spans
//===----------------------------------------------------------------------===//

TEST(ServeTrace, ConcurrentJobsDoNotBleedSpans) {
  serve::DaemonOptions O = interpOptions(tempDir("bleed"));
  O.TraceSampleN = 1; // every job fully traced — maximal bleed opportunity
  O.JobWorkers = 4;
  serve::Daemon D;
  ASSERT_TRUE(D.start(O).isOk());

  constexpr int NumThreads = 6, PerThread = 3;
  std::mutex Mu;
  std::vector<std::pair<std::string, std::string>> Done; // (job, trace)
  std::vector<std::thread> Ts;
  for (int T = 0; T < NumThreads; ++T)
    Ts.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        Reply Accept;
        std::string Json;
        runAndWait(D.port(), T % 2 ? ProgA : ProgB, Accept, Json);
        if (jsonField(Json, "state") != "done")
          continue;
        std::lock_guard<std::mutex> G(Mu);
        Done.emplace_back(jsonField(Json, "job"), jsonField(Json, "trace"));
      }
    });
  for (auto &T : Ts)
    T.join();
  ASSERT_EQ(Done.size(), static_cast<size_t>(NumThreads * PerThread));

  // Pairwise-distinct trace ids.
  std::set<std::string> Traces;
  for (const auto &[Job, Trace] : Done)
    Traces.insert(Trace);
  EXPECT_EQ(Traces.size(), Done.size()) << "trace ids must be unique";

  // Each tree references exactly its own trace id, never a sibling's, and
  // carries the full coarse-span set.
  for (const auto &[Job, Trace] : Done) {
    Reply T = httpDo(D.port(), "GET", "/jobs/" + Job + "/trace");
    ASSERT_EQ(T.Code, 200) << Job;
    EXPECT_NE(T.Body.find("\"traceId\":\"" + Trace + "\""),
              std::string::npos);
    for (const auto &[OtherJob, OtherTrace] : Done)
      if (OtherTrace != Trace)
        EXPECT_EQ(T.Body.find(OtherTrace), std::string::npos)
            << "job " << Job << " leaked spans from " << OtherJob;
    for (const char *Span : {"queue-wait", "instantiate", "run"})
      EXPECT_NE(T.Body.find(Span), std::string::npos)
          << Job << " missing " << Span;
  }
  D.stop();
}

} // namespace
} // namespace diderot
