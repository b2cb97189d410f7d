//===--- bench/ledger/serve_workload.cpp - serve-warm over loopback HTTP -----===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// In-process serve::Daemons with default options and a warm compile cache,
// driven over loopback HTTP with at most four client threads, each holding
// at most one connection: in each of several segments, an open loop of
// Poisson arrivals at 100 jobs/s from one thread, then a closed loop of four
// clients. The daemon has no blocking wait, so clients poll job state. The
// seeded mix is 80 % isocontour (about 3 ms a job) and 20 % ridge3d (about
// 20 ms), so slow jobs sit in front of fast ones. Every job's NRRD bytes
// must equal an in-process run of the same program and inputs.
//
//===----------------------------------------------------------------------===//

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <thread>

#include "bench/ledger/workloads.h"
#include "codegen/cache.h"
#include "driver/inputs.h"
#include "observe/observe.h"
#include "serve/daemon.h"
#include "support/log.h"
#include "support/strings.h"

namespace diderot::ledger {

namespace {

constexpr double ArrivalsPerS = 100;
constexpr double SlowShare = 0.2; ///< share of ridge3d jobs in the mix
constexpr double SloMs = 100;
constexpr int Clients = 4; ///< closed-loop clients
constexpr int LoadSegments = 6;
/// The client polls a job's state after a pause of a quarter of the time it
/// has waited so far, and at least MinPollGap: completion is noticed within
/// a quarter of the latency, and a slow daemon is polled less often. With a
/// fixed short pause, the polling of waiting clients takes enough CPU from
/// the job workers to slow the jobs, which makes more clients wait.
constexpr uint64_t MinPollGapNs = 500000;

struct Reply {
  int Code = 0;
  std::string Body;
};

/// One request on its own loopback connection (the daemon closes every
/// connection after responding).
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
  for (size_t Off = 0; Off < Wire.size();) {
    ssize_t N = ::send(Fd, Wire.data() + Off, Wire.size() - Off, MSG_NOSIGNAL);
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
  std::string Raw;
  char Buf[16384];
  for (ssize_t N; (N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0;)
    Raw.append(Buf, static_cast<size_t>(N));
  ::close(Fd);
  size_t HdrEnd = Raw.find("\r\n\r\n");
  if (Raw.size() > 12 && HdrEnd != std::string::npos) {
    Out.Code = std::atoi(Raw.c_str() + 9);
    Out.Body = Raw.substr(HdrEnd + 4);
  }
  return Out;
}

/// Value of "Key": in a flat JSON object (string quotes stripped).
std::string jsonField(const std::string &Json, const std::string &Key) {
  size_t P = Json.find("\"" + Key + "\":");
  if (P == std::string::npos)
    return "";
  P += Key.size() + 3;
  if (P < Json.size() && Json[P] == '"')
    return Json.substr(P + 1, Json.find('"', P + 1) - P - 1);
  return Json.substr(P, Json.find_first_of(",}", P) - P);
}

/// One program of the mix: its source, request inputs, and the hash of the
/// NRRD bytes an in-process run produces.
struct MixProg {
  Prog P;
  std::string Source;
  std::vector<std::pair<std::string, std::string>> Inputs;
  support::Hash128 Want;

  std::vector<std::pair<std::string, std::string>> headers() const {
    std::vector<std::pair<std::string, std::string>> H = {
        {"X-Diderot-Program", progName(P)}};
    for (const auto &[K, V] : Inputs)
      H.emplace_back("X-Diderot-Input", K + "=" + V);
    return H;
  }
};

std::vector<MixProg> mixPrograms() {
  return {{Prog::Isocontour,
           progSource(Prog::Isocontour),
           {{"ddro", "synth:portrait:48"}, {"res", "12"}},
           {}},
          {Prog::Ridge3d,
           progSource(Prog::Ridge3d),
           {{"lung", "synth:vessels:32"}, {"res", "16"}},
           {}}};
}

/// The daemon's job path in-process: same inputs, same serializer.
support::Hash128 inProcessNrrdHash(const MixProg &M,
                                   const CompiledProgram &CP) {
  std::unique_ptr<rt::ProgramInstance> I = must(CP.instantiate(), "instantiate");
  for (const auto &[K, V] : M.Inputs)
    must(setInputFromText(*I, K, V), "input " + K);
  must(I->initialize(), "initialize");
  rt::RunConfig C;
  C.MaxSupersteps = serve::DaemonOptions().MaxSupersteps;
  C.NumWorkers = serve::DaemonOptions().RunWorkers;
  must(I->run(C), "run");
  Nrrd N = must(outputToNrrd(*I), "output");
  return support::fnv1a128(must(nrrdSerialize(N), "serialize"));
}

/// The daemon's default head-sampling rate (DaemonOptions::TraceSampleN).
const uint32_t DefaultSampleN = serve::DaemonOptions().TraceSampleN;

serve::DaemonOptions daemonOptions(const std::string &Cache, uint32_t Sample) {
  serve::DaemonOptions D;
  D.Compile = compileOptions(Cache);
  D.TraceSampleN = Sample;
  return D;
}

/// POST /compile of every mix program.
void compileAll(Ledger *L, int Port, const std::vector<MixProg> &Mix) {
  for (const MixProg &M : Mix) {
    Reply R = httpDo(Port, "POST", "/compile", M.Source,
                     {{"X-Diderot-Program", progName(M.P)}});
    if (L)
      L->check(R.Code == 200, std::string("POST /compile ") + progName(M.P) +
                                  ": HTTP " + std::to_string(R.Code));
    else if (R.Code != 200)
      must(Status::error("HTTP " + std::to_string(R.Code)), "POST /compile");
  }
}

/// What one request saw, in trace-clock nanoseconds.
struct Request {
  int Prog = 0;
  bool Ok = false;
  bool Rejected = false;
  std::string Why, Job;
  uint64_t DueNs = 0, SubmitNs = 0, AcceptedNs = 0, DoneNs = 0, EndNs = 0;
  std::vector<std::pair<uint64_t, uint64_t>> Polls;
  /// Seeded in [0.5, 1.5): scales the first poll's pause, so the instants
  /// at which requests notice completion do not fall on one grid.
  double PollPhase = 1;
  std::string Trace; ///< the job's span tree, fetched in traced passes
  double latencyMs() const { return static_cast<double>(EndNs - DueNs) / 1e6; }
};

/// Submit \p R's job; false when the daemon refused it.
bool submit(int Port, const MixProg &M, Request &R) {
  R.SubmitNs = nowNs();
  Reply Sub = httpDo(Port, "POST", "/run", M.Source, M.headers());
  R.AcceptedNs = nowNs();
  if (Sub.Code == 202) {
    R.Job = jsonField(Sub.Body, "job");
    return true;
  }
  R.Rejected = Sub.Code == 429;
  R.Why = "POST /run: HTTP " + std::to_string(Sub.Code);
  R.EndNs = R.AcceptedNs;
  return false;
}

/// Pause before polling \p R again: a quarter of the time it has waited.
std::chrono::nanoseconds pollDelay(const Request &R) {
  if (R.Polls.empty())
    return std::chrono::nanoseconds(
        static_cast<uint64_t>(R.PollPhase * static_cast<double>(MinPollGapNs)));
  return std::chrono::nanoseconds(
      std::max(MinPollGapNs, (nowNs() - R.SubmitNs) / 4));
}

/// Poll \p R's job once; true when it has finished, and then fetch and
/// check its output. With \p WantTrace, also fetch the job's trace once the
/// request is timed (the daemon keeps only its most recent finished jobs).
bool poll(int Port, const MixProg &M, Request &R, bool WantTrace) {
  uint64_t B = nowNs();
  Reply J = httpDo(Port, "GET", "/jobs/" + R.Job);
  R.Polls.emplace_back(B, nowNs());
  std::string State = jsonField(J.Body, "state");
  if (J.Code == 200 && State != "done" && State != "failed")
    return false;
  R.DoneNs = nowNs();
  if (State != "done") {
    R.Why = "job " + R.Job + " " + State + ": " + J.Body;
    R.EndNs = R.DoneNs;
    return true;
  }
  Reply Out = httpDo(Port, "GET", "/jobs/" + R.Job + "/output");
  R.EndNs = nowNs();
  R.Ok = Out.Code == 200 && support::fnv1a128(Out.Body) == M.Want;
  if (!R.Ok)
    R.Why = "job " + R.Job + " output differs from the in-process run";
  if (WantTrace) {
    Reply T = httpDo(Port, "GET", "/jobs/" + R.Job + "/trace");
    R.Trace = T.Code == 200 ? T.Body : "";
  }
  return true;
}

/// The seeded open-loop schedule: Poisson arrivals, each drawing its
/// program from the mix.
std::vector<Request> arrivals(Rng &G, double Seconds) {
  std::vector<Request> Out;
  for (double T = 0;;) {
    T += -std::log(1.0 - G.uniform(0, 1)) / ArrivalsPerS;
    if (T >= Seconds)
      return Out;
    Request R;
    R.DueNs = static_cast<uint64_t>(T * 1e9);
    R.Prog = G.uniform(0, 1) < SlowShare ? 1 : 0;
    R.PollPhase = G.uniform(0.5, 1.5);
    Out.push_back(R);
  }
}

struct LoadResult {
  std::vector<Request> Reqs;
  int QueueDepthMax = 0;
};

/// Open loop: one client thread sends each arrival at its due time and, in
/// between, polls the jobs in flight. No request waits for another one to
/// finish, so a burst of slow jobs queues in the daemon, not in the client.
LoadResult openLoop(serve::Daemon &D, const std::vector<MixProg> &Mix,
                    std::vector<Request> Sched, bool WantTrace = false) {
  LoadResult Out;
  Out.Reqs = std::move(Sched);
  uint64_t Start = nowNs() + 5000000;
  for (Request &R : Out.Reqs)
    R.DueNs += Start;
  // In-flight requests by next poll time.
  std::multimap<uint64_t, size_t> InFlight;
  for (size_t Next = 0; Next < Out.Reqs.size() || !InFlight.empty();) {
    uint64_t Now = nowNs();
    if (Next < Out.Reqs.size() && Out.Reqs[Next].DueNs <= Now) {
      Request &R = Out.Reqs[Next];
      if (submit(D.port(), Mix[static_cast<size_t>(R.Prog)], R))
        InFlight.emplace(nowNs() + pollDelay(R).count(), Next);
      ++Next;
      Out.QueueDepthMax = std::max(Out.QueueDepthMax, D.counters().QueueDepth);
      continue;
    }
    if (!InFlight.empty() && InFlight.begin()->first <= Now) {
      size_t I = InFlight.begin()->second;
      InFlight.erase(InFlight.begin());
      Request &R = Out.Reqs[I];
      if (!poll(D.port(), Mix[static_cast<size_t>(R.Prog)], R, WantTrace))
        InFlight.emplace(nowNs() + pollDelay(R).count(), I);
      continue;
    }
    uint64_t Wake = InFlight.empty() ? UINT64_MAX : InFlight.begin()->first;
    if (Next < Out.Reqs.size())
      Wake = std::min(Wake, Out.Reqs[Next].DueNs);
    std::this_thread::sleep_for(std::chrono::nanoseconds(Wake - Now));
  }
  return Out;
}

/// Closed loop: four clients, each sending its next job when the last one
/// finished, for \p Seconds. Returns the completions and the seconds they
/// took.
std::pair<size_t, double> closedLoop(serve::Daemon &D,
                                     const std::vector<MixProg> &Mix,
                                     uint64_t Seed, double Seconds, Ledger &L) {
  uint64_t Start = nowNs();
  uint64_t End = Start + static_cast<uint64_t>(Seconds * 1e9);
  std::vector<std::vector<Request>> Done(Clients);
  auto Client = [&](int C) {
    Rng G(Seed * 7919 + static_cast<uint64_t>(C));
    while (nowNs() < End) {
      Request R;
      R.Prog = G.uniform(0, 1) < SlowShare ? 1 : 0;
      R.PollPhase = G.uniform(0.5, 1.5);
      const MixProg &M = Mix[static_cast<size_t>(R.Prog)];
      R.DueNs = nowNs();
      if (submit(D.port(), M, R))
        do
          std::this_thread::sleep_for(pollDelay(R));
        while (!poll(D.port(), M, R, false));
      Done[static_cast<size_t>(C)].push_back(std::move(R));
    }
  };
  std::vector<std::thread> Ts;
  for (int C = 0; C < Clients; ++C)
    Ts.emplace_back(Client, C);
  for (std::thread &T : Ts)
    T.join();
  size_t N = 0;
  uint64_t Last = Start;
  for (const std::vector<Request> &V : Done)
    for (const Request &R : V) {
      L.check(R.Ok, "closed loop: " + R.Why);
      N += R.Ok;
      Last = std::max(Last, R.EndNs);
    }
  return {N, static_cast<double>(Last - Start) / 1e9};
}

std::vector<double> latenciesMs(const LoadResult &R) {
  std::vector<double> V;
  for (const Request &Q : R.Reqs)
    if (Q.Ok)
      V.push_back(Q.latencyMs());
  return V;
}

void checkAll(Ledger &L, const LoadResult &R, const char *Phase) {
  for (const Request &Q : R.Reqs)
    L.check(Q.Ok, std::string(Phase) + ": " + Q.Why);
}

/// Client-side request layers of an untraced open loop.
void clientLayers(Ledger &L, const LoadResult &R) {
  std::vector<double> Submit, Fetch, Late;
  double Polls = 0;
  size_t Rejected = 0, Within = 0;
  for (const Request &Q : R.Reqs) {
    Late.push_back(static_cast<double>(Q.SubmitNs - Q.DueNs) / 1e6);
    Rejected += Q.Rejected;
    if (!Q.Ok)
      continue;
    Submit.push_back(static_cast<double>(Q.AcceptedNs - Q.SubmitNs) / 1e6);
    Fetch.push_back(static_cast<double>(Q.EndNs - Q.DoneNs) / 1e6);
    Polls += static_cast<double>(Q.Polls.size());
    Within += Q.latencyMs() <= SloMs;
  }
  size_t N = R.Reqs.size();
  L.metric("serve.submit_ms_p50", median(Submit), "ms", Submit.size());
  L.metric("serve.fetch_ms_p50", median(Fetch), "ms", Fetch.size());
  L.metric("serve.polls_per_job", Submit.empty() ? 0 : Polls / Submit.size(),
           "count", Submit.size());
  L.metric("serve.rejected", static_cast<double>(Rejected), "count", N);
  L.metric("serve.queue_depth_max", R.QueueDepthMax, "count", N);
  L.metric("serve.within_slo_frac",
           N ? static_cast<double>(Within) / static_cast<double>(N) : 0,
           "ratio", N);
  L.metric("loadgen.late_ms_p99", quantile(Late, 0.99), "ms", Late.size());
  L.metric("loadgen.sent", static_cast<double>(N), "count");
}

/// The daemon's Chrome-trace spans of one job, moved under \p Parent. Ids
/// are the daemon's; timestamps share this process's trace clock.
void graftJobSpans(Ledger &L, const std::string &Json, uint64_t Parent,
                   std::map<std::string, std::vector<double>> &LayerMs) {
  const std::string Open = "{\"name\":\"";
  for (size_t P = Json.find(Open); P != std::string::npos;) {
    size_t Next = Json.find(Open, P + 1);
    std::string Ev = Json.substr(P, Next == std::string::npos ? std::string::npos
                                                              : Next - P);
    P = Next;
    if (jsonField(Ev, "ph") != "X")
      continue;
    tracing::Span S;
    S.Name = jsonField(Ev, "name");
    S.Cat = jsonField(Ev, "cat");
    S.Tid = std::atoi(jsonField(Ev, "tid").c_str());
    double Ts = std::atof(jsonField(Ev, "ts").c_str());
    double Dur = std::atof(jsonField(Ev, "dur").c_str());
    S.BeginNs = static_cast<uint64_t>(std::llround(Ts * 1e3));
    S.EndNs = S.BeginNs + static_cast<uint64_t>(std::llround(Dur * 1e3));
    S.Id = std::strtoull(jsonField(Ev, "span").c_str(), nullptr, 16);
    std::string Par = jsonField(Ev, "parent");
    S.Parent = Par.empty() ? Parent : std::strtoull(Par.c_str(), nullptr, 16);
    if (S.Cat == "serve" && S.Name != "job")
      LayerMs["serve." + S.Name + "_ms_p50"].push_back(Dur / 1e3);
    L.trees().back().add(std::move(S));
  }
}

/// Span trees of a traced open loop: the client's calls and, under them,
/// the daemon's own spans from GET /jobs/<id>/trace.
void tracedLayers(Ledger &L, const LoadResult &R, double UntracedP50Ms) {
  std::map<std::string, std::vector<double>> LayerMs;
  std::vector<double> Covered, Lat;
  for (const Request &Q : R.Reqs) {
    if (!Q.Ok)
      continue;
    Lat.push_back(Q.latencyMs());
    L.beginTree("serve-warm");
    // The client's layers tile the request: the generator running late,
    // submit, then pauses and polls until the job is seen done, then fetch.
    uint64_t Root = L.span("request", Q.DueNs, Q.EndNs, 0);
    if (Q.SubmitNs > Q.DueNs)
      L.span("late", Q.DueNs, Q.SubmitNs, Root);
    L.span("submit", Q.SubmitNs, Q.AcceptedNs, Root);
    uint64_t Prev = Q.AcceptedNs;
    for (const auto &[B, E] : Q.Polls) {
      L.span("poll-pause", Prev, B, Root);
      L.span("poll", B, E, Root);
      Prev = E;
    }
    L.span("fetch", Q.DoneNs, Q.EndNs, Root);
    L.check(!Q.Trace.empty(), "GET /jobs/" + Q.Job + "/trace");
    graftJobSpans(L, Q.Trace, Root, LayerMs);
    Covered.push_back(static_cast<double>(coveredByChildren(L.trees().back())) /
                      1e6);
  }
  for (const char *Layer : {"queue-wait", "cache-hit", "instantiate",
                            "initialize", "run", "serialize-output"}) {
    std::vector<double> &V = LayerMs[std::string("serve.") + Layer + "_ms_p50"];
    L.metric(std::string("serve.") + Layer + "_ms_p50", median(V), "ms",
             V.size());
  }
  L.metric("observe.trace_overhead_frac", median(Lat) / UntracedP50Ms - 1,
           "ratio", Lat.size());
  L.metric("observe.explained_frac", median(Covered) / UntracedP50Ms, "ratio",
           Covered.size());
}

} // namespace

void zeroServeLayers(Ledger &L) {
  static const char *const Layers[][2] = {
      {"serve.submit_ms_p50", "ms"},        {"serve.fetch_ms_p50", "ms"},
      {"serve.polls_per_job", "count"},     {"serve.rejected", "count"},
      {"serve.queue_depth_max", "count"},   {"serve.within_slo_frac", "ratio"},
      {"loadgen.late_ms_p99", "ms"},        {"loadgen.sent", "count"},
      {"serve.queue-wait_ms_p50", "ms"},    {"serve.cache-hit_ms_p50", "ms"},
      {"serve.instantiate_ms_p50", "ms"},   {"serve.initialize_ms_p50", "ms"},
      {"serve.run_ms_p50", "ms"},           {"serve.serialize-output_ms_p50", "ms"}};
  for (const auto &[Name, Unit] : Layers)
    L.metric(Name, 0, Unit, 0);
}

double setupServeOnce(const Options &O) {
  logging::Logger::global().configure({logging::Level::Warn, false, nullptr});
  double T0 = nowS();
  serve::Daemon D;
  must(D.start(daemonOptions(O.CacheDir, DefaultSampleN)), "daemon start");
  compileAll(nullptr, D.port(), mixPrograms());
  double S = nowS() - T0;
  D.stop();
  return S;
}

int runServeWorkload(const Options &O) {
  Ledger L(O.Workload);
  logging::Logger::global().configure({logging::Level::Warn, false, nullptr});
  const std::string &Cache = O.CacheDir;
  std::vector<MixProg> Mix = mixPrograms();
  // The program layers are those of the mix's slow program, which also
  // does most of the daemon's work, run in-process on the same inputs.
  ProgInputs Slow = makeInputs(Prog::Ridge3d, Size::Serve, O.Seed);
  double T = O.Seconds;
  Rng G(O.Seed);
  L.sizes(strf("Poisson arrivals at ", ArrivalsPerS, " jobs/s, then ", Clients,
               " closed-loop clients; ", 100 * (1 - SlowShare),
               "% isocontour res 12 on synth:portrait:48, ", 100 * SlowShare,
               "% ridge3d res 16 on synth:vessels:32"));

  if (!O.Trace) {
    {
      // Warm the compile cache (the first run in a checkout compiles).
      serve::Daemon D;
      must(D.start(daemonOptions(Cache, DefaultSampleN)), "daemon start");
      compileAll(&L, D.port(), Mix);
    }
    L.metric("setup_s", childSetupSeconds(O), "s", SetupReps);
    std::vector<CompiledProgram> Progs;
    for (MixProg &M : Mix) {
      Progs.push_back(must(
          compileString(M.Source, compileOptions(Cache), progName(M.P)),
          "compile"));
      M.Want = inProcessNrrdHash(M, Progs.back());
    }
    uint64_t CompilesBefore = codegen::nativeCacheStats().HostCompiles;

    // The load runs in segments, each on a freshly started daemon, and each
    // metric is the median over segments. For seconds at a time all of a
    // daemon's threads can end up on one CPU, where its jobs run several
    // times slower; the median keeps one or two such segments out. Each
    // segment starts with the slow program's lifecycles in-process, so
    // run_s_p50 and seq_s_min sample the whole run too.
    InProcess All;
    std::vector<double> P50, P90, Rate;
    size_t Sent = 0;
    for (int Seg = 0; Seg < LoadSegments; ++Seg) {
      InProcess M = measureInProcess(L, Progs[1], Slow, 0.15 * T / LoadSegments);
      All.Par.insert(All.Par.end(), M.Par.begin(), M.Par.end());
      All.Seq.insert(All.Seq.end(), M.Seq.begin(), M.Seq.end());

      serve::Daemon D;
      must(D.start(daemonOptions(Cache, DefaultSampleN)), "daemon start");
      compileAll(&L, D.port(), Mix);
      LoadResult Open = openLoop(D, Mix, arrivals(G, 0.55 * T / LoadSegments));
      checkAll(L, Open, "open loop");
      std::vector<double> Lat = latenciesMs(Open);
      Sent += Lat.size();
      P50.push_back(quantile(Lat, 0.5));
      P90.push_back(quantile(Lat, 0.9));
      auto [Jobs, Seconds] = closedLoop(D, Mix, O.Seed * LoadSegments + Seg,
                                        0.3 * T / LoadSegments, L);
      Rate.push_back(static_cast<double>(Jobs) / Seconds);
    }
    L.metric("run_s_p50", All.parBody(), "s", All.Par.size());
    L.metric("seq_s_min", All.seqMin(), "s", All.Seq.size());
    L.metric("latency_ms_p50", median(P50), "ms", Sent);
    L.metric("latency_ms_p90", median(P90), "ms", Sent);
    L.metric("jobs_per_s", median(Rate), "1/s", Rate.size());
    L.check(codegen::nativeCacheStats().HostCompiles == CompilesBefore,
            "host compiler ran in a timed phase");
    L.metric("peak_rss_mb", peakRssMb(), "MB");
    L.print();
    return L.exitCode();
  }

  // Traced run: the program layers in-process, then the serve layers from
  // an untraced open loop and one at the same rate with every job traced
  // (TraceSampleN = 1).
  ColdCompile IsoC = compileCold(Prog::Isocontour, Cache);
  ColdCompile SlowC = compileCold(Prog::Ridge3d, Cache);
  Mix[0].Want = inProcessNrrdHash(Mix[0], *IsoC.CP);
  Mix[1].Want = inProcessNrrdHash(Mix[1], *SlowC.CP);
  uint64_t CompilesBefore = codegen::nativeCacheStats().HostCompiles;
  InProcess M = measureInProcess(L, *SlowC.CP, Slow, 0.1 * T);
  programLayers(L, SlowC, Slow, M, 0.1 * T, Cache);

  double UntracedP50 = 0;
  for (uint32_t Sample : {DefaultSampleN, 1u}) {
    serve::Daemon D;
    must(D.start(daemonOptions(Cache, Sample)), "daemon start");
    compileAll(&L, D.port(), Mix);
    LoadResult Open = openLoop(D, Mix, arrivals(G, 0.3 * T), Sample == 1);
    D.stop();
    checkAll(L, Open, Sample == 1 ? "traced open loop" : "open loop");
    if (Sample == 1) {
      tracedLayers(L, Open, UntracedP50);
    } else {
      clientLayers(L, Open);
      UntracedP50 = median(latenciesMs(Open));
    }
  }
  uint64_t Compiles = codegen::nativeCacheStats().HostCompiles - CompilesBefore;
  L.metric("codegen.host_compiles", static_cast<double>(Compiles), "count");
  L.check(Compiles == 0, "host compiler ran in a timed phase");
  writeTrace(L);
  L.print();
  return L.exitCode();
}

} // namespace diderot::ledger
