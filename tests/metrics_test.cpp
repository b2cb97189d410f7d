//===--- tests/metrics_test.cpp - metrics registry + exposition tests --------===//
//
// The metrics layer: log-linear bucket geometry, sharded histogram merging,
// the flat wire format, Prometheus/JSON exposition, live scraping
// concurrently with a parallel run (also compiled into the TSan suite as
// metrics_tsan), the embedded HTTP endpoint, the RSS sampler, interp/native
// counter parity, live native scrapes, and golden-file snapshots of both
// exposition formats.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "observe/observe.h"
#include "observe/recorder.h"
#include "runtime/scheduler.h"

#if defined(__unix__) || defined(__APPLE__)
#define DIDEROT_TEST_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#ifndef DIDEROT_REPO_DIR
#define DIDEROT_REPO_DIR "."
#endif

namespace diderot {
namespace {

using namespace observe;

//===----------------------------------------------------------------------===//
// Bucket geometry
//===----------------------------------------------------------------------===//

TEST(HistBuckets, IndexIsMonotoneAndInvertsBounds) {
  EXPECT_EQ(histBucketIndex(0), 0);
  EXPECT_EQ(histBucketIndex(~uint64_t(0)), NumHistBuckets - 1);
  int Prev = -1;
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(7), uint64_t(8),
                     uint64_t(9), uint64_t(100), uint64_t(1000),
                     uint64_t(1) << 20, (uint64_t(1) << 20) + 1,
                     uint64_t(1) << 40, uint64_t(1) << 62, ~uint64_t(0)}) {
    int Idx = histBucketIndex(V);
    EXPECT_GE(Idx, Prev) << "not monotone at " << V;
    Prev = Idx;
    EXPECT_GE(V, histBucketLo(Idx));
    EXPECT_LE(V, histBucketHi(Idx));
  }
}

TEST(HistBuckets, BucketsTileTheRangeContiguously) {
  for (int Idx = 0; Idx < NumHistBuckets; ++Idx) {
    EXPECT_EQ(histBucketIndex(histBucketLo(Idx)), Idx);
    EXPECT_EQ(histBucketIndex(histBucketHi(Idx)), Idx);
    EXPECT_LE(histBucketLo(Idx), histBucketHi(Idx));
    if (Idx + 1 < NumHistBuckets) {
      EXPECT_EQ(histBucketHi(Idx) + 1, histBucketLo(Idx + 1));
    }
  }
  EXPECT_EQ(histBucketHi(NumHistBuckets - 1), ~uint64_t(0));
}

//===----------------------------------------------------------------------===//
// Histogram recording, merging, quantiles
//===----------------------------------------------------------------------===//

TEST(Histogram, QuantilesWithinBucketResolution) {
  Histogram H;
  H.start(0);
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  HistData D;
  H.snapshot(D);
  EXPECT_EQ(D.Count, 1000u);
  EXPECT_EQ(D.Min, 1u);
  EXPECT_EQ(D.Max, 1000u);
  EXPECT_DOUBLE_EQ(D.mean(), 500.5);
  // Log-linear buckets bound the relative quantile error at 2^-HistSubBits.
  EXPECT_NEAR(D.quantile(0.5), 500.0, 500.0 * 0.13);
  EXPECT_NEAR(D.quantile(0.9), 900.0, 900.0 * 0.13);
  EXPECT_NEAR(D.quantile(0.99), 990.0, 990.0 * 0.13);
  EXPECT_DOUBLE_EQ(D.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(D.quantile(1.0), 1000.0);
}

TEST(Histogram, ShardedMergeMatchesDirectRecording) {
  Histogram Sharded, Direct;
  Sharded.start(2);
  Direct.start(0);
  for (uint64_t V = 1; V <= 100; ++V) {
    Sharded.cell(static_cast<int>(V % 2)).record(V * 7);
    Direct.record(V * 7);
  }
  Sharded.mergeCells();
  HistData A, B;
  Sharded.snapshot(A);
  Direct.snapshot(B);
  EXPECT_EQ(A.Count, B.Count);
  EXPECT_EQ(A.Sum, B.Sum);
  EXPECT_EQ(A.Min, B.Min);
  EXPECT_EQ(A.Max, B.Max);
  EXPECT_EQ(A.Buckets, B.Buckets);
  // Merging clears the cells: a second merge must change nothing.
  Sharded.mergeCells();
  HistData A2;
  Sharded.snapshot(A2);
  EXPECT_EQ(A2.Count, A.Count);
}

TEST(Histogram, EmptySnapshotReportsZeroMin) {
  Histogram H;
  H.start(1);
  HistData D;
  H.snapshot(D);
  EXPECT_EQ(D.Count, 0u);
  EXPECT_EQ(D.Min, 0u);
  EXPECT_EQ(D.Max, 0u);
  EXPECT_TRUE(D.Buckets.empty());
  EXPECT_DOUBLE_EQ(D.quantile(0.5), 0.0);
}

//===----------------------------------------------------------------------===//
// Flat wire format (ddr_read DDR_READ_METRICS)
//===----------------------------------------------------------------------===//

MetricsData sampleData() {
  Metrics M;
  M.start(3, /*Arm=*/true);
  M.counter(McUpdated).add(507);
  M.counter(McSupersteps).add(10);
  M.gauge(MgLiveStrands).set(42);
  M.gauge(MgProcessRss).set(-1); // sign must survive the uint64 wire
  for (uint64_t V : {5u, 80u, 80u, 3000u, 1u << 20})
    M.hist(MhStepWallNs).record(V);
  M.hist(MhUpdatesPerStep).record(144);
  return M.snapshot();
}

TEST(MetricsFlat, RoundTripPreservesEverything) {
  MetricsData D = sampleData();
  std::vector<uint64_t> Flat = flattenMetrics(D);
  MetricsData R;
  ASSERT_TRUE(unflattenMetrics(Flat.data(), Flat.size(), R));
  EXPECT_EQ(R.Enabled, D.Enabled);
  for (int I = 0; I < NumMetricCounters; ++I)
    EXPECT_EQ(R.Counters[I], D.Counters[I]) << "counter " << I;
  for (int I = 0; I < NumMetricGauges; ++I)
    EXPECT_EQ(R.Gauges[I], D.Gauges[I]) << "gauge " << I;
  for (int I = 0; I < NumMetricHists; ++I) {
    EXPECT_EQ(R.Hists[I].Count, D.Hists[I].Count) << "hist " << I;
    EXPECT_EQ(R.Hists[I].Sum, D.Hists[I].Sum);
    EXPECT_EQ(R.Hists[I].Min, D.Hists[I].Min);
    EXPECT_EQ(R.Hists[I].Max, D.Hists[I].Max);
    EXPECT_EQ(R.Hists[I].Buckets, D.Hists[I].Buckets);
  }
}

TEST(MetricsFlat, TruncatedBuffersAreRejected) {
  std::vector<uint64_t> Flat = flattenMetrics(sampleData());
  MetricsData R;
  EXPECT_FALSE(unflattenMetrics(nullptr, 0, R));
  EXPECT_FALSE(unflattenMetrics(Flat.data(), 2, R));
  EXPECT_FALSE(unflattenMetrics(Flat.data(), MetricsHeaderWords, R));
  EXPECT_FALSE(unflattenMetrics(Flat.data(), Flat.size() - 1, R));
}

//===----------------------------------------------------------------------===//
// Recorder folding through the real schedulers
//===----------------------------------------------------------------------===//

/// Armed run: strand I stabilizes after (I % StepsMax) + 1 updates.
rt::RunStats runArmed(int Workers, size_t N, int StepsMax,
                      int Block = rt::DefaultBlockSize) {
  std::vector<rt::StrandStatus> S(N, rt::StrandStatus::Active);
  std::vector<std::atomic<int>> Count(N);
  Recorder Rec;
  Rec.start(Workers <= 0 ? 0 : Workers, /*Lifecycle=*/false,
            /*CollectMetrics=*/true);
  auto Update = [&](size_t I) {
    int C = ++Count[I];
    return C > static_cast<int>(I) % StepsMax ? rt::StrandStatus::Stable
                                              : rt::StrandStatus::Active;
  };
  int Steps = Workers <= 0
                  ? rt::runSequential(S, Update, 100, &Rec)
                  : rt::runParallel(S, Update, 100, Workers, Block, &Rec);
  return Rec.take(Steps, Workers <= 0 ? 0 : Workers);
}

TEST(RecorderMetrics, CountersAreViewsOverSpanTotals) {
  for (int Workers : {0, 3}) {
    rt::RunStats R = runArmed(Workers, 200, 5);
    ASSERT_TRUE(R.Metrics.Enabled);
    EXPECT_EQ(R.Metrics.Counters[McUpdated], R.Totals.Updated);
    EXPECT_EQ(R.Metrics.Counters[McStabilized], R.Totals.Stabilized);
    EXPECT_EQ(R.Metrics.Counters[McDied], R.Totals.Died);
    EXPECT_EQ(R.Metrics.Counters[McBlocksClaimed], R.Totals.BlocksClaimed);
    EXPECT_EQ(R.Metrics.Counters[McLockAcquires], R.Totals.LockAcquires);
    EXPECT_EQ(R.Metrics.Counters[McBarrierWaits], R.Totals.BarrierWaits);
    EXPECT_EQ(R.Metrics.Counters[McSupersteps],
              static_cast<uint64_t>(R.Steps));
  }
}

TEST(RecorderMetrics, SuperstepHistogramsFoldOnePerStep) {
  rt::RunStats R = runArmed(/*Workers=*/2, 300, 5, /*Block=*/64);
  ASSERT_TRUE(R.Metrics.Enabled);
  EXPECT_EQ(R.Metrics.Hists[MhStepWallNs].Count,
            static_cast<uint64_t>(R.Steps));
  EXPECT_EQ(R.Metrics.Hists[MhImbalanceNs].Count,
            static_cast<uint64_t>(R.Steps));
  EXPECT_EQ(R.Metrics.Hists[MhUpdatesPerStep].Count,
            static_cast<uint64_t>(R.Steps));
  EXPECT_EQ(R.Metrics.Hists[MhUpdatesPerStep].Sum, R.Totals.Updated);
  // Every block claim was individually timed: the claimed blocks plus each
  // worker's final empty-handed claim per superstep (a claim that scans
  // other deques takes several locks, so LockAcquires is no proxy).
  EXPECT_EQ(R.Metrics.Hists[MhClaimNs].Count,
            R.Totals.BlocksClaimed + 2u * static_cast<uint64_t>(R.Steps));
  // Gauges settle at quiescence: no live strands, empty work list.
  EXPECT_EQ(R.Metrics.Gauges[MgLiveStrands], 0);
  EXPECT_EQ(R.Metrics.Gauges[MgWorklistDepth], 0);
  EXPECT_EQ(R.Metrics.Gauges[MgWorkers], 2);
}

TEST(RecorderMetrics, UnarmedRunCarriesNoMetrics) {
  std::vector<rt::StrandStatus> S(50, rt::StrandStatus::Active);
  Recorder Rec;
  Rec.start(2); // stats only, metrics unarmed
  int Steps = rt::runParallel(
      S, [&](size_t) { return rt::StrandStatus::Stable; }, 100, 2,
      rt::DefaultBlockSize, &Rec);
  rt::RunStats R = Rec.take(Steps, 2);
  EXPECT_FALSE(R.Metrics.Enabled);
  EXPECT_EQ(R.Metrics.Hists[MhStepWallNs].Count, 0u);
  // Counter views still back the legacy totals.
  EXPECT_EQ(R.Totals.Stabilized, 50u);
}

//===----------------------------------------------------------------------===//
// Prometheus exposition: a scrape parser round-trips it
//===----------------------------------------------------------------------===//

/// Minimal Prometheus text parser: TYPE per metric, samples with an
/// optional {le="..."} label.
struct PromScrape {
  std::map<std::string, std::string> Types;
  std::map<std::string, double> Scalars;
  std::map<std::string, std::vector<std::pair<std::string, double>>> Buckets;
  bool Ok = true;

  explicit PromScrape(const std::string &Text) {
    std::istringstream In(Text);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty())
        continue;
      if (Line[0] == '#') {
        std::istringstream LS(Line);
        std::string Hash, What, Name, Rest;
        LS >> Hash >> What >> Name;
        if (What == "TYPE") {
          LS >> Rest;
          if (Types.count(Name)) { // one TYPE per metric
            Ok = false;
            return;
          }
          Types[Name] = Rest;
        }
        continue;
      }
      size_t Brace = Line.find('{');
      size_t Space = Line.rfind(' ');
      if (Space == std::string::npos) {
        Ok = false;
        return;
      }
      double V = std::strtod(Line.c_str() + Space + 1, nullptr);
      if (Brace != std::string::npos && Brace < Space) {
        std::string Name = Line.substr(0, Brace);
        size_t LeQ = Line.find("le=\"", Brace);
        size_t LeEnd = LeQ == std::string::npos
                           ? std::string::npos
                           : Line.find('"', LeQ + 4);
        if (LeEnd == std::string::npos) {
          Ok = false;
          return;
        }
        Buckets[Name].emplace_back(Line.substr(LeQ + 4, LeEnd - LeQ - 4), V);
      } else {
        Scalars[Line.substr(0, Space)] = V;
      }
    }
  }
};

TEST(Prometheus, ScrapeRoundTripsTypesBucketsAndTotals) {
  rt::RunStats R = runArmed(/*Workers=*/2, 300, 5, /*Block=*/64);
  std::string Text = prometheusText(R.Metrics);
  PromScrape P(Text);
  ASSERT_TRUE(P.Ok) << Text;

  for (int I = 0; I < NumMetricCounters; ++I) {
    const MetricDesc &Dc = counterDesc(I);
    EXPECT_EQ(P.Types[Dc.PromName], "counter");
    ASSERT_TRUE(P.Scalars.count(Dc.PromName)) << Dc.PromName;
    EXPECT_DOUBLE_EQ(P.Scalars[Dc.PromName],
                     static_cast<double>(R.Metrics.Counters[I]));
  }
  for (int I = 0; I < NumMetricGauges; ++I)
    EXPECT_EQ(P.Types[gaugeDesc(I).PromName], "gauge");
  for (int I = 0; I < NumMetricHists; ++I) {
    const MetricDesc &Dc = histDesc(I);
    EXPECT_EQ(P.Types[Dc.PromName], "histogram");
    std::string BName = std::string(Dc.PromName) + "_bucket";
    ASSERT_TRUE(P.Buckets.count(BName)) << BName;
    const auto &Bs = P.Buckets[BName];
    // Cumulative `le` buckets: nondecreasing, ending at +Inf == _count.
    double Prev = -1.0;
    for (const auto &[Le, V] : Bs) {
      EXPECT_GE(V, Prev) << BName << " le=" << Le;
      Prev = V;
    }
    ASSERT_FALSE(Bs.empty());
    EXPECT_EQ(Bs.back().first, "+Inf");
    std::string CName = std::string(Dc.PromName) + "_count";
    ASSERT_TRUE(P.Scalars.count(CName));
    EXPECT_DOUBLE_EQ(Bs.back().second, P.Scalars[CName]);
    EXPECT_DOUBLE_EQ(P.Scalars[CName],
                     static_cast<double>(R.Metrics.Hists[I].Count));
  }
}

TEST(Summary, QuantileTableAppearsOnlyWhenMetricsEnabled) {
  rt::RunStats Armed = runArmed(/*Workers=*/2, 200, 5);
  std::string S = formatSummary(Armed);
  EXPECT_NE(S.find("histogram"), std::string::npos) << S;
  EXPECT_NE(S.find("p50"), std::string::npos);
  EXPECT_NE(S.find("p99"), std::string::npos);
  EXPECT_NE(S.find("step wall"), std::string::npos);

  std::vector<rt::StrandStatus> St(20, rt::StrandStatus::Active);
  Recorder Rec;
  Rec.start(0);
  int Steps = rt::runSequential(
      St, [&](size_t) { return rt::StrandStatus::Stable; }, 100, &Rec);
  std::string Plain = formatSummary(Rec.take(Steps, 0));
  EXPECT_EQ(Plain.find("p99"), std::string::npos) << Plain;
}

//===----------------------------------------------------------------------===//
// Live scraping concurrently with a running parallel step (TSan target)
//===----------------------------------------------------------------------===//

TEST(LiveScrape, SnapshotRacesWithNothingDuringParallelRun) {
  std::vector<rt::StrandStatus> S(5000, rt::StrandStatus::Active);
  std::vector<std::atomic<int>> Count(S.size());
  Recorder Rec;
  Rec.start(4, false, /*CollectMetrics=*/true);
  std::atomic<bool> Done{false};
  std::atomic<int> StepsRun{0};
  std::thread Runner([&] {
    int Steps = rt::runParallel(
        S,
        [&](size_t I) {
          return ++Count[I] >= 20 ? rt::StrandStatus::Stable
                                  : rt::StrandStatus::Active;
        },
        100, 4, 256, &Rec);
    StepsRun.store(Steps, std::memory_order_relaxed);
    Done.store(true, std::memory_order_release);
  });
  uint64_t LastSteps = 0;
  while (!Done.load(std::memory_order_acquire)) {
    MetricsData D = Rec.metricsData();
    // Monotone under concurrent scraping: merged totals only ever grow.
    EXPECT_GE(D.Counters[McSupersteps], LastSteps);
    LastSteps = D.Counters[McSupersteps];
    EXPECT_GE(D.Gauges[MgLiveStrands], 0);
  }
  Runner.join();
  // The final superstep folds in take(); only then is the snapshot complete.
  rt::RunStats R = Rec.take(StepsRun.load(std::memory_order_relaxed), 4);
  EXPECT_EQ(R.Metrics.Counters[McSupersteps], 20u);
  EXPECT_EQ(R.Metrics.Counters[McStabilized], 5000u);
}

//===----------------------------------------------------------------------===//
// RSS sampler and HTTP endpoint
//===----------------------------------------------------------------------===//

TEST(RssSampler, ReportsAPositiveResidentSet) {
#if !defined(__linux__)
  GTEST_SKIP() << "/proc/self/statm is Linux-only";
#endif
  EXPECT_GT(readProcessRssBytes(), 0);
  RssSampler Sampler;
  Sampler.start(/*PeriodMs=*/10);
  EXPECT_GT(Sampler.bytes(), 0);
  Sampler.stop();
  Sampler.stop(); // idempotent
}

#if DIDEROT_TEST_SOCKETS
/// Blocking HTTP/1.0 GET against 127.0.0.1:Port; returns the raw response.
std::string httpGet(int Port, const std::string &Path) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return "";
  }
  std::string Req = "GET " + Path + " HTTP/1.0\r\n\r\n";
  ::send(Fd, Req.data(), Req.size(), 0);
  std::string Resp;
  char Buf[4096];
  ssize_t N;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Resp.append(Buf, static_cast<size_t>(N));
  ::close(Fd);
  return Resp;
}

TEST(MetricsServer, ServesScrapesAndRejectsOtherPaths) {
  rt::RunStats R = runArmed(/*Workers=*/2, 200, 5);
  MetricsData Snapshot = R.Metrics;
  MetricsServer Server;
  Status S = Server.start(0, [&] { return prometheusText(Snapshot); });
  ASSERT_TRUE(S.isOk()) << S.message();
  ASSERT_GT(Server.port(), 0);

  std::string Ok = httpGet(Server.port(), "/metrics");
  EXPECT_NE(Ok.find("200 OK"), std::string::npos) << Ok;
  EXPECT_NE(Ok.find("diderot_supersteps_total"), std::string::npos);
  EXPECT_NE(Ok.find("# TYPE diderot_superstep_wall_seconds histogram"),
            std::string::npos);

  std::string Missing = httpGet(Server.port(), "/nope");
  EXPECT_NE(Missing.find("404"), std::string::npos) << Missing;

  // Several scrapes in a row: one-request-per-connection must not wedge.
  for (int I = 0; I < 3; ++I)
    EXPECT_NE(httpGet(Server.port(), "/metrics").find("200 OK"),
              std::string::npos);
  Server.stop();
  Server.stop(); // idempotent
}

TEST(MetricsServer, LiveScrapeDuringParallelRun) {
  std::vector<rt::StrandStatus> S(5000, rt::StrandStatus::Active);
  std::vector<std::atomic<int>> Count(S.size());
  Recorder Rec;
  Rec.start(2, false, /*CollectMetrics=*/true);
  MetricsServer Server;
  ASSERT_TRUE(
      Server.start(0, [&] { return prometheusText(Rec.metricsData()); })
          .isOk());
  std::thread Runner([&] {
    rt::runParallel(
        S,
        [&](size_t I) {
          return ++Count[I] >= 10 ? rt::StrandStatus::Stable
                                  : rt::StrandStatus::Active;
        },
        100, 2, 256, &Rec);
  });
  std::string Resp = httpGet(Server.port(), "/metrics");
  EXPECT_NE(Resp.find("diderot_live_strands"), std::string::npos);
  Runner.join();
  // After the run the scrape reflects the final folded state.
  std::string Final = httpGet(Server.port(), "/metrics");
  EXPECT_NE(Final.find("diderot_strand_stabilized_total 5000"),
            std::string::npos)
      << Final;
  Server.stop();
}
#endif // DIDEROT_TEST_SOCKETS

//===----------------------------------------------------------------------===//
// Engine-level: interp/native parity and the live instance snapshot
//===----------------------------------------------------------------------===//

// Strand (xi, yi) stabilizes after (xi % 4) + 1 updates; strands with
// yi == 0 die on their first update. Deterministic counter totals.
const char *MixedProgram = R"(
input int res = 12;
strand S (int xi, int yi) {
  int n = 0;
  output real out = 0.0;
  update {
    n += 1;
    out = real(n);
    if (yi == 0) die;
    if (n > xi - (xi / 4) * 4) stabilize;
  }
}
initially [ S(xi, yi) | yi in 0 .. res-1, xi in 0 .. res-1 ];
)";

rt::RunStats runEngine(Engine Eng, int Workers) {
  CompileOptions Opts;
  Opts.Eng = Eng;
  Result<CompiledProgram> CP = compileString(MixedProgram, Opts, "metrics");
  EXPECT_TRUE(CP.isOk()) << CP.message();
  Result<std::unique_ptr<rt::ProgramInstance>> I = CP->instantiate();
  EXPECT_TRUE(I.isOk()) << I.message();
  EXPECT_TRUE((*I)->initialize().isOk());
  rt::RunConfig RC;
  RC.MaxSupersteps = 100;
  RC.NumWorkers = Workers;
  RC.CollectMetrics = true;
  Result<rt::RunStats> R = (*I)->run(RC);
  EXPECT_TRUE(R.isOk()) << R.message();
  return *R;
}

TEST(EngineMetrics, InterpRunCarriesRegistrySnapshot) {
  rt::RunStats R = runEngine(Engine::Interp, 2);
  ASSERT_TRUE(R.Metrics.Enabled);
  EXPECT_EQ(R.Metrics.Counters[McDied], 12u);
  EXPECT_EQ(R.Metrics.Counters[McStabilized], 132u);
  EXPECT_EQ(R.Metrics.Counters[McSupersteps],
            static_cast<uint64_t>(R.Steps));
  EXPECT_EQ(R.Metrics.Hists[MhStepWallNs].Count,
            static_cast<uint64_t>(R.Steps));
}

TEST(EngineMetrics, NativeCountersMatchInterpExactly) {
  rt::RunStats A = runEngine(Engine::Interp, 2);
  rt::RunStats B = runEngine(Engine::Native, 2);
  ASSERT_TRUE(A.Metrics.Enabled);
  ASSERT_TRUE(B.Metrics.Enabled);
  for (int I = 0; I < NumMetricCounters; ++I)
    EXPECT_EQ(A.Metrics.Counters[I], B.Metrics.Counters[I])
        << counterDesc(I).JsonName;
  EXPECT_EQ(A.Metrics.Hists[MhUpdatesPerStep].Sum,
            B.Metrics.Hists[MhUpdatesPerStep].Sum);
}

// A live native scrape copies the registry only when the whole snapshot
// fits the host's buffer, and the host retries until it does, so a barrier
// that adds a histogram bucket between two reads cannot truncate it: once
// the first superstep has published, every scrape reports Enabled.
TEST(EngineMetrics, NativeLiveScrapesStayEnabledDuringA4WorkerRun) {
  // Strand i runs (i % 97) + 1 supersteps, so per-step counts keep landing
  // in new histogram buckets as the population drains.
  const char *Src = R"(
strand S (int i) {
  int n = 0;
  output real out = 0.0;
  update {
    n += 1;
    out = real(n);
    if (n > i - (i / 97) * 97) stabilize;
  }
}
initially [ S(i) | i in 0 .. 99999 ];
)";
  CompileOptions Opts;
  Opts.Eng = Engine::Native;
  Result<CompiledProgram> CP = compileString(Src, Opts, "live_scrape");
  ASSERT_TRUE(CP.isOk()) << CP.message();
  Result<std::unique_ptr<rt::ProgramInstance>> I = CP->instantiate();
  ASSERT_TRUE(I.isOk()) << I.message();
  ASSERT_TRUE((*I)->initialize().isOk());
  rt::RunConfig RC;
  RC.MaxSupersteps = 200;
  RC.NumWorkers = 4;
  RC.BlockSize = 64;
  RC.CollectMetrics = true;
  std::atomic<bool> Done{false};
  Result<rt::RunStats> R = Result<rt::RunStats>::error("not run");
  std::thread Runner([&] {
    R = (*I)->run(RC);
    Done.store(true);
  });
  int Published = 0, Dropped = 0;
  auto Scrape = [&] {
    MetricsData D = (*I)->liveMetrics();
    if (D.Enabled && D.Counters[McSupersteps] >= 1)
      ++Published;
    else if (Published > 0)
      ++Dropped;
  };
  while (!Done.load())
    Scrape();
  Runner.join();
  Scrape(); // the registry stays published after the run
  ASSERT_TRUE(R.isOk()) << R.message();
  EXPECT_EQ(R->Steps, 97);
  EXPECT_GT(Published, 0);
  EXPECT_EQ(Dropped, 0) << "scrapes after superstep 1 came back disabled";
}

TEST(EngineMetrics, StatsJsonEmbedsTheRegistry) {
  rt::RunStats R = runEngine(Engine::Interp, 0);
  std::string J = statsJson(R);
  EXPECT_NE(J.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(J.find("\"strand_updates_total\":"), std::string::npos);
  EXPECT_NE(J.find("\"superstep_wall_ns\":"), std::string::npos);
  EXPECT_NE(J.find("\"p99\":"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Golden-file snapshots of both exposition formats
//===----------------------------------------------------------------------===//

/// Replace the wall-clock-valued pieces of a real run's snapshot with fixed
/// values so the golden text is byte-stable across machines; everything
/// else (counters, updates-per-step, live gauges) is deterministic for a
/// sequential run of MixedProgram.
MetricsData normalizedGoldenData() {
  rt::RunStats R = runEngine(Engine::Interp, /*Workers=*/0);
  MetricsData D = R.Metrics;
  for (int H : {MhStepWallNs, MhImbalanceNs, MhClaimNs}) {
    Histogram Fixed;
    Fixed.start(0);
    for (uint64_t V : {1000u, 2000u, 4000u})
      Fixed.record(V);
    D.Hists[H] = HistData();
    Fixed.snapshot(D.Hists[H]);
  }
  D.Gauges[MgProcessRss] = 0;
  return D;
}

void checkGolden(const std::string &Name, const std::string &Text) {
  std::string Path =
      std::string(DIDEROT_REPO_DIR) + "/tests/golden/" + Name + ".golden";
  if (std::getenv("DIDEROT_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Text;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << " (regenerate with DIDEROT_UPDATE_GOLDEN=1)";
  std::ostringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), Text) << "exposition drifted from " << Path
                            << " (regenerate with DIDEROT_UPDATE_GOLDEN=1 "
                               "if the change is intentional)";
}

TEST(Golden, PrometheusTextMatchesSnapshot) {
  checkGolden("metrics_prom", prometheusText(normalizedGoldenData()));
}

TEST(Golden, MetricsJsonMatchesSnapshot) {
  checkGolden("metrics_json", metricsJson(normalizedGoldenData()));
}

} // namespace
} // namespace diderot
