//===--- observe/metrics.cpp - metrics exposition + RSS sampling -------------===//
//
// Part of the Diderot-C++ reproduction (PLDI 2012).
//
// Host-side half of the metrics registry: the Prometheus text and JSON
// exposition formats and the background process-RSS sampler.
// The registry itself is header-only (observe/metrics.h) because generated
// native code links it; nothing here crosses the dlopen boundary.
//
//===----------------------------------------------------------------------===//

#include "observe/observe.h"

#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace diderot::observe {

namespace {

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (N > 0)
    Out.append(Buf, static_cast<size_t>(N) < sizeof(Buf)
                        ? static_cast<size_t>(N)
                        : sizeof(Buf) - 1);
}

/// One counter/gauge sample with its HELP/TYPE preamble.
void promScalar(std::string &Out, const MetricDesc &Dc, const char *Type,
                int64_t Signed, uint64_t Unsigned, bool IsSigned) {
  appendf(Out, "# HELP %s %s\n# TYPE %s %s\n", Dc.PromName, Dc.Help,
          Dc.PromName, Type);
  if (IsSigned)
    appendf(Out, "%s %" PRId64 "\n", Dc.PromName, Signed);
  else
    appendf(Out, "%s %" PRIu64 "\n", Dc.PromName, Unsigned);
}

/// Append one histogram in Prometheus exposition: cumulative `le` buckets
/// at power-of-two boundaries spanning the observed [Min, Max], then +Inf,
/// _sum, and _count. The registry's log-linear buckets are finer (8 per
/// octave); octave boundaries keep the scrape small while staying exact at
/// each emitted `le` (every registry bucket lies entirely inside one octave).
void promHist(std::string &Out, const MetricDesc &Dc, const HistData &H) {
  appendf(Out, "# HELP %s %s\n# TYPE %s histogram\n", Dc.PromName, Dc.Help,
          Dc.PromName);
  auto leLabel = [&](uint64_t B) {
    std::string L;
    if (Dc.Seconds)
      appendf(L, "%.10g", static_cast<double>(B) / 1e9);
    else
      appendf(L, "%" PRIu64, B);
    return L;
  };
  if (H.Count) {
    int K0 = 0;
    while (K0 < 63 && (uint64_t(1) << K0) <= H.Min)
      ++K0; // first boundary above Min
    int K1 = K0;
    while (K1 < 63 && (uint64_t(1) << K1) <= H.Max)
      ++K1; // first boundary >= every sample (when Max < 2^63)
    for (int K = K0; K <= K1; ++K) {
      uint64_t B = uint64_t(1) << K;
      uint64_t Cum = 0;
      for (const auto &[Idx, C] : H.Buckets) {
        if (histBucketHi(static_cast<int>(Idx)) > B)
          break; // buckets sorted; upper bounds monotone
        Cum += C;
      }
      appendf(Out, "%s_bucket{le=\"%s\"} %" PRIu64 "\n", Dc.PromName,
              leLabel(B).c_str(), Cum);
    }
  }
  appendf(Out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", Dc.PromName, H.Count);
  if (Dc.Seconds)
    appendf(Out, "%s_sum %.9g\n", Dc.PromName,
            static_cast<double>(H.Sum) / 1e9);
  else
    appendf(Out, "%s_sum %" PRIu64 "\n", Dc.PromName, H.Sum);
  appendf(Out, "%s_count %" PRIu64 "\n", Dc.PromName, H.Count);
}

} // namespace

std::string prometheusText(const MetricsData &D) {
  std::string Out;
  for (int I = 0; I < NumMetricCounters; ++I)
    promScalar(Out, counterDesc(I), "counter", 0, D.Counters[I], false);
  for (int I = 0; I < NumMetricGauges; ++I)
    promScalar(Out, gaugeDesc(I), "gauge", D.Gauges[I], 0, true);
  for (int I = 0; I < NumMetricHists; ++I)
    promHist(Out, histDesc(I), D.Hists[I]);
  return Out;
}

std::string metricsJson(const MetricsData &D) {
  std::string Out;
  appendf(Out, "{\"enabled\":%s,\"counters\":{", D.Enabled ? "true" : "false");
  for (int I = 0; I < NumMetricCounters; ++I)
    appendf(Out, "%s\"%s\":%" PRIu64, I ? "," : "", counterDesc(I).JsonName,
            D.Counters[I]);
  Out += "},\"gauges\":{";
  for (int I = 0; I < NumMetricGauges; ++I)
    appendf(Out, "%s\"%s\":%" PRId64, I ? "," : "", gaugeDesc(I).JsonName,
            D.Gauges[I]);
  Out += "},\"histograms\":{";
  for (int I = 0; I < NumMetricHists; ++I) {
    const HistData &H = D.Hists[I];
    appendf(Out,
            "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
            ",\"min\":%" PRIu64 ",\"max\":%" PRIu64,
            I ? "," : "", histDesc(I).JsonName, H.Count, H.Sum, H.Min, H.Max);
    appendf(Out, ",\"mean\":%.9g,\"p50\":%.9g,\"p90\":%.9g,\"p99\":%.9g",
            H.mean(), H.quantile(0.5), H.quantile(0.9), H.quantile(0.99));
    Out += ",\"buckets\":[";
    for (size_t B = 0; B < H.Buckets.size(); ++B)
      appendf(Out, "%s[%u,%" PRIu64 "]", B ? "," : "", H.Buckets[B].first,
              H.Buckets[B].second);
    Out += "]}";
  }
  Out += "}}";
  return Out;
}

int64_t readProcessRssBytes() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  long long Total = 0, Resident = 0;
  int Got = std::fscanf(F, "%lld %lld", &Total, &Resident);
  std::fclose(F);
  if (Got != 2)
    return 0;
  long Page = 4096;
#if defined(_SC_PAGESIZE)
  long P = ::sysconf(_SC_PAGESIZE);
  if (P > 0)
    Page = P;
#endif
  return static_cast<int64_t>(Resident) * Page;
}

RssSampler::~RssSampler() { stop(); }

void RssSampler::start(int PeriodMs) {
  std::lock_guard<std::mutex> G(Mu);
  if (T.joinable())
    return;
  Quit = false;
  Rss.store(readProcessRssBytes(), std::memory_order_relaxed);
  int Period = PeriodMs < 1 ? 1 : PeriodMs;
  T = std::thread([this, Period] {
    std::unique_lock<std::mutex> L(Mu);
    while (!Quit) {
      Cv.wait_for(L, std::chrono::milliseconds(Period));
      if (Quit)
        break;
      L.unlock();
      Rss.store(readProcessRssBytes(), std::memory_order_relaxed);
      L.lock();
    }
  });
}

void RssSampler::stop() {
  {
    std::lock_guard<std::mutex> G(Mu);
    if (!T.joinable())
      return;
    Quit = true;
  }
  Cv.notify_all();
  T.join();
  T = std::thread();
}

} // namespace diderot::observe
