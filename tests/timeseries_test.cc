// Tests for the telemetry history ring, the background harvester, the
// stalled-request watchdog and the gea_stat_history surfaces
// (obs/timeseries.h). "parallel" label: the concurrent-scrape test
// re-runs under TSan, where harvest vs. snapshot must come out clean.
//
// When GEA_STATS_EXPORT names a file, the harvested /statz?history=1
// payload is written there for tools/check_history.py (the CI step),
// mirroring the GEA_TRACE_EXPORT hook in serve_e2e_test.

#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "obs/clock.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/server.h"
#include "obs/statviews.h"
#include "obs/trace.h"

namespace gea::obs {
namespace {

const SeriesPoint* FindPoint(const HistorySample& sample,
                             const std::string& name) {
  for (const SeriesPoint& point : sample.points) {
    if (point.name == name) return &point;
  }
  return nullptr;
}

TEST(TelemetryHistoryTest, HarvestSamplesCountersGaugesAndHistograms) {
  ScopedMetricsEnable metrics(true);
  MetricsRegistry::Global().GetCounter("test.ts.flow").Add(10);
  MetricsRegistry::Global().GetGauge("test.ts.level").Set(-4);
  MetricsRegistry::Global().GetHistogram("test.ts.nanos").Record(1000);

  TelemetryHistory history(/*retention=*/8);
  history.Harvest();
  MetricsRegistry::Global().GetCounter("test.ts.flow").Add(5);
  MetricsRegistry::Global().GetGauge("test.ts.level").Set(3);
  history.Harvest();

  const std::vector<HistorySample> samples = history.Snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].sample_id, 1u);
  EXPECT_EQ(samples[1].sample_id, 2u);
  EXPECT_GE(samples[1].nanos, samples[0].nanos);

  // First sighting of a series: value, no delta (nothing to diff).
  const SeriesPoint* first = FindPoint(samples[0], "test.ts.flow");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->value, 10);
  EXPECT_EQ(first->delta, 0);
  EXPECT_TRUE(first->monotonic);

  // Second tick: the counter's delta and a positive per-second rate.
  const SeriesPoint* second = FindPoint(samples[1], "test.ts.flow");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->value, 15);
  EXPECT_EQ(second->delta, 5);
  EXPECT_GT(second->rate, 0.0);

  // Gauges carry deltas both ways but never a rate.
  const SeriesPoint* level = FindPoint(samples[1], "test.ts.level");
  ASSERT_NE(level, nullptr);
  EXPECT_EQ(level->value, 3);
  EXPECT_EQ(level->delta, 7);
  EXPECT_EQ(level->rate, 0.0);
  EXPECT_FALSE(level->monotonic);

  // Histograms expand to .count/.p50/.p99 series.
  EXPECT_NE(FindPoint(samples[1], "test.ts.nanos.count"), nullptr);
  EXPECT_NE(FindPoint(samples[1], "test.ts.nanos.p50"), nullptr);
  EXPECT_NE(FindPoint(samples[1], "test.ts.nanos.p99"), nullptr);
  const SeriesPoint* count = FindPoint(samples[1], "test.ts.nanos.count");
  EXPECT_TRUE(count->monotonic);
  EXPECT_GE(count->value, 1);

  // Points within a sample are sorted by name.
  for (size_t i = 1; i < samples[1].points.size(); ++i) {
    EXPECT_LE(samples[1].points[i - 1].name, samples[1].points[i].name);
  }
}

TEST(TelemetryHistoryTest, RetentionCapsTheRing) {
  ScopedMetricsEnable metrics(true);
  MetricsRegistry::Global().GetCounter("test.ts.ring").Add(1);

  TelemetryHistory history(/*retention=*/3);
  for (int i = 0; i < 7; ++i) history.Harvest();

  EXPECT_EQ(history.Harvests(), 7u);
  const std::vector<HistorySample> samples = history.Snapshot();
  ASSERT_EQ(samples.size(), 3u);  // oldest evicted
  EXPECT_EQ(samples[0].sample_id, 5u);
  EXPECT_EQ(samples[2].sample_id, 7u);
}

TEST(TelemetryHistoryTest, StatHistoryTableAndViewRender) {
  ScopedMetricsEnable metrics(true);
  MetricsRegistry::Global().GetCounter("test.ts.view").Add(2);

  TelemetryHistory history(/*retention=*/4);
  history.Harvest();
  history.Harvest();

  rel::Table table = StatHistoryTable(history.Snapshot());
  EXPECT_EQ(table.name(), "gea_stat_history");
  ASSERT_EQ(table.schema().NumColumns(), 6u);
  EXPECT_EQ(table.schema().column(0).name, "sample");
  EXPECT_EQ(table.schema().column(2).name, "name");
  EXPECT_EQ(table.schema().column(5).name, "rate");
  EXPECT_GT(table.NumRows(), 0u);

  // The registered view builds from the global ring.
  TelemetryHistory::Global().Harvest();
  Result<rel::Table> view = BuildStatView(kStatHistoryView);
  ASSERT_TRUE(view.ok());
  EXPECT_GT(view->NumRows(), 0u);
}

TEST(TelemetryHistoryTest, HistoryJsonIsValidAndExportable) {
  ScopedMetricsEnable metrics(true);
  MetricsRegistry::Global().GetCounter("test.ts.json").Add(3);
  TelemetryHistory::Global().Harvest();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  TelemetryHistory::Global().Harvest();

  // Rendered exactly as /statz?history=1 serves it.
  internal::HttpResponse response =
      internal::HandlePath("/statz", "history=1");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  std::string error;
  ASSERT_TRUE(internal::ValidateJson(response.body, &error)) << error;
  EXPECT_NE(response.body.find("\"retention\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"harvests\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"samples\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"test.ts.json\""), std::string::npos);

  // CI points GEA_STATS_EXPORT at a file and runs tools/check_history.py
  // over it; without the variable the in-test checks stand alone.
  if (const char* path = std::getenv("GEA_STATS_EXPORT")) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << response.body;
  }
}

TEST(TelemetryHistoryTest, HarvesterRunsAtCadenceAndStops) {
  ScopedMetricsEnable metrics(true);
  const uint64_t before = TelemetryHistory::Global().Harvests();

  Harvester harvester;
  HarvesterOptions options;
  options.interval_ms = 5;
  ASSERT_TRUE(harvester.Start(options));
  EXPECT_TRUE(harvester.Running());
  EXPECT_FALSE(harvester.Start(options));  // already running

  while (TelemetryHistory::Global().Harvests() < before + 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  harvester.Stop();
  EXPECT_FALSE(harvester.Running());
  harvester.Stop();  // idempotent

  const uint64_t after = TelemetryHistory::Global().Harvests();
  EXPECT_GE(after, before + 3);
  // Stopped means stopped: no more ticks land.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(TelemetryHistory::Global().Harvests(), after);
}

TEST(TelemetryHistoryTest, ConcurrentScrapeDuringHarvestIsClean) {
  ScopedMetricsEnable metrics(true);
  MetricsRegistry::Global().GetCounter("test.ts.scrape").Add(1);

  Harvester harvester;
  HarvesterOptions options;
  options.interval_ms = 1;
  ASSERT_TRUE(harvester.Start(options));

  // Scrape every surface while the harvester ticks underneath: whole
  // samples only, never a torn one (TSan enforces the "clean" part).
  std::atomic<bool> stop{false};
  std::thread scraper([&stop] {
    while (!stop.load()) {
      const std::vector<HistorySample> samples =
          TelemetryHistory::Global().Snapshot();
      for (size_t i = 1; i < samples.size(); ++i) {
        EXPECT_GT(samples[i].sample_id, samples[i - 1].sample_id);
        EXPECT_GE(samples[i].nanos, samples[i - 1].nanos);
      }
      (void)HistoryJson();
    }
  });
  std::thread sql_scraper([&stop] {
    while (!stop.load()) {
      (void)BuildStatView(kStatHistoryView);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  scraper.join();
  sql_scraper.join();
  harvester.Stop();
}

TEST(WatchdogTest, FlagsAndLogsStalledRequestsOnce) {
  ScopedLogCapture capture(LogLevel::kWarn);

  InflightRequest stalled;
  stalled.trace_id = 777;
  stalled.op = "aggregate";
  stalled.user = "admin";
  stalled.start_nanos = NowNanos() - 50'000'000ull;  // "executing" for 50ms
  stalled.worker_tid = 9;
  ScopedInflightRequest scope(std::move(stalled));

  InflightRequest fresh;
  fresh.trace_id = 778;
  fresh.op = "ping";
  fresh.start_nanos = NowNanos();
  ScopedInflightRequest fresh_scope(std::move(fresh));

  // Only the 50ms-old request crosses the 10ms threshold.
  EXPECT_EQ(WatchdogSweep(/*threshold_ms=*/10), 1u);
  // One log line per request, ever: a second sweep flags nothing.
  EXPECT_EQ(WatchdogSweep(/*threshold_ms=*/10), 0u);

  const std::string log = capture.str();
  EXPECT_NE(log.find("\"event\":\"stalled_request\""), std::string::npos)
      << log;
  EXPECT_NE(log.find("\"trace_id\":777"), std::string::npos) << log;
  EXPECT_NE(log.find("\"op\":\"aggregate\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"spans\":["), std::string::npos) << log;
  EXPECT_EQ(log.find("\"trace_id\":778"), std::string::npos) << log;
}

TEST(WatchdogTest, StalledRequestLogCarriesTheSpansOfItsSink) {
  ScopedLogCapture capture(LogLevel::kWarn);
  ScopedTraceEnable trace(true);

  // The spans the stalled request has recorded so far.
  SpanSink sink;
  {
    ContextScope context({.trace_id = 555, .spans = &sink});
    TraceSpan outer("populate");
    { TraceSpan inner("populate.verify"); }
  }
  InflightRequest stalled;
  stalled.trace_id = 555;
  stalled.op = "populate";
  stalled.start_nanos = NowNanos() - 50'000'000ull;
  stalled.spans = &sink;
  ScopedInflightRequest scope(std::move(stalled));

  EXPECT_EQ(WatchdogSweep(/*threshold_ms=*/10), 1u);
  const std::string log = capture.str();
  EXPECT_NE(log.find("\"trace_id\":555"), std::string::npos) << log;
  const size_t spans_at = log.find("\"spans\":[");
  ASSERT_NE(spans_at, std::string::npos) << log;
  // Both spans, in start order: the outer one opened first.
  const size_t outer_at = log.find("\"name\":\"populate\"", spans_at);
  const size_t inner_at = log.find("\"name\":\"populate.verify\"", spans_at);
  EXPECT_NE(outer_at, std::string::npos) << log;
  EXPECT_NE(inner_at, std::string::npos) << log;
  EXPECT_LT(outer_at, inner_at) << log;
}

TEST(WatchdogTest, HarvesterRunsTheWatchdog) {
  ScopedMetricsEnable metrics(true);
  ScopedLogCapture capture(LogLevel::kWarn);

  InflightRequest stalled;
  stalled.trace_id = 991;
  stalled.op = "mine";
  stalled.start_nanos = NowNanos() - 200'000'000ull;
  ScopedInflightRequest scope(std::move(stalled));

  Harvester harvester;
  HarvesterOptions options;
  options.interval_ms = 5;
  options.watchdog_ms = 20;
  ASSERT_TRUE(harvester.Start(options));
  // The first tick flags the pre-aged request.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (capture.str().find("\"trace_id\":991") == std::string::npos) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << capture.str();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  harvester.Stop();
  EXPECT_NE(capture.str().find("\"event\":\"stalled_request\""),
            std::string::npos);
}

}  // namespace
}  // namespace gea::obs
