// Tests for the observability layer (DESIGN.md, "Observability"): the
// metrics registry, scoped trace spans, the exporters and the EXPLAIN
// capture. Labelled "parallel": the registry hammer and the trace
// propagation tests exercise the pool and run under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/enum_table.h"
#include "core/gap.h"
#include "core/operators.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"

namespace gea::obs {
namespace {

// The concurrency hammer below is a TSan target: force real pool
// helpers even on single-core hosts so threads actually interleave.
ForceParallelHelpersScope g_force_helpers;

// ---- Enablement gates ----

TEST(MetricsGateTest, DisabledByDefaultAndOverrideRestores) {
  // No GEA_METRICS in the test environment, no override: off.
  EXPECT_FALSE(MetricsEnabled());
  {
    ScopedMetricsEnable on(true);
    EXPECT_TRUE(MetricsEnabled());
    {
      ScopedMetricsEnable off(false);
      EXPECT_FALSE(MetricsEnabled());
    }
    EXPECT_TRUE(MetricsEnabled());
  }
  EXPECT_FALSE(MetricsEnabled());
}

TEST(MetricsGateTest, ParseBoolFlag) {
  EXPECT_TRUE(internal::ParseBoolFlag("1"));
  EXPECT_TRUE(internal::ParseBoolFlag("true"));
  EXPECT_TRUE(internal::ParseBoolFlag("on"));
  EXPECT_TRUE(internal::ParseBoolFlag("yes"));
  EXPECT_FALSE(internal::ParseBoolFlag(nullptr));
  EXPECT_FALSE(internal::ParseBoolFlag(""));
  EXPECT_FALSE(internal::ParseBoolFlag("0"));
  EXPECT_FALSE(internal::ParseBoolFlag("TRUE"));  // case sensitive
  EXPECT_FALSE(internal::ParseBoolFlag("2"));
}

TEST(MetricsGateTest, DisabledRecordingIsANoOp) {
  ScopedMetricsEnable off(false);
  Counter c;
  c.Add(7);
  EXPECT_EQ(c.Value(), 0u);
  Gauge g;
  g.Set(5);
  g.Add(3);
  EXPECT_EQ(g.Value(), 0);
  Histogram h;
  h.Record(100);
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
}

// ---- Registry and metric objects ----

TEST(MetricsRegistryTest, SameNameReturnsSameObject) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &registry.GetCounter("y"));
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  ScopedMetricsEnable on(true);
  MetricsRegistry registry;
  registry.GetCounter("zeta").Add(1);
  registry.GetCounter("alpha").Add(2);
  registry.GetGauge("mid").Set(-4);
  registry.GetHistogram("lat").Record(1000);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[0].value, 2u);
  EXPECT_EQ(snap.counters[1].name, "zeta");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -4);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].sum, 1000u);
}

TEST(MetricsRegistryTest, ResetForTestKeepsRegistrations) {
  ScopedMetricsEnable on(true);
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("c");
  c.Add(9);
  registry.ResetForTest();
  EXPECT_EQ(c.Value(), 0u);   // cached reference still valid, value zeroed
  c.Add(1);
  EXPECT_EQ(c.Value(), 1u);
}

TEST(HistogramTest, BucketIndexAndBounds) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(HistogramBucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramBucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramBucketUpperBound(2), 3u);
  EXPECT_EQ(HistogramBucketUpperBound(3), 7u);
  // Everything past the last bucket folds into it.
  EXPECT_EQ(Histogram::BucketIndex(~0ull), kHistogramBuckets - 1);
}

TEST(HistogramTest, BucketBoundariesPinned) {
  // Pin the 48-bucket power-of-two mapping exactly: bucket i (for
  // 1 <= i < 47) covers (2^(i-1), 2^i - 1]... meaning a value v lands in
  // bucket bit_width(v), capped at 47.
  for (size_t i = 1; i + 1 < kHistogramBuckets; ++i) {
    const uint64_t power = 1ull << i;
    // 2^i is the smallest value of bucket i+1; 2^i - 1 the largest of i.
    EXPECT_EQ(Histogram::BucketIndex(power), i + 1) << "value 2^" << i;
    EXPECT_EQ(Histogram::BucketIndex(power - 1), i) << "value 2^" << i
                                                    << " - 1";
  }
  // The extremes.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(1ull << 47), kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(~0ull), kHistogramBuckets - 1);

  // Upper bounds: 0 for the zero bucket, 2^i - 1 in the middle, and the
  // overflow bucket is unbounded (UINT64_MAX).
  EXPECT_EQ(HistogramBucketUpperBound(0), 0u);
  for (size_t i = 1; i + 1 < kHistogramBuckets; ++i) {
    EXPECT_EQ(HistogramBucketUpperBound(i), (1ull << i) - 1) << "bucket " << i;
  }
  EXPECT_EQ(HistogramBucketUpperBound(kHistogramBuckets - 1), ~0ull);

  // Round trip: every bucket's upper bound maps back into that bucket.
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(HistogramBucketUpperBound(i)), i);
  }
}

TEST(HistogramTest, QuantilesFromBuckets) {
  ScopedMetricsEnable on(true);
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("h");
  for (int i = 0; i < 90; ++i) h.Record(10);    // bucket ub 15
  for (int i = 0; i < 10; ++i) h.Record(1000);  // bucket ub 1023
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramValue& hv = snap.histograms[0];
  EXPECT_EQ(hv.count, 100u);
  EXPECT_EQ(hv.ApproxQuantile(0.50), 15u);
  EXPECT_EQ(hv.ApproxQuantile(0.95), 1023u);
  EXPECT_DOUBLE_EQ(hv.Mean(), (90 * 10 + 10 * 1000) / 100.0);
}

TEST(MetricsRegistryTest, DiffCountersReportsPositiveDeltas) {
  ScopedMetricsEnable on(true);
  MetricsRegistry registry;
  registry.GetCounter("stays").Add(5);
  MetricsSnapshot before = registry.Snapshot();
  registry.GetCounter("moves").Add(3);
  registry.GetCounter("stays").Add(0);
  MetricsSnapshot after = registry.Snapshot();
  std::vector<CounterDelta> deltas = DiffCounters(before, after);
  ASSERT_EQ(deltas.size(), 1u);  // "stays" did not move, "moves" is new
  EXPECT_EQ(deltas[0].name, "moves");
  EXPECT_EQ(deltas[0].delta, 3u);
}

// ---- Concurrency hammer (the TSan target) ----

TEST(MetricsRegistryTest, ConcurrentRecordingFromPoolWorkers) {
  ScopedMetricsEnable on(true);
  ThreadCountOverride threads(8);
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t c_before = registry.GetCounter("obs_test.hammer.c").Value();
  const uint64_t h_before =
      registry.GetHistogram("obs_test.hammer.h").Count();

  const size_t n = 100000;
  ParallelFor(0, n, 64, [&](size_t begin, size_t end) {
    // GetCounter from workers on purpose: registration must be
    // thread-safe and return stable references under contention.
    Counter& c = registry.GetCounter("obs_test.hammer.c");
    Histogram& h = registry.GetHistogram("obs_test.hammer.h");
    Gauge& g = registry.GetGauge("obs_test.hammer.g");
    for (size_t i = begin; i < end; ++i) {
      c.Add(1);
      if (i % 100 == 0) h.Record(i);
      g.Set(static_cast<int64_t>(i));
    }
  });

  EXPECT_EQ(registry.GetCounter("obs_test.hammer.c").Value() - c_before, n);
  EXPECT_EQ(registry.GetHistogram("obs_test.hammer.h").Count() - h_before,
            n / 100);
}

// ---- Kernel batching (gea.core.tag_lookups) ----

TEST(KernelCountersTest, TagIdsResolveOncePerTagNotOncePerValue) {
  // The batch kernels hoist tag-id resolution out of the inner loops:
  // aggregate() and diff() each charge gea.core.tag_lookups once per
  // output tag, not once per (library, tag) cell the row-at-a-time
  // paths used to pay. 8 libraries x 100 tags makes the distinction
  // unambiguous: a per-cell count would be 800+.
  constexpr size_t kLibs = 8;
  constexpr size_t kTags = 100;
  std::vector<sage::LibraryMeta> libs(kLibs);
  for (size_t i = 0; i < kLibs; ++i) {
    libs[i].id = static_cast<int>(i + 1);
    libs[i].name = "L" + std::to_string(i + 1);
  }
  std::vector<sage::TagId> tags(kTags);
  for (size_t t = 0; t < kTags; ++t) tags[t] = static_cast<sage::TagId>(t);
  std::vector<double> values(kLibs * kTags);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>((i * 37) % 101);
  }
  Result<core::EnumTable> e =
      core::EnumTable::FromRows("E", libs, tags, values);
  ASSERT_TRUE(e.ok());

  ScopedMetricsEnable on(true);
  Counter& lookups =
      MetricsRegistry::Global().GetCounter("gea.core.tag_lookups");

  uint64_t before = lookups.Value();
  Result<core::SumyTable> sumy = core::Aggregate(*e, "S");
  ASSERT_TRUE(sumy.ok());
  EXPECT_EQ(lookups.Value() - before, kTags);

  before = lookups.Value();
  Result<core::GapTable> gap = core::Diff(*sumy, *sumy, "G");
  ASSERT_TRUE(gap.ok());
  EXPECT_EQ(lookups.Value() - before, kTags);
}

// ---- Trace spans ----

TEST(TraceTest, DisabledSpanHasZeroIdAndRecordsNothing) {
  ScopedTraceEnable off(false);
  SpanSink sink;
  ContextScope scope({.spans = &sink});
  {
    TraceSpan span("invisible");
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_TRUE(sink.spans.empty());
}

TEST(TraceTest, SpansNestAndLandInTheSinkInStartOrder) {
  ScopedTraceEnable on(true);
  SpanSink sink;
  ContextScope scope({.trace_id = 42, .spans = &sink});
  uint64_t outer_id = 0;
  {
    TraceSpan outer("outer");
    outer_id = outer.id();
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(CurrentContext().parent_span, outer_id);
    {
      TraceSpan inner("inner");
      EXPECT_EQ(CurrentContext().parent_span, inner.id());
      { TraceSpan leaf("leaf"); }
    }
    EXPECT_EQ(CurrentContext().parent_span, outer_id);
  }
  EXPECT_EQ(CurrentContext().parent_span, 0u);

  std::vector<SpanRecord> spans = CopySpans(sink);
  ASSERT_EQ(spans.size(), 3u);
  // Sorted by (start_nanos, id): open order outer -> inner -> leaf.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "leaf");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  EXPECT_EQ(spans[2].parent_id, spans[1].id);
  EXPECT_GE(spans[0].duration_nanos, spans[1].duration_nanos);
  for (const SpanRecord& span : spans) EXPECT_EQ(span.trace_id, 42u);

  // A copy from an index skips the spans before it.
  EXPECT_EQ(CopySpans(sink, 2).size(), 1u);
  EXPECT_TRUE(CopySpans(sink, 3).empty());
}

TEST(TraceTest, SpansWithNoSinkAreDropped) {
  ScopedTraceEnable on(true);
  ASSERT_EQ(CurrentContext().spans, nullptr);
  SpanSink sink;
  {
    TraceSpan outer("outer");  // closes with no sink bound: dropped
    ContextScope scope({.spans = &sink});
    { TraceSpan inner("inner"); }
  }
  ASSERT_EQ(sink.spans.size(), 1u);
  EXPECT_EQ(sink.spans[0].name, "inner");
}

TEST(TraceTest, SampledContextRecordsWithTraceOff) {
  ScopedTraceEnable off(false);
  EXPECT_FALSE(SpanRecordingEnabled());
  SpanSink sink;
  {
    ContextScope scope({.trace_id = 7, .sampled = true, .spans = &sink});
    EXPECT_TRUE(SpanRecordingEnabled());
    { TraceSpan span("sampled"); }
  }
  EXPECT_FALSE(SpanRecordingEnabled());
  ASSERT_EQ(sink.spans.size(), 1u);
  EXPECT_EQ(sink.spans[0].trace_id, 7u);
}

TEST(ContextScopeTest, NestedScopesShadowAndRestoreTheWholeContext) {
  SpanSink outer_sink;
  SpanSink inner_sink;
  {
    ContextScope outer({.trace_id = 1, .sampled = true, .parent_span = 5,
                        .spans = &outer_sink});
    {
      ContextScope inner({.trace_id = 2, .spans = &inner_sink});
      EXPECT_EQ(CurrentContext().trace_id, 2u);
      EXPECT_FALSE(CurrentContext().sampled);
      EXPECT_EQ(CurrentContext().parent_span, 0u);
      EXPECT_EQ(CurrentContext().spans, &inner_sink);
    }
    EXPECT_EQ(CurrentContext().trace_id, 1u);
    EXPECT_TRUE(CurrentContext().sampled);
    EXPECT_EQ(CurrentContext().parent_span, 5u);
    EXPECT_EQ(CurrentContext().spans, &outer_sink);
  }
  EXPECT_EQ(CurrentContext().trace_id, 0u);
  EXPECT_FALSE(CurrentContext().sampled);
  EXPECT_EQ(CurrentContext().spans, nullptr);
}

TEST(TraceTest, ParallelForChunksAttachToCallingSpan) {
  ScopedTraceEnable on(true);
  ThreadCountOverride threads(4);
  SpanSink sink;
  StageNanos stages;
  std::atomic<int> wrong_context{0};
  {
    ContextScope scope({.trace_id = 9, .stages = &stages, .spans = &sink});
    TraceSpan op("op");
    std::atomic<size_t> covered{0};
    ParallelFor(0, 4096, 64, [&](size_t begin, size_t end) {
      covered.fetch_add(end - begin);
      // Helpers carry the caller's trace and sink, never its stages.
      const RequestContext& context = CurrentContext();
      const bool caller = context.stages == &stages;
      if (context.trace_id != 9 || context.spans != &sink ||
          (!caller && context.stages != nullptr)) {
        wrong_context.fetch_add(1);
      }
    });
    EXPECT_EQ(covered.load(), 4096u);
  }
  EXPECT_EQ(wrong_context.load(), 0);
  std::vector<SpanRecord> spans = CopySpans(sink);

  uint64_t op_id = 0, pf_id = 0;
  size_t chunk_count = 0;
  for (const SpanRecord& span : spans) {
    if (span.name == "op") op_id = span.id;
    if (span.name == "parallel_for") pf_id = span.id;
  }
  ASSERT_NE(op_id, 0u);
  ASSERT_NE(pf_id, 0u);
  for (const SpanRecord& span : spans) {
    EXPECT_EQ(span.trace_id, 9u);
    if (span.name == "parallel_for") {
      EXPECT_EQ(span.parent_id, op_id);
    }
    if (span.name == "chunk") {
      // Worker-side spans attach to the parallel_for span of the
      // submitting thread through the copied context.
      EXPECT_EQ(span.parent_id, pf_id);
      ++chunk_count;
    }
  }
  EXPECT_GE(chunk_count, 2u);

  // The helpers' context did not outlive the call: every pool worker is
  // back to an empty one. Each probe task waits until all of them run, so
  // every worker takes exactly one.
  ThreadPool& pool = SharedThreadPool();
  const size_t workers = pool.NumThreads();
  std::mutex mu;
  std::condition_variable cv;
  size_t arrived = 0;
  size_t finished = 0;
  int leaked = 0;
  for (size_t i = 0; i < workers; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == workers; });
      const RequestContext& context = CurrentContext();
      if (context.trace_id != 0 || context.sampled ||
          context.parent_span != 0 || context.account != nullptr ||
          context.stages != nullptr || context.spans != nullptr) {
        ++leaked;
      }
      ++finished;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return finished == workers; });
  EXPECT_EQ(leaked, 0);
}

// ---- Exporters ----

MetricsSnapshot ExampleSnapshot() {
  ScopedMetricsEnable on(true);
  MetricsRegistry registry;
  registry.GetCounter("gea.test.rows").Add(42);
  registry.GetGauge("gea.test.level").Set(-7);
  Histogram& h = registry.GetHistogram("gea.test.nanos");
  h.Record(10);
  h.Record(1000);
  return registry.Snapshot();
}

TEST(ExportTest, RenderTableGolden) {
  const std::string expected =
      "counters:\n"
      "  gea.test.rows  42\n"
      "gauges:\n"
      "  gea.test.level  -7\n"
      "histograms:\n"
      "  gea.test.nanos  count=2 mean=505.0 p50<=15 p95<=1023\n";
  EXPECT_EQ(RenderTable(ExampleSnapshot()), expected);
  EXPECT_EQ(RenderTable(MetricsSnapshot{}), "(no metrics recorded)\n");
}

TEST(ExportTest, RenderJsonLinesGoldenAndValid) {
  const std::string out = RenderJsonLines(ExampleSnapshot());
  const std::string expected =
      "{\"type\":\"counter\",\"name\":\"gea.test.rows\",\"value\":42}\n"
      "{\"type\":\"gauge\",\"name\":\"gea.test.level\",\"value\":-7}\n"
      "{\"type\":\"histogram\",\"name\":\"gea.test.nanos\",\"count\":2,"
      "\"sum\":1010,\"mean\":505.000,\"p50\":15,\"p95\":1023}\n";
  EXPECT_EQ(out, expected);
  size_t start = 0;
  while (start < out.size()) {
    const size_t nl = out.find('\n', start);
    std::string error;
    EXPECT_TRUE(internal::ValidateJson(out.substr(start, nl - start), &error))
        << error;
    start = nl + 1;
  }
}

TEST(ExportTest, RenderPrometheusGolden) {
  const std::string out = RenderPrometheus(ExampleSnapshot());
  // The build-identity pair always leads the exposition, even for an
  // empty registry; uptime moves between calls so only its shape is
  // golden.
  EXPECT_EQ(out.rfind("# TYPE gea_build_info gauge\n", 0), 0u);
  EXPECT_NE(out.find("gea_build_info{version=\"1.0.0\",compiler=\""),
            std::string::npos);
  EXPECT_NE(out.find("\",arch=\""), std::string::npos);
  EXPECT_NE(out.find("# TYPE gea_uptime_seconds gauge\ngea_uptime_seconds "),
            std::string::npos);
  const std::string expected =
      "# TYPE gea_test_rows counter\n"
      "gea_test_rows 42\n"
      "# TYPE gea_test_level gauge\n"
      "gea_test_level -7\n"
      "# TYPE gea_test_nanos histogram\n"
      "gea_test_nanos_bucket{le=\"15\"} 1\n"
      "gea_test_nanos_bucket{le=\"1023\"} 2\n"
      "gea_test_nanos_bucket{le=\"+Inf\"} 2\n"
      "gea_test_nanos_sum 1010\n"
      "gea_test_nanos_count 2\n";
  // The snapshot's metrics render unchanged after the preamble.
  const size_t preamble_end = out.find("# TYPE gea_test_rows");
  ASSERT_NE(preamble_end, std::string::npos);
  EXPECT_EQ(out.substr(preamble_end), expected);
}

TEST(ExportTest, PrometheusMetricNameSanitizes) {
  // Legal names pass through untouched.
  EXPECT_EQ(PrometheusMetricName("gea_rows_total"), "gea_rows_total");
  EXPECT_EQ(PrometheusMetricName("ns:sub:metric"), "ns:sub:metric");
  // Dots and dashes (the GEA house style) become underscores.
  EXPECT_EQ(PrometheusMetricName("gea.populate.rows"), "gea_populate_rows");
  EXPECT_EQ(PrometheusMetricName("cache-hit-rate"), "cache_hit_rate");
  // Hostile characters: quotes, braces, spaces, newlines.
  EXPECT_EQ(PrometheusMetricName("a\"b{c}d e\nf"), "a_b_c_d_e_f");
  // A leading digit is illegal in the exposition grammar.
  EXPECT_EQ(PrometheusMetricName("2fast"), "_2fast");
  EXPECT_EQ(PrometheusMetricName(""), "_");
}

TEST(ExportTest, PrometheusLabelValueEscapes) {
  EXPECT_EQ(PrometheusLabelValue("plain value"), "plain value");
  EXPECT_EQ(PrometheusLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(PrometheusLabelValue("back\\slash"), "back\\\\slash");
  EXPECT_EQ(PrometheusLabelValue("two\nlines"), "two\\nlines");
  EXPECT_EQ(PrometheusLabelValue("k=\"v\\n\""), "k=\\\"v\\\\n\\\"");
}

TEST(ExportTest, RenderPrometheusSanitizesHostileNames) {
  ScopedMetricsEnable on(true);
  MetricsRegistry registry;
  registry.GetCounter("gea.weird-name\"x\nwith{braces}").Add(1);
  registry.GetCounter("7starts.with.digit").Add(2);
  const std::string out = RenderPrometheus(registry.Snapshot());
  EXPECT_NE(out.find("# TYPE _7starts_with_digit counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("_7starts_with_digit 2\n"), std::string::npos);
  EXPECT_NE(out.find("gea_weird_name_x_with_braces_ 1\n"), std::string::npos);
  // Every line is either a comment or matches "name value" with a legal
  // name: no raw quotes/newlines leaked out of the metric names.
  size_t start = 0;
  while (start < out.size()) {
    const size_t nl = out.find('\n', start);
    const std::string line = out.substr(start, nl - start);
    if (line.rfind("# TYPE ", 0) != 0) {
      const size_t space = line.find(' ');
      ASSERT_NE(space, std::string::npos) << line;
      // A labeled series (gea_build_info{...} 1) may carry spaces inside
      // its label values; the name under test ends at the brace.
      const std::string name = line.substr(0, std::min(space, line.find('{')));
      EXPECT_EQ(PrometheusMetricName(name), name) << line;
    }
    start = nl + 1;
  }
}

TEST(ExportTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nfeed\ttab"), "line\\nfeed\\ttab");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(ExportTest, ValidateJsonAcceptsAndRejects) {
  std::string error;
  EXPECT_TRUE(internal::ValidateJson("{}", &error));
  EXPECT_TRUE(internal::ValidateJson("[1, 2.5, -3e4, \"x\", true, null]",
                                     &error));
  EXPECT_TRUE(internal::ValidateJson(
      "{\"a\":{\"b\":[{\"c\":\"\\u0041\"}]}}", &error));
  EXPECT_FALSE(internal::ValidateJson("", &error));
  EXPECT_FALSE(internal::ValidateJson("{", &error));
  EXPECT_FALSE(internal::ValidateJson("{\"a\":1,}", &error));
  EXPECT_FALSE(internal::ValidateJson("[1 2]", &error));
  EXPECT_FALSE(internal::ValidateJson("\"unterminated", &error));
  EXPECT_FALSE(internal::ValidateJson("01x", &error));
  EXPECT_FALSE(internal::ValidateJson("{} trailing", &error));
  EXPECT_NE(error.find("byte"), std::string::npos);
}

// ---- Operation capture (EXPLAIN substrate) ----

TEST(OperationCaptureTest, CapturesSpansAndCounterDeltas) {
  ScopedMetricsEnable metrics(true);
  ScopedTraceEnable trace(true);
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t before = registry.GetCounter("obs_test.capture.c").Value();

  OperationCapture capture("test_op");
  {
    TraceSpan step("step");
    registry.GetCounter("obs_test.capture.c").Add(11);
  }
  OperationProfile profile = capture.Finish();
  (void)before;

  EXPECT_EQ(profile.operation, "test_op");
  EXPECT_GT(profile.elapsed_nanos, 0u);
  ASSERT_EQ(profile.spans.size(), 2u);  // root "test_op" + "step"
  EXPECT_EQ(profile.spans[0].name, "test_op");
  EXPECT_EQ(profile.spans[1].name, "step");
  EXPECT_EQ(profile.spans[1].parent_id, profile.spans[0].id);

  bool saw_delta = false;
  for (const CounterDelta& d : profile.counters) {
    if (d.name == "obs_test.capture.c") {
      EXPECT_EQ(d.delta, 11u);
      saw_delta = true;
    }
  }
  EXPECT_TRUE(saw_delta);

  const std::string rendered = profile.Render();
  EXPECT_NE(rendered.find("test_op"), std::string::npos);
  EXPECT_NE(rendered.find("  step"), std::string::npos);
  EXPECT_NE(rendered.find("obs_test.capture.c"), std::string::npos);
}

TEST(OperationCaptureTest, WorksWithEverythingDisabled) {
  ScopedMetricsEnable metrics(false);
  ScopedTraceEnable trace(false);
  OperationCapture capture("dark_op");
  OperationProfile profile = capture.Finish();
  EXPECT_EQ(profile.operation, "dark_op");
  EXPECT_TRUE(profile.spans.empty());
  EXPECT_TRUE(profile.counters.empty());
  EXPECT_NE(profile.Render().find("dark_op"), std::string::npos);
}

bool HasSpan(const OperationProfile& profile, const std::string& name) {
  for (const SpanRecord& span : profile.spans) {
    if (span.name == name) return true;
  }
  return false;
}

// Two direct (unserved) captures overlap on two threads: B opens, A opens,
// B records a span, A finishes, B finishes. Each profile holds exactly
// its own thread's spans.
TEST(OperationCaptureTest, ConcurrentCapturesKeepTheirOwnSpans) {
  ScopedTraceEnable trace(true);
  std::mutex mu;
  std::condition_variable cv;
  int step = 0;
  const auto wait_for = [&](int wanted) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return step >= wanted; });
  };
  const auto advance = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++step;
    }
    cv.notify_all();
  };

  OperationProfile a_profile;
  OperationProfile b_profile;
  std::thread b([&] {
    OperationCapture capture("b_op");
    advance();  // 1: B is open
    wait_for(2);
    { TraceSpan span("other_work"); }
    advance();  // 3: B recorded other_work
    wait_for(4);
    b_profile = capture.Finish();
  });
  std::thread a([&] {
    wait_for(1);
    OperationCapture capture("a_op");
    advance();  // 2: A is open
    wait_for(3);
    a_profile = capture.Finish();
    advance();  // 4: A finished
  });
  a.join();
  b.join();

  EXPECT_TRUE(HasSpan(a_profile, "a_op"));
  EXPECT_FALSE(HasSpan(a_profile, "other_work"));
  EXPECT_FALSE(HasSpan(a_profile, "b_op"));
  EXPECT_TRUE(HasSpan(b_profile, "b_op"));
  EXPECT_TRUE(HasSpan(b_profile, "other_work"));
  EXPECT_FALSE(HasSpan(b_profile, "a_op"));
}

// Inside a bound sink (a served request) the capture keeps only the
// slice recorded since it opened, and the sink keeps everything.
TEST(OperationCaptureTest, CaptureInABoundSinkKeepsItsOwnSlice) {
  ScopedTraceEnable trace(true);
  SpanSink sink;
  ContextScope scope({.spans = &sink});
  { TraceSpan before("before"); }
  OperationCapture capture("op");
  { TraceSpan step("step"); }
  OperationProfile profile = capture.Finish();
  { TraceSpan after("after"); }

  ASSERT_EQ(profile.spans.size(), 2u);
  EXPECT_EQ(profile.spans[0].name, "op");
  EXPECT_EQ(profile.spans[1].name, "step");
  EXPECT_EQ(sink.spans.size(), 4u);
}

}  // namespace
}  // namespace gea::obs
