// Tests for per-request stage attribution: the context's stage sink,
// 1-in-N sampling, the fixed-capacity trace ring (wraparound and
// concurrent publish/read — run under TSan via the "parallel" label) and
// the Chrome trace-event JSON exporter's structural invariants.

#include "obs/request_trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/trace.h"

namespace gea::obs {
namespace {

RequestTraceRecord MakeRecord(uint64_t trace_id, uint64_t request_id,
                              const std::string& op, uint64_t start_nanos) {
  RequestTraceRecord record;
  record.trace_id = trace_id;
  record.request_id = request_id;
  record.op = op;
  record.user = "admin";
  record.start_nanos = start_nanos;
  record.stages[RequestStage::kDecode] = 1000;
  record.stages[RequestStage::kQueue] = 2000;
  record.stages[RequestStage::kExecute] = 10000;
  record.stages[RequestStage::kEncode] = 500;
  record.stages[RequestStage::kWrite] = 300;
  record.total_nanos = 13800;
  record.reader_tid = 1;
  record.worker_tid = 2;
  return record;
}

// ---------- Stage sink ----------

TEST(StageSinkTest, InactiveByDefaultAndScoped) {
  EXPECT_EQ(CurrentContext().stages, nullptr);
  AddStageNanos(RequestStage::kExecute, 100);  // no-op, must not crash
  EXPECT_EQ(CollectedStageNanos(RequestStage::kExecute), 0u);

  StageNanos stages;
  ContextScope scope({.stages = &stages});
  AddStageNanos(RequestStage::kWalFsync, 40);
  AddStageNanos(RequestStage::kWalFsync, 2);
  EXPECT_EQ(CollectedStageNanos(RequestStage::kWalFsync), 42u);
  EXPECT_EQ(stages[RequestStage::kWalFsync], 42u);
}

TEST(StageSinkTest, NestedScopesShadow) {
  StageNanos outer_stages;
  ContextScope outer({.stages = &outer_stages});
  AddStageNanos(RequestStage::kDecode, 7);
  {
    StageNanos inner_stages;
    ContextScope inner({.stages = &inner_stages});
    AddStageNanos(RequestStage::kDecode, 100);
    EXPECT_EQ(CollectedStageNanos(RequestStage::kDecode), 100u);
  }
  EXPECT_EQ(CollectedStageNanos(RequestStage::kDecode), 7u);
}

TEST(StageSinkTest, StageNamesAreStable) {
  EXPECT_STREQ(RequestStageName(RequestStage::kDecode), "decode");
  EXPECT_STREQ(RequestStageName(RequestStage::kQueue), "queue_wait");
  EXPECT_STREQ(RequestStageName(RequestStage::kExecute), "execute");
  EXPECT_STREQ(RequestStageName(RequestStage::kWalAppend), "wal_append");
  EXPECT_STREQ(RequestStageName(RequestStage::kWalFsync), "wal_fsync");
  EXPECT_STREQ(RequestStageName(RequestStage::kEncode), "encode");
  EXPECT_STREQ(RequestStageName(RequestStage::kWrite), "write");
}

// ---------- Sampling ----------

TEST(SamplingTest, OneInNAndOff) {
  {
    ScopedTraceSample always(1);
    EXPECT_TRUE(SampleThisRequest());
    EXPECT_TRUE(SampleThisRequest());
  }
  {
    ScopedTraceSample never(0);
    EXPECT_FALSE(SampleThisRequest());
    EXPECT_FALSE(SampleThisRequest());
  }
  {
    // 1-in-3 over a shared process-wide counter: exactly ceil-ish a third
    // of any 300 consecutive calls sample, whatever the phase.
    ScopedTraceSample third(3);
    int sampled = 0;
    for (int i = 0; i < 300; ++i) sampled += SampleThisRequest() ? 1 : 0;
    EXPECT_EQ(sampled, 100);
  }
}

TEST(SamplingTest, NextTraceIdIsNonZeroAndDistinct) {
  const uint64_t a = NextTraceId();
  const uint64_t b = NextTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

// ---------- Ring ----------

TEST(RequestTraceRingTest, WraparoundKeepsNewestOldestFirst) {
  RequestTraceRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (uint64_t i = 1; i <= 10; ++i) {
    ring.Publish(MakeRecord(/*trace_id=*/i, /*request_id=*/i, "ping",
                            /*start_nanos=*/i * 1000));
  }
  EXPECT_EQ(ring.Published(), 10u);
  std::vector<RequestTraceRecord> snapshot = ring.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  // Oldest first: publishes 7, 8, 9, 10 survive.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snapshot[i].request_id, 7 + i);
  }

  ring.Clear();
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.Published(), 0u);
}

TEST(RequestTraceRingTest, ConcurrentPublishAndReadIsClean) {
  RequestTraceRing ring(8);
  constexpr int kPublishers = 4;
  constexpr int kPerPublisher = 200;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<RequestTraceRecord> snapshot = ring.Snapshot();
      // Seq-sorted snapshots never exceed capacity and stay oldest-first:
      // each publisher's records appear in its publish order (publishers
      // interleave, so ids from different publishers need not sort).
      ASSERT_LE(snapshot.size(), ring.capacity());
      for (size_t i = 0; i < snapshot.size(); ++i) {
        for (size_t j = i + 1; j < snapshot.size(); ++j) {
          if (snapshot[i].request_id / 1000 == snapshot[j].request_id / 1000) {
            EXPECT_LT(snapshot[i].request_id, snapshot[j].request_id);
          }
        }
      }
    }
  });

  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerPublisher; ++i) {
        ring.Publish(MakeRecord(/*trace_id=*/p * 1000 + i,
                                /*request_id=*/p * 1000 + i, "sql",
                                /*start_nanos=*/1000 + i));
      }
    });
  }
  for (std::thread& t : publishers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(ring.Published(),
            static_cast<uint64_t>(kPublishers) * kPerPublisher);
  EXPECT_EQ(ring.Snapshot().size(), ring.capacity());
}

// ---------- Chrome trace-event JSON ----------

/// Every "ts" value in file order; exporter output must be sorted.
std::vector<double> TimestampsInOrder(const std::string& json) {
  std::vector<double> out;
  size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    out.push_back(std::strtod(json.c_str() + pos, nullptr));
  }
  return out;
}

TEST(ChromeTraceJsonTest, EmptyRingIsStillValid) {
  const std::string json = ChromeTraceJson({});
  std::string error;
  EXPECT_TRUE(internal::ValidateJson(json, &error)) << error;
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("gea_server"), std::string::npos);
}

TEST(ChromeTraceJsonTest, StructuralInvariants) {
  RequestTraceRecord first = MakeRecord(101, 1, "populate", 50000);
  first.stages[RequestStage::kWalAppend] = 600;
  first.stages[RequestStage::kWalFsync] = 900;
  SpanRecord span;
  span.id = 11;
  span.parent_id = 0;
  span.name = "wal_fsync";
  span.start_nanos = 61000;
  span.duration_nanos = 900;
  span.trace_id = 101;
  span.tid = 9;
  first.spans.push_back(span);
  RequestTraceRecord second = MakeRecord(102, 2, "sql", 90000);

  const std::string json = ChromeTraceJson({first, second});
  std::string error;
  ASSERT_TRUE(internal::ValidateJson(json, &error)) << error;

  // Metadata: the process plus every referenced thread gets a name.
  EXPECT_NE(json.find("\"name\":\"gea_server\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"reader-1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker-2\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pool-9\""), std::string::npos);

  // Every stage renders as a slice; WAL stages only when non-zero.
  for (const char* stage : {"\"decode\"", "\"queue_wait\"", "\"execute\"",
                            "\"wal_append\"", "\"wal_fsync\"", "\"encode\"",
                            "\"write\""}) {
    EXPECT_NE(json.find(std::string("\"name\":") + stage), std::string::npos)
        << stage;
  }

  // The request envelopes and the fsync flow arrows are present.
  EXPECT_NE(json.find("\"name\":\"populate\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sql\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);

  // Timestamps are base-normalized (>= 0) and sorted in file order.
  std::vector<double> ts = TimestampsInOrder(json);
  ASSERT_FALSE(ts.empty());
  EXPECT_GE(ts.front(), 0.0);
  for (size_t i = 1; i < ts.size(); ++i) {
    EXPECT_LE(ts[i - 1], ts[i]) << "event " << i << " out of order";
  }
}

}  // namespace
}  // namespace gea::obs
