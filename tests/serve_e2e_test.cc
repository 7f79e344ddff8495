// End-to-end test of the query service over real TCP: many concurrent
// authenticated clients mixing reads and WAL-logged mutations, the
// server stopped mid-load, then crash recovery verified to replay every
// acknowledged mutation. Also checks the gea.serve.* metrics surface
// admission-control rejections.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/server.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/corpus.h"
#include "workbench/session.h"

namespace gea::serve {
namespace {

using support::AdminSession;
using support::FreshDir;

TEST(ServeE2eTest, ConcurrentClientsStopMidLoadRecoverAcked) {
  const std::string dir = FreshDir("durability");
  auto session = AdminSession();
  ASSERT_TRUE(session->OpenStorage(dir).ok());
  ASSERT_TRUE(session->LoadDataSet(support::Panel()).ok());
  ASSERT_TRUE(session->CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(
      session->AddUser("reader", "pw", workbench::AccessLevel::kUser).ok());

  ServerOptions options;
  options.num_workers = 4;
  options.queue_capacity = 128;
  QueryServer server(session.get(), options);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.Port();

  constexpr int kClients = 8;
  constexpr int kIterations = 6;

  // Mutations whose OK response the client actually saw. Only these are
  // durability-guaranteed; responses lost to the mid-load stop are not.
  std::mutex acked_mu;
  std::set<std::string> acked_sumys;
  std::set<std::string> acked_gaps;
  std::atomic<int> acked_count{0};

  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      QueryClient client;
      if (!client.Connect(port).ok()) return;
      // Mix of identities: admins and plain users both mutate.
      const bool admin = (t % 2 == 0);
      Status login = admin ? client.Login("admin", "secret", "admin")
                           : client.Login("reader", "pw");
      if (!login.ok()) return;

      for (int i = 0; i < kIterations; ++i) {
        // Read under the shared lock...
        (void)client.Sql("SELECT COUNT(*) FROM Libraries");

        // ...and mutate under the exclusive one. Ack => WAL-logged.
        const std::string sumy =
            "S_" + std::to_string(t) + "_" + std::to_string(i);
        Result<Response> agg = client.Call(
            "aggregate", {{"enum", "brain"}, {"out", sumy}});
        if (!agg.ok()) return;  // server stopped; stream gone
        if (agg->ok()) {
          {
            std::lock_guard<std::mutex> lock(acked_mu);
            acked_sumys.insert(sumy);
          }
          acked_count.fetch_add(1);

          const std::string gap =
              "G_" + std::to_string(t) + "_" + std::to_string(i);
          Result<Response> diff = client.Call(
              "diff", {{"sumy1", sumy}, {"sumy2", sumy}, {"gap", gap}});
          if (!diff.ok()) return;
          if (diff->ok()) {
            std::lock_guard<std::mutex> lock(acked_mu);
            acked_gaps.insert(gap);
          }
        }
        if (admin && i == 2) {
          // Checkpoints interleave with the load: snapshot + WAL rotate
          // must not lose any acked mutation either.
          (void)client.Call("checkpoint");
        }
      }
    });
  }

  // Let the load build up, then stop the server in the middle of it —
  // the "kill" in kill-mid-load. Admitted requests still finish
  // (drain-on-shutdown), everything after is a dead connection.
  while (acked_count.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();
  for (std::thread& thread : clients) thread.join();

  ASSERT_FALSE(acked_sumys.empty());

  // Drop the serving session without a clean CloseStorage, then recover
  // into a fresh one: the WAL must replay every acknowledged mutation.
  session.reset();
  auto recovered = AdminSession();
  ASSERT_TRUE(recovered->OpenStorage(dir).ok());
  for (const std::string& sumy : acked_sumys) {
    EXPECT_TRUE(recovered->GetSumy(sumy).ok())
        << "acked SUMY lost after recovery: " << sumy;
  }
  for (const std::string& gap : acked_gaps) {
    EXPECT_TRUE(recovered->GetGap(gap).ok())
        << "acked GAP lost after recovery: " << gap;
  }
}

TEST(ServeE2eTest, ReadersNeverBlockBehindCheckpointOrWriterBurst) {
  obs::ScopedMetricsEnable metrics(true);
  const std::string dir = FreshDir("mvcc");
  auto session = AdminSession();
  ASSERT_TRUE(session->OpenStorage(dir).ok());
  ASSERT_TRUE(session->LoadDataSet(support::Panel()).ok());
  ASSERT_TRUE(session->CreateTissueDataSet(sage::TissueType::kBrain).ok());
  // Fatten the catalog so every checkpoint — snapshot encode + fsync +
  // rename, all under the exclusive session lock — takes real time.
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(
        session->Aggregate("brain", "Pad_" + std::to_string(i)).ok());
  }

  ServerOptions options;
  options.num_workers = 4;
  QueryServer server(session.get(), options);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.Port();

  obs::Histogram& read_wait = obs::MetricsRegistry::Global().GetHistogram(
      "gea.lock.session.read_wait_nanos");
  const uint64_t read_waits_before = read_wait.Count();

  using Clock = std::chrono::steady_clock;
  std::atomic<bool> checkpoint_running{false};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> checkpoint_total_nanos{0};
  std::atomic<int> checkpoints{0};

  // One admin client alternates writer bursts with checkpoints — the
  // worst case for readers under the old reader-writer lock: long
  // exclusive holds back to back.
  std::thread writer([&] {
    QueryClient client;
    ASSERT_TRUE(client.Connect(port).ok());
    ASSERT_TRUE(client.Login("admin", "secret", "admin").ok());
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 4; ++i) {
        Result<Response> agg = client.Call(
            "aggregate", {{"enum", "brain"},
                          {"out", "Burst_" + std::to_string(round) + "_" +
                                      std::to_string(i)},
                          {"replace", "1"}});
        ASSERT_TRUE(agg.ok());
        EXPECT_TRUE((*agg).ok()) << (*agg).message;
      }
      const auto start = Clock::now();
      checkpoint_running.store(true, std::memory_order_release);
      Result<Response> cp = client.Call("checkpoint");
      checkpoint_running.store(false, std::memory_order_release);
      ASSERT_TRUE(cp.ok());
      EXPECT_TRUE((*cp).ok()) << (*cp).message;
      checkpoint_total_nanos.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count());
      checkpoints.fetch_add(1);
    }
    done.store(true, std::memory_order_release);
  });

  // Readers hammer the MVCC read path the whole time. A read that both
  // starts and finishes while a checkpoint holds the exclusive lock is
  // impossible under reader-writer exclusion — each one proves the read
  // executed against a pinned epoch instead of waiting.
  std::atomic<uint64_t> overlapped_reads{0};
  std::mutex latencies_mu;
  std::vector<uint64_t> read_nanos;
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      QueryClient client;
      ASSERT_TRUE(client.Connect(port).ok());
      ASSERT_TRUE(client.Login("admin", "secret", "admin").ok());
      while (!done.load(std::memory_order_acquire)) {
        const bool started_inside =
            checkpoint_running.load(std::memory_order_acquire);
        const auto start = Clock::now();
        Result<rel::Table> count =
            client.Sql("SELECT COUNT(*) FROM Libraries");
        const uint64_t elapsed =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count();
        if (!count.ok()) break;  // server stopping
        if (started_inside &&
            checkpoint_running.load(std::memory_order_acquire)) {
          overlapped_reads.fetch_add(1);
        }
        {
          std::lock_guard<std::mutex> lock(latencies_mu);
          read_nanos.push_back(elapsed);
        }
        Result<Response> table = client.Call("get_table", {{"name", "brain"}});
        if (!table.ok()) break;
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();
  server.Stop();

  ASSERT_EQ(checkpoints.load(), 4);
  ASSERT_FALSE(read_nanos.empty());

  // 1. Reads completed inside checkpoint windows: readers pinned old
  // epochs instead of queueing behind the writer.
  EXPECT_GT(overlapped_reads.load(), 0u);

  // 2. Read p99 is far below the mean checkpoint duration — no read
  // ever waited out an exclusive hold.
  std::sort(read_nanos.begin(), read_nanos.end());
  const size_t p99_index =
      std::min(read_nanos.size() - 1, (read_nanos.size() * 99) / 100);
  const uint64_t p99 = read_nanos[p99_index];
  const uint64_t mean_checkpoint =
      checkpoint_total_nanos.load() / checkpoints.load();
  EXPECT_LT(p99, mean_checkpoint)
      << "p99 read " << p99 << "ns vs mean checkpoint " << mean_checkpoint
      << "ns";

  // 3. The session lock saw zero shared-acquisition waits: the read path
  // never touched it.
  EXPECT_EQ(read_wait.Count(), read_waits_before);
}

TEST(ServeE2eTest, AdmissionRejectionsVisibleInMetrics) {
  obs::ScopedMetricsEnable metrics(true);
  obs::Counter& queue_full = obs::MetricsRegistry::Global().GetCounter(
      "gea.serve.rejected_queue_full");
  obs::Counter& deadline = obs::MetricsRegistry::Global().GetCounter(
      "gea.serve.rejected_deadline");
  const uint64_t queue_full_before = queue_full.Value();
  const uint64_t deadline_before = deadline.Value();

  auto session = AdminSession();
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  QueryServer server(session.get(), options);
  ASSERT_TRUE(server.Start().ok());

  QueryClient busy;
  ASSERT_TRUE(busy.Connect(server.Port()).ok());
  std::thread busy_thread(
      [&busy] { (void)busy.Call("ping", {{"sleep_ms", "400"}}); });
  while (server.GetStats().requests < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Fill the queue with a deadline that will expire behind the sleeper.
  QueryClient late;
  late.SetDeadlineMs(20);
  ASSERT_TRUE(late.Connect(server.Port()).ok());
  std::thread late_thread([&late] { (void)late.Call("ping"); });
  while (server.GetStats().queue_depth < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // And one more to bounce off the full queue.
  QueryClient rejected;
  ASSERT_TRUE(rejected.Connect(server.Port()).ok());
  Result<Response> response = rejected.Call("ping");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kResourceExhausted);

  busy_thread.join();
  late_thread.join();
  server.Stop();

  EXPECT_GT(queue_full.Value(), queue_full_before);
  EXPECT_GT(deadline.Value(), deadline_before);
  // Request/byte counters moved too.
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetCounter("gea.serve.requests")
                .Value(),
            0u);
  EXPECT_GT(
      obs::MetricsRegistry::Global().GetCounter("gea.serve.bytes_in").Value(),
      0u);
  EXPECT_GT(
      obs::MetricsRegistry::Global().GetCounter("gea.serve.bytes_out").Value(),
      0u);
}

TEST(ServeE2eTest, TracedRunExportsValidChromeTrace) {
  obs::RequestTraceRing::Global().Clear();
  obs::ScopedTraceSample sample(1);  // sample every request

  const std::string dir = FreshDir("trace");
  auto session = AdminSession();
  ASSERT_TRUE(session->OpenStorage(dir).ok());
  ASSERT_TRUE(session->LoadDataSet(support::Panel()).ok());
  ASSERT_TRUE(session->CreateTissueDataSet(sage::TissueType::kBrain).ok());

  ServerOptions options;
  options.num_workers = 2;
  QueryServer server(session.get(), options);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect(server.Port()).ok());
  client.SetTracing(true);
  ASSERT_TRUE(client.Login("admin", "secret", "admin").ok());
  ASSERT_TRUE(client.Ping().ok());
  // A WAL-logged mutation, so the trace carries wal_append + wal_fsync.
  Result<Response> agg =
      client.Call("aggregate", {{"enum", "brain"}, {"out", "Trace_SUMY"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->ok()) << agg->message;

  // The wire echoed a per-stage breakdown for the traced request.
  ASSERT_TRUE(client.LastTiming().has_value());
  EXPECT_GT(client.LastTiming()->execute_nanos, 0u);
  EXPECT_GT(client.LastTiming()->wal_fsync_nanos, 0u);
  EXPECT_NE(client.LastTraceId(), 0u);

  const uint64_t agg_trace_id = client.LastTraceId();

  server.Stop();

  // The aggregate's record holds its commit spans too: the group-commit
  // wait runs after the operation's capture closed, still inside the
  // request.
  std::set<std::string> agg_spans;
  for (const obs::RequestTraceRecord& record :
       obs::RequestTraceRing::Global().Snapshot()) {
    if (record.trace_id != agg_trace_id) continue;
    for (const obs::SpanRecord& span : record.spans) {
      agg_spans.insert(span.name);
      EXPECT_EQ(span.trace_id, agg_trace_id) << span.name;
    }
  }
  for (const char* name :
       {"aggregate", "group_commit", "wal_append_batch", "wal_fsync"}) {
    EXPECT_TRUE(agg_spans.count(name)) << name;
  }

  // Render the ring exactly as /tracez?format=chrome would.
  obs::internal::HttpResponse chrome =
      obs::internal::HandlePath("/tracez", "format=chrome");
  ASSERT_EQ(chrome.status, 200);
  std::string error;
  ASSERT_TRUE(obs::internal::ValidateJson(chrome.body, &error)) << error;
  for (const char* needle :
       {"\"decode\"", "\"queue_wait\"", "\"execute\"", "\"wal_fsync\"",
        "\"encode\"", "\"write\"", "\"gea_server\"", "\"traceEvents\"",
        "\"cat\":\"wal\""}) {
    EXPECT_NE(chrome.body.find(needle), std::string::npos) << needle;
  }

  // CI points GEA_TRACE_EXPORT at a file and runs tools/check_trace.py
  // over it; without the variable the in-test checks above stand alone.
  if (const char* path = std::getenv("GEA_TRACE_EXPORT")) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << chrome.body;
  }
}

// Every served write records its commit, whether its thread led the
// group-commit batch or waited on another thread's: a follower's wait is
// a wal_fsync span too, so each write's record holds one and the Chrome
// export draws a WAL flow for it.
TEST(ServeE2eTest, EveryCommittedWriteRecordsItsCommitSpans) {
  obs::RequestTraceRing::Global().Clear();
  obs::ScopedTraceSample sample(1);

  const std::string dir = FreshDir("commit_spans");
  auto session = AdminSession();
  ASSERT_TRUE(session->OpenStorage(dir).ok());
  ASSERT_TRUE(session->LoadDataSet(support::Panel()).ok());
  ASSERT_TRUE(session->CreateTissueDataSet(sage::TissueType::kBrain).ok());

  ServerOptions options;
  options.num_workers = 8;
  QueryServer server(session.get(), options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  constexpr int kWrites = 20;
  std::atomic<int> acked{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      QueryClient client;
      if (!client.Connect(server.Port()).ok()) return;
      client.SetTracing(true);
      if (!client.Login("admin", "secret", "admin").ok()) return;
      for (int i = 0; i < kWrites; ++i) {
        Result<Response> agg =
            client.Call("aggregate", {{"enum", "brain"},
                                      {"out", "Commit_" + std::to_string(t)},
                                      {"replace", "1"}});
        if (agg.ok() && agg->ok()) acked.fetch_add(1);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  server.Stop();
  ASSERT_EQ(acked.load(), kClients * kWrites);

  size_t writes = 0;
  for (const obs::RequestTraceRecord& record :
       obs::RequestTraceRing::Global().Snapshot()) {
    if (record.op != "aggregate") continue;
    ++writes;
    const bool has_fsync =
        std::any_of(record.spans.begin(), record.spans.end(),
                    [](const obs::SpanRecord& span) {
                      return span.name == "wal_fsync";
                    });
    EXPECT_TRUE(has_fsync) << "trace " << record.trace_id;
  }
  EXPECT_EQ(writes, static_cast<size_t>(kClients * kWrites));

  obs::internal::HttpResponse chrome =
      obs::internal::HandlePath("/tracez", "format=chrome");
  ASSERT_EQ(chrome.status, 200);
  const std::string flow = "\"ph\":\"s\",\"cat\":\"wal\"";
  size_t flows = 0;
  for (size_t at = chrome.body.find(flow); at != std::string::npos;
       at = chrome.body.find(flow, at + 1)) {
    ++flows;
  }
  EXPECT_GE(flows, writes);
}

// The contention/accounting numbers must agree wherever they surface:
// the v3 wire timing block, the request trace ring (and its Chrome
// export), the gea_stat_requests rollup, and the slow-query log line —
// all for the same traced request. A ping sleeping under the shared
// session lock makes the traced aggregate's exclusive acquisition wait
// deterministically, so lock_wait is real, not noise.
TEST(ServeE2eTest, LockWaitAndMemoryAgreeAcrossAllSurfaces) {
  obs::RequestTraceRing::Global().Clear();
  obs::ScopedTraceSample sample(1);
  obs::ScopedSlowQueryMs slow(0);  // log every operation
  obs::ScopedLogCapture capture(obs::LogLevel::kWarn);

  auto session = AdminSession();
  ASSERT_TRUE(session->LoadDataSet(support::Panel()).ok());
  ASSERT_TRUE(session->CreateTissueDataSet(sage::TissueType::kBrain).ok());

  ServerOptions options;
  options.num_workers = 2;  // the sleeper and the waiter need both
  QueryServer server(session.get(), options);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect(server.Port()).ok());
  client.SetTracing(true);
  ASSERT_TRUE(client.Login("admin", "secret", "admin").ok());

  // Park a ping on the shared session lock, then send the aggregate
  // once the sleeper is executing: its unique lock must wait it out.
  const uint64_t requests_before = server.GetStats().requests;
  QueryClient busy;
  ASSERT_TRUE(busy.Connect(server.Port()).ok());
  std::thread busy_thread(
      [&busy] { (void)busy.Call("ping", {{"sleep_ms", "400"}}); });
  while (server.GetStats().requests <= requests_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Result<Response> agg = client.Call(
      "aggregate", {{"enum", "brain"}, {"out", "Contention_SUMY"}});
  busy_thread.join();
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->ok()) << agg->message;

  // Surface 1: the wire. The v3 timing block carries the lock wait and
  // both memory-accounting figures.
  ASSERT_TRUE(client.LastTiming().has_value());
  const StageBreakdown wire = *client.LastTiming();
  const uint64_t trace_id = client.LastTraceId();
  ASSERT_NE(trace_id, 0u);
  EXPECT_GT(wire.lock_wait_nanos, 0u);
  EXPECT_LT(wire.lock_wait_nanos, wire.execute_nanos);  // a subset of it
  EXPECT_GT(wire.alloc_bytes, 0u);
  EXPECT_GT(wire.peak_bytes, 0u);
  EXPECT_GE(wire.alloc_bytes, wire.peak_bytes);  // cumulative >= high-water

  // Surface 2: the trace ring record for that trace id, byte-identical.
  // The record is published after the response hits the wire, so the
  // client can get here first — wait for it.
  std::optional<obs::RequestTraceRecord> aggregate_record;
  const auto ring_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!aggregate_record.has_value()) {
    ASSERT_LT(std::chrono::steady_clock::now(), ring_deadline);
    for (const obs::RequestTraceRecord& record :
         obs::RequestTraceRing::Global().Snapshot()) {
      if (record.trace_id == trace_id) aggregate_record = record;
    }
    if (!aggregate_record.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(aggregate_record->stages[obs::RequestStage::kLockWait],
            wire.lock_wait_nanos);
  EXPECT_EQ(aggregate_record->alloc_bytes, wire.alloc_bytes);
  EXPECT_EQ(aggregate_record->peak_bytes, wire.peak_bytes);

  // Surface 3: the gea_stat_requests rollup, queried over the wire. One
  // aggregate in the cleared ring, so the group figures are exact.
  Result<rel::Table> rollup = client.Sql(
      "SELECT op, lock_wait_ms, alloc_bytes, peak_bytes "
      "FROM gea_stat_requests WHERE op = 'aggregate'");
  ASSERT_TRUE(rollup.ok()) << rollup.status().ToString();
  ASSERT_EQ(rollup->NumRows(), 1u);
  EXPECT_NEAR(rollup->At(0, 1).AsDouble(),
              static_cast<double>(wire.lock_wait_nanos) / 1e6, 1e-6);
  EXPECT_EQ(rollup->At(0, 2).AsInt(),
            static_cast<int64_t>(wire.alloc_bytes));
  EXPECT_EQ(rollup->At(0, 3).AsInt(),
            static_cast<int64_t>(wire.peak_bytes));

  server.Stop();

  // Surface 4: the Chrome export renders a lock_wait slice and pins the
  // exact byte counts on the request's args.
  obs::internal::HttpResponse chrome =
      obs::internal::HandlePath("/tracez", "format=chrome");
  ASSERT_EQ(chrome.status, 200);
  EXPECT_NE(chrome.body.find("\"lock_wait\""), std::string::npos);
  EXPECT_NE(chrome.body.find("\"alloc_bytes\":" +
                             std::to_string(wire.alloc_bytes)),
            std::string::npos);
  EXPECT_NE(chrome.body.find("\"peak_bytes\":" +
                             std::to_string(wire.peak_bytes)),
            std::string::npos);

  // Surface 5: the slow-query log line carries the same three figures
  // (the exact lock_wait_ns value identifies the aggregate's record).
  const std::string log = capture.str();
  EXPECT_NE(log.find("\"event\":\"slow_query\""), std::string::npos);
  EXPECT_NE(
      log.find("\"lock_wait_ns\":" + std::to_string(wire.lock_wait_nanos)),
      std::string::npos)
      << log;
  EXPECT_NE(log.find("\"alloc_bytes\":" + std::to_string(wire.alloc_bytes)),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("\"peak_bytes\":" + std::to_string(wire.peak_bytes)),
            std::string::npos)
      << log;
}

TEST(ServeE2eTest, StatRequestsViewQueryableOverTheWire) {
  obs::RequestTraceRing::Global().Clear();
  obs::ScopedTraceSample sample(1);

  auto session = AdminSession();
  ASSERT_TRUE(session->LoadDataSet(support::Panel()).ok());

  QueryServer server(session.get());
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect(server.Port()).ok());
  client.SetTracing(true);
  ASSERT_TRUE(client.Login("admin", "secret", "admin").ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.Ping().ok());
  // A worker publishes its record after writing the reply (the record
  // carries the write stage), so the last ping's record can trail the
  // reply: wait for the login's and the three pings'.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (obs::RequestTraceRing::Global().Published() < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The rollup of the ring is an ordinary catalog table: aggregate it
  // over the very protocol it measures.
  Result<rel::Table> pings = client.Sql(
      "SELECT op, status, user, count FROM gea_stat_requests "
      "WHERE op = 'ping'");
  ASSERT_TRUE(pings.ok()) << pings.status().ToString();
  ASSERT_EQ(pings->NumRows(), 1u);
  EXPECT_EQ(pings->At(0, 1).AsString(), "OK");
  EXPECT_EQ(pings->At(0, 2).AsString(), "admin");
  EXPECT_GE(pings->At(0, 3).AsInt(), 3);

  server.Stop();
}

// ---------- the served corpus ----------

// Seeded served corpora (tests/support) through QueryClient against a
// server over a session with storage: every step answers as the direct
// reference did, and the served catalog ends as the reference's.
class ServedCorpusTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ServedCorpusTest, AnswersAsTheDirectReference) {
  const support::Reference reference(GetParam(), support::Scope::kServed);
  auto session = AdminSession();
  ASSERT_TRUE(session->OpenStorage(FreshDir("store")).ok());
  // The corpus opens with load_dataset, which is no wire command.
  const support::StepResult loaded =
      support::RunStep(*session, reference.corpus().front());
  QueryServer server(session.get());
  ASSERT_TRUE(server.Start().ok());
  QueryClient client;
  ASSERT_TRUE(client.Connect(server.Port()).ok());
  ASSERT_TRUE(client.Login("admin", "secret", "admin").ok());
  const size_t acked = support::RunAckedPrefix(
      reference, [&](const support::Command& command) {
        if (command.op == "load_dataset") return loaded;
        return support::FromResponse(client.Call(command.op, command.params));
      });
  EXPECT_EQ(acked, reference.corpus().size());
  EXPECT_TRUE(support::SameCatalog(
      support::Fingerprint(*session),
      reference.FingerprintAt(reference.corpus().size())));
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServedCorpusTest,
                         testing::ValuesIn(support::kCorpusSeeds));

// The sweep over more seeds; CI runs it with
// --gtest_also_run_disabled_tests.
INSTANTIATE_TEST_SUITE_P(DISABLED_Sweep, ServedCorpusTest,
                         testing::Range<uint64_t>(4, 40));

}  // namespace
}  // namespace gea::serve
