// Tests for the relational stat views: the TelemetryHub, the per-view
// table builders, computed-table registration in a catalog, and the
// acceptance path — SQL over live telemetry through an AnalysisSession.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/statviews.h"
#include "rel/catalog.h"
#include "rel/sql.h"
#include "sage/cleaning.h"
#include "sage/generator.h"
#include "txn/epoch.h"
#include "workbench/session.h"

namespace gea::obs {
namespace {

// ---------- TelemetryHub ----------

TEST(TelemetryHubTest, SessionLifecycleAndAggregates) {
  TelemetryHub hub;
  const uint64_t a = hub.RegisterSession();
  const uint64_t b = hub.RegisterSession();
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_NE(a, b);
  hub.SetSessionUser(a, "ann");

  hub.RecordOperation(a, "populate", 2'000'000, /*ok=*/true, /*slow=*/false);
  hub.RecordOperation(a, "populate", 4'000'000, /*ok=*/false, /*slow=*/true);
  hub.RecordOperation(b, "create_gap", 1'000'000, /*ok=*/true, /*slow=*/false);

  std::vector<OperatorStat> operators = hub.OperatorStats();
  ASSERT_EQ(operators.size(), 2u);  // sorted by operation name
  EXPECT_EQ(operators[0].operation, "create_gap");
  EXPECT_EQ(operators[1].operation, "populate");
  EXPECT_EQ(operators[1].calls, 2u);
  EXPECT_EQ(operators[1].errors, 1u);
  EXPECT_EQ(operators[1].slow_queries, 1u);
  EXPECT_EQ(operators[1].total_nanos, 6'000'000u);
  EXPECT_EQ(operators[1].max_nanos, 4'000'000u);

  std::vector<SessionStat> sessions = hub.SessionStats();
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].session_id, a);
  EXPECT_EQ(sessions[0].user, "ann");
  EXPECT_EQ(sessions[0].operations, 2u);
  EXPECT_EQ(sessions[0].errors, 1u);
  EXPECT_EQ(sessions[0].last_operation, "populate");
  EXPECT_EQ(sessions[1].user, "");

  // Deregistering removes the session but keeps operator aggregates.
  hub.DeregisterSession(a);
  EXPECT_EQ(hub.SessionStats().size(), 1u);
  EXPECT_EQ(hub.OperatorStats().size(), 2u);

  // Records against a departed session still fold into operator stats.
  hub.RecordOperation(a, "populate", 1'000'000, true, false);
  EXPECT_EQ(hub.OperatorStats()[1].calls, 3u);
}

TEST(TelemetryHubTest, HandleIsMoveAware) {
  TelemetryHub& hub = TelemetryHub::Global();
  const size_t before = hub.SessionStats().size();
  {
    SessionTelemetryHandle handle;
    EXPECT_NE(handle.id(), 0u);
    EXPECT_EQ(hub.SessionStats().size(), before + 1);

    SessionTelemetryHandle moved = std::move(handle);
    EXPECT_EQ(handle.id(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_NE(moved.id(), 0u);
    // The move transferred the registration, not duplicated it.
    EXPECT_EQ(hub.SessionStats().size(), before + 1);

    // A moved-from handle records nowhere; the live one still works.
    handle.RecordOperation("noop", 1, true, false);
    moved.SetUser("mover");
  }
  EXPECT_EQ(hub.SessionStats().size(), before);
}

// ---------- Table builders ----------

MetricsSnapshot SyntheticSnapshot() {
  ScopedMetricsEnable on(true);
  MetricsRegistry registry;
  registry.GetCounter("gea.test.small").Add(3);
  registry.GetCounter("gea.test.big").Add(1000);
  registry.GetCounter("gea.pool.tasks_submitted").Add(7);
  Histogram& h = registry.GetHistogram("gea.test.lat");
  h.Record(10);
  h.Record(1000);
  return registry.Snapshot();
}

TEST(StatViewsTest, CountersTableMirrorsSnapshot) {
  rel::Table table = StatCountersTable(SyntheticSnapshot());
  EXPECT_EQ(table.name(), "gea_stat_counters");
  ASSERT_EQ(table.NumRows(), 3u);
  ASSERT_EQ(table.schema().NumColumns(), 2u);
  // Snapshot order is sorted by name.
  EXPECT_EQ(table.At(0, 0).AsString(), "gea.pool.tasks_submitted");
  EXPECT_EQ(table.At(0, 1).AsInt(), 7);
  EXPECT_EQ(table.At(1, 0).AsString(), "gea.test.big");
  EXPECT_EQ(table.At(1, 1).AsInt(), 1000);
}

TEST(StatViewsTest, HistogramsTableReportsQuantiles) {
  rel::Table table = StatHistogramsTable(SyntheticSnapshot());
  ASSERT_EQ(table.NumRows(), 1u);
  EXPECT_EQ(table.At(0, 0).AsString(), "gea.test.lat");
  EXPECT_EQ(table.At(0, 1).AsInt(), 2);     // count
  EXPECT_EQ(table.At(0, 2).AsInt(), 1010);  // sum
  EXPECT_DOUBLE_EQ(table.At(0, 3).AsDouble(), 505.0);
  EXPECT_EQ(table.At(0, 4).AsInt(), 15);    // p50 bucket upper bound
  EXPECT_EQ(table.At(0, 5).AsInt(), 1023);  // p95
  EXPECT_EQ(table.At(0, 6).AsInt(), 1023);  // p99
}

TEST(StatViewsTest, OperatorsAndSessionsTables) {
  OperatorStat op;
  op.operation = "populate";
  op.calls = 4;
  op.errors = 1;
  op.slow_queries = 2;
  op.total_nanos = 8'000'000;
  op.max_nanos = 5'000'000;
  rel::Table operators = StatOperatorsTable({op});
  ASSERT_EQ(operators.NumRows(), 1u);
  EXPECT_EQ(operators.At(0, 0).AsString(), "populate");
  EXPECT_EQ(operators.At(0, 1).AsInt(), 4);
  EXPECT_EQ(operators.At(0, 2).AsInt(), 1);
  EXPECT_EQ(operators.At(0, 3).AsInt(), 2);
  EXPECT_DOUBLE_EQ(operators.At(0, 4).AsDouble(), 8.0);   // total_ms
  EXPECT_DOUBLE_EQ(operators.At(0, 5).AsDouble(), 2.0);   // mean_ms
  EXPECT_DOUBLE_EQ(operators.At(0, 6).AsDouble(), 5.0);   // max_ms

  SessionStat session;
  session.session_id = 9;
  session.user = "ann";
  session.operations = 3;
  session.total_nanos = 3'000'000;
  session.last_operation = "sql_query";
  rel::Table sessions = StatSessionsTable({session});
  ASSERT_EQ(sessions.NumRows(), 1u);
  EXPECT_EQ(sessions.At(0, 0).AsInt(), 9);
  EXPECT_EQ(sessions.At(0, 1).AsString(), "ann");
  EXPECT_EQ(sessions.At(0, 6).AsString(), "sql_query");
}

TEST(StatViewsTest, ThreadsTableNeverStartsThePool) {
  rel::Table table = StatThreadsTable(SyntheticSnapshot());
  bool saw_configured = false, saw_started = false, saw_pool_counter = false;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const std::string name = table.At(r, 0).AsString();
    if (name == "configured_threads") {
      saw_configured = true;
      EXPECT_GE(table.At(r, 1).AsInt(), 1);
    }
    if (name == "pool_started") saw_started = true;
    if (name == "gea.pool.tasks_submitted") {
      saw_pool_counter = true;
      EXPECT_EQ(table.At(r, 1).AsInt(), 7);
    }
    // The non-pool counters must not leak into the threads view.
    EXPECT_NE(name, "gea.test.small");
  }
  EXPECT_TRUE(saw_configured);
  EXPECT_TRUE(saw_started);
  EXPECT_TRUE(saw_pool_counter);
}

// ---------- Catalog registration ----------

TEST(StatViewsTest, RegisteredViewsAreLiveAndReadOnly) {
  ScopedMetricsEnable on(true);
  rel::Catalog catalog;
  ASSERT_TRUE(RegisterStatViews(catalog).ok());
  // Seven obs views plus gea_stat_storage registered by gea_store.
  EXPECT_EQ(catalog.NumTables(), 8u);
  EXPECT_TRUE(catalog.IsComputed("gea_stat_history"));
  EXPECT_TRUE(catalog.IsComputed("gea_stat_counters"));
  EXPECT_TRUE(catalog.IsComputed("gea_stat_storage"));
  EXPECT_TRUE(catalog.GetMutableTable("gea_stat_operators")
                  .status()
                  .IsFailedPrecondition());
  // Registering twice is fine (replace semantics).
  EXPECT_TRUE(RegisterStatViews(catalog).ok());

  // Live: a counter bumped between reads shows up in the next read.
  const std::string name = "gea.test.statviews_live";
  MetricsRegistry::Global().GetCounter(name).Add(1);
  auto value_of = [&catalog, &name]() -> int64_t {
    Result<rel::Table> view = catalog.MaterializeTable("gea_stat_counters");
    EXPECT_TRUE(view.ok());
    for (size_t r = 0; r < view->NumRows(); ++r) {
      if (view->At(r, 0).AsString() == name) return view->At(r, 1).AsInt();
    }
    return -1;
  };
  const int64_t first = value_of();
  ASSERT_GE(first, 1);
  MetricsRegistry::Global().GetCounter(name).Add(5);
  EXPECT_EQ(value_of(), first + 5);
}

// Database lifecycle operations (initialize-database, load-database)
// rebuild the session catalog; the stat views must survive them — both
// for SQL issued afterwards and for a monitoring scraper hitting the
// global JSON surfaces throughout. The scraper half re-runs under TSan.
TEST(StatViewsTest, ViewsSurviveDatabaseLifecycleUnderConcurrentScrape) {
  ScopedMetricsEnable on(true);
  MetricsRegistry::Global().GetCounter("gea.test.lifecycle_scrape").Add(3);

  workbench::AnalysisSession session("admin", "secret");
  ASSERT_TRUE(
      session.Login("admin", "secret", workbench::AccessLevel::kAdministrator)
          .ok());

  sage::GeneratorConfig config;
  config.seed = 7;
  config.panels = sage::SyntheticSageGenerator::SmallPanels();
  sage::SyntheticSage synth = sage::SyntheticSageGenerator(config).Generate();
  sage::CleanAndNormalize(synth.dataset);
  ASSERT_TRUE(session.LoadDataSet(std::move(synth.dataset)).ok());

  const std::string dir = testing::TempDir() + "/gea_statviews_lifecycle";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(session.SaveDatabase(dir).ok());

  std::atomic<bool> stop{false};
  std::thread scraper([&stop] {
    while (!stop.load()) {
      const std::string json = StatViewsJson();
      EXPECT_NE(json.find("gea_stat_counters"), std::string::npos);
      (void)BuildStatView(kStatCountersView);
      (void)BuildStatView(kStatHistoryView);
    }
  });

  auto counters_alive = [&session]() {
    Result<rel::Table> counters = session.Query(
        "SELECT name, value FROM gea_stat_counters "
        "WHERE name = 'gea.test.lifecycle_scrape'");
    ASSERT_TRUE(counters.ok()) << counters.status().ToString();
    ASSERT_EQ(counters->NumRows(), 1u);
    EXPECT_GE(counters->At(0, 1).AsInt(), 3);
  };

  // Wipe the analysis state, then restore it, scraping all the while:
  // the computed views must be queryable after each transition.
  counters_alive();
  ASSERT_TRUE(session.InitializeDatabase().ok());
  counters_alive();
  ASSERT_TRUE(session.LoadDatabase(dir).ok());
  counters_alive();
  EXPECT_TRUE(session.Query("SELECT COUNT(*) FROM Libraries").ok());

  stop.store(true);
  scraper.join();
  std::filesystem::remove_all(dir);
}

TEST(StatViewsTest, BuildStatViewRejectsUnknownName) {
  // gea_stat_transactions registers lazily from the first EpochManager;
  // anchor it so the count does not depend on test order.
  txn::RegisterTransactionStatView();
  EXPECT_TRUE(BuildStatView("gea_stat_nope").status().IsNotFound());
  EXPECT_EQ(AllStatViews().size(), 9u);
}

TEST(StatViewsTest, RequestsTableRollsUpTheTraceRing) {
  std::vector<RequestTraceRecord> records;
  for (int i = 0; i < 4; ++i) {
    RequestTraceRecord r;
    r.op = "sql";
    r.user = "admin";
    r.status_code = 0;  // OK
    r.total_nanos = 2'000'000;  // 2 ms
    r.slow = (i == 0);
    records.push_back(std::move(r));
  }
  RequestTraceRecord denied;
  denied.op = "sql";
  denied.user = "reader";
  denied.status_code = static_cast<int>(StatusCode::kPermissionDenied);
  denied.total_nanos = 1'000'000;
  records.push_back(std::move(denied));

  rel::Table table = StatRequestsTable(records);
  EXPECT_EQ(table.name(), "gea_stat_requests");
  ASSERT_EQ(table.NumRows(), 2u);  // (sql, OK, admin) and (sql, denied, reader)
  ASSERT_EQ(table.schema().NumColumns(), 12u);

  // Rows sort by (op, status, user): "OK" < "PermissionDenied".
  EXPECT_EQ(table.At(0, 0).AsString(), "sql");
  EXPECT_EQ(table.At(0, 1).AsString(), "OK");
  EXPECT_EQ(table.At(0, 2).AsString(), "admin");
  EXPECT_EQ(table.At(0, 3).AsInt(), 4);  // count
  EXPECT_EQ(table.At(0, 4).AsInt(), 1);  // slow
  EXPECT_DOUBLE_EQ(table.At(0, 5).AsDouble(), 2.0);  // mean_ms
  // Quantiles are power-of-two bucket upper bounds covering 2 ms.
  EXPECT_GE(table.At(0, 6).AsDouble(), 2.0);  // p50_ms
  EXPECT_LE(table.At(0, 6).AsDouble(), 4.2);
  EXPECT_DOUBLE_EQ(table.At(0, 6).AsDouble(), table.At(0, 8).AsDouble());

  EXPECT_EQ(table.At(1, 1).AsString(), "PermissionDenied");
  EXPECT_EQ(table.At(1, 2).AsString(), "reader");
  EXPECT_EQ(table.At(1, 3).AsInt(), 1);
}

// ---------- JSON rendering ----------

TEST(StatViewsTest, TableJsonAndStatViewsJsonAreValid) {
  rel::Table table("t", rel::Schema({{"s", rel::ValueType::kString},
                                     {"i", rel::ValueType::kInt},
                                     {"d", rel::ValueType::kDouble},
                                     {"n", rel::ValueType::kNull}}));
  table.AppendRowUnchecked({rel::Value::String("a\"b"), rel::Value::Int(-3),
                            rel::Value::Double(1.5), rel::Value::Null()});
  const std::string json = TableJson(table);
  std::string error;
  EXPECT_TRUE(internal::ValidateJson(json, &error)) << error;
  EXPECT_NE(json.find("\"s\":\"a\\\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"i\":-3"), std::string::npos);
  EXPECT_NE(json.find("\"n\":null"), std::string::npos);

  const std::string all = StatViewsJson();
  EXPECT_TRUE(internal::ValidateJson(all, &error)) << error;
  EXPECT_NE(all.find("\"gea_stat_counters\":["), std::string::npos);
  EXPECT_NE(all.find("\"gea_stat_threads\":["), std::string::npos);
}

// ---------- Acceptance: SQL over live telemetry via a session ----------

TEST(StatViewsTest, SqlOverLiveCountersThroughSession) {
  ScopedMetricsEnable on(true);
  MetricsRegistry::Global().GetCounter("gea.test.sql_counter").Add(11);

  workbench::AnalysisSession session("admin", "secret");
  ASSERT_TRUE(
      session.Login("admin", "secret", workbench::AccessLevel::kAdministrator)
          .ok());

  Result<rel::Table> result = session.Query(
      "SELECT name, value FROM gea_stat_counters ORDER BY value DESC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->NumRows(), 0u);
  // Ordered by value, descending.
  for (size_t r = 1; r < result->NumRows(); ++r) {
    EXPECT_GE(result->At(r - 1, 1).AsInt(), result->At(r, 1).AsInt());
  }
  bool found = false;
  for (size_t r = 0; r < result->NumRows(); ++r) {
    if (result->At(r, 0).AsString() == "gea.test.sql_counter") {
      found = true;
      EXPECT_GE(result->At(r, 1).AsInt(), 11);
    }
  }
  EXPECT_TRUE(found);

  // The session itself shows up in gea_stat_sessions (the Query() above
  // was recorded), and the operator aggregate is queryable too.
  Result<rel::Table> sessions = session.Query(
      "SELECT user, operations FROM gea_stat_sessions WHERE user = 'admin'");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  ASSERT_GE(sessions->NumRows(), 1u);
  EXPECT_GE(sessions->At(0, 1).AsInt(), 1);

  Result<rel::Table> operators = session.Query(
      "SELECT operation, calls FROM gea_stat_operators "
      "WHERE operation = 'sql_query'");
  ASSERT_TRUE(operators.ok()) << operators.status().ToString();
  ASSERT_EQ(operators->NumRows(), 1u);
  EXPECT_GE(operators->At(0, 1).AsInt(), 1);
}

}  // namespace
}  // namespace gea::obs
