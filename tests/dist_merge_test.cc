// The differential battery that locks the scatter-gather router to
// single-node execution: the same workload runs against one full session
// and against a router over 1/2/4 tag-sharded workers, at operator
// thread counts 1/2/8, and every fetched relation must come back
// byte-identical under the canonical table codec — row order and null
// placement included. Plus unit tests for the
// gather-side merge and the router's non-routable-command fences.

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "dist/merge.h"
#include "dist/partition.h"
#include "dist/router.h"
#include "obs/request_trace.h"
#include "rel/schema.h"
#include "rel/table.h"
#include "sage/cleaning.h"
#include "sage/generator.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/format.h"
#include "workbench/session.h"

namespace gea::dist {
namespace {

using serve::QueryClient;
using serve::QueryServer;
using serve::Response;
using workbench::AccessLevel;
using workbench::AnalysisSession;

sage::SageDataSet CleanSmallData(uint64_t seed = 42) {
  sage::GeneratorConfig config;
  config.seed = seed;
  config.panels = sage::SyntheticSageGenerator::SmallPanels();
  sage::SyntheticSage synth = sage::SyntheticSageGenerator(config).Generate();
  sage::CleanAndNormalize(synth.dataset);
  return std::move(synth.dataset);
}

std::unique_ptr<AnalysisSession> AdminSession() {
  auto session = std::make_unique<AnalysisSession>("admin", "secret");
  EXPECT_TRUE(
      session->Login("admin", "secret", AccessLevel::kAdministrator).ok());
  return session;
}

// ---------- MergeByTagNo / SelectTopGapRows units ----------

rel::Table TagTable(const std::string& name,
                    const std::vector<int64_t>& tags) {
  rel::Table table(name, rel::Schema({{"TagNo", rel::ValueType::kInt},
                                      {"Description", rel::ValueType::kString}}));
  for (int64_t tag : tags) {
    table.AppendRowUnchecked(
        {rel::Value::Int(tag), rel::Value::String("t" + std::to_string(tag))});
  }
  return table;
}

TEST(MergeByTagNoTest, InterleavesDisjointPartsInTagOrder) {
  std::vector<rel::Table> parts;
  parts.push_back(TagTable("p", {1, 4, 9}));
  parts.push_back(TagTable("p", {2, 3, 10}));
  parts.push_back(TagTable("p", {}));  // an empty shard is fine
  Result<rel::Table> merged = MergeByTagNo("m", parts);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->NumRows(), 6u);
  const int64_t expected[] = {1, 2, 3, 4, 9, 10};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(merged->At(i, 0).AsInt(), expected[i]);
  }
  EXPECT_EQ(merged->name(), "m");
}

TEST(MergeByTagNoTest, DuplicateTagAcrossPartsIsNotAPartition) {
  std::vector<rel::Table> parts;
  parts.push_back(TagTable("p", {1, 5}));
  parts.push_back(TagTable("p", {5, 7}));
  Result<rel::Table> merged = MergeByTagNo("m", parts);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

TEST(MergeByTagNoTest, SchemaMismatchAndMissingTagNoAreErrors) {
  std::vector<rel::Table> mismatched;
  mismatched.push_back(TagTable("p", {1}));
  mismatched.push_back(
      rel::Table("p", rel::Schema({{"TagNo", rel::ValueType::kInt}})));
  EXPECT_FALSE(MergeByTagNo("m", mismatched).ok());

  std::vector<rel::Table> keyless;
  keyless.push_back(
      rel::Table("p", rel::Schema({{"name", rel::ValueType::kString}})));
  EXPECT_FALSE(MergeByTagNo("m", keyless).ok());
}

// ---------- the battery ----------

/// One sharded deployment: N worker sessions over PartitionDataSet
/// slices, each behind its own QueryServer, with a RouterServer fanned
/// out across them.
struct ShardedCluster {
  std::vector<std::unique_ptr<AnalysisSession>> sessions;
  std::vector<std::unique_ptr<QueryServer>> servers;
  std::unique_ptr<RouterServer> router;

  static std::unique_ptr<ShardedCluster> Start(
      const sage::SageDataSet& full, size_t num_shards) {
    auto cluster = std::make_unique<ShardedCluster>();
    RouterServer::Options options;
    for (size_t shard = 0; shard < num_shards; ++shard) {
      auto session = AdminSession();
      EXPECT_TRUE(
          session->LoadDataSet(PartitionDataSet(full, shard, num_shards))
              .ok());
      auto server = std::make_unique<QueryServer>(session.get());
      EXPECT_TRUE(server->Start().ok());
      options.worker_ports.push_back(server->Port());
      cluster->sessions.push_back(std::move(session));
      cluster->servers.push_back(std::move(server));
    }
    options.worker_user = "admin";
    options.worker_password = "secret";
    cluster->router = std::make_unique<RouterServer>(options);
    EXPECT_TRUE(cluster->router->Start().ok());
    return cluster;
  }

  void Stop() {
    if (router) router->Stop();
    for (auto& server : servers) server->Stop();
  }
};

/// Runs the battery workload through `client` (a single-node server or a
/// router — same wire surface). Every op is per-tag decomposable; the
/// brain/custom pairing makes some tags null in one operand, so shards
/// whose candidate slice is all-null are exercised too.
void RunWorkload(QueryClient& client, const std::string& custom_libs) {
  auto call = [&](const std::string& op,
                  std::map<std::string, std::string> params) {
    Result<Response> response = client.Call(op, std::move(params));
    ASSERT_TRUE(response.ok()) << op << ": " << response.status().ToString();
    ASSERT_TRUE(response->ok()) << op << ": " << response->message;
  };
  call("tissue_dataset", {{"tissue", "brain"}});
  call("tissue_dataset", {{"tissue", "breast"}});
  call("custom_dataset", {{"name", "cust"}, {"libs", custom_libs}});
  call("generate_metadata",
       {{"dataset", "brain"}, {"percent", "25"}, {"meta", "meta"}});
  call("aggregate", {{"enum", "brain"}, {"out", "s_brain"}});
  call("aggregate", {{"enum", "breast"}, {"out", "s_breast"}});
  call("aggregate", {{"enum", "cust"}, {"out", "s_cust"}});
  call("diff", {{"sumy1", "s_brain"}, {"sumy2", "s_breast"}, {"gap", "g"}});
  // The sparse gap: tags missing from the two-library custom SUMY leave
  // nulls, so some shard's top-gap candidates can be entirely null.
  call("diff", {{"sumy1", "s_brain"}, {"sumy2", "s_cust"}, {"gap", "g_sparse"}});
  call("top_gap", {{"gap", "g"}, {"x", "7"}});
  call("top_gap", {{"gap", "g"}, {"x", "5"}, {"mode", "1"}});
  call("top_gap", {{"gap", "g_sparse"}, {"x", "4"}, {"mode", "2"}});
}

/// Every relation the battery compares, by catalog name. Tolerance
/// metadata ("meta") is not a fetchable relation on either side, so the
/// generate_metadata broadcast is asserted by its wire ack instead.
std::vector<std::string> ComparedTables() {
  return {"brain",    "breast", "cust", "s_brain",  "s_breast", "s_cust",
          "g",        "g_sparse", "g_7", "g_5",     "g_sparse_4"};
}

std::string FetchBytes(QueryClient& client, const std::string& name) {
  Result<Response> response = client.Call("get_table", {{"name", name}});
  EXPECT_TRUE(response.ok()) << name;
  if (!response.ok()) return "<transport>";
  EXPECT_TRUE(response->ok()) << name << ": " << response->message;
  if (!response->ok()) return "<error>";
  EXPECT_TRUE(response->table.has_value()) << name;
  if (!response->table.has_value()) return "<no table>";
  return store::EncodeTable(*response->table);
}

std::string SqlBytes(QueryClient& client, const std::string& query) {
  Result<rel::Table> table = client.Sql(query);
  EXPECT_TRUE(table.ok()) << query << ": " << table.status().ToString();
  if (!table.ok()) return "<error>";
  return store::EncodeTable(*table);
}

const char* const kTagsQuery = "SELECT * FROM TAGS";
const char* const kCountQuery = "SELECT COUNT(*) AS n FROM Libraries";

TEST(DistMergeBattery, RouterIsByteIdenticalToSingleNode) {
  const sage::SageDataSet full = CleanSmallData();
  ASSERT_GE(full.NumLibraries(), 2u);
  // A two-library custom dataset; its SUMY leaves other tags null.
  const std::string custom_libs = std::to_string(full.library(0).id()) + "," +
                                  std::to_string(full.library(1).id());

  // The single-node reference, computed once: per-tag kernels are
  // deterministic and thread-count invariant (columnar_diff_test pins
  // that), so one reference serves every (threads, shards) cell.
  std::map<std::string, std::string> reference;
  std::string reference_tags;
  std::string reference_count;
  {
    auto session = AdminSession();
    ASSERT_TRUE(session->LoadDataSet(full).ok());
    QueryServer server(session.get());
    ASSERT_TRUE(server.Start().ok());
    QueryClient client;
    ASSERT_TRUE(client.Connect(server.Port()).ok());
    ASSERT_TRUE(client.Login("admin", "secret", "admin").ok());
    RunWorkload(client, custom_libs);
    if (HasFatalFailure()) return;
    for (const std::string& name : ComparedTables()) {
      reference[name] = FetchBytes(client, name);
    }
    reference_tags = SqlBytes(client, kTagsQuery);
    reference_count = SqlBytes(client, kCountQuery);
    server.Stop();
  }

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadCountOverride scope(threads);
    for (size_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      std::unique_ptr<ShardedCluster> cluster =
          ShardedCluster::Start(full, shards);
      if (HasFatalFailure()) return;
      QueryClient client;
      ASSERT_TRUE(client.Connect(cluster->router->Port()).ok());
      ASSERT_TRUE(client.Login("router", "router-secret", "admin").ok());
      RunWorkload(client, custom_libs);
      if (HasFatalFailure()) return;
      for (const std::string& name : ComparedTables()) {
        EXPECT_EQ(FetchBytes(client, name), reference.at(name)) << name;
      }
      // The TagNo-keyed SQL scan merges; the shard-invariant one passes
      // through because every worker holds every library.
      EXPECT_EQ(SqlBytes(client, kTagsQuery), reference_tags);
      EXPECT_EQ(SqlBytes(client, kCountQuery), reference_count);
      cluster->Stop();
    }
  }
}

// One routed request is one trace record at the router, and its spans
// include the fan-out the router's handler ran outside any operation
// capture.
TEST(DistRouterTest, TracedRoutedRequestRecordsItsFanOut) {
  obs::RequestTraceRing::Global().Clear();
  const sage::SageDataSet full = CleanSmallData();
  std::unique_ptr<ShardedCluster> cluster = ShardedCluster::Start(full, 2);
  ASSERT_FALSE(HasFatalFailure());
  QueryClient client;
  ASSERT_TRUE(client.Connect(cluster->router->Port()).ok());
  ASSERT_TRUE(client.Login("router", "router-secret", "admin").ok());
  Result<Response> brain =
      client.Call("tissue_dataset", {{"tissue", "brain"}});
  ASSERT_TRUE(brain.ok());
  ASSERT_TRUE(brain->ok()) << brain->message;

  client.SetTracing(true);
  Result<Response> agg =
      client.Call("aggregate", {{"enum", "brain"}, {"out", "TracedSumy"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->ok()) << agg->message;
  const uint64_t trace_id = client.LastTraceId();
  ASSERT_NE(trace_id, 0u);
  cluster->Stop();  // joins the router's workers: every record is published

  size_t records = 0;
  std::set<std::string> spans;
  for (const obs::RequestTraceRecord& record :
       obs::RequestTraceRing::Global().Snapshot()) {
    if (record.trace_id != trace_id) continue;
    ++records;
    EXPECT_EQ(record.op, "aggregate");
    for (const obs::SpanRecord& span : record.spans) spans.insert(span.name);
  }
  EXPECT_EQ(records, 1u);
  EXPECT_TRUE(spans.count("router_fanout"));
}

TEST(DistRouterTest, FencesAndShardSurface) {
  const sage::SageDataSet full = CleanSmallData();
  std::unique_ptr<ShardedCluster> cluster = ShardedCluster::Start(full, 2);
  ASSERT_FALSE(HasFatalFailure());
  QueryClient client;
  ASSERT_TRUE(client.Connect(cluster->router->Port()).ok());
  ASSERT_TRUE(client.Login("router", "router-secret", "admin").ok());

  // Cross-tag conjunctions and per-store commands cannot be decomposed
  // by tag: the router fails them instead of answering wrongly.
  for (const char* op : {"populate", "mine", "checkpoint"}) {
    Result<Response> rejected =
        op == std::string("populate")
            ? client.Call(op, {{"query", "q"}, {"out", "o"}})
            : client.Call(op);
    ASSERT_TRUE(rejected.ok()) << op;
    EXPECT_EQ(rejected->code, StatusCode::kFailedPrecondition) << op;
    EXPECT_NE(rejected->message.find("not routable"), std::string::npos) << op;
  }

  // The topology is introspectable.
  Result<Response> shards = client.Call("shards");
  ASSERT_TRUE(shards.ok());
  ASSERT_TRUE(shards->ok()) << shards->message;
  ASSERT_TRUE(shards->table.has_value());
  ASSERT_EQ(shards->table->NumRows(), 2u);
  EXPECT_EQ(shards->table->At(0, 0).AsInt(), 0);
  EXPECT_EQ(shards->table->At(1, 0).AsInt(), 1);

  Result<std::map<std::string, std::string>> info = client.RoleInfo();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->at("role"), "router");
  EXPECT_EQ(info->at("shards"), "2");

  // Router-materialized top-gap results appear in the table listing
  // alongside the union of worker catalogs.
  Result<Response> brain = client.Call("tissue_dataset",
                                       {{"tissue", "brain"}});
  ASSERT_TRUE(brain.ok());
  ASSERT_TRUE(brain->ok()) << brain->message;
  Result<Response> agg = client.Call(
      "aggregate", {{"enum", "brain"}, {"out", "FenceSumy"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->ok()) << agg->message;
  Result<Response> diffed = client.Call(
      "diff", {{"sumy1", "FenceSumy"}, {"sumy2", "FenceSumy"},
               {"gap", "FenceGap"}});
  ASSERT_TRUE(diffed.ok());
  ASSERT_TRUE(diffed->ok()) << diffed->message;
  Result<Response> top = client.Call("top_gap",
                                     {{"gap", "FenceGap"}, {"x", "3"}});
  ASSERT_TRUE(top.ok());
  ASSERT_TRUE(top->ok()) << top->message;
  Result<Response> tables = client.Call("tables");
  ASSERT_TRUE(tables.ok());
  ASSERT_TRUE(tables->ok());
  ASSERT_TRUE(tables->table.has_value());
  std::set<std::string> names;
  for (size_t i = 0; i < tables->table->NumRows(); ++i) {
    names.insert(tables->table->At(i, 0).AsString());
  }
  EXPECT_TRUE(names.count("FenceSumy"));
  EXPECT_TRUE(names.count(top->text)) << top->text;

  cluster->Stop();
}

}  // namespace
}  // namespace gea::dist
