// The differential battery that locks the scatter-gather router to
// single-node execution: seeded per-tag corpora (tests/support) run
// against a router over 1/2/4 tag-sharded workers, at operator thread
// counts 1/2/8. Every step must answer as the single-node reference did,
// and every table the reference ends with must come back byte-identical
// under the canonical table codec — row order and null placement
// included. Plus unit tests for the gather-side merge and the router's
// non-routable-command fences.

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
#include "serve/client.h"
#include "serve/server.h"
#include "store/format.h"
#include "support/corpus.h"
#include "workbench/session.h"

namespace gea::dist {
namespace {

using serve::QueryClient;
using serve::QueryServer;
using serve::Response;
using support::AdminSession;
using support::Command;
using support::Panel;
using support::Reference;
using support::StepResult;
using workbench::AnalysisSession;

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

std::string Encoded(const Result<rel::Table>& table) {
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? store::EncodeTable(*table) : "<error>";
}

const char* const kTagsQuery = "SELECT * FROM TAGS";
const char* const kCountQuery = "SELECT COUNT(*) AS n FROM Libraries";

/// Runs one per-tag corpus through routers over every shard and thread
/// count. A failed step compares its status code only: a shard's error
/// carries a "shard i:" prefix.
void RunRouted(uint64_t seed) {
  const Reference reference(seed, support::Scope::kPerTag);
  const std::vector<Command>& corpus = reference.corpus();
  // What the router must hand back: every table the reference ends with,
  // the TagNo-keyed TAGS scan it merges, and the shard-invariant Libraries
  // count it passes through because every worker holds every library.
  const AnalysisSession& single = reference.session();
  std::map<std::string, std::string> tables;
  for (const std::string& name : single.TableNames()) {
    tables[name] = Encoded(single.MaterializeAnyTable(name));
  }
  const std::string tags = Encoded(single.Query(kTagsQuery));
  const std::string count = Encoded(single.Query(kCountQuery));

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadCountOverride scope(threads);
    for (size_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      // The shards load their slices of the panel: the corpus's
      // load_dataset.
      std::unique_ptr<ShardedCluster> cluster =
          ShardedCluster::Start(Panel(), shards);
      if (testing::Test::HasFatalFailure()) return;
      QueryClient client;
      ASSERT_TRUE(client.Connect(cluster->router->Port()).ok());
      ASSERT_TRUE(client.Login("router", "router-secret", "admin").ok());
      for (size_t i = 0; i < corpus.size(); ++i) {
        const Command& command = corpus[i];
        if (command.op == "load_dataset") continue;
        const StepResult got =
            support::FromResponse(client.Call(command.op, command.params));
        const StepResult& want = reference.steps()[i];
        if (want.code == StatusCode::kOk) {
          EXPECT_EQ(got, want) << "step " << i << ": "
                               << support::Describe(command);
        } else {
          EXPECT_EQ(got.code, want.code) << "step " << i << ": "
                                         << support::Describe(command);
        }
      }
      for (const auto& [name, bytes] : tables) {
        EXPECT_EQ(FetchBytes(client, name), bytes) << name;
      }
      EXPECT_EQ(Encoded(client.Sql(kTagsQuery)), tags);
      EXPECT_EQ(Encoded(client.Sql(kCountQuery)), count);
      cluster->Stop();
    }
  }
}

class DistMergeBattery : public testing::TestWithParam<uint64_t> {};

TEST_P(DistMergeBattery, RouterIsByteIdenticalToSingleNode) {
  RunRouted(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistMergeBattery,
                         testing::ValuesIn(support::kCorpusSeeds));

// The sweep over more seeds; CI runs it with
// --gtest_also_run_disabled_tests.
TEST(DistMergeSweep, DISABLED_MoreSeeds) {
  for (uint64_t seed = 4; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunRouted(seed);
    if (HasFatalFailure()) return;
  }
}

// One routed request is one trace record at the router, and its spans
// include the fan-out the router's handler ran outside any operation
// capture.
TEST(DistRouterTest, TracedRoutedRequestRecordsItsFanOut) {
  obs::RequestTraceRing::Global().Clear();
  std::unique_ptr<ShardedCluster> cluster = ShardedCluster::Start(Panel(), 2);
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
  std::unique_ptr<ShardedCluster> cluster = ShardedCluster::Start(Panel(), 2);
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
