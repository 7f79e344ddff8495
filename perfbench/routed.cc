// The `routed` workload: the per-tag subset of `browse` and `analyze`
// through a dist::RouterServer over 4 tag-hash shards without storage,
// on the default panel. Writes are broadcast aggregate/diff and the
// two-phase top_gap; reads are merged get_table and TAGS SQL. Every read
// must be byte-identical to a single-node reference. Cross-tag ops
// (populate, mine) are refused by the router, so the mix has none.

#include <cstdio>

#include "dist/partition.h"
#include "dist/router.h"
#include "harness.h"
#include "sage/library.h"
#include "store/format.h"

namespace perfbench {
namespace {

using gea::workbench::AnalysisSession;

constexpr int kBaselineTags = 800;
constexpr size_t kShards = 4;
constexpr size_t kTopX = 10;
constexpr size_t kReadsPerPass = 2;
constexpr size_t kSqlQueries = 6;
constexpr int kProbeRounds = 40;

class Routed : public Workload {
 public:
  explicit Routed(uint64_t seed) : seed_(seed) {}

  Status Prepare() override {
    data_ = MakeDataSet(seed_, kBaselineTags);
    auto session = NewAdminSession();
    GEA_RETURN_IF_ERROR(BuildTissueCatalog(*session, data_));

    // The per-client pass, once per tissue under reference names.
    for (gea::sage::TissueType type : gea::sage::AllTissueTypes()) {
      const std::string t = gea::sage::TissueTypeName(type);
      tissues_.push_back(t);
      GEA_RETURN_IF_ERROR(session->Aggregate(t, "ref_S", true));
      GEA_RETURN_IF_ERROR(session->CreateGap("ref_S", "ALL_S", "ref_G", true));
      GEA_ASSIGN_OR_RETURN(std::string top,
                           session->CalculateTopGap("ref_G", kTopX));
      GEA_ASSIGN_OR_RETURN(gea::rel::Table table,
                           session->MaterializeAnyTable(top));
      GEA_RETURN_IF_ERROR(CheckUnderFrameCap(top, table));
      top_bytes_.push_back(CanonicalBytes(std::move(table)));
    }

    std::vector<std::string> names = {"ALL_S"};
    for (const std::string& t : tissues_) {
      names.push_back(t + "_S");
      names.push_back(t + "_G");
    }
    for (const std::string& name : names) {
      GEA_ASSIGN_OR_RETURN(gea::rel::Table table,
                           session->MaterializeAnyTable(name));
      GEA_RETURN_IF_ERROR(CheckUnderFrameCap(name, table));
      menu_.push_back({"get_table", {{"name", name}},
                       gea::store::EncodeTable(table)});
    }
    // Range searches only: their rows come back in TagNo order, which is
    // what the router's k-way merge reproduces.
    std::mt19937_64 rng(seed_ ^ 0x5851f42d4c957f2dull);
    for (size_t i = 0; i < kSqlQueries; ++i) {
      const std::string lib =
          "\"" + data_.library(rng() % data_.NumLibraries()).name() + "\"";
      const int lo = 1 + static_cast<int>(rng() % 40);
      const int hi = lo + 20 + static_cast<int>(rng() % 200);
      const std::string query = "SELECT TagNo, TagName, " + lib +
                                " FROM TAGS WHERE " + lib + " BETWEEN " +
                                std::to_string(lo) + " AND " +
                                std::to_string(hi);
      GEA_ASSIGN_OR_RETURN(gea::rel::Table table, session->Query(query));
      GEA_RETURN_IF_ERROR(CheckUnderFrameCap(query, table));
      sql_.push_back(query);
      menu_.push_back({"sql", {{"query", query}},
                       gea::store::EncodeTable(table)});
    }
    return Status::OK();
  }

  Status Setup(const std::string& dir) override {
    (void)dir;  // shards run without storage
    gea::dist::RouterServer::Options options;
    options.worker_user = "admin";
    options.worker_password = "secret";
    for (size_t shard = 0; shard < kShards; ++shard) {
      auto session = NewAdminSession();
      GEA_RETURN_IF_ERROR(session->LoadDataSet(
          gea::dist::PartitionDataSet(data_, shard, kShards)));
      gea::serve::ServerOptions server_options;
      server_options.num_workers = 4;
      auto server = std::make_unique<gea::serve::QueryServer>(session.get(),
                                                              server_options);
      GEA_RETURN_IF_ERROR(server->Start());
      options.worker_ports.push_back(server->Port());
      shard_sessions_.push_back(std::move(session));
      shard_servers_.push_back(std::move(server));
    }
    options.server.num_workers = 4;
    router_ = std::make_unique<gea::dist::RouterServer>(options);
    GEA_RETURN_IF_ERROR(router_->Start());

    // The shared catalog, built through the router as a client would.
    gea::serve::QueryClient admin;
    GEA_RETURN_IF_ERROR(admin.Connect(router_->Port()));
    GEA_RETURN_IF_ERROR(admin.Login("router", "router-secret", "admin"));
    const auto call = [&admin](const std::string& op,
                               std::map<std::string, std::string> params) {
      gea::Result<gea::serve::Response> reply = admin.Call(op, std::move(params));
      if (!reply.ok()) return reply.status();
      return reply->ToStatus();
    };
    for (const std::string& t : tissues_) {
      GEA_RETURN_IF_ERROR(call("tissue_dataset", {{"tissue", t}}));
    }
    GEA_RETURN_IF_ERROR(call("custom_dataset",
                             {{"name", "ALL"}, {"libs", AllLibraryIds(data_)}}));
    GEA_RETURN_IF_ERROR(call("aggregate", {{"enum", "ALL"}, {"out", "ALL_S"}}));
    for (const std::string& t : tissues_) {
      GEA_RETURN_IF_ERROR(call("aggregate", {{"enum", t}, {"out", t + "_S"}}));
      GEA_RETURN_IF_ERROR(call(
          "diff", {{"sumy1", t + "_S"}, {"sumy2", "ALL_S"}, {"gap", t + "_G"}}));
    }
    return Status::OK();
  }

  Endpoint ClientEndpoint() const override {
    return {router_->Port(), "router", "router-secret", "admin"};
  }

  void Step(Client& client) override {
    // Clients walk the tissues and the read menu in order from evenly
    // spaced offsets, so every run does the same mix and set-up's warm-up
    // step costs the same for every seed.
    const size_t pick = (client.steps() + client.index() * 2) % tissues_.size();
    const std::string& tissue = tissues_[pick];
    const std::string c = "c" + std::to_string(client.index());
    const std::string sumy = c + "_S";
    const std::string gap = c + "_G";
    const std::string top = gap + "_" + std::to_string(kTopX);
    const auto expect_text = [&](const std::optional<gea::serve::Response>& r,
                                 const std::string& text) {
      if (!r.has_value()) return false;
      if (r->text == text) return true;
      client.Reject("expected '" + text + "', got '" + r->text + "'");
      return false;
    };
    if (!expect_text(
            client.Issue(OpKind::kWrite, "aggregate",
                         {{"enum", tissue}, {"out", sumy}, {"replace", "1"}}),
            "created " + sumy) ||
        !expect_text(client.Issue(OpKind::kWrite, "diff",
                                  {{"sumy1", sumy},
                                   {"sumy2", "ALL_S"},
                                   {"gap", gap},
                                   {"replace", "1"}}),
                     "created " + gap) ||
        !expect_text(client.Issue(OpKind::kWrite, "top_gap",
                                  {{"gap", gap}, {"x", std::to_string(kTopX)}}),
                     top)) {
      return;
    }
    auto fetched = client.Issue(OpKind::kRead, "get_table", {{"name", top}});
    if (!fetched.has_value()) return;
    if (!fetched->table.has_value() ||
        CanonicalBytes(std::move(*fetched->table)) != top_bytes_[pick]) {
      client.Reject("merged " + top + " differs from the single-node reference");
      return;
    }
    for (size_t i = 0; i < kReadsPerPass; ++i) {
      const Item& item =
          menu_[(client.steps() * kReadsPerPass + i +
                 client.index() * menu_.size() / kClients) %
                menu_.size()];
      auto reply = client.Issue(OpKind::kRead, item.op, item.params);
      if (!reply.has_value()) return;
      if (!reply->table.has_value() ||
          gea::store::EncodeTable(*reply->table) != item.expected) {
        client.Reject("merged " + item.op + " " + item.params.begin()->second +
                      " differs from the single-node reference");
        return;
      }
    }
  }

  gea::serve::QueryServer::Stats FrontStats() const override {
    return router_->server().GetStats();
  }

  Status StopAndVerify(bool recover, double* recovery_ms) override {
    (void)recover;
    (void)recovery_ms;
    router_->Stop();
    for (auto& server : shard_servers_) server->Stop();
    return Status::OK();
  }

  void Teardown() override {
    if (router_ != nullptr) router_->Stop();
    for (auto& server : shard_servers_) server->Stop();
    router_.reset();
    shard_servers_.clear();
    shard_sessions_.clear();
  }

  void LayerProbes(MetricList* out) override {
    auto session = NewAdminSession();
    Status status = BuildTissueCatalog(*session, data_);
    if (!status.ok()) {
      std::fprintf(stderr, "routed: probe set-up failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    ProbePlan plan;
    plan.populate_sumy = "ALL_S";
    plan.populate_base = "ALL";
    plan.aggregate_enum = "brain";
    plan.diff_sumy1 = "brain_S";
    plan.diff_sumy2 = "ALL_S";
    plan.mine_enum = "brain";
    plan.sql = sql_;
    for (const Item& item : menu_) {
      if (item.op == "get_table") plan.fetched.push_back(item.params.at("name"));
    }
    RunLayerProbes(*session, plan, out);
  }

  // The router's own cost per request: routed RTT minus the slowest
  // direct-to-shard RTT of the same request, one request at a time.
  void DistProbe(Watchdog* watchdog, MetricList* out) override {
    Client routed(0, seed_, watchdog);
    std::vector<std::unique_ptr<Client>> direct;
    bool ok = routed.Connect(ClientEndpoint()).ok();
    for (size_t shard = 0; shard < kShards && ok; ++shard) {
      direct.push_back(std::make_unique<Client>(1 + shard, seed_, watchdog));
      ok = direct.back()
               ->Connect({shard_servers_[shard]->Port(), "admin", "secret",
                          "admin"})
               .ok();
      direct.back()->SetTracing(true);
    }
    if (!ok) {
      std::fprintf(stderr, "routed: probe clients could not connect\n");
      std::exit(1);
    }
    std::vector<double> tax_ms;
    std::vector<double> shard_exec_ms;
    for (int round = 0; round < kProbeRounds; ++round) {
      const std::string& tissue = tissues_[round % tissues_.size()];
      const std::vector<std::pair<std::string, std::map<std::string, std::string>>>
          requests = {
              {"aggregate",
               {{"enum", tissue}, {"out", "probe_S"}, {"replace", "1"}}},
              {"diff",
               {{"sumy1", "probe_S"},
                {"sumy2", "ALL_S"},
                {"gap", "probe_G"},
                {"replace", "1"}}},
              {"get_table", {{"name", tissue + "_S"}}},
              {"sql", {{"query", sql_[round % sql_.size()]}}},
          };
      for (const auto& [op, params] : requests) {
        double start = NowSeconds();
        if (!routed.Issue(OpKind::kOther, op, params).has_value()) break;
        const double routed_ms = (NowSeconds() - start) * 1e3;
        double slowest_ms = 0.0;
        double exec_ms = 0.0;
        for (auto& shard : direct) {
          start = NowSeconds();
          auto reply = shard->Issue(OpKind::kOther, op, params);
          slowest_ms = std::max(slowest_ms, (NowSeconds() - start) * 1e3);
          if (reply.has_value() && reply->timing.has_value()) {
            exec_ms = std::max(
                exec_ms, static_cast<double>(reply->timing->execute_nanos) / 1e6);
          }
        }
        tax_ms.push_back(routed_ms - slowest_ms);
        shard_exec_ms.push_back(exec_ms);
      }
    }
    if (routed.failed() > 0) {
      std::fprintf(stderr, "routed: probe request failed: %s\n",
                   routed.errors().front().c_str());
      std::exit(1);
    }
    out->push_back({"dist.router_tax_p50_ms", Quantile(tax_ms, 0.5), "ms"});
    out->push_back(
        {"dist.shard_exec_max_ms", Quantile(shard_exec_ms, 0.5), "ms"});
  }

 private:
  struct Item {
    std::string op;
    std::map<std::string, std::string> params;
    std::string expected;  // EncodeTable bytes of the single-node reply
  };

  uint64_t seed_;
  gea::sage::SageDataSet data_;
  std::vector<std::string> tissues_;
  std::vector<std::string> top_bytes_;  // canonical, per tissue
  std::vector<Item> menu_;
  std::vector<std::string> sql_;
  std::vector<std::unique_ptr<AnalysisSession>> shard_sessions_;
  std::vector<std::unique_ptr<gea::serve::QueryServer>> shard_servers_;
  std::unique_ptr<gea::dist::RouterServer> router_;
};

}  // namespace

std::unique_ptr<Workload> MakeRouted(uint64_t seed) {
  return std::make_unique<Routed>(seed);
}

}  // namespace perfbench
