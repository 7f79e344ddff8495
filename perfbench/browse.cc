// The `browse` workload: the lock-free MVCC read path of one
// storage-attached node on the default panel (108 libraries x ~9.4k tags,
// so tables fit in cache). Three readers fetch derived SUMY/GAP/tissue
// ENUM tables, run range, ORDER BY and GROUP BY SQL over the rotated TAGS
// relation and list tables; reader 0 logs out and reconnects every
// kReconnectEvery requests. One writer keeps publishing new epochs with
// small tissue aggregates, so readers always pin a moving epoch.

#include <chrono>
#include <cstdio>
#include <thread>

#include "harness.h"
#include "sage/library.h"
#include "store/format.h"

namespace perfbench {
namespace {

using gea::workbench::AnalysisSession;

constexpr int kBaselineTags = 800;  // the generator's default panel
constexpr size_t kReaders = 3;
constexpr uint64_t kReconnectEvery = 25;
constexpr size_t kSqlPerKind = 2;
// Think time between the writer's requests: enough epochs for readers to
// pin a moving one, without the writer's loop taking a core from them.
constexpr auto kWriterThink = std::chrono::milliseconds(2);
const char* const kWriterOut = "w_S";

class Browse : public Workload {
 public:
  explicit Browse(uint64_t seed) : seed_(seed) {}

  Status Prepare() override {
    data_ = MakeDataSet(seed_, kBaselineTags);
    auto session = NewAdminSession();
    GEA_RETURN_IF_ERROR(BuildCatalog(*session));

    std::mt19937_64 rng(seed_ ^ 0x9e3779b97f4a7c15ull);
    std::vector<std::string> tables = {"ALL_S"};
    for (gea::sage::TissueType type : gea::sage::AllTissueTypes()) {
      const std::string t = gea::sage::TissueTypeName(type);
      for (const std::string& name : {t, t + "_S", t + "_G"}) {
        tables.push_back(name);
      }
    }
    for (const std::string& name : tables) {
      GEA_ASSIGN_OR_RETURN(gea::rel::Table table,
                           session->MaterializeAnyTable(name));
      GEA_RETURN_IF_ERROR(CheckUnderFrameCap(name, table));
      menu_.push_back({"get_table", {{"name", name}},
                       gea::store::EncodeTable(table)});
    }
    for (const std::string& query : SqlQueries(data_, rng)) {
      sql_.push_back(query);
      GEA_ASSIGN_OR_RETURN(gea::rel::Table table, session->Query(query));
      GEA_RETURN_IF_ERROR(CheckUnderFrameCap(query, table));
      menu_.push_back({"sql", {{"query", query}},
                       gea::store::EncodeTable(table)});
    }
    menu_.push_back({"tables", {}, ""});
    return Status::OK();
  }

  Status Setup(const std::string& dir) override {
    dir_ = dir;
    session_ = NewAdminSession();
    GEA_RETURN_IF_ERROR(session_->OpenStorage(dir));
    // Bulk load through group commit: one shared fsync, as the server
    // commits concurrent writers, instead of one per set-up operation.
    session_->SetDeferredCommits(true);
    GEA_RETURN_IF_ERROR(BuildCatalog(*session_));
    GEA_RETURN_IF_ERROR(session_->DrainCommits());
    table_names_ = session_->SnapshotTableNames();
    gea::serve::ServerOptions options;
    options.num_workers = 4;
    server_ = std::make_unique<gea::serve::QueryServer>(session_.get(), options);
    return server_->Start();
  }

  Endpoint ClientEndpoint() const override {
    return {server_->Port(), "admin", "secret", "admin"};
  }

  void Step(Client& client) override {
    if (client.index() >= kReaders) {
      // The writer: a small aggregate over a random tissue.
      const auto& types = gea::sage::AllTissueTypes();
      const std::string tissue =
          gea::sage::TissueTypeName(types[client.rng()() % types.size()]);
      auto reply = client.Issue(
          OpKind::kWrite, "aggregate",
          {{"enum", tissue}, {"out", kWriterOut}, {"replace", "1"}});
      if (reply.has_value() &&
          reply->text != std::string("created ") + kWriterOut) {
        client.Reject("aggregate answered '" + reply->text + "'");
      }
      std::this_thread::sleep_for(kWriterThink);
      return;
    }
    if (client.index() == 0 && client.steps() > 0 &&
        client.steps() % kReconnectEvery == 0) {
      if (!client.Reconnect().ok()) return;
    }
    // Readers walk the menu in order from evenly spaced offsets: every
    // run reads the same mix, and the first step (set-up's warm-up) is a
    // get_table, so set-up time does not hang on a seeded pick.
    const Item& item =
        menu_[(client.steps() + client.index() * menu_.size() / kReaders) %
              menu_.size()];
    auto reply = client.Issue(OpKind::kRead, item.op, item.params);
    if (!reply.has_value()) return;
    if (!reply->table.has_value()) {
      client.Reject(item.op + " returned no table");
    } else if (item.op == "tables") {
      if (FirstColumn(*reply->table) != table_names_) {
        client.Reject("tables lists other names");
      }
    } else if (gea::store::EncodeTable(*reply->table) != item.expected) {
      client.Reject(item.op + " " + item.params.begin()->second +
                    " differs from the reference");
    }
  }

  gea::serve::QueryServer::Stats FrontStats() const override {
    return server_->GetStats();
  }

  Status StopAndVerify(bool recover, double* recovery_ms) override {
    server_->Stop();
    if (!recover) return Status::OK();
    return VerifyRecovery(std::move(session_), dir_, recovery_ms);
  }

  void Teardown() override {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    session_.reset();
  }

  void LayerProbes(MetricList* out) override {
    auto session = NewAdminSession();
    Status status = BuildCatalog(*session);
    if (!status.ok()) {
      std::fprintf(stderr, "browse: probe set-up failed: %s\n",
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

  // Range search, ORDER BY and GROUP BY over TAGS on random libraries.
  static std::vector<std::string> SqlQueries(const gea::sage::SageDataSet& data,
                                             std::mt19937_64& rng) {
    std::vector<std::string> out;
    const auto lib = [&]() {
      return "\"" + data.library(rng() % data.NumLibraries()).name() + "\"";
    };
    for (size_t i = 0; i < kSqlPerKind; ++i) {
      const std::string l = lib();
      const int lo = 1 + static_cast<int>(rng() % 40);
      const int hi = lo + 20 + static_cast<int>(rng() % 200);
      out.push_back("SELECT TagNo, TagName, " + l + " FROM TAGS WHERE " + l +
                    " BETWEEN " + std::to_string(lo) + " AND " +
                    std::to_string(hi));
    }
    for (size_t i = 0; i < kSqlPerKind; ++i) {
      const std::string l = lib();
      out.push_back("SELECT TagNo, " + l + " FROM TAGS WHERE " + l +
                    " > 0 ORDER BY " + l + " DESC LIMIT 50");
    }
    for (size_t i = 0; i < kSqlPerKind; ++i) {
      const std::string l = lib();
      out.push_back("SELECT " + l + ", COUNT(*) AS n FROM TAGS WHERE " + l +
                    " > 0 GROUP BY " + l);
    }
    return out;
  }

 private:
  struct Item {
    std::string op;
    std::map<std::string, std::string> params;
    std::string expected;  // EncodeTable bytes; unused for `tables`
  };

  // The tissue catalog plus the writer's output table.
  Status BuildCatalog(AnalysisSession& session) const {
    GEA_RETURN_IF_ERROR(BuildTissueCatalog(session, data_));
    return session.Aggregate("brain", kWriterOut);
  }

  uint64_t seed_;
  gea::sage::SageDataSet data_;
  std::vector<Item> menu_;
  std::vector<std::string> sql_;
  std::vector<std::string> table_names_;
  std::string dir_;
  std::unique_ptr<AnalysisSession> session_;
  std::unique_ptr<gea::serve::QueryServer> server_;
};

}  // namespace

std::unique_ptr<Workload> MakeBrowse(uint64_t seed) {
  return std::make_unique<Browse>(seed);
}

}  // namespace perfbench
