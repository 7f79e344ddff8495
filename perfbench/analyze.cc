// The `analyze` workload: the §4.3.1 case-study pass, repeated by every
// client against one storage-attached node on a paper-scale panel (about
// 50k tags x 108 libraries after cleaning). Every write is a mutating op
// under the exclusive session lock, so kernels, populate(), fascicle
// mining, WAL group commit and epoch publication do the work; replies are
// small but for the read-back of the all-tag SUMY.

#include <algorithm>
#include <cstdio>

#include "core/gap_compare.h"
#include "harness.h"
#include "sage/library.h"
#include "store/format.h"

namespace perfbench {
namespace {

using gea::workbench::AnalysisSession;

// Per-tissue baseline pool scaled so the all-library ENUM reaches about
// 50k tags (the paper's Table 3.2 uses 60,000).
constexpr int kBaselineTags = 6500;
constexpr size_t kTopX = 10;
constexpr int kGapQuery = 2;  // "lower in A in both"
constexpr uint64_t kSumyReadEvery = 4;

class Analyze : public Workload {
 public:
  explicit Analyze(uint64_t seed) : seed_(seed) {}

  Status Prepare() override {
    data_ = MakeDataSet(seed_, kBaselineTags);
    auto session = NewAdminSession();
    GEA_RETURN_IF_ERROR(LoadWithAllLibraries(*session, data_));

    // populate(all-tag SUMY, all-library ENUM): the library set every
    // client's populate must reproduce.
    GEA_RETURN_IF_ERROR(session->Aggregate("ALL", "ref_allS"));
    GEA_ASSIGN_OR_RETURN(gea::rel::Table all_sumy,
                         session->MaterializeAnyTable("ref_allS"));
    GEA_RETURN_IF_ERROR(CheckUnderFrameCap("ref_allS", all_sumy));
    all_sumy_ = CanonicalBytes(std::move(all_sumy));
    GEA_RETURN_IF_ERROR(session->Populate("ref_allS", "ALL", "ref_pop"));
    for (const auto& lib : (*session->GetEnum("ref_pop"))->libraries()) {
      populate_ids_.push_back(lib.id);
    }

    // One reference pass per tissue; tissues where mining finds no
    // fascicle are left out of the clients' choice.
    for (gea::sage::TissueType type : gea::sage::AllTissueTypes()) {
      TissueRef ref;
      ref.tissue = gea::sage::TissueTypeName(type);
      GEA_ASSIGN_OR_RETURN(gea::rel::Table libraries,
                           session->Query(LibrariesQuery(ref.tissue)));
      ref.libraries = gea::store::EncodeTable(libraries);
      GEA_RETURN_IF_ERROR(session->CreateTissueDataSet(type, true));
      GEA_RETURN_IF_ERROR(session->GenerateMetadata(ref.tissue, kMetaPercent,
                                                    "ref.meta", true));
      GEA_ASSIGN_OR_RETURN(
          std::vector<std::string> fascicles,
          session->CalculateFascicles(ref.tissue, "ref.meta", kMinCompactTags,
                                      kBatchSize, kMinSize, "ref_" + ref.tissue));
      if (fascicles.empty()) continue;
      ref.fascicles = fascicles.size();
      const std::string second = fascicles[std::min<size_t>(1, fascicles.size() - 1)];
      GEA_RETURN_IF_ERROR(
          session->CreateGap(fascicles[0] + "_SUMY", "ref_allS", "ref_g1", true));
      GEA_RETURN_IF_ERROR(
          session->CreateGap(second + "_SUMY", "ref_allS", "ref_g2", true));
      for (const char* gap : {"ref_g1", "ref_g2"}) {
        GEA_RETURN_IF_ERROR(session->CalculateTopGap(gap, kTopX).status());
      }
      GEA_RETURN_IF_ERROR(session->CompareGapTables(
          "ref_g1", "ref_g2", gea::core::GapCompareKind::kIntersect, "ref_cmp",
          true));
      GEA_RETURN_IF_ERROR(session->RunGapQuery(
          "ref_cmp", static_cast<gea::core::GapCompareQuery>(kGapQuery), "ref_q",
          true));
      for (const std::string& name : PassReads("ref_", fascicles)) {
        GEA_ASSIGN_OR_RETURN(gea::rel::Table table,
                             session->MaterializeAnyTable(name));
        GEA_RETURN_IF_ERROR(CheckUnderFrameCap(name, table));
        ref.fetched.push_back(CanonicalBytes(std::move(table)));
      }
      pool_.push_back(std::move(ref));
    }
    if (pool_.empty()) {
      return Status::FailedPrecondition("no tissue yields a fascicle");
    }
    // Clients walk the pool in one seeded order from different offsets,
    // so every run does a balanced mix of tissues.
    std::mt19937_64 rng(seed_);
    std::shuffle(pool_.begin(), pool_.end(), rng);
    std::fprintf(stderr, "analyze: ALL %zu x %zu, %zu tissues in the pool\n",
                 (*session->GetEnum("ALL"))->NumLibraries(),
                 (*session->GetEnum("ALL"))->NumTags(), pool_.size());
    return Status::OK();
  }

  Status Setup(const std::string& dir) override {
    dir_ = dir;
    session_ = NewAdminSession();
    GEA_RETURN_IF_ERROR(session_->OpenStorage(dir));
    // Bulk load through group commit: one shared fsync, as the server
    // commits concurrent writers, instead of one per set-up operation.
    session_->SetDeferredCommits(true);
    GEA_RETURN_IF_ERROR(LoadWithAllLibraries(*session_, data_));
    GEA_RETURN_IF_ERROR(session_->DrainCommits());
    gea::serve::ServerOptions options;
    options.num_workers = 4;
    server_ = std::make_unique<gea::serve::QueryServer>(session_.get(), options);
    return server_->Start();
  }

  Endpoint ClientEndpoint() const override {
    return {server_->Port(), "admin", "secret", "admin"};
  }

  void Step(Client& client) override {
    using gea::serve::Response;
    const TissueRef& ref =
        pool_[(client.index() * 2 + client.steps()) % pool_.size()];
    const std::string c = "c" + std::to_string(client.index());
    const std::string prefix = c + "p" + std::to_string(client.steps());
    const auto write = [&](const std::string& op,
                           std::map<std::string, std::string> params) {
      params["replace"] = "1";
      return client.Issue(OpKind::kWrite, op, std::move(params));
    };
    const auto expect_text = [&](const std::optional<Response>& reply,
                                 const std::string& text) {
      if (!reply.has_value()) return false;
      if (reply->text == text) return true;
      client.Reject("expected '" + text + "', got '" + reply->text + "'");
      return false;
    };

    // Step 1 of §4.3.1 starts from the tissue's libraries in SQL.
    std::optional<Response> libraries = client.Issue(
        OpKind::kRead, "sql", {{"query", LibrariesQuery(ref.tissue)}});
    if (!libraries.has_value()) return;
    if (!libraries->table.has_value() ||
        gea::store::EncodeTable(*libraries->table) != ref.libraries) {
      client.Reject("libraries of " + ref.tissue + " differ from the reference");
      return;
    }
    if (!expect_text(write("tissue_dataset", {{"tissue", ref.tissue}}),
                     "created " + ref.tissue)) {
      return;
    }
    const std::string meta = c + ".meta";
    if (!expect_text(write("generate_metadata", {{"dataset", ref.tissue},
                                                 {"percent", "25"},
                                                 {"meta", meta}}),
                     "created " + meta)) {
      return;
    }
    // mine never replaces, so each pass mines under a fresh prefix.
    std::optional<Response> mined = client.Issue(
        OpKind::kWrite, "mine",
        {{"dataset", ref.tissue},
         {"meta", meta},
         {"min_compact_tags", std::to_string(kMinCompactTags)},
         {"batch_size", std::to_string(kBatchSize)},
         {"min_size", std::to_string(kMinSize)},
         {"out_prefix", prefix}});
    if (!mined.has_value()) return;
    std::vector<std::string> expected_names;
    for (size_t i = 1; i <= ref.fascicles; ++i) {
      expected_names.push_back(prefix + "_" + std::to_string(i));
    }
    if (!mined->table.has_value() || FirstColumn(*mined->table) != expected_names) {
      client.Reject("mine on " + ref.tissue + " found other fascicles");
      return;
    }
    const std::string sumy = c + "_allS";
    const std::string pop = c + "_pop";
    if (!expect_text(write("aggregate", {{"enum", "ALL"}, {"out", sumy}}),
                     "created " + sumy) ||
        !expect_text(write("populate", {{"sumy", sumy}, {"base", "ALL"},
                                        {"out", pop}}),
                     "created " + pop)) {
      return;
    }
    if (!PopulatedAsReference(pop)) {
      client.Reject("populate " + pop + " selected other libraries");
      return;
    }
    const std::string g1 = c + "_g1";
    const std::string g2 = c + "_g2";
    const std::string second =
        expected_names[std::min<size_t>(1, expected_names.size() - 1)];
    if (!expect_text(write("diff", {{"sumy1", expected_names[0] + "_SUMY"},
                                    {"sumy2", sumy},
                                    {"gap", g1}}),
                     "created " + g1) ||
        !expect_text(write("diff", {{"sumy1", second + "_SUMY"},
                                    {"sumy2", sumy},
                                    {"gap", g2}}),
                     "created " + g2)) {
      return;
    }
    for (const std::string& gap : {g1, g2}) {
      if (!expect_text(client.Issue(OpKind::kWrite, "top_gap",
                                    {{"gap", gap}, {"x", std::to_string(kTopX)}}),
                       gap + "_" + std::to_string(kTopX))) {
        return;
      }
    }
    const std::string cmp = c + "_cmp";
    const std::string q = c + "_q";
    if (!expect_text(write("compare_gaps",
                           {{"a", g1}, {"b", g2}, {"kind", "0"}, {"out", cmp}}),
                     "created " + cmp) ||
        !expect_text(write("gap_query", {{"compared", cmp},
                                         {"query", std::to_string(kGapQuery)},
                                         {"out", q}}),
                     "created " + q)) {
      return;
    }
    // Every kSumyReadEvery-th pass also reads back the all-tag SUMY (~50k
    // rows), the one large reply. At ~2% of reads it holds read_p99_ms on
    // that read's own cost; with only small reads the 99th percentile fell
    // on scheduling stalls that hit them now and then, and varied several
    // fold between runs.
    if (client.steps() % kSumyReadEvery == 0) {
      std::optional<Response> reply =
          client.Issue(OpKind::kRead, "get_table", {{"name", sumy}});
      if (!reply.has_value()) return;
      if (!reply->table.has_value() ||
          CanonicalBytes(std::move(*reply->table)) != all_sumy_) {
        client.Reject("get_table " + sumy + " differs from the reference");
        return;
      }
    }
    const std::vector<std::string> reads = PassReads(c + "_", expected_names);
    for (size_t i = 0; i < reads.size(); ++i) {
      std::optional<Response> reply =
          client.Issue(OpKind::kRead, "get_table", {{"name", reads[i]}});
      if (!reply.has_value()) return;
      if (!reply->table.has_value() ||
          CanonicalBytes(std::move(*reply->table)) != ref.fetched[i]) {
        client.Reject("get_table " + reads[i] + " differs from the reference");
        return;
      }
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
    const std::string tissue = pool_[0].tissue;
    Status status = LoadWithAllLibraries(*session, data_);
    if (status.ok()) status = session->Aggregate("ALL", "allS");
    if (status.ok()) {
      status = session->CreateTissueDataSet(*gea::sage::ParseTissueType(tissue));
    }
    if (status.ok()) {
      status = session->GenerateMetadata(tissue, kMetaPercent, "meta");
    }
    if (status.ok()) {
      status = session
                   ->CalculateFascicles(tissue, "meta", kMinCompactTags,
                                        kBatchSize, kMinSize, "f")
                   .status();
    }
    if (status.ok()) status = session->CreateGap("f_1_SUMY", "allS", "g");
    if (status.ok()) status = session->CalculateTopGap("g", kTopX).status();
    if (!status.ok()) {
      std::fprintf(stderr, "analyze: probe set-up failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    ProbePlan plan;
    plan.populate_sumy = "allS";
    plan.populate_base = "ALL";
    plan.aggregate_enum = "ALL";
    plan.diff_sumy1 = "f_1_SUMY";
    plan.diff_sumy2 = "allS";
    plan.mine_enum = tissue;
    plan.sql = {LibrariesQuery(tissue)};
    plan.fetched = {"allS", "g_" + std::to_string(kTopX), "f_1", "f_1_SUMY"};
    RunLayerProbes(*session, plan, out);
  }

 private:
  struct TissueRef {
    std::string tissue;
    size_t fascicles = 0;
    std::string libraries;  // EncodeTable bytes of LibrariesQuery
    // Canonical bytes of the pass's reads, in PassReads order.
    std::vector<std::string> fetched;
  };

  static std::string LibrariesQuery(const std::string& tissue) {
    return "SELECT Lib_Name, CAN_NOR FROM Libraries WHERE Type = '" + tissue +
           "' ORDER BY Lib_Name";
  }

  // What an analyst reads back after a pass: both gaps and their top-gap
  // tables, the gap query result, and each mined fascicle's members and
  // SUMY. Names are "<scope>g1" etc. and the fascicle names mine returned.
  static std::vector<std::string> PassReads(
      const std::string& scope, const std::vector<std::string>& fascicles) {
    std::vector<std::string> names = {
        scope + "g1_" + std::to_string(kTopX),
        scope + "g2_" + std::to_string(kTopX), scope + "q", scope + "g1",
        scope + "g2"};
    for (const std::string& fascicle : fascicles) {
      names.push_back(fascicle);
      names.push_back(fascicle + "_SUMY");
    }
    return names;
  }

  // The client's populate output, read from the published epoch.
  bool PopulatedAsReference(const std::string& name) const {
    gea::txn::SnapshotPin pin = session_->PinSnapshot();
    if (!pin.valid()) return false;
    auto it = pin->enums.find(name);
    if (it == pin->enums.end()) return false;
    const auto& libs = it->second->libraries();
    if (libs.size() != populate_ids_.size()) return false;
    for (size_t i = 0; i < libs.size(); ++i) {
      if (libs[i].id != populate_ids_[i]) return false;
    }
    return true;
  }

  uint64_t seed_;
  gea::sage::SageDataSet data_;
  std::vector<int> populate_ids_;
  std::vector<TissueRef> pool_;
  std::string all_sumy_;  // canonical bytes of the all-tag SUMY
  std::string dir_;
  std::unique_ptr<AnalysisSession> session_;
  std::unique_ptr<gea::serve::QueryServer> server_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalyze(uint64_t seed) {
  return std::make_unique<Analyze>(seed);
}

}  // namespace perfbench
