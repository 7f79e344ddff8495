#include "workbench/session.h"

#include <algorithm>
#include <cstdio>

#include "obs/export.h"
#include "obs/log.h"
#include "obs/request_trace.h"
#include "obs/resource.h"
#include "obs/server.h"
#include "obs/timeseries.h"
#include "rel/sql.h"
#include "sage/io.h"
#include "sage/stats.h"

namespace gea::workbench {

namespace {

/// The catalog of a session with nothing loaded. Stat views ride in every
/// catalog so SQL can read telemetry:
///   SELECT name, value FROM gea_stat_counters ORDER BY value DESC
txn::CatalogSnapshot EmptyCatalog() {
  rel::Catalog relations;
  obs::RegisterStatViews(relations);
  txn::CatalogSnapshot catalog;
  catalog.relations =
      std::make_shared<const rel::Catalog>(std::move(relations));
  return catalog;
}

/// Removes `name` from whichever of `catalog`'s table maps holds it.
void DropObject(txn::CatalogSnapshot& catalog, const std::string& name) {
  catalog.enums.erase(name);
  catalog.sumys.erase(name);
  catalog.gaps.erase(name);
}

/// Stores an operation's output under `name` in `registry`, one of
/// `catalog`'s table maps, dropping the table that held the name.
template <typename T>
void Store(txn::CatalogSnapshot& catalog,
           std::map<std::string, std::shared_ptr<const T>>& registry,
           const std::string& name, T table) {
  DropObject(catalog, name);
  registry.emplace(name, std::make_shared<const T>(std::move(table)));
}

/// The table `name` of `registry`, borrowed from the catalog holding it.
template <typename T>
Result<const T*> Lookup(
    const std::map<std::string, std::shared_ptr<const T>>& registry,
    const std::string& kind, const std::string& name) {
  auto it = registry.find(name);
  if (it == registry.end()) {
    return Status::NotFound("no such " + kind + " table: " + name);
  }
  return it->second.get();
}

/// WAL parameter renderings; replay parses these back with strtod /
/// string compare, so doubles use a round-trip-exact format.
std::string WalDouble(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

const char* WalBool(bool v) { return v ? "1" : "0"; }

}  // namespace

AnalysisSession::AnalysisSession(const std::string& admin_name,
                                 const std::string& admin_password)
    : users_(admin_name, admin_password) {
  configuration_["db_path"] = "gea.db";
  configuration_["library_directory"] = "SageLibrary";
  // Opt-in monitoring: a no-op unless GEA_MONITOR_PORT names a port.
  obs::StartMonitorFromEnv();
  // Opt-in telemetry harvesting: a no-op unless GEA_STATS_INTERVAL_MS
  // names a cadence (GEA_WATCHDOG_MS additionally arms the watchdog).
  obs::StartHarvesterFromEnv();
  // Epoch 1: the empty catalog, so snapshot readers are valid from birth.
  epochs_->Publish(EmptyCatalog());
}

// ---- Authentication ----

Status AnalysisSession::Login(const std::string& name,
                              const std::string& password,
                              AccessLevel level) {
  GEA_ASSIGN_OR_RETURN(AccessLevel granted,
                       users_.Authenticate(name, password, level));
  current_user_ = name;
  current_level_ = granted;
  telemetry_.SetUser(name);
  return Status::OK();
}

void AnalysisSession::Logout() { current_user_.reset(); }

Result<AccessLevel> AnalysisSession::AuthenticateUser(
    const std::string& name, const std::string& password,
    AccessLevel level) const {
  return Logged("login", "user=" + name, [&]() -> Result<AccessLevel> {
    return users_.Authenticate(name, password, level);
  });
}

Result<std::string> AnalysisSession::CurrentUser() const {
  if (!current_user_.has_value()) {
    return Status::FailedPrecondition("no user is logged in");
  }
  return *current_user_;
}

Status AnalysisSession::RequireLogin() const {
  if (!current_user_.has_value()) {
    return Status::PermissionDenied("please log in first");
  }
  return Status::OK();
}

Status AnalysisSession::RequireAdmin() const {
  GEA_RETURN_IF_ERROR(RequireLogin());
  if (current_level_ != AccessLevel::kAdministrator) {
    return Status::PermissionDenied(
        "this operation requires administrator access");
  }
  return Status::OK();
}

Status AnalysisSession::RequireWritable() const {
  if (read_only_ && !applying_replication_) {
    return Status::FailedPrecondition(
        "session is read-only (replica); mutations must go to the primary");
  }
  return Status::OK();
}

// ---- Administration ----

Status AnalysisSession::AddUser(const std::string& name,
                                const std::string& password,
                                AccessLevel level) {
  GEA_RETURN_IF_ERROR(RequireAdmin());
  return users_.AddUser(name, password, level);
}

Status AnalysisSession::DeleteUser(const std::string& name) {
  GEA_RETURN_IF_ERROR(RequireAdmin());
  return users_.DeleteUser(name);
}

Status AnalysisSession::ModifyUser(const std::string& name,
                                   const std::string& new_password,
                                   AccessLevel new_level) {
  GEA_RETURN_IF_ERROR(RequireAdmin());
  return users_.ModifyUser(name, new_password, new_level);
}

// ---- Configuration ----

Status AnalysisSession::SetConfiguration(const std::string& key,
                                         const std::string& value) {
  GEA_RETURN_IF_ERROR(RequireAdmin());
  configuration_[key] = value;
  return Status::OK();
}

Result<std::string> AnalysisSession::GetConfiguration(
    const std::string& key) const {
  auto it = configuration_.find(key);
  if (it == configuration_.end()) {
    return Status::NotFound("no such configuration key: " + key);
  }
  return it->second;
}

// ---- Data management ----

Status AnalysisSession::InstallDataSet(txn::CatalogSnapshot& catalog,
                                       sage::SageDataSet dataset) {
  catalog.dataset =
      std::make_shared<const sage::SageDataSet>(std::move(dataset));
  rel::Catalog relations = catalog.relations->Clone();
  GEA_RETURN_IF_ERROR(relations.CreateTable(
      sage::BuildLibraryInfoTable(*catalog.dataset), /*replace=*/true));
  GEA_RETURN_IF_ERROR(relations.CreateTable(
      sage::BuildTissueTypeTable(*catalog.dataset), /*replace=*/true));
  GEA_RETURN_IF_ERROR(relations.CreateTable(
      sage::BuildSageInfoTable(*catalog.dataset), /*replace=*/true));
  // The rotated TAGS view (Section 4.6.1) is registered computed, so it
  // is rebuilt per query and — like the stat views — skipped by
  // snapshots, SaveDatabase and the WAL. Its rows are tag-ascending,
  // which makes it the relation the distribution router can hash-
  // partition by tag and merge back losslessly (src/dist). The builder
  // shares the immutable data set: the catalog outlives moves of this
  // session, so it must not dereference `this`.
  GEA_RETURN_IF_ERROR(relations.RegisterComputed(
      "TAGS",
      [data = catalog.dataset]() { return sage::BuildTagsTable(*data); },
      /*replace=*/true));
  catalog.relations =
      std::make_shared<const rel::Catalog>(std::move(relations));
  return Status::OK();
}

Status AnalysisSession::LoadDataSet(sage::SageDataSet dataset) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  // The WAL and the snapshots hold the data set as library text, which
  // reads back finite positive counts only.
  GEA_RETURN_IF_ERROR(sage::CheckCounts(dataset));
  txn::CatalogSnapshot next = WorkingCopy();
  GEA_RETURN_IF_ERROR(InstallDataSet(next, std::move(dataset)));
  RecordLineage("SAGE", lineage::NodeKind::kDataSet, "load",
                {{"libraries", std::to_string(next.dataset->NumLibraries())}},
                {});
  return WalDataSet(std::move(next));
}

Status AnalysisSession::InitializeDatabase() {
  GEA_RETURN_IF_ERROR(RequireAdmin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  lineage_ = lineage::LineageGraph();
  return WalOp(EmptyCatalog(), "initialize", {});
}

Result<const sage::SageDataSet*> AnalysisSession::DataSet() const {
  const sage::SageDataSet* dataset = PinSnapshot()->dataset.get();
  if (dataset == nullptr) {
    return Status::FailedPrecondition("no SAGE data set is loaded");
  }
  return dataset;
}

// ---- Shared namespace plumbing ----

Status AnalysisSession::CheckNameFree(const std::string& name,
                                      bool replace) const {
  const txn::SnapshotPin current = PinSnapshot();
  const bool taken = current->enums.count(name) > 0 ||
                     current->sumys.count(name) > 0 ||
                     current->gaps.count(name) > 0;
  if (taken && !replace) {
    return Status::AlreadyExists("a table already exists: " + name);
  }
  return Status::OK();
}

void AnalysisSession::RecordLineage(
    const std::string& name, lineage::NodeKind kind,
    const std::string& operation,
    std::map<std::string, std::string> parameters,
    const std::vector<std::string>& parent_names) {
  std::vector<lineage::LineageGraph::NodeId> parents;
  for (const std::string& parent : parent_names) {
    Result<lineage::LineageGraph::NodeId> id = lineage_.FindByName(parent);
    if (id.ok()) parents.push_back(*id);
  }
  // After a replace, the old node may still exist; cascade-drop it first
  // so the lineage mirrors the catalog.
  Result<lineage::LineageGraph::NodeId> existing = lineage_.FindByName(name);
  if (existing.ok()) {
    (void)lineage_.DeleteCascade(*existing);
  }
  (void)lineage_.AddNode(name, kind, operation, std::move(parameters),
                         parents);
}

// ---- Data sets ----

Status AnalysisSession::CreateTissueDataSet(sage::TissueType tissue,
                                            bool replace) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  const std::string name = sage::TissueTypeName(tissue);
  return Logged("tissue_dataset", name, [&]() -> Status {
    GEA_ASSIGN_OR_RETURN(const sage::SageDataSet* data, DataSet());
    GEA_RETURN_IF_ERROR(CheckNameFree(name, replace));
    sage::SageDataSet slice = data->FilterByTissue(tissue);
    if (slice.NumLibraries() == 0) {
      return Status::NotFound(std::string("no libraries of tissue type ") +
                              sage::TissueTypeName(tissue));
    }
    txn::CatalogSnapshot next = WorkingCopy();
    Store(next, next.enums, name, core::EnumTable::FromDataSet(name, slice));
    RecordLineage(name, lineage::NodeKind::kDataSet, "tissue_dataset",
                  {{"tissue", name}}, {"SAGE"});
    return WalOp(std::move(next), "tissue_dataset",
                 {{"tissue", name}, {"replace", WalBool(replace)}});
  });
}

Status AnalysisSession::CreateCustomDataSet(const std::string& name,
                                            const std::vector<int>& ids,
                                            bool replace) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  return Logged("custom_dataset", name, [&]() -> Status {
    GEA_ASSIGN_OR_RETURN(const sage::SageDataSet* data, DataSet());
    GEA_RETURN_IF_ERROR(CheckNameFree(name, replace));
    GEA_ASSIGN_OR_RETURN(sage::SageDataSet slice, data->SelectByIds(ids));
    txn::CatalogSnapshot next = WorkingCopy();
    Store(next, next.enums, name, core::EnumTable::FromDataSet(name, slice));
    RecordLineage(name, lineage::NodeKind::kDataSet, "custom_dataset",
                  {{"libraries", std::to_string(ids.size())}}, {"SAGE"});
    std::string ids_text;
    for (int id : ids) {
      if (!ids_text.empty()) ids_text += ',';
      ids_text += std::to_string(id);
    }
    return WalOp(std::move(next), "custom_dataset",
                 {{"name", name},
                  {"ids", ids_text},
                  {"replace", WalBool(replace)}});
  });
}

Result<const core::EnumTable*> AnalysisSession::GetEnum(
    const std::string& name) const {
  return Lookup(PinSnapshot()->enums, "ENUM", name);
}

Result<const core::SumyTable*> AnalysisSession::GetSumy(
    const std::string& name) const {
  return Lookup(PinSnapshot()->sumys, "SUMY", name);
}

Result<const core::GapTable*> AnalysisSession::GetGap(
    const std::string& name) const {
  return Lookup(PinSnapshot()->gaps, "GAP", name);
}

// ---- Metadata + fascicles ----

Status AnalysisSession::GenerateMetadata(const std::string& dataset_name,
                                         double percent,
                                         const std::string& meta_name,
                                         bool replace) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  return Logged("generate_metadata", dataset_name + " -> " + meta_name,
                [&]() -> Status {
    if (!(percent >= 0.0 && percent <= 100.0)) {  // NaN fails too
      return Status::InvalidArgument("percent must be in [0, 100]");
    }
    if (PinSnapshot()->metadata.count(meta_name) > 0 && !replace) {
      return Status::AlreadyExists("metadata already exists: " + meta_name);
    }
    GEA_ASSIGN_OR_RETURN(const core::EnumTable* input, GetEnum(dataset_name));
    txn::CatalogSnapshot next = WorkingCopy();
    next.metadata[meta_name] = std::make_shared<const std::vector<double>>(
        core::MakeToleranceMetadata(*input, percent));
    return WalOp(std::move(next), "generate_metadata",
                 {{"dataset", dataset_name},
                  {"percent", WalDouble(percent)},
                  {"meta", meta_name},
                  {"replace", WalBool(replace)}});
  });
}

Result<std::vector<std::string>> AnalysisSession::CalculateFascicles(
    const std::string& dataset_name, const std::string& meta_name,
    size_t min_compact_tags, size_t batch_size, size_t min_size,
    const std::string& out_prefix,
    cluster::FascicleParams::Algorithm algorithm) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  return Logged("fascicles", dataset_name + " -> " + out_prefix,
                [&]() -> Result<std::vector<std::string>> {
  GEA_ASSIGN_OR_RETURN(const core::EnumTable* input, GetEnum(dataset_name));
  const txn::SnapshotPin current = PinSnapshot();
  auto meta_it = current->metadata.find(meta_name);
  if (meta_it == current->metadata.end()) {
    return Status::NotFound("no such metadata: " + meta_name);
  }
  cluster::FascicleParams params;
  params.min_compact_tags = min_compact_tags;
  params.tolerances = *meta_it->second;
  params.batch_size = batch_size;
  params.min_size = min_size;
  params.algorithm = algorithm;

  GEA_ASSIGN_OR_RETURN(std::vector<core::MinedFascicle> mined,
                       core::Mine(*input, params, out_prefix));
  // Every output name is checked before the first table is stored.
  std::vector<std::string> names;
  for (size_t i = 1; i <= mined.size(); ++i) {
    const std::string name = out_prefix + "_" + std::to_string(i);
    GEA_RETURN_IF_ERROR(CheckNameFree(name, /*replace=*/false));
    GEA_RETURN_IF_ERROR(CheckNameFree(name + "_SUMY", /*replace=*/false));
    names.push_back(name);
  }
  txn::CatalogSnapshot next = WorkingCopy();
  for (size_t i = 0; i < mined.size(); ++i) {
    core::MinedFascicle& m = mined[i];
    const std::string& name = names[i];
    m.members.set_name(name);
    m.sumy.set_name(name + "_SUMY");
    std::map<std::string, std::string> op_params = {
        {"compact_attributes", std::to_string(min_compact_tags)},
        {"metadata", meta_name},
        {"batch_size", std::to_string(batch_size)},
        {"min_size", std::to_string(min_size)},
        {"members", std::to_string(m.fascicle.members.size())},
    };
    Store(next, next.enums, name, std::move(m.members));
    Store(next, next.sumys, name + "_SUMY", std::move(m.sumy));
    RecordLineage(name, lineage::NodeKind::kFascicle, "fascicles",
                  op_params, {dataset_name});
    RecordLineage(name + "_SUMY", lineage::NodeKind::kSumy, "aggregate",
                  {}, {name});
  }
  GEA_RETURN_IF_ERROR(WalOp(
      std::move(next), "fascicles",
      {{"dataset", dataset_name},
       {"meta", meta_name},
       {"min_compact_tags", std::to_string(min_compact_tags)},
       {"batch_size", std::to_string(batch_size)},
       {"min_size", std::to_string(min_size)},
       {"out_prefix", out_prefix},
       {"algorithm", std::to_string(static_cast<int>(algorithm))}}));
  return names;
  });
}

Result<std::vector<core::PurityProperty>> AnalysisSession::CheckPurity(
    const std::string& enum_name) const {
  GEA_ASSIGN_OR_RETURN(const core::EnumTable* table, GetEnum(enum_name));
  return core::PureProperties(*table);
}

Result<AnalysisSession::ControlGroups> AnalysisSession::FormControlGroups(
    const std::string& dataset_name, const std::string& fascicle_enum) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  return Logged("control_groups", dataset_name + " / " + fascicle_enum,
                [&]() -> Result<ControlGroups> {
  GEA_ASSIGN_OR_RETURN(const core::EnumTable* dataset, GetEnum(dataset_name));
  GEA_ASSIGN_OR_RETURN(const core::EnumTable* fascicle,
                       GetEnum(fascicle_enum));

  const bool pure_cancer = core::IsPure(*fascicle,
                                        core::PurityProperty::kCancer);
  const bool pure_normal = core::IsPure(*fascicle,
                                        core::PurityProperty::kNormal);
  if (!pure_cancer && !pure_normal) {
    return Status::FailedPrecondition(
        "the fascicle " + fascicle_enum +
        " is NOT pure; only pure fascicles can be further analyzed");
  }
  const sage::NeoplasticState fas_state = pure_cancer
                                              ? sage::NeoplasticState::kCancer
                                              : sage::NeoplasticState::kNormal;
  const sage::NeoplasticState opp_state = pure_cancer
                                              ? sage::NeoplasticState::kNormal
                                              : sage::NeoplasticState::kCancer;

  ControlGroups names;
  names.fascicle_sumy = fascicle_enum + "_SUMY";
  const std::string state_tag = pure_cancer ? "Can" : "Nor";
  const std::string opposite_tag = pure_cancer ? "Normal" : "Cancer";
  names.not_in_fas_enum = fascicle_enum + state_tag + "NotInFas_ENUM";
  names.not_in_fas_sumy = fascicle_enum + state_tag + "NotInFasTbl";
  names.opposite_enum = fascicle_enum + opposite_tag + "_ENUM";
  names.opposite_sumy = fascicle_enum + opposite_tag + "Table";
  for (const std::string& name :
       {names.not_in_fas_enum, names.not_in_fas_sumy, names.opposite_enum,
        names.opposite_sumy}) {
    GEA_RETURN_IF_ERROR(CheckNameFree(name, /*replace=*/false));
  }

  // Restrict the data set to the fascicle's compact tags, then carve out
  // the two control groups (Section 4.3.1 steps 4-5).
  GEA_ASSIGN_OR_RETURN(
      core::EnumTable compact_view,
      dataset->RestrictTags(dataset_name + "_compact_view",
                            fascicle->tags()));
  core::EnumTable not_in_fas =
      compact_view
          .FilterLibraries(names.not_in_fas_enum,
                           [&](const sage::LibraryMeta& lib) {
                             return lib.state == fas_state;
                           })
          .MinusLibraries(names.not_in_fas_enum, *fascicle);
  core::EnumTable opposite = compact_view.FilterLibraries(
      names.opposite_enum,
      [&](const sage::LibraryMeta& lib) { return lib.state == opp_state; });

  GEA_ASSIGN_OR_RETURN(core::SumyTable not_in_fas_sumy,
                       core::Aggregate(not_in_fas, names.not_in_fas_sumy));
  GEA_ASSIGN_OR_RETURN(core::SumyTable opposite_sumy,
                       core::Aggregate(opposite, names.opposite_sumy));

  txn::CatalogSnapshot next = WorkingCopy();
  Store(next, next.enums, names.not_in_fas_enum, std::move(not_in_fas));
  Store(next, next.enums, names.opposite_enum, std::move(opposite));
  Store(next, next.sumys, names.not_in_fas_sumy, std::move(not_in_fas_sumy));
  Store(next, next.sumys, names.opposite_sumy, std::move(opposite_sumy));

  RecordLineage(names.not_in_fas_enum, lineage::NodeKind::kEnum,
                "control_group", {{"state", state_tag}},
                {dataset_name, fascicle_enum});
  RecordLineage(names.not_in_fas_sumy, lineage::NodeKind::kSumy, "aggregate",
                {}, {names.not_in_fas_enum});
  RecordLineage(names.opposite_enum, lineage::NodeKind::kEnum,
                "control_group", {{"state", opposite_tag}},
                {dataset_name, fascicle_enum});
  RecordLineage(names.opposite_sumy, lineage::NodeKind::kSumy, "aggregate",
                {}, {names.opposite_enum});
  GEA_RETURN_IF_ERROR(WalOp(std::move(next), "control_groups",
                            {{"dataset", dataset_name},
                             {"fascicle", fascicle_enum}}));
  return names;
  });
}

// ---- Direct operator invocations ----

Status AnalysisSession::Aggregate(const std::string& enum_name,
                                  const std::string& out_name, bool replace) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  return Logged("aggregate", enum_name + " -> " + out_name, [&]() -> Status {
    GEA_ASSIGN_OR_RETURN(const core::EnumTable* input, GetEnum(enum_name));
    GEA_RETURN_IF_ERROR(CheckNameFree(out_name, replace));
    GEA_ASSIGN_OR_RETURN(core::SumyTable sumy,
                         core::Aggregate(*input, out_name));
    txn::CatalogSnapshot next = WorkingCopy();
    Store(next, next.sumys, out_name, std::move(sumy));
    RecordLineage(out_name, lineage::NodeKind::kSumy, "aggregate", {},
                  {enum_name});
    return WalOp(std::move(next), "aggregate",
                 {{"enum", enum_name},
                  {"out", out_name},
                  {"replace", WalBool(replace)}});
  });
}

Status AnalysisSession::Populate(const std::string& sumy_name,
                                 const std::string& base_enum,
                                 const std::string& out_name, bool replace) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  return Logged("populate", sumy_name + " @ " + base_enum + " -> " + out_name,
                [&]() -> Status {
    GEA_ASSIGN_OR_RETURN(const core::SumyTable* sumy, GetSumy(sumy_name));
    GEA_ASSIGN_OR_RETURN(const core::EnumTable* base, GetEnum(base_enum));
    GEA_RETURN_IF_ERROR(CheckNameFree(out_name, replace));
    core::PopulateEngine engine(*base);
    GEA_ASSIGN_OR_RETURN(core::EnumTable populated,
                         engine.Populate(*sumy, out_name));
    txn::CatalogSnapshot next = WorkingCopy();
    Store(next, next.enums, out_name, std::move(populated));
    RecordLineage(out_name, lineage::NodeKind::kEnum, "populate",
                  {{"sumy", sumy_name}, {"base", base_enum}},
                  {sumy_name, base_enum});
    return WalOp(std::move(next), "populate",
                 {{"sumy", sumy_name},
                  {"base", base_enum},
                  {"out", out_name},
                  {"replace", WalBool(replace)}});
  });
}

// ---- GAP operations ----

Status AnalysisSession::CreateGap(const std::string& sumy1_name,
                                  const std::string& sumy2_name,
                                  const std::string& gap_name, bool replace) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  return Logged("create_gap",
                sumy1_name + " - " + sumy2_name + " -> " + gap_name,
                [&]() -> Status {
    GEA_ASSIGN_OR_RETURN(const core::SumyTable* sumy1, GetSumy(sumy1_name));
    GEA_ASSIGN_OR_RETURN(const core::SumyTable* sumy2, GetSumy(sumy2_name));
    GEA_RETURN_IF_ERROR(CheckNameFree(gap_name, replace));
    GEA_ASSIGN_OR_RETURN(core::GapTable gap,
                         core::Diff(*sumy1, *sumy2, gap_name));
    txn::CatalogSnapshot next = WorkingCopy();
    Store(next, next.gaps, gap_name, std::move(gap));
    RecordLineage(gap_name, lineage::NodeKind::kGap, "diff",
                  {{"sumy1", sumy1_name}, {"sumy2", sumy2_name}},
                  {sumy1_name, sumy2_name});
    return WalOp(std::move(next), "create_gap",
                 {{"sumy1", sumy1_name},
                  {"sumy2", sumy2_name},
                  {"gap", gap_name},
                  {"replace", WalBool(replace)}});
  });
}

Result<std::string> AnalysisSession::CalculateTopGap(
    const std::string& gap_name, size_t x, core::TopGapMode mode) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  return Logged("top_gap", gap_name + " top " + std::to_string(x),
                [&]() -> Result<std::string> {
    GEA_ASSIGN_OR_RETURN(const core::GapTable* gap, GetGap(gap_name));
    const std::string out_name = gap_name + "_" + std::to_string(x);
    GEA_ASSIGN_OR_RETURN(core::GapTable top,
                         core::TopGap(*gap, x, mode, out_name));
    txn::CatalogSnapshot next = WorkingCopy();
    Store(next, next.gaps, out_name, std::move(top));
    RecordLineage(out_name, lineage::NodeKind::kTopGap, "top_gap",
                  {{"x", std::to_string(x)}, {"mode", TopGapModeName(mode)}},
                  {gap_name});
    GEA_RETURN_IF_ERROR(
        WalOp(std::move(next), "top_gap",
              {{"gap", gap_name},
               {"x", std::to_string(x)},
               {"mode", std::to_string(static_cast<int>(mode))}}));
    return out_name;
  });
}

Status AnalysisSession::CompareGapTables(const std::string& gap_a,
                                         const std::string& gap_b,
                                         core::GapCompareKind kind,
                                         const std::string& out_name,
                                         bool replace) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  return Logged("compare_gaps",
                gap_a + " " + core::GapCompareKindName(kind) + " " + gap_b,
                [&]() -> Status {
    GEA_ASSIGN_OR_RETURN(const core::GapTable* a, GetGap(gap_a));
    GEA_ASSIGN_OR_RETURN(const core::GapTable* b, GetGap(gap_b));
    GEA_RETURN_IF_ERROR(CheckNameFree(out_name, replace));
    GEA_ASSIGN_OR_RETURN(core::GapTable compared,
                         core::CompareGaps(*a, *b, kind, out_name));
    txn::CatalogSnapshot next = WorkingCopy();
    Store(next, next.gaps, out_name, std::move(compared));
    RecordLineage(out_name, lineage::NodeKind::kCompareGap,
                  core::GapCompareKindName(kind), {}, {gap_a, gap_b});
    return WalOp(std::move(next), "compare_gaps",
                 {{"a", gap_a},
                  {"b", gap_b},
                  {"kind", std::to_string(static_cast<int>(kind))},
                  {"out", out_name},
                  {"replace", WalBool(replace)}});
  });
}

Status AnalysisSession::RunGapQuery(const std::string& compared_name,
                                    core::GapCompareQuery query,
                                    const std::string& out_name,
                                    bool replace) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  return Logged("gap_query", compared_name + " -> " + out_name,
                [&]() -> Status {
    GEA_ASSIGN_OR_RETURN(const core::GapTable* compared,
                         GetGap(compared_name));
    GEA_RETURN_IF_ERROR(CheckNameFree(out_name, replace));
    GEA_ASSIGN_OR_RETURN(core::GapTable result,
                         core::ApplyGapQuery(*compared, query, out_name));
    txn::CatalogSnapshot next = WorkingCopy();
    Store(next, next.gaps, out_name, std::move(result));
    RecordLineage(out_name, lineage::NodeKind::kGap, "gap_query",
                  {{"query", core::GapCompareQueryDescription(query)}},
                  {compared_name});
    return WalOp(std::move(next), "gap_query",
                 {{"compared", compared_name},
                  {"query", std::to_string(static_cast<int>(query))},
                  {"out", out_name},
                  {"replace", WalBool(replace)}});
  });
}

// ---- Search operations ----

Result<sage::LibraryMeta> AnalysisSession::SearchLibrary(int id) const {
  GEA_ASSIGN_OR_RETURN(const sage::SageDataSet* data, DataSet());
  GEA_ASSIGN_OR_RETURN(const sage::SageLibrary* lib, data->FindById(id));
  return sage::LibraryMeta{lib->id(), lib->name(), lib->tissue(),
                           lib->state(), lib->source()};
}

Result<sage::LibraryMeta> AnalysisSession::SearchLibrary(
    const std::string& name) const {
  GEA_ASSIGN_OR_RETURN(const sage::SageDataSet* data, DataSet());
  GEA_ASSIGN_OR_RETURN(const sage::SageLibrary* lib, data->FindByName(name));
  return sage::LibraryMeta{lib->id(), lib->name(), lib->tissue(),
                           lib->state(), lib->source()};
}

Result<std::vector<std::string>> AnalysisSession::LibrariesOfTissue(
    sage::TissueType tissue) const {
  GEA_ASSIGN_OR_RETURN(const sage::SageDataSet* data, DataSet());
  std::vector<std::string> names;
  for (const sage::SageLibrary& lib : data->libraries()) {
    if (lib.tissue() == tissue) names.push_back(lib.name());
  }
  return names;
}

Result<std::vector<AnalysisSession::TagFrequencyRow>>
AnalysisSession::TagFrequency(
    sage::TagId first_tag, sage::TagId last_tag,
    const std::vector<std::string>& library_names) const {
  GEA_ASSIGN_OR_RETURN(const sage::SageDataSet* data, DataSet());
  if (first_tag > last_tag) std::swap(first_tag, last_tag);
  std::vector<const sage::SageLibrary*> libs;
  for (const std::string& name : library_names) {
    GEA_ASSIGN_OR_RETURN(const sage::SageLibrary* lib,
                         data->FindByName(name));
    libs.push_back(lib);
  }
  // Tags in range appearing in at least one of the selected libraries.
  std::vector<sage::TagId> tags;
  for (const sage::SageLibrary* lib : libs) {
    for (const sage::SageLibrary::Entry& e : lib->entries()) {
      if (e.tag >= first_tag && e.tag <= last_tag) tags.push_back(e.tag);
    }
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());

  std::vector<TagFrequencyRow> rows;
  rows.reserve(tags.size());
  for (sage::TagId tag : tags) {
    TagFrequencyRow row;
    row.tag = tag;
    for (const sage::SageLibrary* lib : libs) {
      row.values.push_back(lib->Count(tag));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<std::vector<std::string>> AnalysisSession::SearchLibrariesByTagRange(
    sage::TagId tag, double lo, double hi) const {
  GEA_ASSIGN_OR_RETURN(const sage::SageDataSet* data, DataSet());
  if (lo > hi) std::swap(lo, hi);
  std::vector<std::string> names;
  for (const sage::SageLibrary& lib : data->libraries()) {
    double v = lib.Count(tag);
    if (v >= lo && v <= hi) names.push_back(lib.name());
  }
  return names;
}

Result<rel::Table> AnalysisSession::Query(const std::string& sql) const {
  GEA_RETURN_IF_ERROR(RequireLogin());
  return Logged("sql_query", sql, [&]() -> Result<rel::Table> {
    // Execute against the pinned epoch's frozen catalog: concurrent
    // writers publish new epochs without ever touching this one, so the
    // query needs no session lock at all.
    txn::SnapshotPin pin = PinSnapshot();
    return rel::ExecuteQuery(*pin->relations, sql);
  });
}

Result<std::vector<core::RangeSearchHit>> AnalysisSession::RangeSearchSumys(
    const std::vector<std::string>& sumy_names, sage::TagId first_tag,
    sage::TagId last_tag, interval::AllenRelation relation,
    const interval::Interval& query) const {
  std::string detail = std::to_string(sumy_names.size()) + " tables, tags [" +
                       std::to_string(first_tag) + ", " +
                       std::to_string(last_tag) + "]";
  return Logged("range_search", std::move(detail),
                [&]() -> Result<std::vector<core::RangeSearchHit>> {
                  std::vector<const core::SumyTable*> tables;
                  tables.reserve(sumy_names.size());
                  for (const std::string& name : sumy_names) {
                    GEA_ASSIGN_OR_RETURN(const core::SumyTable* table,
                                         GetSumy(name));
                    tables.push_back(table);
                  }
                  return core::RangeSearch(tables, first_tag, last_tag,
                                           relation, query);
                });
}

// ---- Observability ----

void AnalysisSession::ExportTelemetry(
    const QueryLogEntry& entry, const obs::OperationProfile& profile) const {
  const std::optional<uint64_t> slow_ms = obs::SlowQueryThresholdMs();
  const bool slow =
      slow_ms.has_value() && entry.elapsed_nanos >= *slow_ms * 1000000ull;

  telemetry_.RecordOperation(entry.operation, entry.elapsed_nanos, entry.ok,
                             slow);
  obs::PublishProfile(profile);

  if (!slow) return;
  obs::LogRecord record(obs::LogLevel::kWarn, "slow_query");
  record.Str("operation", entry.operation)
      .Str("detail", entry.detail)
      .F64("elapsed_ms", static_cast<double>(entry.elapsed_nanos) / 1e6)
      .U64("threshold_ms", *slow_ms)
      .Bool("ok", entry.ok);
  const obs::RequestContext& context = obs::CurrentContext();
  if (context.stages != nullptr) {
    // Served request: attribute the slow time — admission backlog vs.
    // commit stalls — using the request's stage accumulator.
    record.U64("queue_wait_ns",
               obs::CollectedStageNanos(obs::RequestStage::kQueue));
    record.U64("wal_fsync_ns",
               obs::CollectedStageNanos(obs::RequestStage::kWalFsync));
    record.U64("lock_wait_ns",
               obs::CollectedStageNanos(obs::RequestStage::kLockWait));
  }
  if (const obs::MemoryAccount* account = context.account;
      account != nullptr) {
    record.U64("alloc_bytes", account->AllocatedBytes());
    record.U64("peak_bytes", account->PeakBytes());
  }
  if (!entry.ok) record.Str("error", entry.error);
  if (current_user_.has_value()) record.Str("user", *current_user_);
  if (!profile.counters.empty()) {
    std::string counters = "{";
    for (size_t i = 0; i < profile.counters.size(); ++i) {
      if (i > 0) counters += ",";
      counters += "\"" + obs::JsonEscape(profile.counters[i].name) +
                  "\":" + std::to_string(profile.counters[i].delta);
    }
    counters += "}";
    record.RawJson("counters", counters);
  }
  record.Emit();
}

std::vector<AnalysisSession::QueryLogEntry> AnalysisSession::QueryLog() const {
  std::lock_guard<std::mutex> lock(*log_mu_);
  return std::vector<QueryLogEntry>(query_log_.begin(), query_log_.end());
}

void AnalysisSession::ClearQueryLog() {
  std::lock_guard<std::mutex> lock(*log_mu_);
  query_log_.clear();
}

void AnalysisSession::SetQueryLogCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(*log_mu_);
  query_log_capacity_ = capacity == 0 ? 1 : capacity;
  while (query_log_.size() > query_log_capacity_) query_log_.pop_front();
}

size_t AnalysisSession::QueryLogCapacity() const {
  std::lock_guard<std::mutex> lock(*log_mu_);
  return query_log_capacity_;
}

Result<const obs::OperationProfile*> AnalysisSession::LastProfile() const {
  // Borrowed pointer: only meaningful to single-threaded callers — the
  // pointee is replaced by the next logged operation. Concurrent readers
  // should use ExplainLast(), which renders under the lock.
  std::lock_guard<std::mutex> lock(*log_mu_);
  if (!last_profile_.has_value()) {
    return Status::NotFound("no operation has been logged in this session");
  }
  return &*last_profile_;
}

Result<std::string> AnalysisSession::ExplainLast() const {
  std::lock_guard<std::mutex> lock(*log_mu_);
  if (!last_profile_.has_value()) {
    return Status::NotFound("no operation has been logged in this session");
  }
  return last_profile_->Render();
}

// ---- Lineage ----

Status AnalysisSession::CommentOn(const std::string& table_name,
                                  const std::string& comment) {
  GEA_RETURN_IF_ERROR(RequireWritable());
  GEA_ASSIGN_OR_RETURN(lineage::LineageGraph::NodeId id,
                       lineage_.FindByName(table_name));
  GEA_RETURN_IF_ERROR(lineage_.SetComment(id, comment));
  return WalOp(WorkingCopy(), "comment",
               {{"table", table_name}, {"comment", comment}});
}

Status AnalysisSession::DeleteTable(const std::string& table_name,
                                    bool cascade) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  GEA_ASSIGN_OR_RETURN(lineage::LineageGraph::NodeId id,
                       lineage_.FindByName(table_name));
  txn::CatalogSnapshot next = WorkingCopy();
  auto drop = [&next](const std::string& name) { DropObject(next, name); };
  GEA_RETURN_IF_ERROR(cascade ? lineage_.DeleteCascade(id, drop)
                              : lineage_.DeleteContents(id, drop));
  return WalOp(std::move(next), "delete_table",
               {{"table", table_name}, {"cascade", WalBool(cascade)}});
}

namespace {

/// `names` plus `catalog`'s ENUM, SUMY and GAP table names, sorted.
std::vector<std::string> SortedTableNames(const txn::CatalogSnapshot& catalog,
                                          std::vector<std::string> names) {
  for (const auto& [name, table] : catalog.enums) names.push_back(name);
  for (const auto& [name, table] : catalog.sumys) names.push_back(name);
  for (const auto& [name, table] : catalog.gaps) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

std::vector<std::string> AnalysisSession::TableNames() const {
  return SortedTableNames(*PinSnapshot(), {});
}

// ---- MVCC snapshot reads ----

Result<rel::Table> AnalysisSession::MaterializeAnyTable(
    const std::string& name) const {
  txn::SnapshotPin pin = PinSnapshot();
  if (Result<rel::Table> stored = pin->relations->MaterializeTable(name);
      stored.ok()) {
    return stored;
  }
  if (auto it = pin->enums.find(name); it != pin->enums.end()) {
    return it->second->ToRelTable();
  }
  if (auto it = pin->sumys.find(name); it != pin->sumys.end()) {
    return it->second->ToRelTable();
  }
  if (auto it = pin->gaps.find(name); it != pin->gaps.end()) {
    return it->second->ToRelTable();
  }
  return Status::NotFound("no such table: " + name);
}

std::vector<std::string> AnalysisSession::SnapshotTableNames() const {
  txn::SnapshotPin pin = PinSnapshot();
  return SortedTableNames(*pin, pin->relations->TableNames());
}

// ---- Group commit ----

void AnalysisSession::SetDeferredCommits(bool deferred) {
  deferred_commits_ = deferred;
}

std::shared_ptr<store::CommitTicket> AnalysisSession::TakePendingCommit() {
  return std::move(pending_commit_);
}

Status AnalysisSession::DrainCommits() {
  return storage_ ? storage_->Drain() : Status::OK();
}

}  // namespace gea::workbench
