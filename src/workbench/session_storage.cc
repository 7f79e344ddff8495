#include <filesystem>
#include <utility>

#include "core/serialization.h"
#include "obs/statviews.h"
#include "rel/table_io.h"
#include "sage/io.h"
#include "store/format.h"
#include "workbench/session.h"

/// Durable-storage half of AnalysisSession: mapping the session state
/// onto snapshot sections and back, SaveDatabase / LoadDatabase over
/// those sections, replaying WAL records (logical ones through
/// RunCommand), and the open/checkpoint/close plumbing. The
/// WAL-append call sites themselves live next to each operator in
/// session.cc.

namespace gea::workbench {

namespace {

// ---- Section kinds (frozen: they are written to disk) ----
constexpr char kKindSage[] = "sage";
constexpr char kKindEnum[] = "enum";
constexpr char kKindEnumLibs[] = "enum_libs";
constexpr char kKindSumy[] = "sumy";
constexpr char kKindGap[] = "gap";
constexpr char kKindMetadata[] = "metadata";
constexpr char kKindLineageNodes[] = "lineage_nodes";
constexpr char kKindLineageParams[] = "lineage_params";
constexpr char kKindLineageEdges[] = "lineage_edges";
constexpr char kKindRelation[] = "relation";
/// An ENUM's library table is its own section, named "<enum>_libs".
constexpr char kLibsSuffix[] = "_libs";

/// The kinds SaveDatabase's manifest lists. Metadata files are found by
/// listing their directory, and an ENUM's library table sits next to it.
bool InManifest(const std::string& kind) {
  return kind == kKindEnum || kind == kKindSumy || kind == kKindGap ||
         kind == kKindRelation;
}

/// The file SaveDatabase writes a table section to, relative to its
/// directory.
std::string SectionFile(const std::string& kind, const std::string& name) {
  if (kind == kKindEnumLibs) {
    const size_t stem = name.size() - (sizeof(kLibsSuffix) - 1);
    return "enums/" + name.substr(0, stem) + ".libs.csv";
  }
  if (kind == kKindMetadata) return "metadata/" + name + ".csv";
  if (InManifest(kind)) return kind + "s/" + name + ".csv";  // enums/, ...
  return kind + ".csv";  // the three lineage tables
}

namespace fs = std::filesystem;

Status EnsureDirectory(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::IoError("cannot create directory: " + path);
  }
  return Status::OK();
}

/// Table names double as file names; refuse path-breaking characters.
Status CheckFileSafe(const std::string& name) {
  if (name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos || name.empty() ||
      name[0] == '.') {
    return Status::InvalidArgument("table name is not file-safe: " + name);
  }
  return Status::OK();
}

std::string EncodeDataSetBlob(const sage::SageDataSet& dataset) {
  std::string out;
  store::PutU32(&out, static_cast<uint32_t>(dataset.NumLibraries()));
  for (const sage::SageLibrary& lib : dataset.libraries()) {
    store::PutString(&out, lib.name());
    store::PutString(&out, sage::WriteLibraryText(lib));
  }
  return out;
}

Result<sage::SageDataSet> DecodeDataSetBlob(std::string_view blob) {
  store::ByteReader reader(blob);
  GEA_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  sage::SageDataSet dataset;
  for (uint32_t i = 0; i < count; ++i) {
    GEA_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    GEA_ASSIGN_OR_RETURN(std::string text, reader.ReadString());
    GEA_ASSIGN_OR_RETURN(sage::SageLibrary lib,
                         sage::ReadLibraryText(name, text));
    dataset.AddLibrary(std::move(lib));
  }
  if (!reader.Done()) {
    return Status::InvalidArgument("trailing bytes in SAGE data set blob");
  }
  return dataset;
}

rel::Table ToleranceTable(const std::string& name,
                          const std::vector<double>& tolerances) {
  rel::Table table(name, rel::Schema({{"Index", rel::ValueType::kInt},
                                      {"Tolerance", rel::ValueType::kDouble}}));
  for (size_t i = 0; i < tolerances.size(); ++i) {
    table.AppendRowUnchecked({rel::Value::Int(static_cast<int64_t>(i)),
                              rel::Value::Double(tolerances[i])});
  }
  return table;
}

Result<std::vector<double>> TolerancesFromTable(const rel::Table& table) {
  std::vector<double> tolerances(table.NumRows(), 0.0);
  for (size_t r1_ = 0; r1_ < table.NumRows(); ++r1_) {
    const rel::Row row = table.GetRow(r1_);
    if (row.size() != 2 || row[0].type() != rel::ValueType::kInt ||
        row[1].type() != rel::ValueType::kDouble) {
      return Status::InvalidArgument("malformed metadata section: " +
                                     table.name());
    }
    size_t index = static_cast<size_t>(row[0].AsInt());
    if (index >= tolerances.size()) {
      return Status::InvalidArgument("bad metadata index in " + table.name());
    }
    tolerances[index] = row[1].AsDouble();
  }
  return tolerances;
}

/// A SaveDatabase directory read back into the snapshot sections it was
/// written from.
Result<store::SnapshotImage> ReadDatabaseDirectory(
    const std::string& directory) {
  store::SnapshotImage image;
  auto load = [&](const std::string& kind,
                  const std::string& name) -> Status {
    GEA_ASSIGN_OR_RETURN(
        rel::Table table,
        rel::LoadTable(name, directory + "/" + SectionFile(kind, name)));
    image.sections.push_back(
        store::SnapshotSection::Table(kind, std::move(table)));
    return Status::OK();
  };

  if (fs::exists(directory + "/sage/sageName.txt")) {
    GEA_ASSIGN_OR_RETURN(sage::SageDataSet dataset,
                         sage::LoadDataSet(directory + "/sage"));
    image.sections.push_back(store::SnapshotSection::Blob(
        kKindSage, "dataset", EncodeDataSetBlob(dataset)));
  }

  GEA_ASSIGN_OR_RETURN(
      rel::Table manifest,
      rel::LoadTable("Manifest", directory + "/manifest.csv"));
  for (size_t r = 0; r < manifest.NumRows(); ++r) {
    const rel::Row row = manifest.GetRow(r);
    if (row.size() != 2 || row[0].type() != rel::ValueType::kString ||
        row[1].type() != rel::ValueType::kString) {
      return Status::InvalidArgument("malformed manifest row in " + directory);
    }
    const std::string& name = row[0].AsString();
    const std::string& kind = row[1].AsString();
    GEA_RETURN_IF_ERROR(CheckFileSafe(name));
    if (!InManifest(kind)) {
      return Status::InvalidArgument("unknown manifest kind: " + kind);
    }
    GEA_RETURN_IF_ERROR(load(kind, name));
    if (kind == kKindEnum) {
      GEA_RETURN_IF_ERROR(load(kKindEnumLibs, name + kLibsSuffix));
    }
  }

  if (fs::exists(directory + "/metadata")) {
    for (const fs::directory_entry& entry :
         fs::directory_iterator(directory + "/metadata")) {
      if (entry.path().extension() != ".csv") continue;
      GEA_RETURN_IF_ERROR(load(kKindMetadata, entry.path().stem().string()));
    }
  }

  GEA_RETURN_IF_ERROR(load(kKindLineageNodes, "LineageNodes"));
  GEA_RETURN_IF_ERROR(load(kKindLineageParams, "LineageParams"));
  GEA_RETURN_IF_ERROR(load(kKindLineageEdges, "LineageEdges"));
  return image;
}

}  // namespace

// ---- Attach / checkpoint / detach ----

Status AnalysisSession::OpenStorage(const std::string& directory,
                                    store::StorageOptions options,
                                    store::FileEnv* env) {
  GEA_RETURN_IF_ERROR(RequireAdmin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  if (storage_) {
    return Status::FailedPrecondition(
        "a storage directory is already attached: " + storage_->directory());
  }
  if (env == nullptr) env = store::FileEnv::Default();

  GEA_ASSIGN_OR_RETURN(store::StorageEngine::OpenResult opened,
                       store::StorageEngine::Open(env, directory, options));
  if (opened.snapshot.has_value()) {
    GEA_RETURN_IF_ERROR(RestoreFromSnapshotImage(*opened.snapshot));
  }
  // Replay runs each record through RunCommand's operators, which are
  // deterministic, so the rebuilt catalog matches the pre-crash one. The
  // guard keeps the replayed operations from being re-appended.
  replaying_wal_ = true;
  Status replayed = Status::OK();
  for (const store::WalRecord& record : opened.records) {
    replayed = ReplayWalRecord(record);
    if (!replayed.ok()) break;
  }
  replaying_wal_ = false;
  GEA_RETURN_IF_ERROR(replayed);

  storage_ = std::move(opened.engine);
  // The observer is read at fire time (on the batch-leader thread), so a
  // subscriber attached after OpenStorage still sees every later commit.
  storage_->set_durable_callback(
      [this](uint64_t lsn, const store::WalRecord& record) {
        if (wal_observer_) wal_observer_(lsn, record);
      });
  recovery_ = opened.summary;
  // One query-log entry so recovery shows up in the session history and
  // the telemetry exports (slow-query log, /statz).
  return Logged("open_storage", recovery_->ToString(),
                [] { return Status::OK(); });
}

Status AnalysisSession::Checkpoint() {
  GEA_RETURN_IF_ERROR(RequireLogin());
  if (!storage_) {
    return Status::FailedPrecondition("no storage directory is attached");
  }
  return Logged("checkpoint", storage_->directory(), [&]() -> Status {
    return storage_->Checkpoint(BuildSnapshotImage(*PinSnapshot()));
  });
}

Result<store::RecoverySummary> AnalysisSession::StorageRecovery() const {
  if (!recovery_.has_value()) {
    return Status::FailedPrecondition("no storage directory has been attached");
  }
  return *recovery_;
}

Status AnalysisSession::CloseStorage() {
  if (!storage_) return Status::OK();
  Status s = storage_->Close();
  storage_.reset();
  return s;
}

// ---- WAL append + replay ----

Status AnalysisSession::WalOp(txn::CatalogSnapshot next,
                              const std::string& op,
                              std::map<std::string, std::string> params) {
  // Every mutating operator funnels through here (or WalDataSet) once its
  // change has succeeded, so this is the single point where the new
  // catalog version becomes visible to lock-free readers. Published
  // unconditionally — detached sessions, WAL replay, and replication
  // apply mutate the catalog too, they just skip the log append below.
  epochs_->Publish(std::move(next));
  if (!storage_ || replaying_wal_) return Status::OK();
  return CommitWalRecord(store::WalRecord::LogicalOp(op, std::move(params)));
}

Status AnalysisSession::WalDataSet(txn::CatalogSnapshot next) {
  const std::shared_ptr<const sage::SageDataSet> dataset = next.dataset;
  epochs_->Publish(std::move(next));
  if (!storage_ || replaying_wal_) return Status::OK();
  return CommitWalRecord(store::WalRecord::BlobRecord(
      "load_dataset", EncodeDataSetBlob(*dataset)));
}

Status AnalysisSession::CommitWalRecord(store::WalRecord record) {
  std::shared_ptr<store::CommitTicket> ticket =
      storage_->Submit(std::move(record));
  if (deferred_commits_) {
    // The serving layer collects the ticket (TakePendingCommit) inside
    // the writer lock and waits on it after releasing the lock, so
    // concurrent writers' fsyncs coalesce into one batch. The durable
    // callback — not this path — acks the record to replication.
    pending_commit_ = std::move(ticket);
  } else {
    // Direct callers (shell, tests, replay-less tools) keep the old
    // contract: when this returns OK the record is fsynced on disk.
    GEA_RETURN_IF_ERROR(ticket->Wait());
  }
  if (storage_->CheckpointDue()) {
    return storage_->Checkpoint(BuildSnapshotImage(*PinSnapshot()));
  }
  return Status::OK();
}

// ---- Replication hooks ----

Status AnalysisSession::ApplyReplicatedRecord(const store::WalRecord& record) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  // Same re-execution path as recovery replay. replaying_wal_ keeps the
  // applied operation from being re-appended to a local WAL (a promoted
  // replica attaches its own store later); applying_replication_ lets the
  // operators through the read-only guard.
  applying_replication_ = true;
  replaying_wal_ = true;
  Status applied = ReplayWalRecord(record);
  replaying_wal_ = false;
  applying_replication_ = false;
  return applied;
}

std::string AnalysisSession::ExportSnapshotBlob() const {
  return store::EncodeSnapshot(BuildSnapshotImage(*PinSnapshot()));
}

Status AnalysisSession::ApplySnapshotBlob(std::string_view blob) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_ASSIGN_OR_RETURN(store::SnapshotImage image, store::DecodeSnapshot(blob));
  return RestoreFromSnapshotImage(image);
}

Status AnalysisSession::ReplayWalRecord(const store::WalRecord& record) {
  if (record.type == store::WalRecord::Type::kBlob) {
    if (record.op == "load_dataset") {
      GEA_ASSIGN_OR_RETURN(sage::SageDataSet dataset,
                           DecodeDataSetBlob(record.payload));
      return LoadDataSet(std::move(dataset));
    }
    return Status::InvalidArgument("unknown WAL blob kind: " + record.op);
  }
  return RunCommand(record.op, record.params).status();
}

// ---- Snapshot mapping ----

store::SnapshotImage AnalysisSession::BuildSnapshotImage(
    const txn::CatalogSnapshot& catalog) const {
  store::SnapshotImage image;
  if (catalog.dataset != nullptr) {
    image.sections.push_back(store::SnapshotSection::Blob(
        kKindSage, "dataset", EncodeDataSetBlob(*catalog.dataset)));
  }
  for (const auto& [name, table] : catalog.enums) {
    image.sections.push_back(
        store::SnapshotSection::Table(kKindEnum, table->ToRelTable()));
    image.sections.push_back(store::SnapshotSection::Table(
        kKindEnumLibs,
        core::EnumLibrariesToRelTable(*table, name + kLibsSuffix)));
  }
  for (const auto& [name, table] : catalog.sumys) {
    image.sections.push_back(
        store::SnapshotSection::Table(kKindSumy, table->ToRelTable()));
  }
  for (const auto& [name, table] : catalog.gaps) {
    image.sections.push_back(
        store::SnapshotSection::Table(kKindGap, table->ToRelTable()));
  }
  for (const auto& [name, tolerances] : catalog.metadata) {
    image.sections.push_back(store::SnapshotSection::Table(
        kKindMetadata, ToleranceTable(name, *tolerances)));
  }
  lineage::LineageGraph::RelExport history = lineage_.Export();
  image.sections.push_back(
      store::SnapshotSection::Table(kKindLineageNodes, std::move(history.nodes)));
  image.sections.push_back(store::SnapshotSection::Table(
      kKindLineageParams, std::move(history.params)));
  image.sections.push_back(
      store::SnapshotSection::Table(kKindLineageEdges, std::move(history.edges)));
  // Stored relations only: GetTable refuses the computed views (TAGS and
  // the gea_stat_* telemetry, rebuilt on install), and snapshotting one
  // would freeze a counter sample into the catalog.
  for (const std::string& name : catalog.relations->TableNames()) {
    auto table = catalog.relations->GetTable(name);
    if (!table.ok()) continue;
    image.sections.push_back(
        store::SnapshotSection::Table(kKindRelation, **table));
  }
  return image;
}

Status AnalysisSession::RestoreFromSnapshotImage(
    const store::SnapshotImage& image) {
  // Every section converts into `next` and `history` first; the session
  // changes only at the end, so an image that fails anywhere leaves it
  // as it was.
  txn::CatalogSnapshot next;
  rel::Catalog relations;
  obs::RegisterStatViews(relations);
  std::optional<sage::SageDataSet> dataset;
  const rel::Table* lineage_nodes = nullptr;
  const rel::Table* lineage_params = nullptr;
  const rel::Table* lineage_edges = nullptr;

  for (const store::SnapshotSection& section : image.sections) {
    const std::string& name = section.name;
    if (section.kind == kKindSage) {
      GEA_ASSIGN_OR_RETURN(dataset, DecodeDataSetBlob(section.blob));
      continue;
    }
    if (!section.table.has_value()) {
      return Status::InvalidArgument("snapshot section " + section.kind +
                                     " holds no table: " + name);
    }
    const rel::Table& table = *section.table;
    if (section.kind == kKindEnum) {
      const store::SnapshotSection* libs =
          image.Find(kKindEnumLibs, name + kLibsSuffix);
      if (libs == nullptr || !libs->table.has_value()) {
        return Status::InvalidArgument(
            "snapshot is missing the library table for ENUM " + name);
      }
      GEA_ASSIGN_OR_RETURN(core::EnumTable enum_table,
                           core::EnumFromRelTables(table, *libs->table, name));
      next.enums.emplace(name, std::make_shared<const core::EnumTable>(
                                   std::move(enum_table)));
    } else if (section.kind == kKindSumy) {
      GEA_ASSIGN_OR_RETURN(core::SumyTable sumy,
                           core::SumyFromRelTable(table, name));
      next.sumys.emplace(
          name, std::make_shared<const core::SumyTable>(std::move(sumy)));
    } else if (section.kind == kKindGap) {
      GEA_ASSIGN_OR_RETURN(core::GapTable gap,
                           core::GapFromRelTable(table, name));
      next.gaps.emplace(
          name, std::make_shared<const core::GapTable>(std::move(gap)));
    } else if (section.kind == kKindMetadata) {
      GEA_ASSIGN_OR_RETURN(std::vector<double> tolerances,
                           TolerancesFromTable(table));
      next.metadata.emplace(name, std::make_shared<const std::vector<double>>(
                                      std::move(tolerances)));
    } else if (section.kind == kKindLineageNodes) {
      lineage_nodes = &table;
    } else if (section.kind == kKindLineageParams) {
      lineage_params = &table;
    } else if (section.kind == kKindLineageEdges) {
      lineage_edges = &table;
    } else if (section.kind == kKindRelation) {
      GEA_RETURN_IF_ERROR(relations.CreateTable(table, /*replace=*/true));
    } else if (section.kind != kKindEnumLibs) {  // read with its ENUM
      return Status::InvalidArgument("unknown snapshot section kind: " +
                                     section.kind);
    }
  }

  lineage::LineageGraph history;
  if (lineage_nodes != nullptr && lineage_params != nullptr &&
      lineage_edges != nullptr) {
    GEA_ASSIGN_OR_RETURN(history, lineage::LineageGraph::Import(
                                      *lineage_nodes, *lineage_params,
                                      *lineage_edges));
  }
  next.relations = std::make_shared<const rel::Catalog>(std::move(relations));
  if (dataset.has_value()) {
    // InstallDataSet rebuilds the auxiliary relations, replacing the
    // snapshot copies with identical dataset-derived ones.
    GEA_RETURN_IF_ERROR(InstallDataSet(next, std::move(*dataset)));
  }

  // Install: readers flip to the whole new catalog in one publication.
  lineage_ = std::move(history);
  epochs_->Publish(std::move(next));
  return Status::OK();
}

// ---- Whole-database files ----

Status AnalysisSession::SaveDatabase(const std::string& directory) const {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(EnsureDirectory(directory));
  txn::SnapshotPin pin = PinSnapshot();
  if (pin->dataset != nullptr) {
    GEA_RETURN_IF_ERROR(sage::SaveDataSet(*pin->dataset, directory + "/sage"));
  }
  for (const char* subdirectory :
       {"enums", "sumys", "gaps", "relations", "metadata"}) {
    GEA_RETURN_IF_ERROR(EnsureDirectory(directory + "/" + subdirectory));
  }

  rel::Table manifest("Manifest",
                      rel::Schema({{"Name", rel::ValueType::kString},
                                   {"Kind", rel::ValueType::kString}}));
  for (const store::SnapshotSection& section :
       BuildSnapshotImage(*pin).sections) {
    if (!section.table.has_value()) continue;  // the data set: sage/ above
    GEA_RETURN_IF_ERROR(CheckFileSafe(section.name));
    GEA_RETURN_IF_ERROR(rel::SaveTable(
        *section.table,
        directory + "/" + SectionFile(section.kind, section.name)));
    if (InManifest(section.kind)) {
      manifest.AppendRowUnchecked({rel::Value::String(section.name),
                                   rel::Value::String(section.kind)});
    }
  }
  return rel::SaveTable(manifest, directory + "/manifest.csv");
}

Status AnalysisSession::LoadDatabase(const std::string& directory) {
  GEA_RETURN_IF_ERROR(RequireLogin());
  GEA_RETURN_IF_ERROR(RequireWritable());
  GEA_ASSIGN_OR_RETURN(store::SnapshotImage image,
                       ReadDatabaseDirectory(directory));
  GEA_RETURN_IF_ERROR(RestoreFromSnapshotImage(image));
  // A bulk load replaces state the WAL knows nothing about, so the
  // storage directory (when attached) gets a full snapshot right away,
  // and any WAL shipper is told its followers must re-seed from a
  // snapshot — no stream of records reproduces this transition.
  if (storage_ != nullptr && !replaying_wal_) {
    GEA_RETURN_IF_ERROR(
        storage_->Checkpoint(BuildSnapshotImage(*PinSnapshot())));
    if (wal_observer_) {
      store::WalRecord reset;
      reset.type = store::WalRecord::Type::kCheckpoint;
      reset.op = "state_reset";
      wal_observer_(storage_->last_lsn(), reset);
    }
  }
  return Status::OK();
}

}  // namespace gea::workbench
