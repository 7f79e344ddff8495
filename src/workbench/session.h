#ifndef GEA_WORKBENCH_SESSION_H_
#define GEA_WORKBENCH_SESSION_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/fascicles.h"
#include "common/result.h"
#include "core/enum_table.h"
#include "core/gap.h"
#include "core/gap_compare.h"
#include "core/gap_ops.h"
#include "core/operators.h"
#include "core/sumy.h"
#include "core/sumy_ops.h"
#include "core/populate.h"
#include "interval/interval.h"
#include "lineage/lineage.h"
#include "obs/statviews.h"
#include "obs/trace.h"
#include "rel/catalog.h"
#include "sage/dataset.h"
#include "store/engine.h"
#include "txn/epoch.h"
#include "txn/snapshot.h"
#include "workbench/command.h"
#include "workbench/users.h"

namespace gea::workbench {

/// The analysis workbench: the session-level facade tying together the
/// pieces the thesis's GUI exposes — authentication (Appendix III.1),
/// data management (III.2), administration (III.3), configuration (III.4),
/// the data-set / metadata / fascicle / GAP pipeline of Chapter 4, the
/// search facilities of Section 4.4.4, the lineage feature of Section
/// 4.4.2, and the redundancy checks of Section 4.4.5.2.
///
/// All derived tables (ENUM / SUMY / GAP) live in one shared name space,
/// like tables in the thesis's DB2 database; creating a name that exists
/// fails with AlreadyExists unless `replace` is passed.
///
/// ## Concurrency model (MVCC epochs + group commit)
///
/// The session is single-writer, many-reader, and the published epoch
/// (txn::EpochManager) is its only catalog: there are no live table
/// maps behind it. Writers are serialized externally (the serve layer's
/// exclusive session lock). Each mutating operation reads its inputs
/// from the current epoch, then copies that epoch's catalog — shallow
/// copies of the shared_ptr-to-const table maps, plus a relations clone
/// only when it edits relations — stores its output in the copy, and
/// publishes the copy as the next epoch only once the change has
/// succeeded, so a failed write is never visible. Whole-catalog installs (OpenStorage, ApplySnapshotBlob,
/// LoadDatabase) convert every section first and publish once. The
/// lineage graph is writer state outside the epoch.
///
/// Readers never take the session lock: PinSnapshot() hands out an RAII
/// pin on the current epoch and Query() / MaterializeAnyTable() /
/// SnapshotTableNames() run entirely against that frozen state, so a
/// checkpoint or writer burst cannot block them. Superseded tables are
/// reclaimed when the last pin referencing them drops.
///
/// Durability is batched by the storage engine's group commit: WAL
/// records from concurrent writers coalesce into one fsync. In the
/// default mode every mutating call still waits for its record's batch
/// before returning (ack == durable). The serve layer switches
/// on deferred-commit mode, takes the op's CommitTicket via
/// TakePendingCommit() while still holding the writer lock, and waits
/// OUTSIDE the lock — which is what lets concurrent writers' fsyncs
/// actually share a batch.
class AnalysisSession {
 public:
  /// Bootstraps the session with one administrator account.
  AnalysisSession(const std::string& admin_name,
                  const std::string& admin_password);

  // ---- Authentication (Appendix III.1) ----

  /// Name, password and claimed access level must all match.
  Status Login(const std::string& name, const std::string& password,
               AccessLevel level);
  void Logout();
  bool IsLoggedIn() const { return current_user_.has_value(); }
  Result<std::string> CurrentUser() const;

  /// Validates credentials against the user database WITHOUT changing
  /// this session's login state, and returns the granted level. The query
  /// service uses this for per-connection authentication on top of one
  /// shared session. Logged as a "login" operation either way, so failed
  /// attempts are visible in the query log.
  Result<AccessLevel> AuthenticateUser(const std::string& name,
                                       const std::string& password,
                                       AccessLevel level) const;

  // ---- Administration (Appendix III.3; administrators only) ----

  Status AddUser(const std::string& name, const std::string& password,
                 AccessLevel level);
  Status DeleteUser(const std::string& name);
  Status ModifyUser(const std::string& name, const std::string& new_password,
                    AccessLevel new_level);

  // ---- Configuration (Appendix III.4; administrators only) ----

  Status SetConfiguration(const std::string& key, const std::string& value);
  Result<std::string> GetConfiguration(const std::string& key) const;

  // ---- Data management (Appendix III.2) ----

  /// Loads the (cleaned) SAGE data set, creating the Libraries, Typeinfo
  /// and Sageinfo relations and the lineage root. A count that is not
  /// finite and positive fails with InvalidArgument, before anything is
  /// logged or published.
  Status LoadDataSet(sage::SageDataSet dataset);

  /// Drops every derived table and relation (administrators only) — the
  /// "initialize database" operation.
  Status InitializeDatabase();

  /// Borrowed from the current epoch: valid until a later data-set load,
  /// initialize or restore replaces it.
  Result<const sage::SageDataSet*> DataSet() const;

  /// Persists the whole analysis database into `directory` (created if
  /// needed): the SAGE libraries, and each table section of the snapshot
  /// image — every derived ENUM/SUMY/GAP table, the tolerance metadata,
  /// the stored relations and the operation history — as a CSV file.
  Status SaveDatabase(const std::string& directory) const;

  /// Replaces the session's analysis state with a database previously
  /// written by SaveDatabase, through the snapshot restore path: a bad
  /// file leaves the session as it was. Users and configuration are
  /// unaffected.
  Status LoadDatabase(const std::string& directory);

  // ---- Durable storage (WAL + snapshots; src/store) ----

  /// Attaches a durable storage directory (administrators only) and runs
  /// crash recovery: the latest valid snapshot is restored, the WAL tail
  /// is replayed through the normal operators, and any torn trailing
  /// record is truncated. From then on every mutating operation is
  /// WAL-logged and fsynced before it is acknowledged, so an acked
  /// operation survives a crash. `env` defaults to the POSIX
  /// file system; tests pass a store::FaultInjectionEnv here.
  Status OpenStorage(const std::string& directory,
                     store::StorageOptions options = {},
                     store::FileEnv* env = nullptr);

  bool StorageAttached() const { return storage_ != nullptr; }

  /// Commits every submitted record, writes a full snapshot and rotates
  /// the WAL. Also runs automatically every
  /// `StorageOptions::checkpoint_every_records` appends.
  Status Checkpoint();

  /// What recovery found and did when storage was last attached.
  Result<store::RecoverySummary> StorageRecovery() const;

  /// Commits every submitted record, then detaches. The directory
  /// remains openable.
  Status CloseStorage();

  // ---- Replication hooks (consumed by src/dist) ----

  /// Marks the session read-only: every catalog-mutating operation fails
  /// with FailedPrecondition("session is read-only"). The replication
  /// apply paths (ApplyReplicatedRecord / ApplySnapshotBlob) bypass the
  /// guard — a replica session is read-only for clients but writable by
  /// the replication stream. Promotion simply clears the flag.
  void SetReadOnly(bool read_only) { read_only_ = read_only; }
  bool ReadOnly() const { return read_only_; }

  /// Re-executes one shipped WAL record the way recovery replay does
  /// (logical records through RunCommand), bypassing the read-only guard
  /// and suppressing local WAL re-append. The caller must be logged in,
  /// and must apply records in shipped LSN order.
  Status ApplyReplicatedRecord(const store::WalRecord& record);

  /// The whole catalog as one blob (the in-memory snapshot codec over
  /// BuildSnapshotImage) — replication's cold-follower catch-up payload.
  std::string ExportSnapshotBlob() const;
  /// Replaces the catalog with a blob from ExportSnapshotBlob, bypassing
  /// the read-only guard. A corrupt blob leaves the session untouched.
  Status ApplySnapshotBlob(std::string_view blob);

  /// Observes every acknowledged WAL append: fired with the record and
  /// its LSN right after the fsync covering the record succeeds, before
  /// its waiter is acknowledged and before any automatic checkpoint.
  /// Under group commit the observer runs on whichever thread leads the
  /// record's batch (not necessarily the mutating thread), strictly in
  /// LSN order; a record whose batch fsync fails is NEVER observed — the
  /// dist layer's ships-only-acked contract. A bulk state replacement
  /// that bypasses the WAL (LoadDatabase on an attached store) instead
  /// fires a synthetic kCheckpoint record with op "state_reset" —
  /// shippers must force followers back to snapshot catch-up when they
  /// see it. At most one observer; empty clears it. Set before
  /// concurrent writers start.
  using WalObserver =
      std::function<void(uint64_t lsn, const store::WalRecord& record)>;
  void SetWalObserver(WalObserver observer) {
    wal_observer_ = std::move(observer);
  }

  /// LSN of the last durable WAL record; 0 while storage is detached.
  uint64_t DurableLsn() const { return storage_ ? storage_->last_lsn() : 0; }

  // ---- MVCC snapshot reads (consumed by the serve layer) ----

  /// Pins the current catalog epoch. Holds the epoch lock only to copy
  /// one pointer, so it never waits behind a write or checkpoint. The
  /// pinned snapshot's tables stay valid for the pin's whole scope.
  txn::SnapshotPin PinSnapshot() const { return epochs_->Pin(); }
  uint64_t CurrentEpoch() const { return epochs_->CurrentEpoch(); }

  /// Materializes any table visible to readers — a frozen relation or
  /// computed view from the pinned epoch's catalog clone, or a stored
  /// ENUM/SUMY/GAP rendered via ToRelTable. The serve layer's lock-free
  /// get_table path.
  Result<rel::Table> MaterializeAnyTable(const std::string& name) const;

  /// Sorted union of the pinned epoch's table names (ENUM/SUMY/GAP plus
  /// relations and computed views). Lock-free.
  std::vector<std::string> SnapshotTableNames() const;

  // ---- Group-commit control (consumed by the serve layer) ----

  /// In deferred mode a mutating operation submits its WAL record to the
  /// storage engine and returns WITHOUT waiting; the caller must take
  /// the ticket (TakePendingCommit) and Wait() on it before acking the
  /// client. Off (the default), operations wait inline — ack == durable,
  /// the classic contract, for direct library callers.
  void SetDeferredCommits(bool deferred);

  /// The not-yet-awaited ticket of the last deferred mutating operation,
  /// or nullptr. Call while still holding the writer lock; Wait() on it
  /// after releasing, so concurrent writers' fsyncs batch.
  std::shared_ptr<store::CommitTicket> TakePendingCommit();

  /// Commits every record submitted so far (leads the batch if
  /// necessary) and returns the engine's sticky error, if any. Only
  /// deferred mode leaves records to flush: Checkpoint and CloseStorage
  /// commit them themselves. Thread-safe: it touches no writer state, so
  /// a reader holding the shared session lock may call it (replication's
  /// snapshot export does).
  Status DrainCommits();

  // ---- Data sets (Figs. 4.4 and 4.15) ----

  /// System-defined tissue data set, named after the tissue type.
  Status CreateTissueDataSet(sage::TissueType tissue, bool replace = false);

  /// User-defined tissue type from explicit library ids.
  Status CreateCustomDataSet(const std::string& name,
                             const std::vector<int>& library_ids,
                             bool replace = false);

  /// Stored tables, borrowed from the current epoch: valid until a later
  /// write replaces or drops the table.
  Result<const core::EnumTable*> GetEnum(const std::string& name) const;
  Result<const core::SumyTable*> GetSumy(const std::string& name) const;
  Result<const core::GapTable*> GetGap(const std::string& name) const;

  // ---- Metadata + fascicles (Figs. 4.5-4.8) ----

  /// Generates the tolerance metadata for `dataset_name`: per-tag
  /// tolerance = `percent`% of the tag's value width.
  Status GenerateMetadata(const std::string& dataset_name, double percent,
                          const std::string& meta_name,
                          bool replace = false);

  /// Runs the Fascicles algorithm; stores, per fascicle i, the member
  /// ENUM table "<out_prefix>_i" and its SUMY "<out_prefix>_i_SUMY".
  /// Returns the fascicle ENUM names in mining order.
  Result<std::vector<std::string>> CalculateFascicles(
      const std::string& dataset_name, const std::string& meta_name,
      size_t min_compact_tags, size_t batch_size, size_t min_size,
      const std::string& out_prefix,
      cluster::FascicleParams::Algorithm algorithm =
          cluster::FascicleParams::Algorithm::kGreedy);

  /// The Fig. 4.8 purity check of a fascicle ENUM table.
  Result<std::vector<core::PurityProperty>> CheckPurity(
      const std::string& enum_name) const;

  /// Names of the tables FormControlGroups creates.
  struct ControlGroups {
    std::string fascicle_sumy;      // e.g. brain35k_4CancerFasTbl
    std::string not_in_fas_enum;    // same-state libraries outside
    std::string not_in_fas_sumy;    //   the fascicle (ENUM2 / SUMY2)
    std::string opposite_enum;      // opposite-state libraries
    std::string opposite_sumy;      //   (ENUM3 / SUMY3)
  };

  /// The "Form SUM" macro of Figs. 4.7-4.8 (Section 4.3.1 steps 4-5):
  /// requires the fascicle to be pure cancer or pure normal; builds the
  /// two control groups over the fascicle's compact tags and aggregates
  /// them. Fails with FailedPrecondition on non-pure fascicles ("the
  /// analysis of this fascicle is terminated").
  Result<ControlGroups> FormControlGroups(const std::string& dataset_name,
                                          const std::string& fascicle_enum);

  // ---- Direct operator invocations ----

  /// SUMY = aggregate(ENUM), stored under `out_name` (the thesis's
  /// summarize step run outside the fascicle macro).
  Status Aggregate(const std::string& enum_name, const std::string& out_name,
                   bool replace = false);

  /// ENUM = populate(SUMY, base ENUM): the libraries of `base_enum` whose
  /// expression values fall inside the SUMY's [min, max] bands, stored
  /// under `out_name`.
  Status Populate(const std::string& sumy_name, const std::string& base_enum,
                  const std::string& out_name, bool replace = false);

  // ---- GAP operations (Figs. 4.9, 4.12, 4.13, 4.19) ----

  /// GAP = diff(sumy1, sumy2), stored under `gap_name`.
  Status CreateGap(const std::string& sumy1_name,
                   const std::string& sumy2_name, const std::string& gap_name,
                   bool replace = false);

  /// Stores the top-x table under "<gap_name>_<x>" and returns that name.
  Result<std::string> CalculateTopGap(
      const std::string& gap_name, size_t x,
      core::TopGapMode mode = core::TopGapMode::kLargestMagnitude);

  /// Combines two GAP tables (Fig. 4.13); result is a stored GAP table.
  Status CompareGapTables(const std::string& gap_a,
                          const std::string& gap_b,
                          core::GapCompareKind kind,
                          const std::string& out_name, bool replace = false);

  /// Runs one of the 13 queries on a stored compared table; stores the
  /// result under `out_name`.
  Status RunGapQuery(const std::string& compared_name,
                     core::GapCompareQuery query,
                     const std::string& out_name, bool replace = false);

  // ---- Named commands (command.cc) ----

  /// Decodes `params` for the named command and runs its operator: the
  /// one mapping from an op name onto the methods above. Covers every
  /// logical op the WAL logs, under its logged name, plus the wire
  /// spellings `diff` and `mine`. The reply is what the wire sends:
  /// `created <name>`, the stored name for `top_gap`, the table of
  /// fascicle names for `fascicles`/`mine`. An unknown op or a bad
  /// parameter is InvalidArgument, and runs nothing.
  Result<CommandReply> RunCommand(
      const std::string& op, const std::map<std::string, std::string>& params);

  // ---- Search operations (Section 4.4.4.2) ----

  /// Library information by id or name (Fig. 4.23).
  Result<sage::LibraryMeta> SearchLibrary(int id) const;
  Result<sage::LibraryMeta> SearchLibrary(const std::string& name) const;

  /// Names of the libraries of one tissue type (Fig. 4.24).
  Result<std::vector<std::string>> LibrariesOfTissue(
      sage::TissueType tissue) const;

  /// One row of the tag-frequency report (Figs. 4.25/4.26).
  struct TagFrequencyRow {
    sage::TagId tag = 0;
    std::vector<double> values;  // aligned with the queried library names
  };

  /// Expression values of every tag in [first_tag, last_tag] across the
  /// named libraries; pass first == last for a single tag.
  Result<std::vector<TagFrequencyRow>> TagFrequency(
      sage::TagId first_tag, sage::TagId last_tag,
      const std::vector<std::string>& library_names) const;

  /// The "range search for library" of Section 4.4.4.2: names of the
  /// libraries whose expression level for `tag` lies in [lo, hi].
  Result<std::vector<std::string>> SearchLibrariesByTagRange(
      sage::TagId tag, double lo, double hi) const;

  /// Runs a SQL-style query against the auxiliary relations (Libraries,
  /// Typeinfo, Sageinfo) — the ad-hoc querying the thesis performs over
  /// its DB2 tables. See rel/sql.h for the supported grammar.
  Result<rel::Table> Query(const std::string& sql) const;

  /// The Fig. 4.16 range-arithmetic search over stored SUMY tables: for
  /// every tag in [first_tag, last_tag] and every named table, reports
  /// NE / NO / the actual range under `relation` vs `query`.
  Result<std::vector<core::RangeSearchHit>> RangeSearchSumys(
      const std::vector<std::string>& sumy_names, sage::TagId first_tag,
      sage::TagId last_tag, interval::AllenRelation relation,
      const interval::Interval& query) const;

  // ---- Observability (query log + EXPLAIN) ----

  /// One logged operator invocation.
  struct QueryLogEntry {
    std::string operation;   // e.g. "populate", "create_gap"
    std::string detail;      // inputs/outputs, human readable
    uint64_t elapsed_nanos = 0;
    bool ok = true;
    std::string error;       // status message when !ok
  };

  /// Snapshot of the logged operations, oldest first. The log is a
  /// fixed-capacity ring (SetQueryLogCapacity, default 1024 entries):
  /// once full, each append evicts the oldest entry, so a long-lived
  /// serving session cannot grow without bound. Returned by value and
  /// guarded by a mutex, so it is safe to call while other threads run
  /// logged operations.
  std::vector<QueryLogEntry> QueryLog() const;
  void ClearQueryLog();

  /// Caps the query-log ring. Shrinking evicts oldest entries
  /// immediately; a capacity of 0 is clamped to 1.
  void SetQueryLogCapacity(size_t capacity);
  size_t QueryLogCapacity() const;

  /// The captured profile of the most recent logged operation: its span
  /// tree and the registry counters it moved. Spans require GEA_TRACE
  /// (or ScopedTraceEnable), counters GEA_METRICS; with both off the
  /// profile still reports wall time.
  Result<const obs::OperationProfile*> LastProfile() const;

  /// Renders LastProfile() — GEA's EXPLAIN surface:
  ///   populate  1.234 ms
  ///   spans: ...nested tree...
  ///   counters: gea.populate.rows_materialized  35 ...
  Result<std::string> ExplainLast() const;

  // ---- Lineage (Section 4.4.2) ----

  const lineage::LineageGraph& Lineage() const { return lineage_; }

  /// Attaches a user comment to the lineage node of `table_name`.
  Status CommentOn(const std::string& table_name, const std::string& comment);

  /// Deletes a derived table. `cascade` removes everything derived from
  /// it as well; otherwise only the contents are dropped and the lineage
  /// metadata survives for regeneration.
  Status DeleteTable(const std::string& table_name, bool cascade);

  /// All stored table names (ENUM + SUMY + GAP), sorted.
  std::vector<std::string> TableNames() const;

  /// Auxiliary relations (Libraries, Typeinfo, Sageinfo), borrowed from
  /// the current epoch: valid until a later data-set load, initialize or
  /// restore replaces them.
  const rel::Catalog& Relations() const { return *PinSnapshot()->relations; }

 private:
  Status RequireLogin() const;
  Status RequireAdmin() const;
  /// FailedPrecondition on a read-only session, unless the call is on
  /// the replication-apply path (applying_replication_).
  Status RequireWritable() const;

  static const Status& StatusOf(const Status& status) { return status; }
  template <typename T>
  static const Status& StatusOf(const Result<T>& result) {
    return result.status();
  }

  /// Runs `body` under an obs::OperationCapture, appends a QueryLogEntry
  /// and stores the operation profile for ExplainLast(). `body` returns
  /// Status or Result<T>; the return value passes through unchanged.
  template <typename Fn>
  auto Logged(const std::string& operation, std::string detail,
              Fn&& body) const -> decltype(body()) {
    obs::OperationCapture capture(operation);
    auto result = body();
    obs::OperationProfile profile = capture.Finish();
    QueryLogEntry entry;
    entry.operation = operation;
    entry.detail = std::move(detail);
    entry.elapsed_nanos = profile.elapsed_nanos;
    const Status& status = StatusOf(result);
    entry.ok = status.ok();
    if (!status.ok()) entry.error = status.message();
    ExportTelemetry(entry, profile);
    {
      std::lock_guard<std::mutex> lock(*log_mu_);
      query_log_.push_back(std::move(entry));
      while (query_log_.size() > query_log_capacity_) query_log_.pop_front();
      last_profile_ = std::move(profile);
    }
    return result;
  }

  /// Fans one finished operation out to the process-wide telemetry: the
  /// TelemetryHub (gea_stat_operators / gea_stat_sessions), the /tracez
  /// slot, and — when the operation is at or over GEA_SLOW_QUERY_MS —
  /// one structured "slow_query" log record.
  void ExportTelemetry(const QueryLogEntry& entry,
                       const obs::OperationProfile& profile) const;
  /// The current epoch's catalog, copied for one write to edit. The
  /// table maps are shallow copies, so a write swaps pointers and never
  /// touches a table a reader holds. The write publishes it through
  /// WalOp or WalDataSet once it has succeeded.
  txn::CatalogSnapshot WorkingCopy() const { return *PinSnapshot(); }
  /// Sets `catalog`'s data set and rebuilds its auxiliary relations (on a
  /// clone) without touching the lineage graph.
  static Status InstallDataSet(txn::CatalogSnapshot& catalog,
                               sage::SageDataSet dataset);
  /// The Section 4.4.5.2 redundancy check over the current epoch's shared
  /// namespace. It drops nothing: Store() replaces the old table.
  Status CheckNameFree(const std::string& name, bool replace) const;
  /// Registers a lineage node, ignoring duplicate-name errors after
  /// replace-drops.
  void RecordLineage(const std::string& name, lineage::NodeKind kind,
                     const std::string& operation,
                     std::map<std::string, std::string> parameters,
                     const std::vector<std::string>& parent_names);

  // ---- Durable storage plumbing (session_storage.cc) ----

  /// Publishes `next` as the readers' epoch, then appends one
  /// logical-operation record to the WAL and applies the automatic
  /// checkpoint policy. The append is skipped when storage is detached or
  /// the session is replaying the WAL during recovery.
  Status WalOp(txn::CatalogSnapshot next, const std::string& op,
               std::map<std::string, std::string> params);
  /// Same, logging `next`'s data set as a blob record: it cannot be
  /// re-derived.
  Status WalDataSet(txn::CatalogSnapshot next);
  /// Common WAL tail for WalOp/WalDataSet: submits the record to the
  /// storage engine, waits inline (or stashes the ticket when deferred
  /// commits are on), and applies the automatic checkpoint policy.
  Status CommitWalRecord(store::WalRecord record);
  /// Re-executes one WAL record: the data-set blob through LoadDataSet,
  /// every logical record through RunCommand.
  Status ReplayWalRecord(const store::WalRecord& record);
  /// Maps `catalog` and the lineage graph onto snapshot sections.
  store::SnapshotImage BuildSnapshotImage(
      const txn::CatalogSnapshot& catalog) const;
  /// The one whole-catalog install path: converts every section of
  /// `image` into a new catalog and lineage graph, then publishes the
  /// catalog. A section that fails to convert leaves the session as it
  /// was.
  Status RestoreFromSnapshotImage(const store::SnapshotImage& image);

  UserDatabase users_;
  /// Registration with the global TelemetryHub; keeps this session
  /// visible in gea_stat_sessions for its lifetime (move-aware).
  obs::SessionTelemetryHandle telemetry_;
  std::optional<std::string> current_user_;
  AccessLevel current_level_ = AccessLevel::kUser;
  std::map<std::string, std::string> configuration_;

  lineage::LineageGraph lineage_;

  std::unique_ptr<store::StorageEngine> storage_;
  std::optional<store::RecoverySummary> recovery_;
  bool replaying_wal_ = false;
  bool read_only_ = false;
  bool applying_replication_ = false;
  WalObserver wal_observer_;

  bool deferred_commits_ = false;
  std::shared_ptr<store::CommitTicket> pending_commit_;

  /// The published catalog epochs (unique_ptr keeps the session
  /// movable).
  std::unique_ptr<txn::EpochManager> epochs_ =
      std::make_unique<txn::EpochManager>();

  // Mutable: logging is bookkeeping, so const queries (e.g. Query())
  // still append to the log. log_mu_ guards the ring and the profile;
  // the serve layer reads QueryLog()/ExplainLast() while workers append.
  // Held by pointer so the session stays movable (tests return sessions
  // by value); moving a session while another thread logs on it is not
  // supported, same as every other member.
  mutable std::unique_ptr<std::mutex> log_mu_ = std::make_unique<std::mutex>();
  mutable std::deque<QueryLogEntry> query_log_;
  size_t query_log_capacity_ = 1024;
  mutable std::optional<obs::OperationProfile> last_profile_;
};

}  // namespace gea::workbench

#endif  // GEA_WORKBENCH_SESSION_H_
