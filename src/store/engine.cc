#include "store/engine.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <utility>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/statviews.h"
#include "obs/trace.h"

namespace gea::store {

namespace {

std::mutex g_summary_mu;
RecoverySummary g_last_summary;  // guarded by g_summary_mu

std::mutex& LiveQueuesMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::set<const CommitQueue*>& LiveQueues() {
  static auto* queues = new std::set<const CommitQueue*>;
  return *queues;
}

/// "123\n" -> 123; anything non-numeric -> nullopt.
std::optional<uint64_t> ParseGeneration(std::string_view text) {
  while (!text.empty() &&
         (text.back() == '\n' || text.back() == '\r' || text.back() == ' ')) {
    text.remove_suffix(1);
  }
  if (text.empty() || text.size() > 19) return std::nullopt;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

/// "snap-<N>.gea" -> N.
std::optional<uint64_t> SnapshotGeneration(std::string_view name) {
  constexpr std::string_view kPrefix = "snap-";
  constexpr std::string_view kSuffix = ".gea";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return std::nullopt;
  if (name.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return std::nullopt;
  return ParseGeneration(
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size()));
}

}  // namespace

std::string RecoverySummary::ToString() const {
  std::string out = "recovered generation=" + std::to_string(generation);
  out += snapshot_loaded
             ? " snapshot_sections=" + std::to_string(snapshot_sections)
             : " snapshot=none";
  out += " wal_records=" + std::to_string(wal_records_replayed);
  out += " wal_bytes=" + std::to_string(wal_bytes_replayed);
  if (wal_torn_tail) {
    out += " torn_tail_truncated=" + std::to_string(wal_bytes_truncated) + "B";
  }
  if (used_fallback_scan) out += " via_snapshot_scan";
  return out;
}

void PublishRecoverySummary(const RecoverySummary& summary) {
  std::lock_guard<std::mutex> lock(g_summary_mu);
  g_last_summary = summary;
}

RecoverySummary LastRecoverySummary() {
  std::lock_guard<std::mutex> lock(g_summary_mu);
  return g_last_summary;
}

// ---- Group commit ----

/// The submit queue and leader handoff, shared by an engine and its
/// tickets.
struct CommitQueue : std::enable_shared_from_this<CommitQueue> {
  mutable std::mutex mu;
  std::condition_variable cv;
  StorageEngine* engine = nullptr;
  StorageEngine::DurableCallback on_durable;
  bool leader_active = false;
  Status sticky = Status::OK();
  // Submitted records not yet taken into a batch, with their tickets.
  std::vector<WalRecord> records;
  std::vector<std::shared_ptr<CommitTicket>> tickets;
  uint64_t next_lsn = 1;

  std::shared_ptr<CommitTicket> Submit(WalRecord record) {
    std::lock_guard<std::mutex> lock(mu);
    std::shared_ptr<CommitTicket> ticket(new CommitTicket(shared_from_this()));
    ticket->lsn_ = next_lsn++;
    if (!sticky.ok()) {
      ticket->done_ = true;
      ticket->status_ = sticky;
      return ticket;
    }
    records.push_back(std::move(record));
    tickets.push_back(ticket);
    return ticket;
  }

  Status Wait(CommitTicket* ticket) {
    const uint64_t start = obs::NowNanos();
    std::unique_lock<std::mutex> lock(mu);
    if (ticket->done_) {
      // Another thread's batch committed the record before this wait
      // began: an empty wait, still recorded so every commit has a span.
      obs::TraceSpan span("wal_fsync");
    }
    LeadUntil(lock, [ticket] { return ticket->done_; });
    const Status status = ticket->status_;
    lock.unlock();
    static obs::Histogram& wait_hist =
        obs::MetricsRegistry::Global().GetHistogram(
            "gea.txn.commit_wait_nanos");
    wait_hist.Record(obs::NowNanos() - start);
    return status;
  }

  Status Drain() {
    std::unique_lock<std::mutex> lock(mu);
    LeadUntil(lock, [this] { return records.empty() && !leader_active; });
    return sticky;
  }

  /// Leads a batch whenever none is in flight, until `done()` holds.
  /// Waiting on another thread's batch is charged to the request's
  /// wal_fsync stage and recorded as a wal_fsync span; the leader's
  /// stages and spans come from the append itself.
  template <typename Done>
  void LeadUntil(std::unique_lock<std::mutex>& lock, Done done) {
    while (!done()) {
      if (!leader_active) {
        leader_active = true;
        LeadOneBatch(lock);
        leader_active = false;
        cv.notify_all();
        continue;
      }
      obs::TraceSpan span("wal_fsync");
      const uint64_t wait_start = obs::NowNanos();
      cv.wait(lock, [&] { return done() || !leader_active; });
      obs::AddStageNanos(obs::RequestStage::kWalFsync,
                         obs::NowNanos() - wait_start);
    }
  }

  /// Takes the whole queue, commits it with one fsync, fires callbacks,
  /// completes the tickets. Called with `lock` held on `mu` and
  /// leader_active set; returns with it held.
  void LeadOneBatch(std::unique_lock<std::mutex>& lock) {
    std::vector<WalRecord> batch;
    batch.swap(records);
    std::vector<std::shared_ptr<CommitTicket>> batch_tickets;
    batch_tickets.swap(tickets);
    const Status sticky_at_entry = sticky;
    const StorageEngine::DurableCallback durable = on_durable;
    lock.unlock();

    Status status = sticky_at_entry;
    uint64_t append_nanos = 0;
    if (status.ok()) {
      obs::TraceSpan span("group_commit");
      const uint64_t start = obs::NowNanos();
      status = engine->AppendBatch(batch);
      append_nanos = obs::NowNanos() - start;
    }

    if (status.ok() && durable) {
      // LSN order within the batch (queue order) and across batches
      // (single leader at a time) — the replication hub's ordering
      // contract.
      for (size_t i = 0; i < batch.size(); ++i) {
        durable(batch_tickets[i]->lsn_, batch[i]);
      }
    }

    auto& registry = obs::MetricsRegistry::Global();
    static obs::Counter& commits =
        registry.GetCounter("gea.txn.group_commits");
    static obs::Counter& commit_records =
        registry.GetCounter("gea.txn.group_commit_records");
    static obs::Histogram& batch_records =
        registry.GetHistogram("gea.txn.group_commit_batch_records");
    static obs::Histogram& per_record =
        registry.GetHistogram("gea.txn.fsync_nanos_per_record");
    commits.Add(1);
    commit_records.Add(batch.size());
    batch_records.Record(batch.size());
    if (!batch.empty()) per_record.Record(append_nanos / batch.size());

    lock.lock();
    if (!status.ok() && sticky.ok()) sticky = status;
    for (const std::shared_ptr<CommitTicket>& ticket : batch_tickets) {
      ticket->done_ = true;
      ticket->status_ = status;
    }
  }
};

Status CommitTicket::Wait() { return queue_->Wait(this); }

size_t LiveCommitQueueDepth() {
  std::lock_guard<std::mutex> lock(LiveQueuesMutex());
  size_t depth = 0;
  for (const CommitQueue* queue : LiveQueues()) {
    std::lock_guard<std::mutex> queue_lock(queue->mu);
    depth += queue->records.size();
  }
  return depth;
}

StorageEngine::StorageEngine(FileEnv* env, std::string directory,
                             StorageOptions options)
    : env_(env),
      directory_(std::move(directory)),
      options_(options),
      commits_(std::make_shared<CommitQueue>()) {
  commits_->engine = this;
  std::lock_guard<std::mutex> lock(LiveQueuesMutex());
  LiveQueues().insert(commits_.get());
}

std::shared_ptr<CommitTicket> StorageEngine::Submit(WalRecord record) {
  return commits_->Submit(std::move(record));
}

Status StorageEngine::Drain() { return commits_->Drain(); }

void StorageEngine::set_durable_callback(DurableCallback callback) {
  std::lock_guard<std::mutex> lock(commits_->mu);
  commits_->on_durable = std::move(callback);
}

size_t StorageEngine::QueueDepth() const {
  std::lock_guard<std::mutex> lock(commits_->mu);
  return commits_->records.size();
}

std::string StorageEngine::SnapshotPath(uint64_t generation) const {
  return directory_ + "/snap-" + std::to_string(generation) + ".gea";
}

std::string StorageEngine::WalPath(uint64_t generation) const {
  return directory_ + "/wal-" + std::to_string(generation) + ".log";
}

std::string StorageEngine::CurrentPath() const { return directory_ + "/CURRENT"; }

Result<StorageEngine::OpenResult> StorageEngine::Open(
    FileEnv* env, const std::string& directory, const StorageOptions& options) {
  GEA_RETURN_IF_ERROR(env->CreateDirs(directory));

  OpenResult result;
  result.engine.reset(new StorageEngine(env, directory, options));
  StorageEngine& engine = *result.engine;
  RecoverySummary& summary = result.summary;
  summary.directory = directory;

  // Pick the committed generation. CURRENT is authoritative; without a
  // usable one (missing, or not a number) the highest snapshot on disk
  // is, and only a directory without snapshots bootstraps at generation
  // 0. Recovery deletes only what a crash can leave, so a snapshot that
  // does not read fails Open before any file changes.
  std::optional<uint64_t> committed;
  if (env->FileExists(engine.CurrentPath())) {
    GEA_ASSIGN_OR_RETURN(std::string current,
                         env->ReadFileToString(engine.CurrentPath()));
    committed = ParseGeneration(current);
  }
  const bool scan = !committed.has_value();
  if (scan) {
    GEA_ASSIGN_OR_RETURN(std::vector<std::string> names,
                         env->ListDirectory(directory));
    // A brand-new (empty) directory is a normal bootstrap; anything else
    // here means CURRENT was missing or unusable and we had to scan.
    summary.used_fallback_scan = !names.empty();
    committed = 0;
    for (const std::string& name : names) {
      if (auto generation = SnapshotGeneration(name)) {
        committed = std::max(*committed, *generation);
      }
    }
  }
  engine.generation_ = *committed;
  if (engine.generation_ > 0) {
    GEA_ASSIGN_OR_RETURN(result.snapshot,
                         ReadSnapshotFile(env, engine.SnapshotPath(
                                                   engine.generation_)));
  }
  if (scan) {
    // Repair CURRENT so it is authoritative from here on — otherwise
    // every reopen of a bootstrap (or scan-recovered) directory would
    // take this fallback path again.
    GEA_RETURN_IF_ERROR(engine.WriteCurrentFile(engine.generation_));
  }
  summary.generation = engine.generation_;
  if (result.snapshot.has_value()) {
    summary.snapshot_loaded = true;
    summary.snapshot_sections = result.snapshot->sections.size();
  }

  // Read the WAL tail and cut off any torn suffix so the file ends on a
  // record boundary before we start appending after it.
  const std::string wal_path = engine.WalPath(engine.generation_);
  GEA_ASSIGN_OR_RETURN(WalReadResult wal, ReadWalFile(env, wal_path));
  if (wal.torn_tail && wal.dropped_bytes > 0) {
    GEA_ASSIGN_OR_RETURN(std::string raw, env->ReadFileToString(wal_path));
    const std::string tmp = wal_path + ".tmp";
    GEA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                         env->NewWritableFile(tmp, /*truncate=*/true));
    GEA_RETURN_IF_ERROR(
        file->Append(std::string_view(raw).substr(0, wal.valid_bytes)));
    GEA_RETURN_IF_ERROR(file->Sync());
    GEA_RETURN_IF_ERROR(file->Close());
    GEA_RETURN_IF_ERROR(env->RenameFile(tmp, wal_path));
    GEA_RETURN_IF_ERROR(env->SyncDirectory(directory));
  }
  summary.wal_torn_tail = wal.torn_tail;
  summary.wal_bytes_replayed = wal.valid_bytes;
  summary.wal_bytes_truncated = wal.dropped_bytes;
  for (WalRecord& record : wal.records) {
    if (record.type == WalRecord::Type::kCheckpoint) continue;
    result.records.push_back(std::move(record));
  }
  summary.wal_records_replayed = result.records.size();

  GEA_ASSIGN_OR_RETURN(engine.wal_,
                       WalWriter::Open(env, wal_path, /*truncate=*/false));
  engine.records_since_checkpoint_ = result.records.size();
  engine.last_lsn_ = result.records.size();
  engine.commits_->next_lsn = result.records.size() + 1;

  // Sweep leftovers from interrupted checkpoints (best-effort).
  if (auto names = env->ListDirectory(directory); names.ok()) {
    for (const std::string& name : *names) {
      const std::string path = directory + "/" + name;
      if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
        (void)env->RemoveFile(path);
        continue;
      }
      if (auto generation = SnapshotGeneration(name);
          generation && *generation != engine.generation_) {
        (void)env->RemoveFile(path);
        (void)env->RemoveFile(directory + "/wal-" +
                              std::to_string(*generation) + ".log");
      }
    }
  }

  static obs::Counter& replayed =
      obs::MetricsRegistry::Global().GetCounter("gea.store.recovery_replayed");
  replayed.Add(static_cast<int64_t>(result.records.size()));
  PublishRecoverySummary(summary);
  return result;
}

Status StorageEngine::AppendBatch(const std::vector<WalRecord>& records) {
  if (!wal_) return Status::FailedPrecondition("storage engine is closed");
  if (records.empty()) return Status::OK();
  GEA_RETURN_IF_ERROR(wal_->Append(records));
  records_since_checkpoint_ += records.size();
  last_lsn_ += records.size();
  return Status::OK();
}

bool StorageEngine::CheckpointDue() const {
  return options_.checkpoint_every_records > 0 &&
         records_since_checkpoint_ >= options_.checkpoint_every_records;
}

Status StorageEngine::Checkpoint(const SnapshotImage& image) {
  GEA_RETURN_IF_ERROR(Drain());
  const uint64_t next = generation_ + 1;

  // 1. Publish the snapshot (atomic in WriteSnapshotFile).
  GEA_RETURN_IF_ERROR(WriteSnapshotFile(env_, SnapshotPath(next), image));

  // 2. Start the next WAL with a checkpoint marker; until CURRENT is
  //    replaced this file is invisible to recovery.
  GEA_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> next_wal,
                       WalWriter::Open(env_, WalPath(next), /*truncate=*/true));
  WalRecord marker;
  marker.type = WalRecord::Type::kCheckpoint;
  marker.op = "checkpoint";
  marker.params["generation"] = std::to_string(next);
  GEA_RETURN_IF_ERROR(next_wal->Append({marker}));

  // 3. Commit: CURRENT now names the new generation.
  GEA_RETURN_IF_ERROR(WriteCurrentFile(next));

  const uint64_t previous = generation_;
  if (wal_) (void)wal_->Close();
  wal_ = std::move(next_wal);
  generation_ = next;
  records_since_checkpoint_ = 0;

  // 4. Retire the old generation (best-effort; recovery sweeps stragglers).
  if (previous >= 1) (void)env_->RemoveFile(SnapshotPath(previous));
  (void)env_->RemoveFile(WalPath(previous));

  static obs::Counter& checkpoints =
      obs::MetricsRegistry::Global().GetCounter("gea.store.checkpoints");
  checkpoints.Add(1);
  return Status::OK();
}

Status StorageEngine::WriteCurrentFile(uint64_t generation) {
  const std::string tmp = CurrentPath() + ".tmp";
  GEA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                       env_->NewWritableFile(tmp, /*truncate=*/true));
  GEA_RETURN_IF_ERROR(file->Append(std::to_string(generation) + "\n"));
  GEA_RETURN_IF_ERROR(file->Sync());
  GEA_RETURN_IF_ERROR(file->Close());
  GEA_RETURN_IF_ERROR(env_->RenameFile(tmp, CurrentPath()));
  return env_->SyncDirectory(directory_);
}

Status StorageEngine::Close() {
  Status drained = Drain();
  if (!wal_) return drained;
  Status closed = wal_->Close();
  wal_.reset();
  return drained.ok() ? closed : drained;
}

StorageEngine::~StorageEngine() {
  (void)Close();
  std::lock_guard<std::mutex> lock(LiveQueuesMutex());
  LiveQueues().erase(commits_.get());
}

namespace {

/// The gea_stat_storage view: the last recovery summary plus every
/// gea.store.* counter and the fsync latency digest. Queryable like any
/// other stat view and served on /statz:
///   SELECT name, value FROM gea_stat_storage
rel::Table StorageStatTable() {
  rel::Table table(obs::kStatStorageView,
                   rel::Schema({{"name", rel::ValueType::kString},
                                {"value", rel::ValueType::kInt}}));
  auto add = [&table](const std::string& name, uint64_t value) {
    const uint64_t cap =
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
    table.AppendRowUnchecked(
        {rel::Value::String(name),
         rel::Value::Int(static_cast<int64_t>(std::min(value, cap)))});
  };
  const RecoverySummary summary = LastRecoverySummary();
  add("recovery.generation", summary.generation);
  add("recovery.snapshot_loaded", summary.snapshot_loaded ? 1 : 0);
  add("recovery.snapshot_sections", summary.snapshot_sections);
  add("recovery.wal_records_replayed", summary.wal_records_replayed);
  add("recovery.wal_bytes_replayed", summary.wal_bytes_replayed);
  add("recovery.wal_bytes_truncated", summary.wal_bytes_truncated);
  add("recovery.wal_torn_tail", summary.wal_torn_tail ? 1 : 0);
  add("recovery.used_fallback_scan", summary.used_fallback_scan ? 1 : 0);

  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  for (const obs::CounterValue& c : snapshot.counters) {
    if (c.name.rfind("gea.store.", 0) == 0) add(c.name, c.value);
  }
  for (const obs::HistogramValue& h : snapshot.histograms) {
    if (h.name.rfind("gea.store.", 0) != 0) continue;
    add(h.name + ".count", h.count);
    add(h.name + ".mean", static_cast<uint64_t>(h.Mean()));
    add(h.name + ".p95", h.ApproxQuantile(0.95));
  }
  return table;
}

/// Static-init registration: any binary linking gea_store gets the view
/// in RegisterStatViews / /statz automatically.
const bool g_storage_view_registered = [] {
  obs::RegisterStatViewProvider(obs::kStatStorageView, StorageStatTable);
  return true;
}();

}  // namespace

}  // namespace gea::store
