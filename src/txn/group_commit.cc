#include "txn/group_commit.h"

#include <set>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"

namespace gea::txn {

namespace {

struct Pending {
  store::WalRecord record;
  std::shared_ptr<CommitTicket> ticket;
};

std::mutex& CommitterRegistryMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::set<const GroupCommitter*>& CommitterRegistry() {
  static auto* committers = new std::set<const GroupCommitter*>;
  return *committers;
}

}  // namespace

struct CommitTicket::Shared {
  std::mutex mu;
  std::condition_variable cv;
  store::StorageEngine* engine = nullptr;
  GroupCommitter::DurableCallback on_durable;
  bool leader_active = false;
  Status sticky = Status::OK();
  std::deque<Pending> queue;
  uint64_t next_lsn = 1;

  /// Takes the whole queue, commits it with one fsync, fires callbacks,
  /// completes the tickets. Called with `lock` held on `mu`; returns with
  /// it held. Caller must have set leader_active.
  void LeadOneBatch(std::unique_lock<std::mutex>& lock) {
    std::deque<Pending> batch;
    batch.swap(queue);
    const Status sticky_at_entry = sticky;
    lock.unlock();

    std::vector<store::WalRecord> records;
    records.reserve(batch.size());
    for (const Pending& pending : batch) records.push_back(pending.record);

    Status status = sticky_at_entry;
    uint64_t append_nanos = 0;
    if (status.ok()) {
      obs::TraceSpan span("group_commit");
      const uint64_t start = obs::NowNanos();
      status = engine->AppendBatch(records);
      append_nanos = obs::NowNanos() - start;
    }

    if (status.ok() && on_durable) {
      // LSN order within the batch (queue order) and across batches
      // (single leader at a time) — the replication hub's ordering
      // contract.
      for (const Pending& pending : batch) {
        on_durable(pending.ticket->lsn_, pending.record);
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
    for (const Pending& pending : batch) {
      pending.ticket->done_ = true;
      pending.ticket->status_ = status;
    }
  }
};

Status CommitTicket::Wait() {
  return GroupCommitter::WaitOn(shared_, this);
}

Status GroupCommitter::WaitOn(
    const std::shared_ptr<CommitTicket::Shared>& shared, CommitTicket* ticket) {
  const bool attribute = obs::CurrentContext().stages != nullptr;
  const uint64_t start = obs::NowNanos();
  bool led = false;

  std::unique_lock<std::mutex> lock(shared->mu);
  while (!ticket->done_) {
    if (!shared->leader_active) {
      shared->leader_active = true;
      shared->LeadOneBatch(lock);
      shared->leader_active = false;
      shared->cv.notify_all();
      led = true;
      continue;  // our ticket was in the batch we just led
    }
    shared->cv.wait(lock);
  }
  const Status status = ticket->status_;
  lock.unlock();

  if (attribute && !led) {
    // Followers charge their whole wait to the shared fsync; the leader's
    // stages already got the real append+fsync time inside AppendBatch.
    obs::AddStageNanos(obs::RequestStage::kWalFsync, obs::NowNanos() - start);
  }
  static obs::Histogram& wait_hist =
      obs::MetricsRegistry::Global().GetHistogram("gea.txn.commit_wait_nanos");
  wait_hist.Record(obs::NowNanos() - start);
  return status;
}

GroupCommitter::GroupCommitter(store::StorageEngine* engine)
    : shared_(std::make_shared<CommitTicket::Shared>()) {
  shared_->engine = engine;
  shared_->next_lsn = engine->last_lsn() + 1;
  std::lock_guard<std::mutex> lock(CommitterRegistryMutex());
  CommitterRegistry().insert(this);
}

GroupCommitter::~GroupCommitter() {
  (void)Drain();
  std::lock_guard<std::mutex> lock(CommitterRegistryMutex());
  CommitterRegistry().erase(this);
}

void GroupCommitter::set_durable_callback(DurableCallback callback) {
  std::lock_guard<std::mutex> lock(shared_->mu);
  shared_->on_durable = std::move(callback);
}

std::shared_ptr<CommitTicket> GroupCommitter::Submit(store::WalRecord record) {
  std::lock_guard<std::mutex> lock(shared_->mu);
  std::shared_ptr<CommitTicket> ticket(new CommitTicket(shared_));
  ticket->lsn_ = shared_->next_lsn++;
  if (!shared_->sticky.ok()) {
    ticket->done_ = true;
    ticket->status_ = shared_->sticky;
    return ticket;
  }
  shared_->queue.push_back({std::move(record), ticket});
  return ticket;
}

Status GroupCommitter::Drain() {
  std::unique_lock<std::mutex> lock(shared_->mu);
  for (;;) {
    if (shared_->queue.empty() && !shared_->leader_active) {
      return shared_->sticky;
    }
    if (!shared_->leader_active) {
      shared_->leader_active = true;
      shared_->LeadOneBatch(lock);
      shared_->leader_active = false;
      shared_->cv.notify_all();
      continue;
    }
    shared_->cv.wait(lock);
  }
}

size_t GroupCommitter::QueueDepth() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->queue.size();
}

size_t LiveCommitterQueueDepth() {
  std::lock_guard<std::mutex> lock(CommitterRegistryMutex());
  size_t depth = 0;
  for (const GroupCommitter* committer : CommitterRegistry()) {
    depth += committer->QueueDepth();
  }
  return depth;
}

}  // namespace gea::txn
