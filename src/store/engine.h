#ifndef GEA_STORE_ENGINE_H_
#define GEA_STORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "store/file_env.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace gea::store {

/// Durable storage directory layout:
///
///   CURRENT        — text generation number, atomically replaced
///   snap-<N>.gea   — full catalog snapshot for generation N (N >= 1)
///   wal-<N>.log    — WAL with everything since snap-<N>
///
/// Generation 0 is the bootstrap state: no snapshot, only wal-0.log.
/// A checkpoint writes snap-<N+1>, starts an empty wal-<N+1>, then
/// commits by atomically replacing CURRENT; a crash at any point leaves
/// either the old generation fully intact or the new one fully
/// committed. Stale files from interrupted checkpoints are swept on the
/// next open.

struct StorageOptions {
  /// When > 0, CheckpointDue() turns true after this many WAL appends
  /// since the last checkpoint. 0 means manual checkpoints only.
  uint64_t checkpoint_every_records = 0;
};

/// What recovery found and did, reported up to the query log / statz.
struct RecoverySummary {
  std::string directory;
  uint64_t generation = 0;
  bool snapshot_loaded = false;
  uint64_t snapshot_sections = 0;
  uint64_t wal_records_replayed = 0;
  uint64_t wal_bytes_replayed = 0;
  uint64_t wal_bytes_truncated = 0;
  bool wal_torn_tail = false;
  bool used_fallback_scan = false;  // CURRENT missing/stale, scanned snaps

  std::string ToString() const;
};

/// Process-wide last recovery, for the storage stat view.
void PublishRecoverySummary(const RecoverySummary& summary);
RecoverySummary LastRecoverySummary();

struct CommitQueue;

/// One submitted WAL record's handle. Wait() blocks until the record's
/// whole batch is durable (one shared fsync) and returns the commit
/// status; it is idempotent, callable from any thread, and still answers
/// after its engine is gone.
class CommitTicket {
 public:
  /// Blocks until durable (or failed). The calling thread may be drafted
  /// as the batch leader (see StorageEngine). Time spent waiting on
  /// another thread's batch is charged to the active request's wal_fsync
  /// stage and recorded as a wal_fsync span.
  Status Wait();

  /// The record's log sequence number, assigned at Submit() time.
  uint64_t lsn() const { return lsn_; }

 private:
  friend struct CommitQueue;
  explicit CommitTicket(std::shared_ptr<CommitQueue> queue)
      : queue_(std::move(queue)) {}

  std::shared_ptr<CommitQueue> queue_;
  uint64_t lsn_ = 0;
  bool done_ = false;             // guarded by CommitQueue::mu
  Status status_ = Status::OK();  // guarded by CommitQueue::mu
};

/// The storage directory and the only committer of its WAL.
///
/// Group commit: Submit() enqueues a record and returns its ticket; the
/// first thread to Wait() (or Drain()) while no batch is in flight
/// becomes the leader, appends the whole queue with ONE fsync, fires the
/// durable callback per record in LSN order, and wakes every waiter
/// (leader-follower handoff, no dedicated thread).
///
/// Durability contract:
///   - a ticket's Wait() returns OK only after the fsync covering its
///     record succeeded;
///   - the durable callback (the replication observer) fires only for
///     fsync-acked records, in LSN order, before their waiters are woken;
///   - a batch that fails anywhere acknowledges NOTHING: every ticket in
///     it gets the error, no callback fires, and the engine goes
///     sticky-failed (later submits fail fast, Checkpoint refuses)
///     because the WAL tail is now indeterminate. Recovery replays
///     exactly the acked prefix; the torn batch suffix is trimmed like
///     any torn tail.
///
/// Threading: Submit(), Wait() and Drain() run on any thread, and one
/// leader runs at a time. Checkpoint() and Close() commit everything
/// submitted before they rotate or close the log, so no Submit() may race
/// them; the session's writer exclusivity orders both.
class StorageEngine {
 public:
  struct OpenResult {
    std::unique_ptr<StorageEngine> engine;
    std::optional<SnapshotImage> snapshot;  // latest valid snapshot, if any
    std::vector<WalRecord> records;         // WAL tail to replay, in order
    RecoverySummary summary;
  };

  using DurableCallback =
      std::function<void(uint64_t lsn, const WalRecord& record)>;

  /// Opens (creating if needed) a storage directory and runs recovery:
  /// picks the committed generation (CURRENT, falling back to the
  /// highest snapshot on disk), loads its snapshot, reads the WAL tail,
  /// truncates any torn suffix in place, and leaves the WAL open for
  /// appends. Also publishes the recovery summary. Only an incomplete or
  /// CRC-failing frame at the WAL's end counts as torn: a snapshot or a
  /// CRC-checked record that does not decode fails Open, and then no
  /// file in the directory has changed.
  static Result<OpenResult> Open(FileEnv* env, const std::string& directory,
                                 const StorageOptions& options);

  /// Assigns the record the next LSN, enqueues it and returns its ticket.
  /// Never blocks and never touches the log.
  std::shared_ptr<CommitTicket> Submit(WalRecord record);

  /// Commits everything submitted so far (leading the batch if no other
  /// thread is) and waits for any batch in flight. Returns the sticky
  /// error, if any.
  Status Drain();

  /// Observer fired per durable record (replication shipping), on
  /// whichever thread leads the batch. Set before the first Submit.
  void set_durable_callback(DurableCallback callback);

  /// Records submitted and not yet taken into a batch.
  size_t QueueDepth() const;

  /// Drains, then writes `image` as the next generation's snapshot,
  /// rotates the WAL, and commits via CURRENT. On success the WAL is
  /// empty again. After a failed batch it returns that error and writes
  /// nothing.
  Status Checkpoint(const SnapshotImage& image);

  /// True when the automatic checkpoint threshold has been reached.
  bool CheckpointDue() const;

  /// Drains, then closes the log.
  Status Close();

  uint64_t generation() const { return generation_; }
  uint64_t records_since_checkpoint() const {
    return records_since_checkpoint_;
  }

  /// Log sequence number of the last durable logical/blob record: a
  /// monotonic per-attachment counter, seeded at recovery with the
  /// number of records replayed and bumped by every durable batch.
  /// Checkpoint rotation does NOT reset it — the LSN numbers the logical
  /// history, not the bytes of the current WAL file — which is what lets
  /// replication identify a position across WAL generations.
  uint64_t last_lsn() const { return last_lsn_; }
  const std::string& directory() const { return directory_; }

  std::string SnapshotPath(uint64_t generation) const;
  std::string WalPath(uint64_t generation) const;
  std::string CurrentPath() const;

  ~StorageEngine();

 private:
  friend struct CommitQueue;

  StorageEngine(FileEnv* env, std::string directory, StorageOptions options);

  /// Appends every record with one fsync; the leader's half of a batch.
  Status AppendBatch(const std::vector<WalRecord>& records);
  Status WriteCurrentFile(uint64_t generation);

  FileEnv* env_;
  std::string directory_;
  StorageOptions options_;
  uint64_t generation_ = 0;
  // Atomic because the batch leader bumps them from whichever waiter
  // thread wins the batch, after the session's writer lock has already
  // been released; concurrent readers poll last_lsn()/CheckpointDue()
  // under only the shared lock.
  std::atomic<uint64_t> records_since_checkpoint_{0};
  std::atomic<uint64_t> last_lsn_{0};
  std::unique_ptr<WalWriter> wal_;
  // Shared with the tickets, so a ticket outlives its engine.
  std::shared_ptr<CommitQueue> commits_;
};

/// QueueDepth() summed over every live engine (gea_stat_transactions'
/// commit.queue_depth).
size_t LiveCommitQueueDepth();

}  // namespace gea::store

#endif  // GEA_STORE_ENGINE_H_
