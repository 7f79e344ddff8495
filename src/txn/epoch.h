#ifndef GEA_TXN_EPOCH_H_
#define GEA_TXN_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "txn/snapshot.h"

namespace gea::txn {

class EpochManager;

/// RAII pin on one published epoch. While any pin on an epoch lives, every
/// table that epoch references stays allocated (the pin holds the
/// snapshot's shared_ptr), so a reader can dereference borrowed pointers
/// out of the snapshot for the pin's whole scope without any lock.
///
/// Copyable (a pin is just two refcounts); destruction of the last pin on
/// a retired epoch releases its tables.
class SnapshotPin {
 public:
  SnapshotPin() = default;
  ~SnapshotPin();

  SnapshotPin(const SnapshotPin& other);
  SnapshotPin& operator=(const SnapshotPin& other);
  SnapshotPin(SnapshotPin&& other) noexcept;
  SnapshotPin& operator=(SnapshotPin&& other) noexcept;

  const CatalogSnapshot& operator*() const { return *snapshot_; }
  const CatalogSnapshot* operator->() const { return snapshot_.get(); }
  const std::shared_ptr<const CatalogSnapshot>& snapshot() const {
    return snapshot_;
  }
  bool valid() const { return snapshot_ != nullptr; }
  uint64_t epoch() const { return snapshot_ ? snapshot_->epoch : 0; }

 private:
  friend class EpochManager;
  SnapshotPin(std::shared_ptr<const CatalogSnapshot> snapshot,
              std::shared_ptr<std::atomic<int64_t>> pinned);

  std::shared_ptr<const CatalogSnapshot> snapshot_;
  // Live-pin gauge shared with the manager; survives the manager so a
  // straggling pin can always decrement safely.
  std::shared_ptr<std::atomic<int64_t>> pinned_;
};

/// Publishes immutable CatalogSnapshot versions through one pointer swap
/// and hands out pins on the current one.
///
/// Concurrency contract:
///   - The current pointer sits under a mutex held only to copy or swap
///     it: Pin() is one shared_ptr copy under the lock plus a relaxed
///     gauge increment, and Publish() builds the new snapshot and drops
///     the old one outside the lock, so a reader never waits behind a
///     snapshot's construction or destruction. (libstdc++'s
///     std::atomic<std::shared_ptr> load unlocks its internal spin lock
///     with a relaxed store, which ThreadSanitizer reports as a race.)
///   - Publish() is called by at most one writer at a time (the session
///     serializes writers externally); it stamps the next epoch number,
///     swaps the pointer, and accounts the bytes the superseded snapshot
///     no longer shares with the new one as retired.
///   - Reclamation is deferred, not immediate: a retired epoch's tables
///     free when the last pin referencing them drops (shared_ptr
///     refcounts do the grace-period bookkeeping a classic epoch scheme
///     tracks manually).
///
/// Metrics: gea.txn.epochs_published, gea.txn.retired_bytes,
/// gea.txn.pinned_readers (gauge), gea.txn.live_epoch (gauge).
class EpochManager {
 public:
  EpochManager();
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Pins the current snapshot. Valid even before the first Publish()
  /// (an empty epoch-0 snapshot).
  SnapshotPin Pin() const;

  /// Stamps `next` with the next epoch number and makes it current.
  /// Returns the published epoch number. Caller must be the (single)
  /// writer.
  uint64_t Publish(CatalogSnapshot next);

  uint64_t CurrentEpoch() const;
  int64_t PinnedReaders() const {
    return pinned_->load(std::memory_order_relaxed);
  }

  /// Cumulative per-manager counters, for the stat view.
  uint64_t EpochsPublished() const {
    return published_.load(std::memory_order_relaxed);
  }
  uint64_t RetiredBytesTotal() const {
    return retired_bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const CatalogSnapshot> Current() const;

  mutable std::mutex mu_;  // guards current_
  std::shared_ptr<const CatalogSnapshot> current_;
  std::shared_ptr<std::atomic<int64_t>> pinned_;
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> retired_bytes_{0};
};

/// Registry of live EpochManagers feeding gea_stat_transactions; managers
/// register in their constructor and unregister in their destructor.
struct EpochManagerStats {
  uint64_t current_epoch = 0;
  int64_t pinned_readers = 0;
  uint64_t epochs_published = 0;
  uint64_t retired_bytes = 0;
};
std::vector<EpochManagerStats> LiveEpochManagerStats();

/// Idempotently registers the gea_stat_transactions stat-view provider.
/// Called from the EpochManager constructor so linking any epoch user
/// pulls the view in (a bare static initializer in statview.cc would be
/// dropped with its unreferenced object file).
void RegisterTransactionStatView();

}  // namespace gea::txn

#endif  // GEA_TXN_EPOCH_H_
