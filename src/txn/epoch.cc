#include "txn/epoch.h"

#include <mutex>
#include <set>

#include "obs/metrics.h"

namespace gea::txn {

namespace {

obs::Gauge& PinnedGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("gea.txn.pinned_readers");
  return gauge;
}

std::mutex& RegistryMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::set<const EpochManager*>& Registry() {
  static auto* managers = new std::set<const EpochManager*>;
  return *managers;
}

}  // namespace

SnapshotPin::SnapshotPin(std::shared_ptr<const CatalogSnapshot> snapshot,
                         std::shared_ptr<std::atomic<int64_t>> pinned)
    : snapshot_(std::move(snapshot)), pinned_(std::move(pinned)) {
  if (pinned_) {
    pinned_->fetch_add(1, std::memory_order_relaxed);
    PinnedGauge().Add(1);
  }
}

SnapshotPin::~SnapshotPin() {
  if (pinned_) {
    pinned_->fetch_sub(1, std::memory_order_relaxed);
    PinnedGauge().Add(-1);
  }
}

SnapshotPin::SnapshotPin(const SnapshotPin& other)
    : snapshot_(other.snapshot_), pinned_(other.pinned_) {
  if (pinned_) {
    pinned_->fetch_add(1, std::memory_order_relaxed);
    PinnedGauge().Add(1);
  }
}

SnapshotPin& SnapshotPin::operator=(const SnapshotPin& other) {
  if (this == &other) return *this;
  SnapshotPin copy(other);
  *this = std::move(copy);
  return *this;
}

SnapshotPin::SnapshotPin(SnapshotPin&& other) noexcept
    : snapshot_(std::move(other.snapshot_)), pinned_(std::move(other.pinned_)) {
  other.snapshot_.reset();
  other.pinned_.reset();
}

SnapshotPin& SnapshotPin::operator=(SnapshotPin&& other) noexcept {
  if (this == &other) return *this;
  if (pinned_) {
    pinned_->fetch_sub(1, std::memory_order_relaxed);
    PinnedGauge().Add(-1);
  }
  snapshot_ = std::move(other.snapshot_);
  pinned_ = std::move(other.pinned_);
  other.snapshot_.reset();
  other.pinned_.reset();
  return *this;
}

EpochManager::EpochManager()
    : current_(std::make_shared<const CatalogSnapshot>()),
      pinned_(std::make_shared<std::atomic<int64_t>>(0)) {
  RegisterTransactionStatView();
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry().insert(this);
}

EpochManager::~EpochManager() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry().erase(this);
}

std::shared_ptr<const CatalogSnapshot> EpochManager::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

SnapshotPin EpochManager::Pin() const {
  return SnapshotPin(Current(), pinned_);
}

uint64_t EpochManager::Publish(CatalogSnapshot next) {
  const std::shared_ptr<const CatalogSnapshot> prev = Current();
  next.epoch = prev->epoch + 1;
  const uint64_t epoch = next.epoch;
  const uint64_t retired = RetiredBytes(*prev, next);

  std::shared_ptr<const CatalogSnapshot> published =
      std::make_shared<const CatalogSnapshot>(std::move(next));
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_.swap(published);
  }
  // `published` and `prev` now hold the superseded snapshot. Dropping
  // them here, outside the lock, frees it unless a pin still holds it.

  published_.fetch_add(1, std::memory_order_relaxed);
  retired_bytes_.fetch_add(retired, std::memory_order_relaxed);
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter& epochs_published =
      registry.GetCounter("gea.txn.epochs_published");
  static obs::Counter& retired_bytes =
      registry.GetCounter("gea.txn.retired_bytes");
  static obs::Gauge& live_epoch = registry.GetGauge("gea.txn.live_epoch");
  epochs_published.Add(1);
  retired_bytes.Add(retired);
  live_epoch.Set(static_cast<int64_t>(epoch));
  return epoch;
}

uint64_t EpochManager::CurrentEpoch() const { return Current()->epoch; }

std::vector<EpochManagerStats> LiveEpochManagerStats() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<EpochManagerStats> stats;
  stats.reserve(Registry().size());
  for (const EpochManager* manager : Registry()) {
    EpochManagerStats s;
    s.current_epoch = manager->CurrentEpoch();
    s.pinned_readers = manager->PinnedReaders();
    s.epochs_published = manager->EpochsPublished();
    s.retired_bytes = manager->RetiredBytesTotal();
    stats.push_back(s);
  }
  return stats;
}

}  // namespace gea::txn
