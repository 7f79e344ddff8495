#ifndef GEA_COMMON_TIMED_MUTEX_H_
#define GEA_COMMON_TIMED_MUTEX_H_

#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace gea {

/// Lock-wait profiling wrappers. Both classes satisfy the Lockable /
/// SharedLockable named requirements, so std::unique_lock,
/// std::shared_lock, std::lock_guard and std::condition_variable_any
/// work unchanged — swap the mutex type and the waits become data.
///
/// The fast path is a try_lock: an uncontended acquisition costs exactly
/// what the raw mutex costs, with no clock reads. Only when the try
/// fails (someone actually holds the lock) does the wrapper read the
/// clock around the blocking acquire, record the wait into a registry
/// histogram, and add it to the active request's `lock_wait` stage via
/// the request context's stages (a no-op off the serve path). Histogram
/// recording itself is gated on GEA_METRICS like every other metric.

/// std::shared_mutex with read/write acquisition waits recorded into
/// `<name>.read_wait_nanos` / `<name>.write_wait_nanos`.
class SharedTimedMutex {
 public:
  explicit SharedTimedMutex(const std::string& name)
      : read_wait_(obs::MetricsRegistry::Global().GetHistogram(
            name + ".read_wait_nanos")),
        write_wait_(obs::MetricsRegistry::Global().GetHistogram(
            name + ".write_wait_nanos")) {}

  SharedTimedMutex(const SharedTimedMutex&) = delete;
  SharedTimedMutex& operator=(const SharedTimedMutex&) = delete;

  void lock() {
    if (mu_.try_lock()) return;
    const uint64_t start = obs::NowNanos();
    mu_.lock();
    RecordWait(write_wait_, obs::NowNanos() - start);
  }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }

  void lock_shared() {
    if (mu_.try_lock_shared()) return;
    const uint64_t start = obs::NowNanos();
    mu_.lock_shared();
    RecordWait(read_wait_, obs::NowNanos() - start);
  }
  bool try_lock_shared() { return mu_.try_lock_shared(); }
  void unlock_shared() { mu_.unlock_shared(); }

 private:
  static void RecordWait(obs::Histogram& histogram, uint64_t wait) {
    histogram.Record(wait);
    obs::AddStageNanos(obs::RequestStage::kLockWait, wait);
  }

  std::shared_mutex mu_;
  obs::Histogram& read_wait_;
  obs::Histogram& write_wait_;
};

/// std::mutex with acquisition waits recorded into `<name>.wait_nanos`.
class TimedMutex {
 public:
  explicit TimedMutex(const std::string& name)
      : wait_(obs::MetricsRegistry::Global().GetHistogram(
            name + ".wait_nanos")) {}

  TimedMutex(const TimedMutex&) = delete;
  TimedMutex& operator=(const TimedMutex&) = delete;

  void lock() {
    if (mu_.try_lock()) return;
    const uint64_t start = obs::NowNanos();
    mu_.lock();
    const uint64_t wait = obs::NowNanos() - start;
    wait_.Record(wait);
    obs::AddStageNanos(obs::RequestStage::kLockWait, wait);
  }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }

 private:
  std::mutex mu_;
  obs::Histogram& wait_;
};

}  // namespace gea

#endif  // GEA_COMMON_TIMED_MUTEX_H_
