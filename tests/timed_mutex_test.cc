// Tests for the instrumented mutex wrappers (common/timed_mutex.h):
// standard-lockable semantics, wait-time attribution into the registry
// histograms and the per-request lock_wait stage, and the zero-clock
// uncontended fast path. The "parallel" ctest label re-runs this under
// TSan, where the reader/writer stampede below must come out clean.

#include "common/timed_mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace gea {
namespace {

using obs::MetricsRegistry;
using obs::RequestStage;

TEST(TimedMutexTest, SatisfiesStandardLockableConcepts) {
  SharedTimedMutex shared_mu("test.lock.concepts_shared");
  {
    std::unique_lock<SharedTimedMutex> write(shared_mu);
    EXPECT_TRUE(write.owns_lock());
  }
  {
    std::shared_lock<SharedTimedMutex> read_a(shared_mu);
    std::shared_lock<SharedTimedMutex> read_b(shared_mu);  // readers share
    EXPECT_TRUE(read_a.owns_lock());
    EXPECT_TRUE(read_b.owns_lock());
  }

  TimedMutex mu("test.lock.concepts_plain");
  {
    std::lock_guard<TimedMutex> guard(mu);
  }
  // condition_variable_any works over the wrapper, the way the server's
  // admission queue uses it.
  std::condition_variable_any cv;
  bool ready = false;
  std::thread signaller([&] {
    std::lock_guard<TimedMutex> guard(mu);
    ready = true;
    cv.notify_one();
  });
  {
    std::unique_lock<TimedMutex> lock(mu);
    cv.wait(lock, [&] { return ready; });
  }
  signaller.join();
}

TEST(TimedMutexTest, ContendedWriteRecordsHistogramAndStage) {
  obs::ScopedMetricsEnable metrics(true);
  obs::Histogram& write_waits = MetricsRegistry::Global().GetHistogram(
      "test.lock.contended.write_wait_nanos");
  obs::Histogram& read_waits = MetricsRegistry::Global().GetHistogram(
      "test.lock.contended.read_wait_nanos");
  const uint64_t writes_before = write_waits.Count();
  const uint64_t reads_before = read_waits.Count();

  SharedTimedMutex mu("test.lock.contended");
  std::mutex state_mu;
  std::condition_variable cv;
  bool held = false;

  std::thread holder([&] {
    std::shared_lock<SharedTimedMutex> read(mu);
    {
      std::lock_guard<std::mutex> lock(state_mu);
      held = true;
    }
    cv.notify_one();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  {
    std::unique_lock<std::mutex> lock(state_mu);
    cv.wait(lock, [&] { return held; });
  }

  // The writer blocks behind the sleeping reader: the wait lands in the
  // write histogram AND in the thread's lock_wait stage accumulator.
  obs::StageNanos stages;
  obs::ContextScope context({.stages = &stages});
  {
    std::unique_lock<SharedTimedMutex> write(mu);
  }
  holder.join();

  EXPECT_EQ(write_waits.Count(), writes_before + 1);
  EXPECT_EQ(read_waits.Count(), reads_before);
  const uint64_t waited = stages[RequestStage::kLockWait];
  EXPECT_GE(waited, 10'000'000u);  // slept 30ms; allow generous clock slop
}

TEST(TimedMutexTest, ContendedReadRecordsReadHistogram) {
  obs::ScopedMetricsEnable metrics(true);
  obs::Histogram& read_waits = MetricsRegistry::Global().GetHistogram(
      "test.lock.rcontended.read_wait_nanos");
  const uint64_t reads_before = read_waits.Count();

  SharedTimedMutex mu("test.lock.rcontended");
  std::mutex state_mu;
  std::condition_variable cv;
  bool held = false;

  std::thread writer([&] {
    std::unique_lock<SharedTimedMutex> write(mu);
    {
      std::lock_guard<std::mutex> lock(state_mu);
      held = true;
    }
    cv.notify_one();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  {
    std::unique_lock<std::mutex> lock(state_mu);
    cv.wait(lock, [&] { return held; });
  }
  {
    std::shared_lock<SharedTimedMutex> read(mu);
  }
  writer.join();

  EXPECT_EQ(read_waits.Count(), reads_before + 1);
}

TEST(TimedMutexTest, UncontendedAcquisitionRecordsNothing) {
  obs::ScopedMetricsEnable metrics(true);
  obs::Histogram& write_waits = MetricsRegistry::Global().GetHistogram(
      "test.lock.quiet.write_wait_nanos");
  obs::Histogram& read_waits = MetricsRegistry::Global().GetHistogram(
      "test.lock.quiet.read_wait_nanos");
  obs::Histogram& plain_waits =
      MetricsRegistry::Global().GetHistogram("test.lock.quiet_plain.wait_nanos");
  const uint64_t writes_before = write_waits.Count();
  const uint64_t reads_before = read_waits.Count();
  const uint64_t plain_before = plain_waits.Count();

  SharedTimedMutex mu("test.lock.quiet");
  for (int i = 0; i < 100; ++i) {
    std::unique_lock<SharedTimedMutex> write(mu);
  }
  for (int i = 0; i < 100; ++i) {
    std::shared_lock<SharedTimedMutex> read(mu);
  }
  TimedMutex plain("test.lock.quiet_plain");
  for (int i = 0; i < 100; ++i) {
    std::lock_guard<TimedMutex> guard(plain);
  }

  // The try-lock fast path succeeded every time: no waits recorded.
  EXPECT_EQ(write_waits.Count(), writes_before);
  EXPECT_EQ(read_waits.Count(), reads_before);
  EXPECT_EQ(plain_waits.Count(), plain_before);
}

TEST(TimedMutexTest, ReaderWriterStampedeStaysConsistent) {
  obs::ScopedMetricsEnable metrics(true);
  SharedTimedMutex mu("test.lock.stampede");
  int64_t protected_value = 0;
  std::atomic<bool> mismatch{false};

  constexpr int kWriters = 2;
  constexpr int kReaders = 6;
  constexpr int kIterations = 400;

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        std::unique_lock<SharedTimedMutex> write(mu);
        // Two increments with a gap: a reader seeing an odd value means
        // the exclusive lock failed.
        ++protected_value;
        ++protected_value;
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        std::shared_lock<SharedTimedMutex> read(mu);
        if (protected_value % 2 != 0) mismatch.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(protected_value, kWriters * kIterations * 2);
}

}  // namespace
}  // namespace gea
