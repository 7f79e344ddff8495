#ifndef GEA_COMMON_THREAD_POOL_H_
#define GEA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace gea {

/// A fixed-size thread pool. No work stealing: tasks are taken from one
/// shared FIFO queue, which keeps the implementation small and makes the
/// per-task overhead predictable. Operators never use the pool directly —
/// they go through ParallelFor(), which owns the chunking and the
/// determinism guarantees (see DESIGN.md, "Parallel execution model").
class ThreadPool {
 public:
  /// Starts `num_threads` workers. `num_threads == 0` creates a pool with
  /// no workers; Submit() then runs tasks inline on the calling thread.
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue and joins all workers. Tasks already queued still
  /// run; new Submit() calls after shutdown started run inline.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t NumThreads() const { return workers_.size(); }

  /// Tasks currently queued (not yet picked up by a worker). Takes the
  /// queue lock; a monitoring-path accessor, not a hot-path one.
  size_t QueueDepth() const;

  /// Enqueues `task`. The task must not throw out of the pool: wrap the
  /// user body and capture exceptions on the submitting side (ParallelFor
  /// does this). A task submitted from inside a worker is queued like any
  /// other, so a worker that waits on tasks it submitted can deadlock the
  /// pool; ParallelFor runs nested calls inline instead.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
};

/// Number of threads parallel operators use, resolved in priority order:
///  1. the programmatic override (SetThreadOverride / ThreadCountOverride),
///  2. the GEA_THREADS environment variable (read once, at first use),
///  3. std::thread::hardware_concurrency().
/// A value of 1 means forced-serial: ParallelFor runs its body inline on
/// the calling thread and never touches the pool.
size_t ConfiguredThreads();

/// Parses a GEA_THREADS-style value: "" / "0" / garbage -> nullopt (use
/// the hardware default), "serial" -> 1, otherwise the integer clamped to
/// [1, kMaxThreads]. Exposed for tests.
std::optional<size_t> ParseThreadCount(const char* text);

/// Upper bound on the configured thread count (queue and chunking sanity).
inline constexpr size_t kMaxThreads = 256;

/// Sets (or, with nullopt, clears) the programmatic thread-count override.
/// Thread-compatible: call from one thread while no ParallelFor is live.
void SetThreadOverride(std::optional<size_t> num_threads);

/// RAII override for tests and benchmarks:
///   ThreadCountOverride serial(1);   // forced-serial scope
 class ThreadCountOverride {
 public:
  explicit ThreadCountOverride(size_t num_threads);
  ~ThreadCountOverride();

  ThreadCountOverride(const ThreadCountOverride&) = delete;
  ThreadCountOverride& operator=(const ThreadCountOverride&) = delete;

 private:
  std::optional<size_t> previous_;
};

/// The process-wide pool shared by all parallel operators. Created lazily
/// on first use; grown (never shrunk) when the configured thread count
/// rises past the current worker count.
ThreadPool& SharedThreadPool();

/// On a machine with a single hardware thread, ParallelFor keeps its
/// chunk partition (so results and error order are unchanged) but runs
/// every chunk on the calling thread: pool helpers could only timeshare
/// the one core, so each handoff would be a context switch with nothing
/// overlapped. This scope forces helpers on anyway — for tests that need
/// real cross-thread execution (TSan interleaving coverage) regardless
/// of the host's core count. The GEA_FORCE_PARALLEL environment variable
/// (any non-empty value) does the same process-wide.
/// Thread-compatible: call from one thread while no ParallelFor is live.
class ForceParallelHelpersScope {
 public:
  ForceParallelHelpersScope();
  ~ForceParallelHelpersScope();

  ForceParallelHelpersScope(const ForceParallelHelpersScope&) = delete;
  ForceParallelHelpersScope& operator=(const ForceParallelHelpersScope&) =
      delete;

 private:
  bool previous_;
};

/// The shared pool if one has been created, else nullptr. Never creates
/// workers — the stat views and the monitoring endpoint report through
/// this so that *observing* the pool cannot start it.
const ThreadPool* SharedThreadPoolIfStarted();

/// Runs `body(chunk_begin, chunk_end)` over contiguous chunks covering
/// [begin, end). Guarantees, relied on for bit-identical serial/parallel
/// results:
///  * every index is covered by exactly one chunk, chunks are contiguous
///    and ascending, so per-item work is identical to the serial loop as
///    long as the body treats items independently;
///  * no chunk is smaller than `min_grain` items (except the last);
///  * with ConfiguredThreads() == 1, fewer than 2 chunks of work, or when
///    called from inside a pool worker (nested parallelism), the body runs
///    inline as body(begin, end) on the calling thread;
///  * exceptions thrown by any chunk are captured and the first one (in
///    chunk order) is rethrown on the calling thread after all chunks
///    finished.
/// The body must not touch shared mutable state except through disjoint
/// per-index slots.
void ParallelFor(size_t begin, size_t end, size_t min_grain,
                 const std::function<void(size_t, size_t)>& body);

}  // namespace gea

#endif  // GEA_COMMON_THREAD_POOL_H_
