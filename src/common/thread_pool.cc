#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gea {

namespace {

/// Set while the calling thread is executing a ParallelFor chunk (on any
/// pool). Nested ParallelFor calls detect it and degrade to inline serial
/// execution instead of blocking a worker on work only workers can run.
thread_local bool t_in_parallel_region = false;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  static obs::Counter& tasks_submitted =
      obs::MetricsRegistry::Global().GetCounter("gea.pool.tasks_submitted");
  static obs::Counter& tasks_inline =
      obs::MetricsRegistry::Global().GetCounter("gea.pool.tasks_inline");
  static obs::Histogram& queue_wait =
      obs::MetricsRegistry::Global().GetHistogram("gea.pool.queue_wait_nanos");
  if (workers_.empty()) {
    tasks_inline.Add();
    task();
    return;
  }
  tasks_submitted.Add();
  if (obs::MetricsEnabled()) {
    // Time from enqueue to the worker picking the task up.
    const uint64_t enqueue_nanos = obs::NowNanos();
    task = [inner = std::move(task), enqueue_nanos] {
      queue_wait.Record(obs::NowNanos() - enqueue_nanos);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      queue_.push_back(std::move(task));
      task = nullptr;
    }
  }
  if (task) {
    // Late submit during teardown: run inline rather than drop.
    task();
    return;
  }
  cv_.notify_one();
}

size_t ThreadPool::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

std::optional<size_t>& ThreadOverrideSlot() {
  static std::optional<size_t> override;
  return override;
}

size_t HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t EnvThreads() {
  static const size_t cached = [] {
    std::optional<size_t> parsed = ParseThreadCount(std::getenv("GEA_THREADS"));
    return parsed.value_or(HardwareThreads());
  }();
  return cached;
}

}  // namespace

std::optional<size_t> ParseThreadCount(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  std::string value(text);
  if (value == "serial") return 1;
  char* end = nullptr;
  long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') return std::nullopt;  // garbage
  if (parsed <= 0) return std::nullopt;  // 0 / negative: hardware default
  return std::min(static_cast<size_t>(parsed), kMaxThreads);
}

size_t ConfiguredThreads() {
  const std::optional<size_t>& override = ThreadOverrideSlot();
  if (override.has_value()) return std::min(*override, kMaxThreads);
  return EnvThreads();
}

void SetThreadOverride(std::optional<size_t> num_threads) {
  if (num_threads.has_value() && *num_threads == 0) num_threads = 1;
  ThreadOverrideSlot() = num_threads;
}

ThreadCountOverride::ThreadCountOverride(size_t num_threads)
    : previous_(ThreadOverrideSlot()) {
  SetThreadOverride(num_threads);
}

ThreadCountOverride::~ThreadCountOverride() {
  ThreadOverrideSlot() = previous_;
}

namespace {

// The shared-pool slot, hoisted out of SharedThreadPool() so the
// non-creating observer below can read it too.
std::mutex g_shared_pool_mu;
std::atomic<ThreadPool*> g_shared_pool{nullptr};

}  // namespace

ThreadPool& SharedThreadPool() {
  // The pool is grown (rebuilt) when a larger thread count is configured
  // and intentionally leaked: parallel operators may run during static
  // destruction of callers, and joining workers at exit is not worth the
  // shutdown-order hazard.
  size_t want = ConfiguredThreads();
  ThreadPool* current = g_shared_pool.load(std::memory_order_acquire);
  if (current != nullptr && current->NumThreads() >= want) return *current;
  std::lock_guard<std::mutex> lock(g_shared_pool_mu);
  current = g_shared_pool.load(std::memory_order_relaxed);
  if (current == nullptr || current->NumThreads() < want) {
    // Leak the old pool too: chunks from a concurrent ParallelFor could
    // still reference it. Growth events are rare (test overrides only).
    ThreadPool* grown = new ThreadPool(want);
    g_shared_pool.store(grown, std::memory_order_release);
    current = grown;
  }
  return *current;
}

const ThreadPool* SharedThreadPoolIfStarted() {
  return g_shared_pool.load(std::memory_order_acquire);
}

namespace {

bool& ForceParallelHelpersSlot() {
  static bool force = [] {
    const char* env = std::getenv("GEA_FORCE_PARALLEL");
    return env != nullptr && *env != '\0';
  }();
  return force;
}

}  // namespace

ForceParallelHelpersScope::ForceParallelHelpersScope()
    : previous_(ForceParallelHelpersSlot()) {
  ForceParallelHelpersSlot() = true;
}

ForceParallelHelpersScope::~ForceParallelHelpersScope() {
  ForceParallelHelpersSlot() = previous_;
}

void ParallelFor(size_t begin, size_t end, size_t min_grain,
                 const std::function<void(size_t, size_t)>& body) {
  if (begin >= end) return;
  static obs::Counter& pf_calls =
      obs::MetricsRegistry::Global().GetCounter("gea.parallel_for.calls");
  static obs::Counter& pf_serial =
      obs::MetricsRegistry::Global().GetCounter(
          "gea.parallel_for.serial_inline");
  static obs::Counter& pf_chunks =
      obs::MetricsRegistry::Global().GetCounter("gea.parallel_for.chunks");
  static obs::Histogram& pf_chunk_nanos =
      obs::MetricsRegistry::Global().GetHistogram(
          "gea.parallel_for.chunk_nanos");
  static obs::Histogram& pf_imbalance =
      obs::MetricsRegistry::Global().GetHistogram(
          "gea.parallel_for.imbalance_nanos");
  pf_calls.Add();
  const size_t n = end - begin;
  if (min_grain == 0) min_grain = 1;
  const size_t threads = ConfiguredThreads();
  // Serial paths: forced-serial mode, too little work to split, or a
  // nested call from inside a chunk (running it inline keeps the outer
  // chunk's worker making progress and cannot deadlock the fixed pool).
  size_t chunks = std::min(threads, n / min_grain);
  if (threads <= 1 || chunks <= 1 || t_in_parallel_region) {
    pf_serial.Add();
    bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      body(begin, end);
    } catch (...) {
      t_in_parallel_region = was_in_region;
      throw;
    }
    t_in_parallel_region = was_in_region;
    return;
  }

  // With one hardware thread, pool helpers can only timeshare the core:
  // every handoff is a context switch that overlaps nothing, and on slow
  // schedulers it dominates the region. Keep the chunk partition (results
  // and first-error order depend on it) but run every chunk inline via
  // the caller's claim loop below. GEA_FORCE_PARALLEL or
  // ForceParallelHelpersScope (TSan tests) restores real helpers.
  const bool inline_only =
      HardwareThreads() <= 1 && !ForceParallelHelpersSlot();
  ThreadPool* pool = inline_only ? nullptr : &SharedThreadPool();

  pf_chunks.Add(chunks);
  obs::TraceSpan pf_span("parallel_for");
  // Chunks may run on pool workers under a copy of the caller's request
  // context, taken after the parallel_for span opened so chunk spans nest
  // under it and land in the caller's sink. Every chunk finishes before
  // ParallelFor returns, so its pointers never outlive the frame that
  // owns them. Stages stay with the caller: StageNanos is not atomic, and
  // a helper's lock wait would overlap the caller's execute stage.
  obs::RequestContext helper_context = obs::CurrentContext();
  helper_context.stages = nullptr;
  const bool metrics = obs::MetricsEnabled();

  struct State {
    std::mutex mu;
    std::condition_variable done_cv;
    size_t remaining;
    // Next unclaimed chunk index. Chunks are *claimed*, not assigned:
    // helper tasks and the caller race on this counter, so on a busy or
    // single-core pool the caller just runs everything inline instead of
    // paying a queue handoff. Chunk boundaries stay deterministic; which
    // thread runs a chunk never affects results (disjoint slots).
    std::atomic<size_t> next{0};
    // First exception in chunk order, so a failure rethrows the same
    // exception regardless of scheduling.
    std::vector<std::exception_ptr> errors;
    // Per-chunk wall time (written under mu), for the imbalance metric.
    std::vector<uint64_t> chunk_elapsed;
  };
  // Shared so a helper task that loses the race entirely (drains no
  // chunks because the caller already claimed them) can still run safely
  // after ParallelFor returned.
  auto state = std::make_shared<State>();
  state->remaining = chunks;
  state->errors.resize(chunks);
  state->chunk_elapsed.resize(chunks);

  // Deterministic chunk boundaries: chunk c covers
  // [begin + c*n/chunks, begin + (c+1)*n/chunks). `body` is only safe to
  // touch while the caller is still inside this call, which is guaranteed
  // because every chunk finishes before the final wait returns.
  const auto run_chunk = [&body, begin, n, chunks, metrics](State& s,
                                                           size_t c) {
    const size_t chunk_begin = begin + n * c / chunks;
    const size_t chunk_end = begin + n * (c + 1) / chunks;
    const uint64_t chunk_start = metrics ? obs::NowNanos() : 0;
    {
      obs::TraceSpan chunk_span("chunk");
      try {
        body(chunk_begin, chunk_end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(s.mu);
        s.errors[c] = std::current_exception();
      }
    }
    std::lock_guard<std::mutex> lock(s.mu);
    if (metrics) s.chunk_elapsed[c] = obs::NowNanos() - chunk_start;
    if (--s.remaining == 0) s.done_cv.notify_all();
  };

  const size_t helpers =
      pool == nullptr ? 0 : std::min(chunks - 1, pool->NumThreads());
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state, run_chunk, chunks, helper_context] {
      bool was_in_region = t_in_parallel_region;
      t_in_parallel_region = true;
      obs::ContextScope context_scope(helper_context);
      for (;;) {
        const size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
        if (c >= chunks) break;
        run_chunk(*state, c);
      }
      t_in_parallel_region = was_in_region;
    });
  }

  {
    bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    for (;;) {
      const size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      run_chunk(*state, c);
    }
    t_in_parallel_region = was_in_region;
  }

  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&state] { return state->remaining == 0; });
  }
  if (metrics) {
    uint64_t min_elapsed = UINT64_MAX;
    uint64_t max_elapsed = 0;
    for (uint64_t elapsed : state->chunk_elapsed) {
      pf_chunk_nanos.Record(elapsed);
      min_elapsed = std::min(min_elapsed, elapsed);
      max_elapsed = std::max(max_elapsed, elapsed);
    }
    pf_imbalance.Record(max_elapsed - min_elapsed);
  }
  for (std::exception_ptr& error : state->errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace gea
