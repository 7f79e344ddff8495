#ifndef GEA_OBS_TRACE_H_
#define GEA_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/context.h"
#include "obs/metrics.h"

namespace gea::obs {

/// Scoped tracing for the GEA engine. A TraceSpan times a region and,
/// when it closes, appends a SpanRecord to the span sink of the calling
/// thread's RequestContext (obs/context.h); with no sink bound the span
/// is dropped. Spans nest through the context's parent_span, and
/// ParallelFor copies the caller's context into pool workers, so chunk
/// spans attach to the operator span that spawned them and land in the
/// same sink.
///
/// Enablement mirrors the metrics gate: programmatic override
/// (SetTraceOverride / ScopedTraceEnable) > GEA_TRACE env var (read once)
/// > off. A disabled TraceSpan costs one relaxed load.

bool TraceEnabled();
void SetTraceOverride(std::optional<bool> enabled);

class ScopedTraceEnable {
 public:
  explicit ScopedTraceEnable(bool enabled);
  ~ScopedTraceEnable();

  ScopedTraceEnable(const ScopedTraceEnable&) = delete;
  ScopedTraceEnable& operator=(const ScopedTraceEnable&) = delete;

 private:
  bool previous_;
};

/// One finished span.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0 = no parent inside the trace
  std::string name;
  uint64_t start_nanos = 0;     // NowNanos() at open
  uint64_t duration_nanos = 0;  // close - open
  uint64_t trace_id = 0;        // request trace this span belongs to (0 = none)
  uint32_t tid = 0;             // CurrentThreadId() of the recording thread
};

/// Small dense id for the calling thread (1, 2, 3, ... in first-use
/// order). Stable for the thread's lifetime; used to place spans on real
/// thread tracks in trace exports without leaking OS thread handles.
uint32_t CurrentThreadId();

/// Where a request's spans go. Locked, because a request's pool helpers
/// append at the same time as its own thread.
struct SpanSink {
  std::mutex mu;
  std::vector<SpanRecord> spans;
};

/// Copies the spans `sink` holds from index `first` on, sorted by
/// (start_nanos, id).
std::vector<SpanRecord> CopySpans(SpanSink& sink, size_t first = 0);

/// True when spans should be recorded on this thread: the global gate is
/// on, or the bound request is sampled.
bool SpanRecordingEnabled();

/// RAII scoped timing: opens on construction, records on destruction.
/// When tracing is disabled the constructor is a relaxed load and the
/// destructor a branch.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// 0 when tracing was off at construction.
  uint64_t id() const { return id_; }

 private:
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t start_ = 0;
  std::string name_;
};

/// The EXPLAIN payload of one operator invocation: wall time, the spans
/// closed during it, and every counter the invocation moved.
struct OperationProfile {
  std::string operation;
  uint64_t elapsed_nanos = 0;
  std::vector<SpanRecord> spans;      // sorted by (start, id)
  std::vector<CounterDelta> counters; // non-zero deltas, sorted by name

  /// Renders the nested span tree plus the counter table:
  ///   populate ................ 12.345 ms
  ///     parallel_for .......... 10.001 ms
  ///       chunk ...............  5.000 ms
  ///   counters:
  ///     gea.populate.rows_materialized  35
  std::string Render() const;
};

/// Captures one operation: snapshots the counters on construction,
/// wraps the operation in a root span named after it, and assembles the
/// OperationProfile in Finish(). Inside a served request the spans go to
/// the request's sink and the capture keeps the slice recorded since its
/// construction; with no sink bound (direct library use) it binds a sink
/// of its own for its lifetime.
class OperationCapture {
 public:
  explicit OperationCapture(std::string operation);

  OperationCapture(const OperationCapture&) = delete;
  OperationCapture& operator=(const OperationCapture&) = delete;

  /// Closes the root span, copies the spans recorded since construction
  /// and diffs the counters. Call exactly once.
  OperationProfile Finish();

 private:
  std::string operation_;
  uint64_t start_nanos_ = 0;
  MetricsSnapshot before_;
  bool metrics_on_ = false;
  SpanSink* sink_ = nullptr;  // null when spans were off at construction
  size_t first_span_ = 0;     // sink size at construction
  // Declared in this order so the root span closes into the sink before
  // the scope that binds it is restored.
  SpanSink own_sink_;  // bound only when none was
  std::optional<ContextScope> own_scope_;
  std::optional<TraceSpan> root_;
};

}  // namespace gea::obs

#endif  // GEA_OBS_TRACE_H_
