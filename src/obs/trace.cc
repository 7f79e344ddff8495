#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace gea::obs {

namespace {

/// Effective trace state: -1 unresolved (resolve GEA_TRACE on first
/// read), 0 off, 1 on. Mirrors g_metrics_state in metrics.cc.
std::atomic<int> g_trace_state{-1};

int EnvTraceState() {
  static const int cached =
      internal::ParseBoolFlag(std::getenv("GEA_TRACE")) ? 1 : 0;
  return cached;
}

/// Global span-id allocator; 0 is reserved for "no span".
std::atomic<uint64_t> g_next_span_id{1};

/// Dense thread-id allocator; 0 is reserved for "unknown".
std::atomic<uint32_t> g_next_thread_id{1};

}  // namespace

uint32_t CurrentThreadId() {
  thread_local const uint32_t t_id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return t_id;
}

bool SpanRecordingEnabled() {
  return TraceEnabled() || CurrentContext().sampled;
}

bool TraceEnabled() {
  int state = g_trace_state.load(std::memory_order_relaxed);
  if (state < 0) {
    state = EnvTraceState();
    g_trace_state.store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

void SetTraceOverride(std::optional<bool> enabled) {
  g_trace_state.store(
      enabled.has_value() ? (*enabled ? 1 : 0) : EnvTraceState(),
      std::memory_order_relaxed);
}

ScopedTraceEnable::ScopedTraceEnable(bool enabled)
    : previous_(TraceEnabled()) {
  SetTraceOverride(enabled);
}

ScopedTraceEnable::~ScopedTraceEnable() { SetTraceOverride(previous_); }

std::vector<SpanRecord> CopySpans(SpanSink& sink, size_t first) {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    if (first < sink.spans.size()) {
      out.assign(sink.spans.begin() + static_cast<std::ptrdiff_t>(first),
                 sink.spans.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_nanos != b.start_nanos
                         ? a.start_nanos < b.start_nanos
                         : a.id < b.id;
            });
  return out;
}

TraceSpan::TraceSpan(std::string_view name) {
  if (!SpanRecordingEnabled()) return;
  RequestContext& context = CurrentContext();
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = context.parent_span;
  context.parent_span = id_;
  name_ = name;
  start_ = NowNanos();
}

TraceSpan::~TraceSpan() {
  if (id_ == 0) return;
  const uint64_t end = NowNanos();
  RequestContext& context = CurrentContext();
  context.parent_span = parent_;
  if (context.spans == nullptr) return;  // nobody collects: dropped
  SpanRecord record;
  record.id = id_;
  record.parent_id = parent_;
  record.name = std::move(name_);
  record.start_nanos = start_;
  record.duration_nanos = end - start_;
  record.trace_id = context.trace_id;
  record.tid = CurrentThreadId();
  std::lock_guard<std::mutex> lock(context.spans->mu);
  context.spans->spans.push_back(std::move(record));
}

namespace {

void RenderSpanTree(const std::vector<SpanRecord>& spans, uint64_t parent,
                    int depth, std::string& out) {
  for (const SpanRecord& span : spans) {
    if (span.parent_id != parent) continue;
    char line[256];
    std::snprintf(line, sizeof(line), "%*s%s  %.3f ms\n", depth * 2, "",
                  span.name.c_str(),
                  static_cast<double>(span.duration_nanos) / 1e6);
    out += line;
    if (span.id != 0) RenderSpanTree(spans, span.id, depth + 1, out);
  }
}

}  // namespace

std::string OperationProfile::Render() const {
  std::string out = operation;
  {
    char line[64];
    std::snprintf(line, sizeof(line), "  %.3f ms\n",
                  static_cast<double>(elapsed_nanos) / 1e6);
    out += line;
  }
  if (!spans.empty()) {
    out += "spans:\n";
    // Roots: spans whose parent is not in this profile (the operation's
    // root span has parent 0 or some span outside the capture window).
    std::vector<uint64_t> ids;
    ids.reserve(spans.size());
    for (const SpanRecord& span : spans) ids.push_back(span.id);
    std::sort(ids.begin(), ids.end());
    for (const SpanRecord& span : spans) {
      if (std::binary_search(ids.begin(), ids.end(), span.parent_id)) continue;
      char line[256];
      std::snprintf(line, sizeof(line), "  %s  %.3f ms\n", span.name.c_str(),
                    static_cast<double>(span.duration_nanos) / 1e6);
      out += line;
      RenderSpanTree(spans, span.id, 2, out);
    }
  }
  if (!counters.empty()) {
    out += "counters:\n";
    size_t width = 0;
    for (const CounterDelta& c : counters) width = std::max(width, c.name.size());
    for (const CounterDelta& c : counters) {
      char line[256];
      std::snprintf(line, sizeof(line), "  %-*s  %llu\n",
                    static_cast<int>(width), c.name.c_str(),
                    static_cast<unsigned long long>(c.delta));
      out += line;
    }
  }
  return out;
}

OperationCapture::OperationCapture(std::string operation)
    : operation_(std::move(operation)),
      start_nanos_(NowNanos()),
      metrics_on_(MetricsEnabled()) {
  if (metrics_on_) before_ = MetricsRegistry::Global().Snapshot();
  if (!SpanRecordingEnabled()) return;
  const RequestContext& context = CurrentContext();
  if (context.spans != nullptr) {
    sink_ = context.spans;
    std::lock_guard<std::mutex> lock(sink_->mu);
    first_span_ = sink_->spans.size();
  } else {
    RequestContext own = context;
    own.spans = sink_ = &own_sink_;
    own_scope_.emplace(own);
  }
  root_.emplace(operation_);
}

OperationProfile OperationCapture::Finish() {
  root_.reset();  // close the root span into the sink before copying
  OperationProfile profile;
  profile.operation = operation_;
  profile.elapsed_nanos = NowNanos() - start_nanos_;
  if (sink_ != nullptr) profile.spans = CopySpans(*sink_, first_span_);
  if (metrics_on_) {
    profile.counters =
        DiffCounters(before_, MetricsRegistry::Global().Snapshot());
  }
  return profile;
}

}  // namespace gea::obs
