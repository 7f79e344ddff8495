#include "obs/request_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "obs/export.h"

namespace gea::obs {

namespace {

const char* const kStageNames[kRequestStageCount] = {
    "decode", "queue_wait", "execute", "wal_append",
    "wal_fsync", "encode", "write", "lock_wait",
};

/// Sampling override: any value >= 0 beats the env var; -1 = unset.
std::atomic<int64_t> g_sample_override{-1};

uint64_t EnvSampleEvery() {
  static const uint64_t cached = [] {
    const char* raw = std::getenv("GEA_TRACE_SAMPLE");
    if (raw == nullptr || *raw == '\0') return uint64_t{0};
    char* end = nullptr;
    const unsigned long long value = std::strtoull(raw, &end, 10);
    return (end == raw) ? uint64_t{0} : static_cast<uint64_t>(value);
  }();
  return cached;
}

std::atomic<uint64_t> g_sample_counter{0};
std::atomic<uint64_t> g_next_trace_id{1};

}  // namespace

const char* RequestStageName(RequestStage stage) {
  return kStageNames[static_cast<int>(stage)];
}

void AddStageNanos(RequestStage stage, uint64_t nanos) {
  if (StageNanos* stages = CurrentContext().stages) (*stages)[stage] += nanos;
}

uint64_t CollectedStageNanos(RequestStage stage) {
  const StageNanos* stages = CurrentContext().stages;
  return stages != nullptr ? (*stages)[stage] : 0;
}

uint64_t TraceSampleEvery() {
  const int64_t override_value =
      g_sample_override.load(std::memory_order_relaxed);
  if (override_value >= 0) return static_cast<uint64_t>(override_value);
  return EnvSampleEvery();
}

void SetTraceSampleOverride(std::optional<uint64_t> every) {
  g_sample_override.store(
      every.has_value() ? static_cast<int64_t>(*every) : -1,
      std::memory_order_relaxed);
}

ScopedTraceSample::ScopedTraceSample(uint64_t every) {
  const int64_t previous = g_sample_override.load(std::memory_order_relaxed);
  had_previous_ = previous >= 0;
  previous_ = had_previous_ ? static_cast<uint64_t>(previous) : 0;
  SetTraceSampleOverride(every);
}

ScopedTraceSample::~ScopedTraceSample() {
  SetTraceSampleOverride(had_previous_ ? std::optional<uint64_t>(previous_)
                                       : std::nullopt);
}

bool SampleThisRequest() {
  const uint64_t every = TraceSampleEvery();
  if (every == 0) return false;
  return g_sample_counter.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

uint64_t NextTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

RequestTraceRing::RequestTraceRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(new Slot[capacity == 0 ? 1 : capacity]) {}

RequestTraceRing& RequestTraceRing::Global() {
  static RequestTraceRing* ring = new RequestTraceRing();
  return *ring;
}

void RequestTraceRing::Publish(RequestTraceRecord record) {
  const uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[index % capacity_];
  std::lock_guard<std::mutex> lock(slot.mu);
  // A slower publisher racing on a wrapped slot must not clobber a newer
  // record with an older one.
  if (slot.seq > index + 1) return;
  slot.seq = index + 1;
  slot.record = std::move(record);
}

std::vector<RequestTraceRecord> RequestTraceRing::Snapshot() const {
  std::vector<std::pair<uint64_t, RequestTraceRecord>> live;
  live.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.seq > 0) live.emplace_back(slot.seq, slot.record);
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<RequestTraceRecord> out;
  out.reserve(live.size());
  for (auto& entry : live) out.push_back(std::move(entry.second));
  return out;
}

uint64_t RequestTraceRing::Published() const {
  return next_.load(std::memory_order_relaxed);
}

void RequestTraceRing::Clear() {
  for (size_t i = 0; i < capacity_; ++i) {
    Slot& slot = slots_[i];
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.seq = 0;
    slot.record = RequestTraceRecord();
  }
  next_.store(0, std::memory_order_relaxed);
}

// ---- InflightRegistry ----

InflightRegistry& InflightRegistry::Global() {
  static InflightRegistry* registry = new InflightRegistry();
  return *registry;
}

uint64_t InflightRegistry::Register(InflightRequest info) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t token = next_token_++;
  info.token = token;
  entries_[token] = std::move(info);
  return token;
}

void InflightRegistry::Deregister(uint64_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(token);
}

std::vector<InflightRequest> InflightRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<InflightRequest> out;
  out.reserve(entries_.size());
  for (const auto& [_, entry] : entries_) out.push_back(entry);
  return out;
}

bool InflightRegistry::Flag(uint64_t token, std::vector<SpanRecord>* spans) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(token);
  if (it == entries_.end() || it->second.flagged) return false;
  it->second.flagged = true;
  if (it->second.spans != nullptr) *spans = CopySpans(*it->second.spans);
  return true;
}

size_t InflightRegistry::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

ScopedInflightRequest::ScopedInflightRequest(InflightRequest info)
    : token_(InflightRegistry::Global().Register(std::move(info))) {}

ScopedInflightRequest::~ScopedInflightRequest() {
  InflightRegistry::Global().Deregister(token_);
}

namespace {

/// One trace event, pre-rendered except for ordering by timestamp.
struct PendingEvent {
  double ts_us = 0;
  std::string json;
};

void Appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

double ToUs(uint64_t nanos, uint64_t base) {
  return static_cast<double>(nanos - base) / 1e3;
}

double DurUs(uint64_t nanos) { return static_cast<double>(nanos) / 1e3; }

/// A complete ("X") slice event.
std::string SliceJson(const char* cat, const std::string& name, uint32_t tid,
                      double ts_us, double dur_us, const std::string& args) {
  std::string out;
  Appendf(out,
          "{\"ph\":\"X\",\"cat\":\"%s\",\"name\":\"%s\",\"pid\":1,"
          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}",
          cat, JsonEscape(name).c_str(), tid, ts_us, dur_us, args.c_str());
  return out;
}

std::string StageArgs(uint64_t trace_id, RequestStage stage) {
  std::string out;
  Appendf(out, "\"trace_id\":%" PRIu64 ",\"stage\":\"%s\"", trace_id,
          RequestStageName(stage));
  return out;
}

}  // namespace

std::string ChromeTraceJson(const std::vector<RequestTraceRecord>& records) {
  // Base timestamp: earliest instant across records and their spans, so
  // exported timestamps stay small and positive.
  uint64_t base = 0;
  bool have_base = false;
  for (const RequestTraceRecord& r : records) {
    if (!have_base || r.start_nanos < base) base = r.start_nanos;
    have_base = true;
    for (const SpanRecord& s : r.spans) {
      if (s.start_nanos < base) base = s.start_nanos;
    }
  }

  // Thread names: workers beat readers beat span-only pool threads.
  std::map<uint32_t, const char*> thread_kind;
  for (const RequestTraceRecord& r : records) {
    for (const SpanRecord& s : r.spans) {
      if (s.tid != 0) thread_kind.emplace(s.tid, "pool");
    }
  }
  for (const RequestTraceRecord& r : records) {
    if (r.reader_tid != 0) thread_kind[r.reader_tid] = "reader";
  }
  for (const RequestTraceRecord& r : records) {
    if (r.worker_tid != 0) thread_kind[r.worker_tid] = "worker";
  }

  std::vector<PendingEvent> events;
  for (const RequestTraceRecord& r : records) {
    const StageNanos& st = r.stages;
    const uint64_t decode_end = r.start_nanos + st[RequestStage::kDecode];
    const uint64_t exec_start = decode_end + st[RequestStage::kQueue];
    const uint64_t exec_end = exec_start + st[RequestStage::kExecute];
    const uint64_t encode_end = exec_end + st[RequestStage::kEncode];

    // Request envelope on the worker track: queue wait through write.
    {
      std::string args;
      Appendf(args,
              "\"trace_id\":%" PRIu64 ",\"request_id\":%" PRIu64
              ",\"user\":\"%s\",\"status\":%d,\"slow\":%s",
              r.trace_id, r.request_id, JsonEscape(r.user).c_str(),
              r.status_code, r.slow ? "true" : "false");
      for (int i = 0; i < kRequestStageCount; ++i) {
        Appendf(args, ",\"%s_ns\":%" PRIu64,
                kStageNames[i], st.nanos[i]);
      }
      Appendf(args, ",\"alloc_bytes\":%" PRIu64 ",\"peak_bytes\":%" PRIu64,
              r.alloc_bytes, r.peak_bytes);
      const uint64_t envelope =
          st[RequestStage::kQueue] + st[RequestStage::kExecute] +
          st[RequestStage::kEncode] + st[RequestStage::kWrite];
      events.push_back({ToUs(decode_end, base),
                        SliceJson("request", r.op, r.worker_tid,
                                  ToUs(decode_end, base), DurUs(envelope),
                                  args)});
    }

    // Stage slices on their real tracks. Decode happens on the reader
    // thread; everything after queue pickup on the worker. WAL stages are
    // accumulated sub-intervals of execute, rendered nested at its start.
    events.push_back({ToUs(r.start_nanos, base),
                      SliceJson("stage", "decode", r.reader_tid,
                                ToUs(r.start_nanos, base),
                                DurUs(st[RequestStage::kDecode]),
                                StageArgs(r.trace_id, RequestStage::kDecode))});
    events.push_back({ToUs(decode_end, base),
                      SliceJson("stage", "queue_wait", r.worker_tid,
                                ToUs(decode_end, base),
                                DurUs(st[RequestStage::kQueue]),
                                StageArgs(r.trace_id, RequestStage::kQueue))});
    events.push_back(
        {ToUs(exec_start, base),
         SliceJson("stage", "execute", r.worker_tid, ToUs(exec_start, base),
                   DurUs(st[RequestStage::kExecute]),
                   StageArgs(r.trace_id, RequestStage::kExecute))});
    if (st[RequestStage::kLockWait] > 0) {
      events.push_back(
          {ToUs(exec_start, base),
           SliceJson("stage", "lock_wait", r.worker_tid,
                     ToUs(exec_start, base),
                     DurUs(st[RequestStage::kLockWait]),
                     StageArgs(r.trace_id, RequestStage::kLockWait))});
    }
    if (st[RequestStage::kWalAppend] > 0) {
      events.push_back(
          {ToUs(exec_start, base),
           SliceJson("stage", "wal_append", r.worker_tid,
                     ToUs(exec_start, base),
                     DurUs(st[RequestStage::kWalAppend]),
                     StageArgs(r.trace_id, RequestStage::kWalAppend))});
    }
    if (st[RequestStage::kWalFsync] > 0) {
      const uint64_t fsync_start = exec_start + st[RequestStage::kWalAppend];
      events.push_back(
          {ToUs(fsync_start, base),
           SliceJson("stage", "wal_fsync", r.worker_tid,
                     ToUs(fsync_start, base),
                     DurUs(st[RequestStage::kWalFsync]),
                     StageArgs(r.trace_id, RequestStage::kWalFsync))});
    }
    events.push_back(
        {ToUs(exec_end, base),
         SliceJson("stage", "encode", r.worker_tid, ToUs(exec_end, base),
                   DurUs(st[RequestStage::kEncode]),
                   StageArgs(r.trace_id, RequestStage::kEncode))});
    events.push_back(
        {ToUs(encode_end, base),
         SliceJson("stage", "write", r.worker_tid, ToUs(encode_end, base),
                   DurUs(st[RequestStage::kWrite]),
                   StageArgs(r.trace_id, RequestStage::kWrite))});

    // Execution span tree on the threads that recorded it.
    for (const SpanRecord& s : r.spans) {
      std::string args;
      Appendf(args,
              "\"trace_id\":%" PRIu64 ",\"span_id\":%" PRIu64
              ",\"parent_id\":%" PRIu64,
              r.trace_id, s.id, s.parent_id);
      events.push_back({ToUs(s.start_nanos, base),
                        SliceJson("span", s.name, s.tid,
                                  ToUs(s.start_nanos, base),
                                  DurUs(s.duration_nanos), args)});
      // Flow-connect each WAL fsync to its request envelope so Perfetto
      // draws the commit arrow even when pool threads interleave.
      if (s.name == "wal_fsync") {
        std::string flow_start;
        Appendf(flow_start,
                "{\"ph\":\"s\",\"cat\":\"wal\",\"name\":\"commit\","
                "\"id\":%" PRIu64 ",\"pid\":1,\"tid\":%u,\"ts\":%.3f}",
                s.id, r.worker_tid, ToUs(decode_end, base));
        events.push_back({ToUs(decode_end, base), std::move(flow_start)});
        std::string flow_end;
        Appendf(flow_end,
                "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"wal\","
                "\"name\":\"commit\",\"id\":%" PRIu64
                ",\"pid\":1,\"tid\":%u,\"ts\":%.3f}",
                s.id, s.tid, ToUs(s.start_nanos, base));
        events.push_back({ToUs(s.start_nanos, base), std::move(flow_end)});
      }
    }
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const PendingEvent& a, const PendingEvent& b) {
                     return a.ts_us < b.ts_us;
                   });

  // The process-name metadata event doubles as the unconditional first
  // element, so every later element can just prefix a comma.
  std::string out =
      "{\"traceEvents\":["
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"gea_server\"}}";
  for (const auto& [tid, kind] : thread_kind) {
    std::string meta;
    Appendf(meta,
            ",{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%u,"
            "\"args\":{\"name\":\"%s-%u\"}}",
            tid, kind, tid);
    out += meta;
  }
  for (const PendingEvent& event : events) {
    out += ",";
    out += event.json;
  }
  out += "]}";
  return out;
}

}  // namespace gea::obs
