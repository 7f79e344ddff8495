#include "obs/timeseries.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "obs/clock.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "rel/schema.h"
#include "rel/value.h"

namespace gea::obs {

namespace {

/// Clamps a uint64 metric value into the int64 the series carries (the
/// same saturation the stat views apply).
int64_t SaturateToInt64(uint64_t v) {
  constexpr uint64_t kMax = static_cast<uint64_t>(INT64_MAX);
  return static_cast<int64_t>(std::min(v, kMax));
}

/// Parses a non-negative integer env var; 0 when unset/empty/invalid.
uint64_t ParseMillisEnv(const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return 0;
  return static_cast<uint64_t>(parsed);
}

}  // namespace

// ---- TelemetryHistory ----

TelemetryHistory::TelemetryHistory(size_t retention)
    : retention_(retention == 0 ? 1 : retention) {}

TelemetryHistory& TelemetryHistory::Global() {
  static TelemetryHistory* history = new TelemetryHistory();
  return *history;
}

void TelemetryHistory::Harvest() {
  // Snapshot the registry before taking our own lock: the registry walk
  // takes the registry mutex, and holding two locks for no reason is how
  // ordering bugs start.
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const uint64_t now = NowNanos();

  std::lock_guard<std::mutex> lock(mu_);
  HistorySample sample;
  sample.sample_id = ++harvests_;
  sample.nanos = now;

  const double interval_seconds =
      last_nanos_ == 0 ? 0.0 : static_cast<double>(now - last_nanos_) / 1e9;

  const auto add = [&](std::string name, int64_t value, bool monotonic) {
    SeriesPoint point;
    point.value = value;
    point.monotonic = monotonic;
    auto it = last_values_.find(name);
    if (it != last_values_.end()) {
      point.delta = value - it->second;
      if (monotonic && point.delta < 0) point.delta = 0;  // reset-for-test
      if (monotonic && interval_seconds > 0.0) {
        point.rate = static_cast<double>(point.delta) / interval_seconds;
      }
      it->second = value;
    } else {
      last_values_.emplace(name, value);
    }
    point.name = std::move(name);
    sample.points.push_back(std::move(point));
  };

  // The registry snapshot is sorted per kind; the .count/.p50/.p99
  // expansion keeps each histogram's series adjacent, and the final sort
  // below restores one global name order across kinds.
  for (const CounterValue& c : snapshot.counters) {
    add(c.name, SaturateToInt64(c.value), /*monotonic=*/true);
  }
  for (const GaugeValue& g : snapshot.gauges) {
    add(g.name, g.value, /*monotonic=*/false);
  }
  for (const HistogramValue& h : snapshot.histograms) {
    add(h.name + ".count", SaturateToInt64(h.count), /*monotonic=*/true);
    add(h.name + ".p50", SaturateToInt64(h.ApproxQuantile(0.50)),
        /*monotonic=*/false);
    add(h.name + ".p99", SaturateToInt64(h.ApproxQuantile(0.99)),
        /*monotonic=*/false);
  }
  std::sort(sample.points.begin(), sample.points.end(),
            [](const SeriesPoint& a, const SeriesPoint& b) {
              return a.name < b.name;
            });

  last_nanos_ = now;
  samples_.push_back(std::move(sample));
  while (samples_.size() > retention_) samples_.pop_front();
}

std::vector<HistorySample> TelemetryHistory::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<HistorySample>(samples_.begin(), samples_.end());
}

uint64_t TelemetryHistory::Harvests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return harvests_;
}

void TelemetryHistory::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  harvests_ = 0;
  last_nanos_ = 0;
  samples_.clear();
  last_values_.clear();
}

// ---- Harvester ----

Harvester::~Harvester() { Stop(); }

bool Harvester::Start(const HarvesterOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ || options.interval_ms == 0) return false;
  options_ = options;
  stop_ = false;
  running_ = true;
  thread_ = std::thread(&Harvester::Loop, this);
  LogRecord(LogLevel::kInfo, "harvester_started")
      .U64("interval_ms", options.interval_ms)
      .U64("watchdog_ms", options.watchdog_ms.value_or(0))
      .Emit();
  return true;
}

void Harvester::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
    to_join = std::move(thread_);
  }
  cv_.notify_all();
  if (to_join.joinable()) to_join.join();
}

bool Harvester::Running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

HarvesterOptions Harvester::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

void Harvester::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  const HarvesterOptions options = options_;
  while (!stop_) {
    lock.unlock();
    TelemetryHistory::Global().Harvest();
    if (options.watchdog_ms.has_value()) {
      (void)WatchdogSweep(*options.watchdog_ms);
    }
    lock.lock();
    cv_.wait_for(lock, std::chrono::milliseconds(options.interval_ms),
                 [this] { return stop_; });
  }
}

Harvester& GlobalHarvester() {
  static Harvester* harvester = new Harvester();
  return *harvester;
}

bool StartHarvesterFromEnv() {
  static const HarvesterOptions env_options = [] {
    HarvesterOptions options;
    options.interval_ms = ParseMillisEnv("GEA_STATS_INTERVAL_MS");
    const uint64_t watchdog = ParseMillisEnv("GEA_WATCHDOG_MS");
    if (watchdog > 0) options.watchdog_ms = watchdog;
    return options;
  }();
  if (env_options.interval_ms == 0) return false;
  Harvester& harvester = GlobalHarvester();
  if (harvester.Running()) return true;
  // A racing Start() loses the flag but the harvester is up either way.
  return harvester.Start(env_options) || harvester.Running();
}

// ---- Watchdog ----

size_t WatchdogSweep(uint64_t threshold_ms) {
  const uint64_t now = NowNanos();
  const uint64_t threshold_nanos = threshold_ms * 1'000'000ull;
  size_t flagged = 0;
  for (const InflightRequest& request : InflightRegistry::Global().Snapshot()) {
    const uint64_t elapsed = now - request.start_nanos;
    if (elapsed < threshold_nanos) continue;
    // Flag() is the once-per-request gate: it fails for a request the
    // watchdog already reported or that finished between snapshot and
    // here, so concurrent sweeps can never double-log. It also copies
    // the span tree recorded so far, while the request's sink still
    // exists.
    std::vector<SpanRecord> recorded;
    if (!InflightRegistry::Global().Flag(request.token, &recorded)) continue;
    ++flagged;

    std::string spans = "[";
    for (size_t i = 0; i < recorded.size(); ++i) {
      const SpanRecord& span = recorded[i];
      if (i > 0) spans += ",";
      spans += "{\"id\":" + std::to_string(span.id) +
               ",\"parent_id\":" + std::to_string(span.parent_id) +
               ",\"name\":\"" + JsonEscape(span.name) +
               "\",\"start_nanos\":" + std::to_string(span.start_nanos) +
               ",\"duration_nanos\":" + std::to_string(span.duration_nanos) +
               "}";
    }
    spans += "]";

    LogRecord(LogLevel::kWarn, "stalled_request")
        .U64("trace_id", request.trace_id)
        .Str("op", request.op)
        .Str("user", request.user)
        .F64("elapsed_ms", static_cast<double>(elapsed) / 1e6)
        .U64("threshold_ms", threshold_ms)
        .U64("worker_tid", request.worker_tid)
        .RawJson("spans", spans)
        .Emit();
  }
  return flagged;
}

// ---- Rendering ----

rel::Table StatHistoryTable(const std::vector<HistorySample>& samples) {
  rel::Schema schema({{"sample", rel::ValueType::kInt},
                      {"ts_ms", rel::ValueType::kInt},
                      {"name", rel::ValueType::kString},
                      {"value", rel::ValueType::kInt},
                      {"delta", rel::ValueType::kInt},
                      {"rate", rel::ValueType::kDouble}});
  rel::Table table("gea_stat_history", schema);
  for (const HistorySample& sample : samples) {
    const int64_t ts_ms = SaturateToInt64(sample.nanos / 1'000'000ull);
    for (const SeriesPoint& point : sample.points) {
      table.AppendRowUnchecked(
          {rel::Value::Int(SaturateToInt64(sample.sample_id)),
           rel::Value::Int(ts_ms), rel::Value::String(point.name),
           rel::Value::Int(point.value), rel::Value::Int(point.delta),
           rel::Value::Double(point.rate)});
    }
  }
  return table;
}

std::string HistoryJson() {
  const std::vector<HistorySample> samples = TelemetryHistory::Global().Snapshot();
  std::string out =
      "{\"retention\":" + std::to_string(TelemetryHistory::Global().retention()) +
      ",\"harvests\":" + std::to_string(TelemetryHistory::Global().Harvests()) +
      ",\"samples\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const HistorySample& sample = samples[i];
    if (i > 0) out += ",";
    out += "{\"sample\":" + std::to_string(sample.sample_id) +
           ",\"ts_ms\":" + std::to_string(sample.nanos / 1'000'000ull) +
           ",\"metrics\":[";
    for (size_t j = 0; j < sample.points.size(); ++j) {
      const SeriesPoint& point = sample.points[j];
      if (j > 0) out += ",";
      out += "{\"name\":\"" + JsonEscape(point.name) +
             "\",\"value\":" + std::to_string(point.value) +
             ",\"delta\":" + std::to_string(point.delta) +
             ",\"rate\":" + std::to_string(point.rate) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace gea::obs
