#ifndef GEA_OBS_REQUEST_TRACE_H_
#define GEA_OBS_REQUEST_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace gea::obs {

/// Per-request, per-stage latency attribution for the query service.
///
/// The serve layer times each request's pipeline stages (decode, queue
/// wait, execute, WAL append, WAL fsync, encode, write) and — for sampled
/// requests — publishes a RequestTraceRecord into a fixed-capacity
/// sharded ring. The ring feeds three consumers: the gea_stat_requests
/// stat view (rollups by op/status/user), the /tracez?format=chrome
/// endpoint (Perfetto-loadable trace-event JSON), and slow-query triage.
///
/// Stage attribution from layers below serve (the WAL, the timed locks)
/// goes through the `stages` of the calling thread's RequestContext
/// (obs/context.h) rather than plumbed-through arguments: WAL appends
/// and commit waits run synchronously on the worker thread that executes
/// the request, which installs its context for the whole task. When no
/// stages are bound the cost is one thread-local test.

/// The serve-path stages, in request order. Indexes StageNanos and fixes
/// the wire order of the response timing block.
enum class RequestStage : int {
  kDecode = 0,   // frame bytes -> Request struct (reader thread)
  kQueue = 1,    // admission-queue wait (enqueue -> worker pickup)
  kExecute = 2,  // Dispatch/Execute on the worker (includes WAL stages)
  kWalAppend = 3,  // WAL record framing + file append (subset of execute)
  kWalFsync = 4,   // WAL fsync (subset of execute)
  kEncode = 5,   // Response struct -> payload bytes
  kWrite = 6,    // framed payload -> socket
  kLockWait = 7,  // session-lock acquisition wait (subset of execute)
};
inline constexpr int kRequestStageCount = 8;

/// Lower-case stable stage name ("decode", "queue_wait", "execute",
/// "wal_append", "wal_fsync", "encode", "write", "lock_wait").
const char* RequestStageName(RequestStage stage);

/// Nanoseconds per stage, indexed by RequestStage.
struct StageNanos {
  std::array<uint64_t, kRequestStageCount> nanos{};

  uint64_t& operator[](RequestStage s) { return nanos[static_cast<int>(s)]; }
  uint64_t operator[](RequestStage s) const {
    return nanos[static_cast<int>(s)];
  }
};

/// Adds `nanos` to `stage` in the context's stages; no-op when none.
void AddStageNanos(RequestStage stage, uint64_t nanos);

/// Nanoseconds accumulated for `stage` in the context's stages (0 when
/// none are bound).
uint64_t CollectedStageNanos(RequestStage stage);

/// ---- Sampling ----
///
/// Head sampling is 1-in-N: GEA_TRACE_SAMPLE=N samples every Nth request
/// (0 or unset = never). A programmatic override (tests, benches) beats
/// the env var. Independently, clients can force sampling per request via
/// the wire-level sampled flag, and the serve layer tail-samples any
/// request that crosses the slow-query threshold.

uint64_t TraceSampleEvery();
void SetTraceSampleOverride(std::optional<uint64_t> every);

class ScopedTraceSample {
 public:
  explicit ScopedTraceSample(uint64_t every);
  ~ScopedTraceSample();

  ScopedTraceSample(const ScopedTraceSample&) = delete;
  ScopedTraceSample& operator=(const ScopedTraceSample&) = delete;

 private:
  uint64_t previous_;
  bool had_previous_;
};

/// True for every Nth call (process-wide counter) when sampling is on.
bool SampleThisRequest();

/// Allocates a server-assigned trace id (never returns 0).
uint64_t NextTraceId();

/// One served request, as published into the trace ring.
struct RequestTraceRecord {
  uint64_t trace_id = 0;
  uint64_t request_id = 0;
  std::string op;
  std::string user;         // authenticated user, "" before login
  int status_code = 0;      // gea::StatusCode numeric value
  bool slow = false;        // captured by the slow-query escape hatch
  uint64_t start_nanos = 0;  // NowNanos() when decode began
  uint64_t total_nanos = 0;  // decode start -> response written
  StageNanos stages;
  uint64_t alloc_bytes = 0;  // bytes the execution allocated (accounted)
  uint64_t peak_bytes = 0;   // high-water mark of live accounted bytes
  uint32_t reader_tid = 0;  // connection reader thread (decode)
  uint32_t worker_tid = 0;  // worker thread (execute/encode/write)
  std::vector<SpanRecord> spans;  // execution span tree; empty when the
                                  // record was tail-sampled (slow) only
};

/// Fixed-capacity sharded ring of the most recent sampled requests.
/// Publish is one atomic fetch-add to claim a slot plus one per-slot
/// mutex — concurrent publishers to different slots never contend, and
/// readers lock one slot at a time, so a reader can never observe a torn
/// record.
class RequestTraceRing {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit RequestTraceRing(size_t capacity = kDefaultCapacity);

  RequestTraceRing(const RequestTraceRing&) = delete;
  RequestTraceRing& operator=(const RequestTraceRing&) = delete;

  /// The process-wide ring (leaked at exit).
  static RequestTraceRing& Global();

  void Publish(RequestTraceRecord record);

  /// Copies the live records, oldest first.
  std::vector<RequestTraceRecord> Snapshot() const;

  /// Total records ever published (>= capacity once wrapped).
  uint64_t Published() const;

  size_t capacity() const { return capacity_; }

  /// Empties the ring (test isolation).
  void Clear();

 private:
  struct Slot {
    mutable std::mutex mu;
    uint64_t seq = 0;  // 1-based publish index; 0 = never written
    RequestTraceRecord record;
  };

  size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
};

/// One request currently executing on a worker, as seen by the stalled-
/// request watchdog (obs/timeseries.h). `spans` is the request's span
/// sink, which lives in the executing frame: read it only through Flag,
/// under the registry mutex, while the entry is registered.
struct InflightRequest {
  uint64_t token = 0;     // registry handle (assigned by Register)
  uint64_t trace_id = 0;  // 0 when the request is not sampled
  std::string op;
  std::string user;
  uint64_t start_nanos = 0;  // NowNanos() at worker pickup
  SpanSink* spans = nullptr;  // the request's sink (null = none)
  uint32_t worker_tid = 0;
  bool flagged = false;  // the watchdog already logged this request
};

/// Registry of requests currently executing, so the watchdog can report
/// a request that is *stuck* — something no after-the-fact ring can do.
/// Registration is two map operations under one mutex per request; the
/// watchdog reads a snapshot at its sampling cadence.
class InflightRegistry {
 public:
  InflightRegistry() = default;

  InflightRegistry(const InflightRegistry&) = delete;
  InflightRegistry& operator=(const InflightRegistry&) = delete;

  /// The process-wide registry (leaked at exit, like RequestTraceRing).
  static InflightRegistry& Global();

  /// Registers an executing request; returns its token (never 0).
  uint64_t Register(InflightRequest info);
  void Deregister(uint64_t token);

  /// Copies the live entries (registration order not guaranteed).
  std::vector<InflightRequest> Snapshot() const;

  /// Marks `token` as watchdog-flagged and copies the spans its sink
  /// holds so far into `spans`. Returns true when this call was the first
  /// to flag it (the caller should log), false when the entry was already
  /// flagged or has finished — one log line per request. The copy is made
  /// under the registry mutex, which the executing frame must take to
  /// deregister before its sink goes away (lock order: registry, sink).
  bool Flag(uint64_t token, std::vector<SpanRecord>* spans);

  size_t Size() const;

 private:
  mutable std::mutex mu_;
  uint64_t next_token_ = 1;
  std::map<uint64_t, InflightRequest> entries_;
};

/// RAII registration with the global registry for one request's
/// execution window on the worker thread.
class ScopedInflightRequest {
 public:
  explicit ScopedInflightRequest(InflightRequest info);
  ~ScopedInflightRequest();

  ScopedInflightRequest(const ScopedInflightRequest&) = delete;
  ScopedInflightRequest& operator=(const ScopedInflightRequest&) = delete;

  uint64_t token() const { return token_; }

 private:
  uint64_t token_;
};

/// Renders records as Chrome trace-event JSON ({"traceEvents": [...]}),
/// loadable in Perfetto / chrome://tracing. Stage slices land on the real
/// reader/worker thread tracks, execution spans on the threads that
/// recorded them (ParallelFor helpers included), and WAL fsyncs are
/// flow-connected to their request slice. Timestamps are microseconds
/// relative to the earliest record; events are sorted by timestamp.
std::string ChromeTraceJson(const std::vector<RequestTraceRecord>& records);

}  // namespace gea::obs

#endif  // GEA_OBS_REQUEST_TRACE_H_
