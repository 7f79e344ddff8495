#include "serve/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "common/net.h"
#include "obs/clock.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/statviews.h"
#include "obs/trace.h"
#include "store/format.h"

namespace gea::serve {

namespace {

using Clock = std::chrono::steady_clock;

// ---- Registry metrics (gated on GEA_METRICS like every subsystem) ----

obs::Counter& RequestsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("gea.serve.requests");
  return c;
}
obs::Counter& ErrorsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("gea.serve.errors");
  return c;
}
obs::Counter& RejectedQueueFullCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "gea.serve.rejected_queue_full");
  return c;
}
obs::Counter& RejectedDeadlineCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "gea.serve.rejected_deadline");
  return c;
}
obs::Counter& BytesInCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("gea.serve.bytes_in");
  return c;
}
obs::Counter& BytesOutCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("gea.serve.bytes_out");
  return c;
}
obs::Counter& ConnectionsTotalCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "gea.serve.connections_total");
  return c;
}
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("gea.serve.queue_depth");
  return g;
}
obs::Gauge& ConnectionsGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("gea.serve.connections");
  return g;
}
obs::Histogram& QueueWaitHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "gea.serve.queue_wait_nanos");
  return h;
}
obs::Histogram& RequestHistogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("gea.serve.request_nanos");
  return h;
}

using workbench::CommandParams;
using workbench::CommandReply;
using Reply = Result<CommandReply>;

/// The response to `request`: an error, or the reply's text and table.
Response ToResponse(const Request& request, Reply reply) {
  if (!reply.ok()) return ErrorResponse(request.request_id, reply.status());
  Response response;
  response.text = std::move(reply->text);
  response.table = std::move(reply->table);
  return response;
}

/// Adapts a command body to a Handler.
QueryServer::Handler Serve(std::function<Reply(const Request&)> body) {
  return [body = std::move(body)](const Request& request) {
    return ToResponse(request, body(request));
  };
}

}  // namespace

const char* ServerRoleName(ServerRole role) {
  switch (role) {
    case ServerRole::kPrimary:
      return "primary";
    case ServerRole::kReplica:
      return "replica";
    case ServerRole::kRouter:
      return "router";
  }
  return "unknown";
}

void QueryServer::RegisterHandler(const std::string& op, HandlerSpec spec,
                                  Handler handler) {
  handlers_[op] = HandlerEntry{spec, std::move(handler)};
}

// ---- Live stats + the gea_stat_serve view ----

struct QueryServer::LiveStats {
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> rejected_queue_full{0};
  std::atomic<uint64_t> rejected_deadline{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> connections_total{0};
  std::atomic<int64_t> connections{0};
  std::atomic<int64_t> queue_depth{0};
};

namespace {

// Live servers, so the gea_stat_serve view can report them without obs
// linking against serve (mirrors the gea_stat_storage registration).
std::mutex g_servers_mu;
std::vector<QueryServer*>& Servers() {
  static std::vector<QueryServer*>* servers = new std::vector<QueryServer*>();
  return *servers;
}

rel::Table ServeStatTable() {
  rel::Table table(
      obs::kStatServeView,
      rel::Schema({{"port", rel::ValueType::kInt},
                   {"running", rel::ValueType::kInt},
                   {"connections", rel::ValueType::kInt},
                   {"queue_depth", rel::ValueType::kInt},
                   {"requests", rel::ValueType::kInt},
                   {"errors", rel::ValueType::kInt},
                   {"rejected_queue_full", rel::ValueType::kInt},
                   {"rejected_deadline", rel::ValueType::kInt},
                   {"bytes_in", rel::ValueType::kInt},
                   {"bytes_out", rel::ValueType::kInt}}));
  std::lock_guard<std::mutex> lock(g_servers_mu);
  for (QueryServer* server : Servers()) {
    const QueryServer::Stats stats = server->GetStats();
    table.AppendRowUnchecked(
        {rel::Value::Int(server->Port()),
         rel::Value::Int(server->Running() ? 1 : 0),
         rel::Value::Int(stats.connections),
         rel::Value::Int(stats.queue_depth),
         rel::Value::Int(static_cast<int64_t>(stats.requests)),
         rel::Value::Int(static_cast<int64_t>(stats.errors)),
         rel::Value::Int(static_cast<int64_t>(stats.rejected_queue_full)),
         rel::Value::Int(static_cast<int64_t>(stats.rejected_deadline)),
         rel::Value::Int(static_cast<int64_t>(stats.bytes_in)),
         rel::Value::Int(static_cast<int64_t>(stats.bytes_out))});
  }
  return table;
}

const bool g_serve_view_registered = [] {
  obs::RegisterStatViewProvider(obs::kStatServeView, ServeStatTable);
  return true;
}();

}  // namespace

// ---- Connection / Task ----

struct QueryServer::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() { net::CloseFd(fd); }

  const int fd;
  /// Serializes response frames: the reader writes queue-full rejections
  /// while workers write admitted responses on the same socket.
  std::mutex write_mu;
  std::atomic<bool> authenticated{false};
  std::atomic<int> level{0};  // workbench::AccessLevel numeric value

  /// Authenticated user name, for trace attribution ("" before login).
  std::string User() {
    std::lock_guard<std::mutex> lock(user_mu);
    return user;
  }
  void SetUser(std::string name) {
    std::lock_guard<std::mutex> lock(user_mu);
    user = std::move(name);
  }

 private:
  std::mutex user_mu;
  std::string user;
};

struct QueryServer::Task {
  std::shared_ptr<Connection> conn;
  Request request;
  Clock::time_point received;
  Clock::time_point deadline;  // meaningful when has_deadline
  bool has_deadline = false;

  // Request tracing (see obs/request_trace.h).
  uint64_t trace_id = 0;          // 0 = not traced (may be tail-assigned)
  bool sampled = false;           // head-sampled or client-forced
  uint64_t decode_start_nanos = 0;
  uint64_t decode_nanos = 0;
  uint32_t reader_tid = 0;
};

// ---- Lifecycle ----

QueryServer::QueryServer(workbench::AnalysisSession* session,
                         ServerOptions options)
    : session_(session),
      options_(options),
      stats_(std::make_unique<LiveStats>()) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  RegisterBuiltins();
  std::lock_guard<std::mutex> lock(g_servers_mu);
  Servers().push_back(this);
}

QueryServer::~QueryServer() {
  Stop();
  std::lock_guard<std::mutex> lock(g_servers_mu);
  auto& servers = Servers();
  servers.erase(std::remove(servers.begin(), servers.end(), this),
                servers.end());
}

Status QueryServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("query server already running");
  }
  if (session_ == nullptr || !session_->IsLoggedIn()) {
    return Status::FailedPrecondition(
        "the embedded session must be logged in before serving");
  }
  // Served writes collect their commit ticket inside the writer lock and
  // wait for the group-commit fsync outside it (see Execute()).
  session_->SetDeferredCommits(true);
  GEA_ASSIGN_OR_RETURN(net::ListenSocket listener,
                       net::ListenLoopback(options_.port));
  listen_fd_ = listener.fd;
  port_.store(listener.port, std::memory_order_release);
  {
    std::lock_guard<TimedMutex> queue_lock(queue_mu_);
    draining_ = false;
  }
  running_.store(true, std::memory_order_release);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&QueryServer::WorkerLoop, this);
  }
  accept_thread_ = std::thread(&QueryServer::AcceptLoop, this, listener.fd);
  obs::LogRecord(obs::LogLevel::kInfo, "serve_started")
      .Int("port", Port())
      .Int("workers", static_cast<int64_t>(options_.num_workers))
      .Int("queue_capacity", static_cast<int64_t>(options_.queue_capacity))
      .Emit();
  return Status::OK();
}

void QueryServer::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  running_.store(false, std::memory_order_release);

  // 1. Stop accepting.
  shutdown(listen_fd_, SHUT_RDWR);
  net::CloseFd(listen_fd_);
  listen_fd_ = -1;
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Wake every reader: SHUT_RD turns their blocking recv into EOF.
  //    In-flight responses can still be written (write side stays open).
  //    Readers exit on EOF; join them so no new requests can be admitted.
  std::map<std::thread::id, Reader> readers;
  {
    std::lock_guard<std::mutex> conns_lock(conns_mu_);
    readers.swap(readers_);
  }
  for (auto& [id, reader] : readers) {
    if (std::shared_ptr<Connection> conn = reader.conn.lock()) {
      shutdown(conn->fd, SHUT_RD);
    }
  }
  for (auto& [id, reader] : readers) reader.thread.join();
  {
    std::lock_guard<std::mutex> conns_lock(conns_mu_);
    exited_readers_.clear();  // every reader is joined by now
  }

  // 3. Drain: workers finish every admitted request, then exit.
  {
    std::lock_guard<TimedMutex> queue_lock(queue_mu_);
    draining_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  port_.store(0, std::memory_order_release);
  // Back to inline durability for direct (unserved) session use.
  if (session_ != nullptr) session_->SetDeferredCommits(false);
  obs::LogRecord(obs::LogLevel::kInfo, "serve_stopped").Emit();
}

QueryServer::Stats QueryServer::GetStats() const {
  Stats out;
  out.requests = stats_->requests.load(std::memory_order_relaxed);
  out.errors = stats_->errors.load(std::memory_order_relaxed);
  out.rejected_queue_full =
      stats_->rejected_queue_full.load(std::memory_order_relaxed);
  out.rejected_deadline =
      stats_->rejected_deadline.load(std::memory_order_relaxed);
  out.bytes_in = stats_->bytes_in.load(std::memory_order_relaxed);
  out.bytes_out = stats_->bytes_out.load(std::memory_order_relaxed);
  out.connections_total =
      stats_->connections_total.load(std::memory_order_relaxed);
  out.connections = stats_->connections.load(std::memory_order_relaxed);
  out.queue_depth = stats_->queue_depth.load(std::memory_order_relaxed);
  return out;
}

// ---- Accept / read / admission ----

void QueryServer::AcceptLoop(int listen_fd) {
  while (running_.load(std::memory_order_acquire)) {
    Result<int> fd = net::Accept(listen_fd);
    if (!fd.ok()) break;  // Stop() closed the listener
    auto conn = std::make_shared<Connection>(*fd);
    stats_->connections_total.fetch_add(1, std::memory_order_relaxed);
    stats_->connections.fetch_add(1, std::memory_order_relaxed);
    ConnectionsTotalCounter().Add(1);
    ConnectionsGauge().Add(1);
    std::vector<std::thread> exited;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (std::thread::id id : exited_readers_) {
        exited.push_back(std::move(readers_.extract(id).mapped().thread));
      }
      exited_readers_.clear();
      Reader reader{{}, conn};
      reader.thread =
          std::thread(&QueryServer::ConnectionLoop, this, std::move(conn));
      readers_.emplace(reader.thread.get_id(), std::move(reader));
    }
    // These readers have returned; joining them releases their stacks.
    for (std::thread& thread : exited) thread.join();
  }
}

void QueryServer::ConnectionLoop(std::shared_ptr<Connection> conn) {
  for (;;) {
    Result<std::optional<std::string>> frame = ReadFrame(conn->fd);
    if (!frame.ok() || !frame->has_value()) {
      // Torn frame / CRC mismatch / peer gone: nothing trustworthy left
      // on this stream, so drop the connection.
      break;
    }
    const std::string& payload = **frame;
    const size_t wire_bytes = payload.size() + store::kFrameHeaderBytes;
    stats_->bytes_in.fetch_add(wire_bytes, std::memory_order_relaxed);
    BytesInCounter().Add(wire_bytes);

    const uint64_t decode_start = obs::NowNanos();
    Result<Request> request = DecodeRequest(payload);
    const uint64_t decode_nanos = obs::NowNanos() - decode_start;
    if (!request.ok()) {
      // The frame was intact but the payload is not a request we
      // understand; tell the client, then drop the stream.
      Response error = ErrorResponse(0, request.status());
      (void)WriteResponse(*conn, error);
      break;
    }

    Task task;
    task.conn = conn;
    task.request = std::move(*request);
    task.received = Clock::now();
    if (task.request.deadline_ms > 0) {
      task.has_deadline = true;
      task.deadline =
          task.received + std::chrono::milliseconds(task.request.deadline_ms);
    }
    task.decode_start_nanos = decode_start;
    task.decode_nanos = decode_nanos;
    task.reader_tid = obs::CurrentThreadId();
    // Sampling: the client's sampled flag forces it; otherwise 1-in-N
    // head sampling (GEA_TRACE_SAMPLE). A client-supplied trace id is
    // kept either way so the response can echo it.
    if (task.request.trace.has_value()) {
      task.sampled =
          task.request.trace->sampled || obs::SampleThisRequest();
      task.trace_id = task.request.trace->trace_id != 0
                          ? task.request.trace->trace_id
                          : obs::NextTraceId();
    } else {
      task.sampled = obs::SampleThisRequest();
      if (task.sampled) task.trace_id = obs::NextTraceId();
    }

    bool admitted = false;
    {
      std::lock_guard<TimedMutex> lock(queue_mu_);
      if (queue_.size() < options_.queue_capacity) {
        queue_.push_back(std::move(task));
        stats_->queue_depth.store(static_cast<int64_t>(queue_.size()),
                                  std::memory_order_relaxed);
        QueueDepthGauge().Set(static_cast<int64_t>(queue_.size()));
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
      continue;
    }

    // Queue full: explicit backpressure from the reader thread itself —
    // the client hears RESOURCE_EXHAUSTED now instead of waiting on an
    // unbounded buffer.
    stats_->requests.fetch_add(1, std::memory_order_relaxed);
    stats_->rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
    RequestsCounter().Add(1);
    RejectedQueueFullCounter().Add(1);
    Response rejected = ErrorResponse(
        task.request.request_id,
        Status::ResourceExhausted("admission queue full (capacity " +
                                  std::to_string(options_.queue_capacity) +
                                  "); retry later"));
    (void)WriteResponse(*conn, rejected);
  }
  stats_->connections.fetch_add(-1, std::memory_order_relaxed);
  ConnectionsGauge().Add(-1);
  std::lock_guard<std::mutex> lock(conns_mu_);
  exited_readers_.push_back(std::this_thread::get_id());
}

void QueryServer::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<TimedMutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (draining_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      stats_->queue_depth.store(static_cast<int64_t>(queue_.size()),
                                std::memory_order_relaxed);
      QueueDepthGauge().Set(static_cast<int64_t>(queue_.size()));
    }
    RunTask(std::move(task));
  }
}

void QueryServer::RunTask(Task task) {
  const Clock::time_point start = Clock::now();
  const uint64_t queue_wait_nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start -
                                                           task.received)
          .count();
  QueueWaitHistogram().Record(queue_wait_nanos);
  stats_->requests.fetch_add(1, std::memory_order_relaxed);
  RequestsCounter().Add(1);

  // One request context for the whole task, the deferred group-commit
  // wait included: the WAL and the timed locks charge its stages (which
  // the slow-query log reads), the data containers its memory account,
  // and every span — the sampled request's whole tree — lands in its
  // sink. ParallelFor carries it into pool helpers. Unsampled cost per
  // stage stays one clock read + the accumulate branch.
  obs::StageNanos stages;
  stages[obs::RequestStage::kDecode] = task.decode_nanos;
  stages[obs::RequestStage::kQueue] = queue_wait_nanos;
  obs::MemoryAccount account;
  obs::SpanSink spans;
  obs::ContextScope context({.trace_id = task.trace_id,
                             .sampled = task.sampled,
                             .account = &account,
                             .stages = &stages,
                             .spans = &spans});

  Response response;
  if (task.has_deadline && start >= task.deadline) {
    // Expired while queued: reject before doing any work.
    stats_->rejected_deadline.fetch_add(1, std::memory_order_relaxed);
    RejectedDeadlineCounter().Add(1);
    response = ErrorResponse(
        task.request.request_id,
        Status::DeadlineExceeded("deadline of " +
                                 std::to_string(task.request.deadline_ms) +
                                 " ms expired before execution"));
  } else {
    // Visible to the stalled-request watchdog for the execution window.
    obs::InflightRequest inflight;
    inflight.trace_id = task.trace_id;
    inflight.op = task.request.op;
    inflight.user = task.conn->User();
    inflight.start_nanos = obs::NowNanos();
    inflight.spans = &spans;
    inflight.worker_tid = obs::CurrentThreadId();
    obs::ScopedInflightRequest inflight_scope(std::move(inflight));
    const uint64_t execute_start = obs::NowNanos();
    response = Execute(*task.conn, task.request);
    stages[obs::RequestStage::kExecute] = obs::NowNanos() - execute_start;
    response.request_id = task.request.request_id;
  }
  if (!response.ok()) {
    stats_->errors.fetch_add(1, std::memory_order_relaxed);
    ErrorsCounter().Add(1);
  }
  RequestHistogram().Record(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());

  // Echo the trace id and — when the client sent a trace context — the
  // stage breakdown (WriteResponse fills encode and patches the block in
  // place).
  response.trace_id = task.trace_id;
  if (task.request.trace.has_value()) response.timing.emplace();
  (void)WriteResponse(*task.conn, response, &stages, &account);

  PublishTrace(task, response, stages, account, spans);
}

void QueryServer::PublishTrace(Task& task, const Response& response,
                               const obs::StageNanos& stages,
                               const obs::MemoryAccount& account,
                               obs::SpanSink& spans) {
  const uint64_t total_nanos = obs::NowNanos() - task.decode_start_nanos;
  // Tail-sampling escape hatch: a request that crossed the slow-query
  // threshold is recorded even when head sampling missed it (its span
  // tree is empty — spans were never recorded — but stages are real).
  bool slow = false;
  if (!task.sampled) {
    const std::optional<uint64_t> slow_ms = obs::SlowQueryThresholdMs();
    slow = slow_ms.has_value() && total_nanos >= *slow_ms * 1000000ull;
  }
  if (!task.sampled && !slow) return;

  obs::RequestTraceRecord record;
  record.trace_id = task.trace_id != 0 ? task.trace_id : obs::NextTraceId();
  record.request_id = task.request.request_id;
  record.op = task.request.op;
  record.user = task.conn->User();
  record.status_code = static_cast<int>(response.code);
  record.slow = slow;
  record.start_nanos = task.decode_start_nanos;
  record.total_nanos = total_nanos;
  record.stages = stages;
  record.alloc_bytes = account.AllocatedBytes();
  record.peak_bytes = account.PeakBytes();
  record.reader_tid = task.reader_tid;
  record.worker_tid = obs::CurrentThreadId();
  record.spans = obs::CopySpans(spans);
  obs::RequestTraceRing::Global().Publish(std::move(record));
}

Status QueryServer::WriteResponse(Connection& conn, Response& response,
                                  obs::StageNanos* stages,
                                  const obs::MemoryAccount* account) {
  const uint64_t encode_start = stages != nullptr ? obs::NowNanos() : 0;
  std::string payload = EncodeResponse(response);
  if (payload.size() > kMaxPayloadBytes) {
    // WriteFrame would refuse it, and the client would wait forever.
    Response refused = ErrorResponse(
        response.request_id,
        Status::ResourceExhausted(
            "response of " + std::to_string(payload.size()) +
            " bytes exceeds the frame cap of " +
            std::to_string(kMaxPayloadBytes) + " bytes"));
    refused.trace_id = response.trace_id;
    refused.timing = response.timing;
    response = std::move(refused);
    payload = EncodeResponse(response);
    stats_->errors.fetch_add(1, std::memory_order_relaxed);
    ErrorsCounter().Add(1);
  }
  if (stages != nullptr) {
    (*stages)[obs::RequestStage::kEncode] = obs::NowNanos() - encode_start;
    if (response.timing.has_value()) {
      // Stamp the measured stages into the trailing timing block. The
      // write stage stays 0 on the wire (unknowable before the write);
      // the trace ring gets its real value below.
      StageBreakdown timing;
      timing.decode_nanos = (*stages)[obs::RequestStage::kDecode];
      timing.queue_nanos = (*stages)[obs::RequestStage::kQueue];
      timing.execute_nanos = (*stages)[obs::RequestStage::kExecute];
      timing.wal_append_nanos = (*stages)[obs::RequestStage::kWalAppend];
      timing.wal_fsync_nanos = (*stages)[obs::RequestStage::kWalFsync];
      timing.encode_nanos = (*stages)[obs::RequestStage::kEncode];
      timing.lock_wait_nanos = (*stages)[obs::RequestStage::kLockWait];
      if (account != nullptr) {
        timing.alloc_bytes = account->AllocatedBytes();
        timing.peak_bytes = account->PeakBytes();
      }
      PatchResponseTiming(&payload, timing);
    }
  }
  std::lock_guard<std::mutex> lock(conn.write_mu);
  const uint64_t write_start = stages != nullptr ? obs::NowNanos() : 0;
  Status status = WriteFrame(conn.fd, payload);
  if (stages != nullptr) {
    (*stages)[obs::RequestStage::kWrite] = obs::NowNanos() - write_start;
  }
  if (status.ok()) {
    const size_t wire_bytes = payload.size() + store::kFrameHeaderBytes;
    stats_->bytes_out.fetch_add(wire_bytes, std::memory_order_relaxed);
    BytesOutCounter().Add(wire_bytes);
  }
  return status;
}

// ---- Execution ----

void QueryServer::RegisterBuiltins() {
  // `ping` is auth-free and keeps the shared session lock: it is the
  // probe the admission and lock-wait tests park on.
  HandlerSpec open;
  open.needs_auth = false;
  RegisterHandler("ping", open, [](const Request& request) {
    Response response;
    if (auto it = request.params.find("sleep_ms"); it != request.params.end()) {
      // Test hook: occupy this worker for a bounded while, so admission
      // tests can fill the queue deterministically.
      const long ms = std::min(std::strtol(it->second.c_str(), nullptr, 10),
                               1000L);
      if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
    response.text = "pong";
    return response;
  });

  // Role + dist-layer detail as (name, value) rows — the health probe
  // behind the shell's \role and QueryClient::WaitForLsn. Auth-free like
  // ping: failover tooling must see the role before it can log in.
  HandlerSpec probe = open;
  probe.needs_session_lock = false;
  RegisterHandler("role", probe, Serve([this](const Request&) -> Reply {
    rel::Table table("role",
                     rel::Schema({{"name", rel::ValueType::kString},
                                  {"value", rel::ValueType::kString}}));
    table.AppendRowUnchecked({rel::Value::String("role"),
                              rel::Value::String(ServerRoleName(Role()))});
    if (role_info_) {
      for (const auto& [name, value] : role_info_()) {
        table.AppendRowUnchecked(
            {rel::Value::String(name), rel::Value::String(value)});
      }
    }
    return CommandReply{"", std::move(table)};
  }));

  // Reads take no session lock: each pins the current catalog epoch (or
  // copies the query log under its own mutex), so no writer or
  // checkpoint can block it.
  HandlerSpec read;
  read.needs_session_lock = false;
  RegisterHandler("sql", read, Serve([this](const Request& r) -> Reply {
    GEA_ASSIGN_OR_RETURN(std::string query,
                         CommandParams(r.op, r.params).String("query"));
    GEA_ASSIGN_OR_RETURN(rel::Table table, session_->Query(query));
    return CommandReply{"", std::move(table)};
  }));
  RegisterHandler("tables", read, Serve([this](const Request&) -> Reply {
    return CommandReply{
        "", workbench::NamesTable("name", session_->SnapshotTableNames())};
  }));
  RegisterHandler("get_table", read, Serve([this](const Request& r) -> Reply {
    GEA_ASSIGN_OR_RETURN(std::string name,
                         CommandParams(r.op, r.params).String("name"));
    GEA_ASSIGN_OR_RETURN(rel::Table table, session_->MaterializeAnyTable(name));
    return CommandReply{"", std::move(table)};
  }));
  RegisterHandler("explain", read, Serve([this](const Request&) -> Reply {
    GEA_ASSIGN_OR_RETURN(std::string rendered, session_->ExplainLast());
    return CommandReply{std::move(rendered), {}};
  }));
  RegisterHandler("query_log", read, Serve([this](const Request& r) -> Reply {
    // The last `limit` entries; absent or negative means all of them.
    GEA_ASSIGN_OR_RETURN(int64_t limit,
                         CommandParams(r.op, r.params)
                             .IntOr("limit", -1, INT64_MIN, INT64_MAX));
    std::vector<workbench::AnalysisSession::QueryLogEntry> log =
        session_->QueryLog();
    const size_t first = limit >= 0 && static_cast<size_t>(limit) < log.size()
                             ? log.size() - static_cast<size_t>(limit)
                             : 0;
    rel::Table table("query",
                     rel::Schema({{"operation", rel::ValueType::kString},
                                  {"detail", rel::ValueType::kString},
                                  {"elapsed_ms", rel::ValueType::kDouble},
                                  {"ok", rel::ValueType::kInt},
                                  {"error", rel::ValueType::kString}}));
    for (size_t i = first; i < log.size(); ++i) {
      table.AppendRowUnchecked(
          {rel::Value::String(log[i].operation),
           rel::Value::String(log[i].detail),
           rel::Value::Double(static_cast<double>(log[i].elapsed_nanos) / 1e6),
           rel::Value::Int(log[i].ok ? 1 : 0),
           rel::Value::String(log[i].error)});
    }
    return CommandReply{"", std::move(table)};
  }));

  // The served writes: the session's command table decodes and runs
  // them, under the exclusive lock.
  HandlerSpec write;
  write.mutating = true;
  for (const char* op :
       {"tissue_dataset", "custom_dataset", "generate_metadata", "mine",
        "fascicles", "aggregate", "populate", "diff", "create_gap", "top_gap",
        "compare_gaps", "gap_query"}) {
    RegisterHandler(op, write, Serve([this](const Request& r) {
                      return session_->RunCommand(r.op, r.params);
                    }));
  }
  HandlerSpec admin = write;
  admin.admin_only = true;
  RegisterHandler("checkpoint", admin, Serve([this](const Request&) -> Reply {
    GEA_RETURN_IF_ERROR(session_->Checkpoint());
    return CommandReply{"checkpoint complete", {}};
  }));
}

Reply QueryServer::Login(Connection& conn, const Request& request) {
  CommandParams params(request.op, request.params);
  GEA_ASSIGN_OR_RETURN(std::string user, params.String("user"));
  GEA_ASSIGN_OR_RETURN(std::string password, params.String("password"));
  workbench::AccessLevel level = workbench::AccessLevel::kUser;
  if (auto it = request.params.find("level"); it != request.params.end()) {
    if (it->second == "admin" || it->second == "administrator") {
      level = workbench::AccessLevel::kAdministrator;
    } else if (it->second != "user") {
      return Status::InvalidArgument("unknown access level: " + it->second);
    }
  }
  GEA_ASSIGN_OR_RETURN(workbench::AccessLevel granted,
                       session_->AuthenticateUser(user, password, level));
  conn.level.store(static_cast<int>(granted), std::memory_order_release);
  conn.authenticated.store(true, std::memory_order_release);
  conn.SetUser(user);
  return CommandReply{"logged in as " + user + " (" +
                          workbench::AccessLevelName(granted) + ")",
                      {}};
}

Response QueryServer::Execute(Connection& conn, const Request& request) {
  // login and logout change this connection's rights, so they live with
  // the connection rather than in the registry.
  if (request.op == "login") return ToResponse(request, Login(conn, request));
  if (request.op == "logout") {
    conn.authenticated.store(false, std::memory_order_release);
    conn.level.store(0, std::memory_order_release);
    conn.SetUser("");
    Response response;
    response.text = "logged out";
    return response;
  }

  const bool authenticated = conn.authenticated.load(std::memory_order_acquire);
  auto it = handlers_.find(request.op);
  const bool known = it != handlers_.end();
  if (!authenticated && (!known || it->second.spec.needs_auth)) {
    // Before login, an unknown command is refused like any other.
    return ErrorResponse(
        request.request_id,
        Status::PermissionDenied("please authenticate with 'login' first"));
  }
  if (!known) {
    return ErrorResponse(
        request.request_id,
        Status::InvalidArgument("unknown command: " + request.op));
  }
  const HandlerSpec& spec = it->second.spec;
  const Handler& handler = it->second.fn;
  if (spec.admin_only &&
      conn.level.load(std::memory_order_acquire) !=
          static_cast<int>(workbench::AccessLevel::kAdministrator)) {
    return ErrorResponse(request.request_id,
                         Status::PermissionDenied(
                             request.op + " requires administrator access"));
  }
  // Role-aware admission: a replica serves reads and refuses writes, so
  // a client that mistakes a replica for the primary hears a clean
  // FailedPrecondition instead of diverging the copies. Promotion ops
  // opt out via allow_on_replica.
  if (spec.mutating && Role() == ServerRole::kReplica &&
      !spec.allow_on_replica) {
    return ErrorResponse(
        request.request_id,
        Status::FailedPrecondition(
            request.op +
            ": this server is a read-only replica; send writes to the "
            "primary"));
  }

  if (!spec.needs_session_lock) {
    // MVCC reads pin their own epoch, and blocking handlers (the
    // replication long-poll) must not hold a session lock the very
    // mutation they wait for needs.
    return handler(request);
  }
  if (spec.mutating) {
    // The exclusive lock now orders only writer-vs-writer catalog
    // mutation. Durability is NOT awaited under the lock: the session
    // runs with deferred commits, we collect the ticket here and wait
    // after unlocking, so concurrent writers' records coalesce into one
    // group-commit fsync.
    Response response;
    std::shared_ptr<store::CommitTicket> ticket;
    {
      std::unique_lock<SharedTimedMutex> lock(session_mu_);
      response = handler(request);
      ticket = session_->TakePendingCommit();
    }
    if (ticket != nullptr) {
      if (Status durable = ticket->Wait();
          !durable.ok() && response.code == StatusCode::kOk) {
        return ErrorResponse(request.request_id, durable);
      }
    }
    return response;
  }
  std::shared_lock<SharedTimedMutex> lock(session_mu_);
  return handler(request);
}

}  // namespace gea::serve
