#ifndef GEA_SERVE_SERVER_H_
#define GEA_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/timed_mutex.h"
#include "obs/request_trace.h"
#include "obs/resource.h"
#include "serve/protocol.h"
#include "workbench/session.h"

namespace gea::serve {

/// What a QueryServer *is* in a replicated/sharded deployment (src/dist).
/// A plain single-node server is a primary. The role gates admission:
/// a replica answers every mutating command with FailedPrecondition
/// (mutations belong on the primary); a router fans commands out to its
/// shard workers via registered handler overrides. The role is visible
/// through the `role` wire command and the shell's \role.
enum class ServerRole { kPrimary = 0, kReplica = 1, kRouter = 2 };

const char* ServerRoleName(ServerRole role);

/// Tuning knobs for QueryServer.
struct ServerOptions {
  /// TCP port to bind on loopback; 0 picks an ephemeral port (read it
  /// back with Port()).
  int port = 0;
  /// Worker threads executing admitted requests.
  size_t num_workers = 4;
  /// Bound of the admission queue. A request arriving while the queue is
  /// full is rejected immediately with RESOURCE_EXHAUSTED — explicit
  /// backpressure, never a silent drop or an unbounded buffer.
  size_t queue_capacity = 64;
};

/// The concurrent query service: a multi-client TCP front end over one
/// shared AnalysisSession.
///
/// ## Threading model
///
/// One accept thread hands each connection to a dedicated reader thread
/// and, on each accept, joins the readers whose connections have closed.
/// Readers decode frames and push requests onto a bounded admission
/// queue; `num_workers` workers drain it.
///
/// ## One command registry
///
/// Every command but `login`/`logout` (they change the connection's
/// rights, so they stay with it) is one registry entry: the constructor
/// registers the built-ins, RegisterHandler adds or replaces entries. A
/// request does one lookup, and the entry's HandlerSpec picks auth,
/// admin, the replica gate and the session lock: writes and checkpoint
/// take it exclusively (single writer), `ping` shared, and the MVCC reads
/// and `role` not at all. Served writes run through
/// AnalysisSession::RunCommand, the decoder WAL replay uses too.
///
/// ## Admission control
///
/// The queue is bounded (ServerOptions::queue_capacity). When it is
/// full the *reader* thread sends RESOURCE_EXHAUSTED for that request
/// right away, so a slow server surfaces backpressure to clients instead
/// of buffering unboundedly. Each request may carry a deadline
/// (Request::deadline_ms, measured from receipt); a request whose
/// deadline has passed by the time a worker picks it up is answered with
/// DEADLINE_EXCEEDED without executing.
///
/// ## Sessions and authentication
///
/// The embedded AnalysisSession must already be logged in (the embedder
/// owns it; Start() enforces this). Each *connection* then authenticates
/// itself with the `login` command, checked against the same user
/// database via AnalysisSession::AuthenticateUser — per-connection auth
/// state on top of one shared session. Commands other than `ping`,
/// `role`, `login` and `logout` require connection auth; `checkpoint`
/// requires administrator. Before login an unknown command is
/// PermissionDenied; after it, InvalidArgument.
///
/// ## Durability
///
/// Every mutating command goes through the session's normal Logged()
/// path, so it hits the query log, telemetry and — when storage is
/// attached — the WAL *before the response is sent*. An acknowledged
/// mutation therefore survives a crash: recovery replays it.
///
/// ## Commands
///
///   ping        [sleep_ms]                       no auth; echoes "pong"
///   role                                         no auth -> table
///   login       user, password, level(user|admin)
///   logout
///   sql         query                             -> table
///   tables                                       -> table (name)
///   get_table   name                             -> table
///   explain                                      -> text (EXPLAIN last op)
///   query_log   [limit]                          -> table
///   aggregate   enum, out, [replace]
///   populate    sumy, base, out, [replace]
///   diff        sumy1, sumy2, gap, [replace]     (alias: create_gap)
///   top_gap     gap, x, [mode 0..2]              -> text (stored name)
///   compare_gaps a, b, kind(0..2), out, [replace]
///   gap_query   compared, query(1..13), out, [replace]
///   tissue_dataset tissue, [replace]
///   custom_dataset name, libs("1,2,3"), [replace]
///   generate_metadata dataset, percent, meta, [replace]
///   mine        dataset, meta, min_compact_tags, batch_size, min_size,
///               out_prefix, [algorithm 0..1, default 1 = greedy]
///               (alias: fascicles)               -> table (fascicle names)
///   checkpoint                                   admin only
///
/// Boolean params accept "1"/"true" and "0"/"false"; absent means false,
/// anything else is InvalidArgument.
///
/// ## Request tracing
///
/// Every request's pipeline stages (decode, queue wait, execute, WAL
/// append/fsync, encode, write, session-lock wait) are clocked and the
/// execution's accounted allocation bytes / peak live bytes are
/// attributed to the request; a request carrying a trace context gets
/// the breakdown, with lock_wait and the memory pair, echoed in its
/// response. Sampled
/// requests — client sampled flag, GEA_TRACE_SAMPLE 1-in-N head
/// sampling, or the slow-query tail escape hatch — are published as
/// RequestTraceRecords (with the execution span tree when span-sampled)
/// into obs::RequestTraceRing, which feeds the gea_stat_requests view
/// and /tracez?format=chrome. See obs/request_trace.h.
///
/// ## Metrics
///
/// Counters gea.serve.{requests,errors,rejected_queue_full,
/// rejected_deadline,bytes_in,bytes_out,connections_total}, gauges
/// gea.serve.{queue_depth,connections}, histograms
/// gea.serve.{queue_wait_nanos,request_nanos} — all in /metrics and the
/// gea_stat_counters//gea_stat_histograms views (under GEA_METRICS).
/// The gea_stat_serve view reports per-server rows unconditionally.
class QueryServer {
 public:
  explicit QueryServer(workbench::AnalysisSession* session,
                       ServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, spins up workers and starts accepting. FailedPrecondition
  /// when already running or when the session is not logged in.
  Status Start();

  /// Graceful drain: stops accepting, wakes the readers, lets workers
  /// finish every already-admitted request (responses are still
  /// delivered), then joins all threads. Idempotent.
  void Stop();

  bool Running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port while running (0 otherwise).
  int Port() const { return port_.load(std::memory_order_acquire); }

  /// Point-in-time serving stats (always live, not gated on GEA_METRICS).
  struct Stats {
    uint64_t requests = 0;            // admitted + rejected
    uint64_t errors = 0;              // executed requests that failed
    uint64_t rejected_queue_full = 0;
    uint64_t rejected_deadline = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t connections_total = 0;
    int64_t connections = 0;          // currently open
    int64_t queue_depth = 0;
  };
  Stats GetStats() const;

  // ---- Roles + extension commands (the src/dist attachment points) ----

  /// Role changes are rare (replica promotion) and take effect for the
  /// next admitted request. Default kPrimary.
  void SetRole(ServerRole role) {
    role_.store(static_cast<int>(role), std::memory_order_release);
  }
  ServerRole Role() const {
    return static_cast<ServerRole>(role_.load(std::memory_order_acquire));
  }

  /// Extra (name, value) rows for the `role` command — the dist layer
  /// reports LSNs/lag/shard fan-out here. Set before Start().
  using RoleInfoProvider =
      std::function<std::map<std::string, std::string>()>;
  void SetRoleInfoProvider(RoleInfoProvider provider) {
    role_info_ = std::move(provider);
  }

  /// Adds a wire command to the one registry, or replaces the entry of
  /// that name — a built-in included, which is how the router overrides
  /// e.g. `aggregate` with a scatter-gather. `mutating` picks the
  /// exclusive session lock; `needs_session_lock = false` skips the
  /// session lock entirely — required for handlers that block (the
  /// replication long-poll must not hold a session lock while waiting
  /// for a mutation that needs it exclusively); `allow_on_replica`
  /// exempts a mutating handler from the replica rejection (promotion).
  /// Register before Start(); the registry is read without a lock.
  struct HandlerSpec {
    bool mutating = false;
    bool needs_auth = true;
    bool admin_only = false;
    bool allow_on_replica = false;
    bool needs_session_lock = true;
  };
  using Handler = std::function<Response(const Request& request)>;
  void RegisterHandler(const std::string& op, HandlerSpec spec,
                       Handler handler);

  /// The single-writer/many-readers session lock, exposed so replication
  /// can apply shipped records with the same exclusion the workers use
  /// (the puller thread takes it exclusively per applied record).
  SharedTimedMutex& SessionMutex() { return session_mu_; }

 private:
  struct Connection;
  struct Task;

  void AcceptLoop(int listen_fd);
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();

  /// Executes one admitted request and writes its response.
  void RunTask(Task task);
  /// Looks the request's command up in the registry and runs it under
  /// its HandlerSpec.
  Response Execute(Connection& conn, const Request& request);
  /// Registers the built-in commands (constructor only).
  void RegisterBuiltins();
  Result<workbench::CommandReply> Login(Connection& conn,
                                       const Request& request);
  /// Encodes and writes one response. With `stages`, measures the encode
  /// and write stages into it and patches the response's wire timing
  /// block (when present) before framing; `account` supplies the
  /// memory-accounting fields of that block. A response too large for
  /// one frame is replaced, in `response` too, by a RESOURCE_EXHAUSTED
  /// error carrying the same request id, so the client is answered either
  /// way and the trace ring records the status the client received.
  Status WriteResponse(Connection& conn, Response& response,
                       obs::StageNanos* stages = nullptr,
                       const obs::MemoryAccount* account = nullptr);
  /// Publishes the finished request into the global trace ring when it
  /// was sampled (or crossed the slow-query threshold).
  void PublishTrace(Task& task, const Response& response,
                    const obs::StageNanos& stages,
                    const obs::MemoryAccount& account, obs::SpanSink& spans);

  workbench::AnalysisSession* session_;
  ServerOptions options_;

  std::atomic<int> role_{0};  // ServerRole
  RoleInfoProvider role_info_;
  struct HandlerEntry {
    HandlerSpec spec;
    Handler fn;
  };
  std::map<std::string, HandlerEntry> handlers_;  // frozen after Start()

  std::mutex lifecycle_mu_;  // serializes Start/Stop
  std::atomic<bool> running_{false};
  std::atomic<int> port_{0};
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  // Per-connection readers, guarded by conns_mu_. A reader files its id
  // in exited_readers_ as it returns; AcceptLoop joins those on the next
  // accept and Stop() joins the rest.
  struct Reader {
    std::thread thread;
    std::weak_ptr<Connection> conn;  // Stop() shuts it down to wake the reader
  };
  std::mutex conns_mu_;
  std::map<std::thread::id, Reader> readers_;
  std::vector<std::thread::id> exited_readers_;

  // Admission queue. The mutex is lock-wait instrumented
  // ("gea.lock.queue"); condition_variable_any works with any Lockable.
  TimedMutex queue_mu_{"gea.lock.queue"};
  std::condition_variable_any queue_cv_;
  std::deque<Task> queue_;
  bool draining_ = false;  // Stop() in progress: workers drain then exit

  // Single writer / many readers over the shared session, lock-wait
  // instrumented ("gea.lock.session" read/write histograms plus the
  // per-request lock_wait stage).
  SharedTimedMutex session_mu_{"gea.lock.session"};

  // Live stats (see Stats). Relaxed atomics; mirrored into gea.serve.*
  // registry metrics when metrics are enabled.
  struct LiveStats;
  std::unique_ptr<LiveStats> stats_;
};

}  // namespace gea::serve

#endif  // GEA_SERVE_SERVER_H_
