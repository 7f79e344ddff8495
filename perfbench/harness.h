#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared machinery of the GEA benchmark: closed-loop clients over
// loopback TCP, the request watchdog, statistics, registry and /proc
// readings, the workload interface and the timed layer probes.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "rel/table.h"
#include "sage/dataset.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workbench/session.h"

namespace perfbench {

using gea::Status;

/// Client threads and connections: the benchmark host's nproc.
inline constexpr size_t kClients = 4;

/// Reads are sql, get_table and tables; writes are catalog-mutating ops;
/// login/logout are neither.
enum class OpKind { kRead, kWrite, kOther };

/// One answered request, as the client saw it.
struct Sample {
  std::string op;
  OpKind kind = OpKind::kOther;
  double rtt_ms = 0.0;
  double end_s = 0.0;  // completion time, NowSeconds() clock
  std::optional<gea::serve::StageBreakdown> timing;  // traced phase only
};

/// One metric line of the result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

/// Ends the process as a failed run when any request stays in flight
/// longer than the limit. QueryClient has no receive timeout, so a reply
/// the server never sends (an oversized frame is refused by WriteFrame
/// and the error is dropped) would otherwise block the run forever.
class Watchdog {
 public:
  Watchdog(size_t slots, double limit_seconds);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Begin(size_t slot);
  void End(size_t slot);

 private:
  void Loop();

  const double limit_seconds_;
  std::unique_ptr<std::atomic<int64_t>[]> started_ns_;  // 0 = idle
  const size_t slots_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Where and as whom a client logs in.
struct Endpoint {
  int port = 0;
  std::string user;
  std::string password;
  std::string level = "admin";
};

/// One closed-loop client: a connection, its seeded request stream and
/// the log of what it was answered.
class Client {
 public:
  Client(size_t index, uint64_t seed, Watchdog* watchdog);

  size_t index() const { return index_; }
  std::mt19937_64& rng() { return rng_; }
  /// Steps completed so far (warm-up included); workloads derive unique
  /// per-pass names from it.
  uint64_t steps() const { return steps_; }
  void CountStep() { ++steps_; }

  Status Connect(const Endpoint& endpoint);
  /// Logs out, drops the connection, reconnects and logs in again. A
  /// failure is counted like a failed request.
  Status Reconnect();
  void SetTracing(bool on) { client_.SetTracing(on); }
  /// Samples are kept only while recording (not during warm-up).
  void SetRecording(bool on) { recording_ = on; }

  /// Sends one request and waits for it. Returns the reply when it
  /// arrived and is OK; otherwise counts a failure and returns nullopt.
  std::optional<gea::serve::Response> Issue(
      OpKind kind, const std::string& op,
      std::map<std::string, std::string> params);
  /// Counts the last answered request as wrong (its reply did not match
  /// the reference).
  void Reject(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  std::vector<Sample> TakeSamples();
  void ResetCounts();

 private:
  void RecordError(const std::string& what);

  size_t index_;
  std::mt19937_64 rng_;
  Watchdog* watchdog_;
  Endpoint endpoint_;
  gea::serve::QueryClient client_;
  bool recording_ = false;
  uint64_t steps_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<Sample> samples_;
};

/// A benchmark workload: one deployment of the program and the traffic
/// its clients send.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Computes, untimed, the reference every reply is checked against.
  virtual Status Prepare() = 0;
  /// Timed set-up: storage, data sets, servers. `dir` is empty and owned
  /// by the workload until Teardown.
  virtual Status Setup(const std::string& dir) = 0;
  virtual Endpoint ClientEndpoint() const = 0;
  /// One closed-loop unit of `client`'s work: a request or a pass.
  virtual void Step(Client& client) = 0;
  /// Serving stats of the server the clients talk to.
  virtual gea::serve::QueryServer::Stats FrontStats() const = 0;
  /// Stops serving. With `recover`, reopens the storage directory and
  /// checks it recovers the catalog byte-identically; *recovery_ms is the
  /// reopen time (left 0 without storage).
  virtual Status StopAndVerify(bool recover, double* recovery_ms) = 0;
  virtual void Teardown() = 0;
  /// Timed calls into module functions on this workload's inputs.
  virtual void LayerProbes(MetricList* out) = 0;
  /// Routed RTT against direct-to-shard RTT; zeros without a router.
  virtual void DistProbe(Watchdog* watchdog, MetricList* out);
};

std::unique_ptr<Workload> MakeAnalyze(uint64_t seed);
std::unique_ptr<Workload> MakeBrowse(uint64_t seed);
std::unique_ptr<Workload> MakeRouted(uint64_t seed);

// ---- Shared helpers ----

/// The seeded synthetic SAGE panel (108 libraries), cleaned and
/// normalized. `baseline_tags` scales the per-tissue tag pool.
gea::sage::SageDataSet MakeDataSet(uint64_t seed, int baseline_tags);

/// A logged-in administrator session; aborts the run on failure.
std::unique_ptr<gea::workbench::AnalysisSession> NewAdminSession();

/// Comma-joined library ids of `data`, the custom_dataset form.
std::string AllLibraryIds(const gea::sage::SageDataSet& data);

/// Loads `data` and creates "ALL", the all-library ENUM.
Status LoadWithAllLibraries(gea::workbench::AnalysisSession& session,
                            const gea::sage::SageDataSet& data);

/// LoadWithAllLibraries plus "ALL_S" = aggregate(ALL) and, per tissue T,
/// its ENUM "T", "T_S" = aggregate(T) and "T_G" = diff(T_S, ALL_S).
Status BuildTissueCatalog(gea::workbench::AnalysisSession& session,
                          const gea::sage::SageDataSet& data);

/// store::EncodeTable bytes of `table` with its name cleared, so a
/// per-client result compares byte-for-byte against a reference computed
/// under another name.
std::string CanonicalBytes(gea::rel::Table table);

/// Fails when a reply carrying `table` would exceed the wire frame cap:
/// the server would drop that reply and the client would wait forever.
Status CheckUnderFrameCap(const std::string& name, const gea::rel::Table& table);

/// Values of column 0 of a string table (tables / mine replies).
std::vector<std::string> FirstColumn(const gea::rel::Table& table);

/// Reopens `dir` in a fresh session (running WAL recovery) and checks the
/// recovered catalog is byte-identical to `live`'s. `live` is closed and
/// released first; its server must already be stopped.
Status VerifyRecovery(std::unique_ptr<gea::workbench::AnalysisSession> live,
                      const std::string& dir, double* recovery_ms);

/// Quantile with linear interpolation between order statistics; 0 for an
/// empty sample.
double Quantile(std::vector<double> values, double q);

/// Median wall time of `reps` calls of `fn`, in milliseconds.
double MedianMs(int reps, const std::function<void()>& fn);

double NowSeconds();

/// Resident and virtual memory and thread count from /proc/self/status.
struct ProcStatus {
  double vm_hwm_mb = 0.0;
  double vm_size_mb = 0.0;
  double threads = 0.0;
};
ProcStatus ReadProcStatus();
/// Resets VmHWM so the peak covers only what follows (best effort).
void ResetPeakRss();

/// Registry deltas between two snapshots.
double CounterDelta(const gea::obs::MetricsSnapshot& before,
                    const gea::obs::MetricsSnapshot& after,
                    const std::string& name);
/// Quantile of a histogram delta, interpolated inside the power-of-two
/// bucket that holds it.
double HistogramDeltaQuantile(const gea::obs::MetricsSnapshot& before,
                              const gea::obs::MetricsSnapshot& after,
                              const std::string& name, double q);

/// What the common layer probes run against: table names in a logged-in
/// reference session.
struct ProbePlan {
  std::string populate_sumy;
  std::string populate_base;
  std::string aggregate_enum;
  std::string diff_sumy1;
  std::string diff_sumy2;
  std::string mine_enum;
  std::vector<std::string> sql;      // over the session's relations
  std::vector<std::string> fetched;  // tables the workload reads
};

/// Times core, cluster, rel, sage and store functions on `plan`'s inputs
/// and appends their metrics.
void RunLayerProbes(const gea::workbench::AnalysisSession& session,
                    const ProbePlan& plan, MetricList* out);

/// Parameters of the §4.3.1 fascicle step, shared by workloads and probes.
inline constexpr double kMetaPercent = 25.0;
inline constexpr size_t kMinCompactTags = 150;
inline constexpr size_t kBatchSize = 6;
inline constexpr size_t kMinSize = 3;

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
