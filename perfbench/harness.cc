#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string_view>

#include "cluster/fascicles.h"
#include "core/gap.h"
#include "core/operators.h"
#include "core/populate.h"
#include "rel/sql.h"
#include "sage/cleaning.h"
#include "sage/generator.h"
#include "sage/io.h"
#include "sage/library.h"
#include "sage/stats.h"
#include "store/format.h"

namespace perfbench {

using gea::serve::Response;

namespace {

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr size_t kMaxErrorsKept = 8;

}  // namespace

double NowSeconds() { return static_cast<double>(SteadyNanos()) / 1e9; }

// ---- Watchdog ----

Watchdog::Watchdog(size_t slots, double limit_seconds)
    : limit_seconds_(limit_seconds),
      started_ns_(new std::atomic<int64_t>[slots]),
      slots_(slots) {
  for (size_t i = 0; i < slots_; ++i) started_ns_[i].store(0);
  thread_ = std::thread(&Watchdog::Loop, this);
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::Begin(size_t slot) {
  started_ns_[slot % slots_].store(SteadyNanos(), std::memory_order_relaxed);
}

void Watchdog::End(size_t slot) {
  started_ns_[slot % slots_].store(0, std::memory_order_relaxed);
}

void Watchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                       [this] { return stop_; })) {
    const int64_t now = SteadyNanos();
    for (size_t i = 0; i < slots_; ++i) {
      const int64_t started = started_ns_[i].load(std::memory_order_relaxed);
      if (started == 0) continue;
      const double waited = static_cast<double>(now - started) / 1e9;
      if (waited < limit_seconds_) continue;
      // A blocked client cannot be unwound; report the run as failed and
      // end the process.
      std::fprintf(stderr,
                   "perfbench: request on client %zu unanswered after %.1f s; "
                   "ending the run as failed\n",
                   i, waited);
      std::printf(
          "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
          "\"metrics\": {}}\n");
      std::fflush(stdout);
      std::_Exit(1);
    }
  }
}

// ---- Client ----

Client::Client(size_t index, uint64_t seed, Watchdog* watchdog)
    : index_(index),
      rng_(seed * 1000003u + index * 7919u + 17u),
      watchdog_(watchdog) {}

Status Client::Connect(const Endpoint& endpoint) {
  endpoint_ = endpoint;
  GEA_RETURN_IF_ERROR(client_.Connect(endpoint.port));
  return client_.Login(endpoint.user, endpoint.password, endpoint.level);
}

Status Client::Reconnect() {
  if (!Issue(OpKind::kOther, "logout", {}).has_value()) {
    return Status::Internal("logout failed");
  }
  client_.Close();
  if (Status status = client_.Connect(endpoint_.port); !status.ok()) {
    RecordError("reconnect: " + status.ToString());
    return status;
  }
  if (!Issue(OpKind::kOther, "login",
             {{"user", endpoint_.user},
              {"password", endpoint_.password},
              {"level", endpoint_.level}})
           .has_value()) {
    return Status::Internal("login failed");
  }
  return Status::OK();
}

std::optional<Response> Client::Issue(
    OpKind kind, const std::string& op,
    std::map<std::string, std::string> params) {
  ++attempted_;
  watchdog_->Begin(index_);
  const int64_t start = SteadyNanos();
  gea::Result<Response> response = client_.Call(op, std::move(params));
  const int64_t end = SteadyNanos();
  watchdog_->End(index_);
  if (!response.ok()) {
    RecordError(op + ": " + response.status().ToString());
    return std::nullopt;
  }
  if (!response->ok()) {
    RecordError(op + ": " + response->ToStatus().ToString());
    return std::nullopt;
  }
  if (recording_) {
    Sample sample;
    sample.op = op;
    sample.kind = kind;
    sample.rtt_ms = static_cast<double>(end - start) / 1e6;
    sample.end_s = static_cast<double>(end) / 1e9;
    sample.timing = client_.LastTiming();
    samples_.push_back(std::move(sample));
  }
  return std::move(*response);
}

void Client::Reject(const std::string& why) {
  // The request was answered and sampled, but its reply is wrong: it
  // counts as failed and leaves the latency sample.
  if (recording_ && !samples_.empty()) samples_.pop_back();
  RecordError("wrong reply: " + why);
}

void Client::RecordError(const std::string& what) {
  ++failed_;
  if (errors_.size() < kMaxErrorsKept) {
    errors_.push_back("client " + std::to_string(index_) + ": " + what);
  }
}

std::vector<Sample> Client::TakeSamples() {
  std::vector<Sample> out;
  out.swap(samples_);
  return out;
}

void Client::ResetCounts() {
  attempted_ = 0;
  failed_ = 0;
}

void Workload::DistProbe(Watchdog* watchdog, MetricList* out) {
  (void)watchdog;
  out->push_back({"dist.router_tax_p50_ms", 0.0, "ms"});
  out->push_back({"dist.shard_exec_max_ms", 0.0, "ms"});
}

// ---- Data and references ----

gea::sage::SageDataSet MakeDataSet(uint64_t seed, int baseline_tags) {
  gea::sage::GeneratorConfig config;
  config.seed = seed;
  config.num_baseline_tags_per_tissue = baseline_tags;
  gea::sage::SyntheticSage synth =
      gea::sage::SyntheticSageGenerator(config).Generate();
  gea::sage::CleanAndNormalize(synth.dataset);
  // Hand the program the panel as it reads from SAGE library files: at
  // the text format's precision. The WAL logs a loaded data set in that
  // format, so a panel with more digits would not recover byte-identical.
  gea::sage::SageDataSet loaded;
  for (const gea::sage::SageLibrary& lib : synth.dataset.libraries()) {
    gea::Result<gea::sage::SageLibrary> read = gea::sage::ReadLibraryText(
        lib.name(), gea::sage::WriteLibraryText(lib));
    if (!read.ok()) {
      std::fprintf(stderr, "perfbench: library text round trip failed: %s\n",
                   read.status().ToString().c_str());
      std::exit(1);
    }
    loaded.AddLibrary(std::move(*read));
  }
  return loaded;
}

std::unique_ptr<gea::workbench::AnalysisSession> NewAdminSession() {
  auto session =
      std::make_unique<gea::workbench::AnalysisSession>("admin", "secret");
  Status status = session->Login("admin", "secret",
                                 gea::workbench::AccessLevel::kAdministrator);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: login failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  return session;
}

std::string AllLibraryIds(const gea::sage::SageDataSet& data) {
  std::string ids;
  for (size_t i = 0; i < data.NumLibraries(); ++i) {
    if (!ids.empty()) ids += ',';
    ids += std::to_string(data.library(i).id());
  }
  return ids;
}

Status LoadWithAllLibraries(gea::workbench::AnalysisSession& session,
                            const gea::sage::SageDataSet& data) {
  GEA_RETURN_IF_ERROR(session.LoadDataSet(data));
  std::vector<int> ids;
  for (size_t i = 0; i < data.NumLibraries(); ++i) {
    ids.push_back(data.library(i).id());
  }
  return session.CreateCustomDataSet("ALL", ids);
}

Status BuildTissueCatalog(gea::workbench::AnalysisSession& session,
                          const gea::sage::SageDataSet& data) {
  GEA_RETURN_IF_ERROR(LoadWithAllLibraries(session, data));
  GEA_RETURN_IF_ERROR(session.Aggregate("ALL", "ALL_S"));
  for (gea::sage::TissueType type : gea::sage::AllTissueTypes()) {
    const std::string t = gea::sage::TissueTypeName(type);
    GEA_RETURN_IF_ERROR(session.CreateTissueDataSet(type));
    GEA_RETURN_IF_ERROR(session.Aggregate(t, t + "_S"));
    GEA_RETURN_IF_ERROR(session.CreateGap(t + "_S", "ALL_S", t + "_G"));
  }
  return Status::OK();
}

std::string CanonicalBytes(gea::rel::Table table) {
  table.set_name("");
  return gea::store::EncodeTable(table);
}

Status CheckUnderFrameCap(const std::string& name,
                          const gea::rel::Table& table) {
  Response response;
  response.table = table;
  response.timing.emplace();
  const size_t bytes = gea::serve::EncodeResponse(response).size();
  if (bytes >= gea::serve::kMaxPayloadBytes) {
    return Status::FailedPrecondition(
        "reply for " + name + " would be " + std::to_string(bytes) +
        " bytes, over the wire frame cap; the server would never send it");
  }
  return Status::OK();
}

std::vector<std::string> FirstColumn(const gea::rel::Table& table) {
  std::vector<std::string> out;
  for (size_t row = 0; row < table.NumRows(); ++row) {
    out.push_back(table.GetRow(row)[0].ToString());
  }
  return out;
}

Status VerifyRecovery(std::unique_ptr<gea::workbench::AnalysisSession> live,
                      const std::string& dir, double* recovery_ms) {
  GEA_RETURN_IF_ERROR(live->DrainCommits());
  const std::string before = live->ExportSnapshotBlob();
  const size_t before_hash = std::hash<std::string_view>{}(before);
  const size_t before_size = before.size();
  GEA_RETURN_IF_ERROR(live->CloseStorage());
  live.reset();

  auto recovered = NewAdminSession();
  const double start = NowSeconds();
  GEA_RETURN_IF_ERROR(recovered->OpenStorage(dir));
  *recovery_ms = (NowSeconds() - start) * 1e3;
  const std::string after = recovered->ExportSnapshotBlob();
  if (after.size() != before_size ||
      std::hash<std::string_view>{}(after) != before_hash) {
    return Status::Internal(
        "recovered catalog differs from the catalog before the stop (" +
        std::to_string(after.size()) + " vs " + std::to_string(before_size) +
        " bytes)");
  }
  return recovered->CloseStorage();
}

// ---- Statistics ----

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double MedianMs(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const int64_t start = SteadyNanos();
    fn();
    times.push_back(static_cast<double>(SteadyNanos() - start) / 1e6);
  }
  return Quantile(std::move(times), 0.5);
}

ProcStatus ReadProcStatus() {
  ProcStatus status;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    const auto field = [&line](const char* key) -> std::optional<double> {
      const size_t len = std::char_traits<char>::length(key);
      if (line.compare(0, len, key) != 0) return std::nullopt;
      return std::strtod(line.c_str() + len, nullptr);
    };
    if (auto v = field("VmHWM:")) status.vm_hwm_mb = *v / 1024.0;
    if (auto v = field("VmSize:")) status.vm_size_mb = *v / 1024.0;
    if (auto v = field("Threads:")) status.threads = *v;
  }
  return status;
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double CounterDelta(const gea::obs::MetricsSnapshot& before,
                    const gea::obs::MetricsSnapshot& after,
                    const std::string& name) {
  const auto value = [&name](const gea::obs::MetricsSnapshot& s) -> double {
    for (const auto& c : s.counters) {
      if (c.name == name) return static_cast<double>(c.value);
    }
    return 0.0;
  };
  return value(after) - value(before);
}

double HistogramDeltaQuantile(const gea::obs::MetricsSnapshot& before,
                              const gea::obs::MetricsSnapshot& after,
                              const std::string& name, double q) {
  const auto find = [&name](const gea::obs::MetricsSnapshot& s)
      -> const gea::obs::HistogramValue* {
    for (const auto& h : s.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  };
  const gea::obs::HistogramValue* a = find(after);
  if (a == nullptr) return 0.0;
  const gea::obs::HistogramValue* b = find(before);
  std::vector<double> counts(gea::obs::kHistogramBuckets);
  double total = 0.0;
  for (size_t i = 0; i < gea::obs::kHistogramBuckets; ++i) {
    counts[i] = static_cast<double>(a->buckets[i]) -
                (b != nullptr ? static_cast<double>(b->buckets[i]) : 0.0);
    total += counts[i];
  }
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  double seen = 0.0;
  for (size_t i = 0; i < gea::obs::kHistogramBuckets; ++i) {
    if (counts[i] <= 0.0) continue;
    if (seen + counts[i] >= target) {
      const double lo =
          i == 0 ? 0.0
                 : static_cast<double>(gea::obs::HistogramBucketUpperBound(i - 1));
      const double hi =
          i + 1 >= gea::obs::kHistogramBuckets
              ? lo * 2.0
              : static_cast<double>(gea::obs::HistogramBucketUpperBound(i));
      return lo + (hi - lo) * (target - seen) / counts[i];
    }
    seen += counts[i];
  }
  return 0.0;
}

// ---- Layer probes ----

void RunLayerProbes(const gea::workbench::AnalysisSession& session,
                    const ProbePlan& plan, MetricList* out) {
  using gea::obs::MetricsRegistry;
  gea::obs::ScopedMetricsEnable metrics(true);
  constexpr int kReps = 5;
  const auto fail = [](const std::string& what, const Status& status) {
    std::fprintf(stderr, "perfbench: layer probe %s failed: %s\n",
                 what.c_str(), status.ToString().c_str());
    std::exit(1);
  };

  // core: populate, aggregate, diff.
  const gea::core::EnumTable* base = *session.GetEnum(plan.populate_base);
  const gea::core::SumyTable* sumy = *session.GetSumy(plan.populate_sumy);
  gea::core::PopulateEngine::Stats populate_stats;
  const double populate_ms = MedianMs(kReps, [&] {
    gea::core::PopulateEngine engine(*base);
    populate_stats = {};
    auto result = engine.Populate(*sumy, "probe_pop", &populate_stats);
    if (!result.ok()) fail("populate", result.status());
  });
  out->push_back({"core.populate_ms", populate_ms, "ms"});
  out->push_back({"core.populate.values_checked_per_op",
                  static_cast<double>(populate_stats.values_checked), "count"});

  const gea::core::EnumTable* agg_input = *session.GetEnum(plan.aggregate_enum);
  gea::obs::MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  (void)MedianMs(kReps, [&] {
    auto result = gea::core::Aggregate(*agg_input, "probe_sumy");
    if (!result.ok()) fail("aggregate", result.status());
  });
  gea::obs::MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  out->push_back({"core.aggregate.cells_per_op",
                  CounterDelta(before, after, "gea.aggregate.cells_scanned") /
                      kReps,
                  "count"});

  const gea::core::SumyTable* diff1 = *session.GetSumy(plan.diff_sumy1);
  const gea::core::SumyTable* diff2 = *session.GetSumy(plan.diff_sumy2);
  out->push_back({"core.diff_ms", MedianMs(kReps, [&] {
                    auto result = gea::core::Diff(*diff1, *diff2, "probe_gap");
                    if (!result.ok()) fail("diff", result.status());
                  }),
                  "ms"});

  // cluster: the fascicle miner on the §4.3.1 parameters.
  const gea::core::EnumTable* mine_input = *session.GetEnum(plan.mine_enum);
  gea::cluster::FascicleParams params;
  params.min_compact_tags = kMinCompactTags;
  params.batch_size = kBatchSize;
  params.min_size = kMinSize;
  params.tolerances =
      gea::core::MakeToleranceMetadata(*mine_input, kMetaPercent);
  before = MetricsRegistry::Global().Snapshot();
  const double fascicles_ms = MedianMs(kReps, [&] {
    gea::cluster::FascicleMiner miner(mine_input->values().data(),
                                      mine_input->NumLibraries(),
                                      mine_input->NumTags());
    auto result = miner.Mine(params);
    if (!result.ok()) fail("fascicles", result.status());
  });
  after = MetricsRegistry::Global().Snapshot();
  out->push_back({"cluster.fascicles_ms", fascicles_ms, "ms"});
  out->push_back(
      {"cluster.candidates_evaluated_per_op",
       CounterDelta(before, after, "gea.fascicles.candidates_evaluated") / kReps,
       "count"});

  // rel: the workload's SQL against the relations catalog.
  before = MetricsRegistry::Global().Snapshot();
  const double sql_ms = MedianMs(kReps, [&] {
    for (const std::string& query : plan.sql) {
      auto result = gea::rel::ExecuteQuery(session.Relations(), query);
      if (!result.ok()) fail("sql " + query, result.status());
    }
  });
  after = MetricsRegistry::Global().Snapshot();
  const double queries = static_cast<double>(std::max<size_t>(plan.sql.size(), 1));
  out->push_back({"rel.sql_ms", sql_ms / queries, "ms"});
  out->push_back({"rel.rows_scanned_per_op",
                  CounterDelta(before, after, "gea.rel.rows_scanned") /
                      (kReps * queries),
                  "count"});

  // sage: the rotated TAGS view, rebuilt for every TAGS query.
  const gea::sage::SageDataSet* data = *session.DataSet();
  out->push_back({"sage.tags_table_ms", MedianMs(kReps, [&] {
                    gea::rel::Table tags = gea::sage::BuildTagsTable(*data);
                    if (tags.NumRows() == 0) fail("tags", Status::OK());
                  }),
                  "ms"});

  // store: the table codec on the tables the workload fetches.
  std::vector<gea::rel::Table> tables;
  for (const std::string& name : plan.fetched) {
    auto table = session.MaterializeAnyTable(name);
    if (!table.ok()) fail("fetch " + name, table.status());
    tables.push_back(std::move(*table));
  }
  std::vector<std::string> encoded(tables.size());
  const double per_table = static_cast<double>(std::max<size_t>(tables.size(), 1));
  const double encode_ms = MedianMs(kReps, [&] {
    for (size_t i = 0; i < tables.size(); ++i) {
      encoded[i] = gea::store::EncodeTable(tables[i]);
    }
  });
  const double decode_ms = MedianMs(kReps, [&] {
    for (const std::string& bytes : encoded) {
      auto table = gea::store::DecodeTable(bytes);
      if (!table.ok()) fail("decode", table.status());
    }
  });
  out->push_back({"store.encode_table_ms", encode_ms / per_table, "ms"});
  out->push_back({"store.decode_table_ms", decode_ms / per_table, "ms"});
}

}  // namespace perfbench
