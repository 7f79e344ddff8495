// The GEA benchmark binary. One process sets up the program over real
// loopback TCP, drives it closed-loop from kClients client threads
// (each waits for every reply, as an analyst's next step needs the
// previous table), checks every reply against a reference, and prints
// one JSON result line:
//
//   gea_perfbench --workload analyze|browse|routed --seed N --seconds S
//                 --trace 0|1 [--workdir DIR]
//
// --trace 0 measures with tracing and metrics off and reports the
// end-to-end metrics. --trace 1 runs the same untraced phase, then a
// traced phase (client tracing + registry metrics) and the timed layer
// probes, and reports the per-layer metrics.

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

// A request unanswered this long ends the run as failed (see Watchdog).
constexpr double kRequestLimitSeconds = 30.0;
constexpr int kSetupReps = 5;
// Latency percentiles and throughput are taken per window of the measured
// phase and reported as the median across windows, so a disturbance on a
// shared host that lasts a second or two does not decide a run's figure.
constexpr double kWindowSeconds = 2.0;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

// Everything one measured phase saw.
struct Phase {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  double start = 0.0;  // NowSeconds() at the phase start
  double seconds = 0.0;

  double OpsPerSecond() const {
    return static_cast<double>(attempted - failed) / seconds;
  }
};

Phase RunPhase(Workload& workload,
               std::vector<std::unique_ptr<Client>>& clients, double seconds) {
  for (auto& client : clients) client->ResetCounts();
  const double start = NowSeconds();
  const double end = start + seconds;
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&workload, &client, end] {
      while (NowSeconds() < end) {
        workload.Step(*client);
        client->CountStep();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Phase phase;
  phase.start = start;
  phase.seconds = NowSeconds() - start;
  for (auto& client : clients) {
    std::vector<Sample> samples = client->TakeSamples();
    phase.samples.insert(phase.samples.end(),
                         std::make_move_iterator(samples.begin()),
                         std::make_move_iterator(samples.end()));
    phase.attempted += client->attempted();
    phase.failed += client->failed();
    phase.errors.insert(phase.errors.end(), client->errors().begin(),
                        client->errors().end());
  }
  return phase;
}

// `field` in ms over the samples `keep` selects (all with timing).
template <typename Keep, typename Field>
std::vector<double> Collect(const Phase& phase, Keep keep, Field field) {
  std::vector<double> out;
  for (const Sample& sample : phase.samples) {
    if (keep(sample)) out.push_back(field(sample));
  }
  return out;
}

double StageMs(uint64_t nanos) { return static_cast<double>(nanos) / 1e6; }

// Per-op request counts and RTT percentiles, on stderr for the reader.
void PrintOpSummary(const char* label, const Phase& phase) {
  std::map<std::string, std::vector<double>> by_op;
  for (const Sample& sample : phase.samples) {
    by_op[sample.op].push_back(sample.rtt_ms);
  }
  std::fprintf(stderr, "%s phase: %.2f s, %.1f ops/s\n", label, phase.seconds,
               phase.OpsPerSecond());
  for (const auto& [op, rtts] : by_op) {
    std::fprintf(stderr, "  %-18s n=%-7zu p50 %9.3f ms  p99 %9.3f ms\n",
                 op.c_str(), rtts.size(), Quantile(rtts, 0.50),
                 Quantile(rtts, 0.99));
  }
}

// The phase's answered requests, split by completion time into
// kWindowSeconds windows; the last window also takes the overrun of the
// final steps.
std::vector<std::vector<const Sample*>> Windows(const Phase& phase,
                                                double requested_seconds) {
  const size_t count = std::max<size_t>(
      1, static_cast<size_t>(requested_seconds / kWindowSeconds));
  std::vector<std::vector<const Sample*>> windows(count);
  for (const Sample& sample : phase.samples) {
    const double at = std::max(0.0, sample.end_s - phase.start);
    windows[std::min(count - 1, static_cast<size_t>(at / kWindowSeconds))]
        .push_back(&sample);
  }
  return windows;
}

MetricList EndToEnd(const std::vector<double>& setup_s, const Phase& phase,
                    double requested_seconds, const ProcStatus& proc) {
  const auto windows = Windows(phase, requested_seconds);
  std::vector<double> rates;
  for (size_t i = 0; i < windows.size(); ++i) {
    const double length =
        i + 1 < windows.size()
            ? kWindowSeconds
            : phase.seconds - kWindowSeconds * static_cast<double>(i);
    rates.push_back(static_cast<double>(windows[i].size()) / length);
  }
  const auto latency = [&windows](OpKind kind, double q) {
    std::vector<double> per_window;
    for (const auto& window : windows) {
      std::vector<double> rtts;
      for (const Sample* sample : window) {
        if (sample->kind == kind) rtts.push_back(sample->rtt_ms);
      }
      if (!rtts.empty()) per_window.push_back(Quantile(std::move(rtts), q));
    }
    return Quantile(std::move(per_window), 0.5);
  };
  return {
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"ops_per_s", Quantile(std::move(rates), 0.5), "1/s"},
      {"read_p50_ms", latency(OpKind::kRead, 0.50), "ms"},
      {"read_p99_ms", latency(OpKind::kRead, 0.99), "ms"},
      {"write_p50_ms", latency(OpKind::kWrite, 0.50), "ms"},
      {"write_p99_ms", latency(OpKind::kWrite, 0.99), "ms"},
      {"peak_rss_mb", proc.vm_hwm_mb, "MB"},
  };
}

struct TracedRun {
  Phase phase;
  gea::obs::MetricsSnapshot before;
  gea::obs::MetricsSnapshot after;
  gea::serve::QueryServer::Stats stats_before;
  gea::serve::QueryServer::Stats stats_after;
};

MetricList PerLayer(const Phase& base, const TracedRun& traced,
                    const ProcStatus& start, const ProcStatus& end,
                    double recovery_ms, MetricList probes) {
  const Phase& phase = traced.phase;
  const auto all = [](const Sample& s) { return s.timing.has_value(); };
  const auto writes = [](const Sample& s) {
    return s.timing.has_value() && s.kind == OpKind::kWrite;
  };
  const auto p50 = [&phase](auto keep, auto field) {
    return Quantile(Collect(phase, keep, field), 0.50);
  };
  const auto p99 = [&phase](auto keep, auto field) {
    return Quantile(Collect(phase, keep, field), 0.99);
  };
  const auto mean = [&phase](auto keep, auto field) {
    const std::vector<double> v = Collect(phase, keep, field);
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const auto delta = [&traced](const std::string& name) {
    return CounterDelta(traced.before, traced.after, name);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double ops = static_cast<double>(phase.attempted - phase.failed);
  const double write_ops = static_cast<double>(
      Collect(phase, writes, [](const Sample&) { return 0.0; }).size());
  const double server_requests = static_cast<double>(
      traced.stats_after.requests - traced.stats_before.requests);

  MetricList out = {
      {"serve.decode_p50_ms",
       p50(all, [](const Sample& s) { return StageMs(s.timing->decode_nanos); }),
       "ms"},
      {"serve.encode_p50_ms",
       p50(all, [](const Sample& s) { return StageMs(s.timing->encode_nanos); }),
       "ms"},
      {"serve.client_residual_p50_ms",
       p50(all,
           [](const Sample& s) {
             return s.rtt_ms - StageMs(s.timing->TotalNanos());
           }),
       "ms"},
      {"serve.bytes_out_per_op",
       ratio(static_cast<double>(traced.stats_after.bytes_out -
                                 traced.stats_before.bytes_out),
             server_requests),
       "bytes"},
      {"serve.queue_wait_p99_ms",
       p99(writes, [](const Sample& s) { return StageMs(s.timing->queue_nanos); }),
       "ms"},
      {"serve.lock_wait_p99_ms",
       p99(writes,
           [](const Sample& s) { return StageMs(s.timing->lock_wait_nanos); }),
       "ms"},
      {"serve.threads_live", end.threads, "count"},
      {"serve.vm_growth_mb", end.vm_size_mb - start.vm_size_mb, "MB"},
  };
  for (const char* op : {"populate", "aggregate", "diff", "mine", "top_gap",
                         "sql", "get_table"}) {
    const std::string name = op;
    out.push_back(
        {"workbench.exec_p50_ms." + name,
         p50([&name](const Sample& s) { return s.timing && s.op == name; },
             [](const Sample& s) { return StageMs(s.timing->execute_nanos); }),
         "ms"});
  }
  out.insert(out.end(), probes.begin(), probes.end());
  out.push_back({"pool.tasks_per_op", ratio(delta("gea.pool.tasks_submitted"), ops),
                 "count"});
  out.push_back({"pool.queue_wait_p50_ms",
                 HistogramDeltaQuantile(traced.before, traced.after,
                                        "gea.pool.queue_wait_nanos", 0.5) /
                     1e6,
                 "ms"});
  out.push_back({"parallel_for.inline_ratio",
                 ratio(delta("gea.parallel_for.serial_inline"),
                       delta("gea.parallel_for.calls")),
                 "ratio"});
  out.push_back(
      {"store.wal_append_p50_ms",
       p50(writes,
           [](const Sample& s) { return StageMs(s.timing->wal_append_nanos); }),
       "ms"});
  out.push_back(
      {"store.wal_fsync_p50_ms",
       p50(writes,
           [](const Sample& s) { return StageMs(s.timing->wal_fsync_nanos); }),
       "ms"});
  out.push_back({"store.wal_bytes_per_write",
                 ratio(delta("gea.store.wal_bytes"), write_ops), "bytes"});
  out.push_back({"store.recovery_ms", recovery_ms, "ms"});
  out.push_back({"txn.recs_per_fsync",
                 ratio(delta("gea.txn.group_commit_records"),
                       delta("gea.txn.group_commits")),
                 "ratio"});
  out.push_back({"txn.commit_wait_p50_ms",
                 HistogramDeltaQuantile(traced.before, traced.after,
                                        "gea.txn.commit_wait_nanos", 0.5) /
                     1e6,
                 "ms"});
  out.push_back({"txn.retired_bytes_per_write",
                 ratio(delta("gea.txn.retired_bytes"), write_ops), "bytes"});
  out.push_back(
      {"obs.alloc_mb_per_op",
       mean(all,
            [](const Sample& s) {
              return static_cast<double>(s.timing->alloc_bytes) / kMiB;
            }),
       "MB"});
  out.push_back(
      {"obs.peak_mb_per_op",
       mean(all,
            [](const Sample& s) {
              return static_cast<double>(s.timing->peak_bytes) / kMiB;
            }),
       "MB"});
  out.push_back({"obs.trace_overhead_ratio",
                 ratio(phase.OpsPerSecond(), base.OpsPerSecond()), "ratio"});
  out.push_back({"dist.fanouts_per_op",
                 ratio(delta("gea.dist.router.fanouts"), ops), "count"});
  return out;
}

std::string Number(double value) {
  std::array<char, 64> buffer{};
  auto [end, ec] = std::to_chars(buffer.data(), buffer.data() + buffer.size(),
                                 value);
  if (ec != std::errc()) return "0";
  return std::string(buffer.data(), end);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The host fingerprint stamped on every result (see compare.py).
void PrintFingerprint() {
  std::printf(
      "{\"fingerprint\": {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
      "\"build_type\": %s}}\n",
      std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str());
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload;
  if (args.workload == "analyze") {
    workload = MakeAnalyze(args.seed);
  } else if (args.workload == "browse") {
    workload = MakeBrowse(args.seed);
  } else if (args.workload == "routed") {
    workload = MakeRouted(args.seed);
  } else {
    Die("unknown workload '" + args.workload + "'");
  }
  PrintFingerprint();
  if (Status status = workload->Prepare(); !status.ok()) {
    Die("reference: " + status.ToString());
  }

  // One slot per client index; the probe clients reuse the low indexes.
  Watchdog watchdog(kClients + 8, kRequestLimitSeconds);
  namespace fs = std::filesystem;
  const fs::path workdir =
      fs::path(args.workdir) / (args.workload + "-" + std::to_string(args.seed));
  ResetPeakRss();

  // Set-up: load, storage, data sets, servers, logins and one warm-up
  // step per client. Repeated (the last one is kept) and reported as the
  // median, so one slow file-system call does not decide set-up time.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Client>> clients;
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    const fs::path dir = workdir / ("setup" + std::to_string(rep));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const double start = NowSeconds();
    if (Status status = workload->Setup(dir.string()); !status.ok()) {
      Die("set-up: " + status.ToString());
    }
    const double serving = NowSeconds();
    for (size_t i = 0; i < kClients; ++i) {
      clients.push_back(std::make_unique<Client>(i, args.seed, &watchdog));
      if (Status status = clients.back()->Connect(workload->ClientEndpoint());
          !status.ok()) {
        Die("connect: " + status.ToString());
      }
    }
    for (auto& client : clients) {
      workload->Step(*client);
      client->CountStep();
      if (client->failed() > 0) Die("warm-up: " + client->errors().front());
    }
    const double end = NowSeconds();
    std::fprintf(stderr, "set-up %d: %.3f s (serving after %.3f s)\n", rep,
                 end - start, serving - start);
    setup_s.push_back(end - start);
    // Earlier set-ups' directories stay until the run ends: deleting them
    // here would put their file-system work into the next set-up's time.
    if (rep + 1 < reps) {
      clients.clear();
      workload->Teardown();
    }
  }

  for (auto& client : clients) client->SetRecording(true);
  const ProcStatus proc_start = ReadProcStatus();
  // With --trace 1 the untraced and traced phases share the run length.
  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const Phase base = RunPhase(*workload, clients, phase_seconds);
  PrintOpSummary("untraced", base);
  TracedRun traced;
  MetricList dist;
  if (args.trace) {
    gea::obs::ScopedMetricsEnable metrics(true);
    for (auto& client : clients) client->SetTracing(true);
    traced.stats_before = workload->FrontStats();
    traced.before = gea::obs::MetricsRegistry::Global().Snapshot();
    traced.phase = RunPhase(*workload, clients, phase_seconds);
    traced.after = gea::obs::MetricsRegistry::Global().Snapshot();
    traced.stats_after = workload->FrontStats();
    PrintOpSummary("traced", traced.phase);
    workload->DistProbe(&watchdog, &dist);
  }
  const ProcStatus proc_end = ReadProcStatus();
  clients.clear();

  double recovery_ms = 0.0;
  // The durability check replays the whole run's WAL, as long as the run
  // itself; it runs with the per-layer run that reports its time.
  const Status verified = workload->StopAndVerify(args.trace, &recovery_ms);
  workload->Teardown();
  fs::remove_all(workdir);

  std::vector<std::string> errors = base.errors;
  errors.insert(errors.end(), traced.phase.errors.begin(),
                traced.phase.errors.end());
  if (!verified.ok()) errors.push_back("durability: " + verified.ToString());
  for (const std::string& error : errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  const uint64_t attempted = base.attempted + traced.phase.attempted;
  const uint64_t failed = base.failed + traced.phase.failed;
  const bool correct = verified.ok() && failed == 0 && errors.empty();

  MetricList metrics;
  if (args.trace) {
    MetricList probes;
    workload->LayerProbes(&probes);
    probes.insert(probes.end(), dist.begin(), dist.end());
    metrics = PerLayer(base, traced, proc_start, proc_end, recovery_ms,
                       std::move(probes));
  } else {
    metrics = EndToEnd(setup_s, base, args.seconds, proc_end);
  }

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(metrics[i].name) + ": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": " +
            JsonString(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
