#include "dist/router.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <thread>
#include <utility>

#include "dist/merge.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "store/format.h"
#include "workbench/command.h"
#include "workbench/users.h"

namespace gea::dist {

namespace {

obs::Counter& Fanouts() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "gea.dist.router.fanouts");
  return c;
}
obs::Counter& ShardErrors() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "gea.dist.router.shard_errors");
  return c;
}

Status TagShard(size_t shard, const Status& status) {
  return Status(status.code(),
                "shard " + std::to_string(shard) + ": " + status.message());
}

/// Per-tag decomposable commands: running them independently on every
/// shard's tag slice is equivalent to running them once on the full set.
const char* const kBroadcastOps[] = {
    "tissue_dataset", "custom_dataset", "generate_metadata",
    "aggregate",      "diff",           "create_gap",
    "compare_gaps",   "gap_query",
};

/// Cross-tag or per-store commands a tag-sharded deployment cannot honor.
const char* const kRejectedOps[] = {"populate", "mine", "fascicles",
                                    "checkpoint"};

}  // namespace

RouterServer::RouterServer(Options options)
    : options_(std::move(options)),
      session_(options_.admin_user, options_.admin_password),
      server_(&session_, options_.server) {
  for (int port : options_.worker_ports) {
    auto worker = std::make_unique<Worker>();
    worker->port = port;
    workers_.push_back(std::move(worker));
  }
}

RouterServer::~RouterServer() { Stop(); }

Status RouterServer::Start() {
  if (running_) {
    return Status::FailedPrecondition("router already running");
  }
  if (workers_.empty()) {
    return Status::InvalidArgument("router needs at least one shard worker");
  }
  GEA_RETURN_IF_ERROR(session_.Login(options_.admin_user,
                                     options_.admin_password,
                                     workbench::AccessLevel::kAdministrator));
  server_.SetRole(serve::ServerRole::kRouter);
  server_.SetRoleInfoProvider([this] {
    std::map<std::string, std::string> info;
    info["shards"] = std::to_string(workers_.size());
    std::string ports;
    for (const auto& worker : workers_) {
      if (!ports.empty()) ports += ",";
      ports += std::to_string(worker->port);
    }
    info["worker_ports"] = ports;
    return info;
  });

  // Fan-out handlers run without the router's session lock: the stub
  // session is never touched, and per-worker mutexes serialize the
  // clients, so concurrent router requests overlap across shards.
  serve::QueryServer::HandlerSpec fanout_spec;
  fanout_spec.mutating = true;
  fanout_spec.needs_session_lock = false;
  for (const char* op : kBroadcastOps) {
    server_.RegisterHandler(op, fanout_spec, [this](
                                                 const serve::Request& r) {
      return HandleBroadcast(r);
    });
  }
  server_.RegisterHandler(
      "top_gap", fanout_spec,
      [this](const serve::Request& r) { return HandleTopGap(r); });

  serve::QueryServer::HandlerSpec read_spec;
  read_spec.needs_session_lock = false;
  server_.RegisterHandler(
      "sql", read_spec,
      [this](const serve::Request& r) { return HandleTableRead(r); });
  server_.RegisterHandler(
      "get_table", read_spec,
      [this](const serve::Request& r) { return HandleTableRead(r); });
  server_.RegisterHandler(
      "tables", read_spec,
      [this](const serve::Request& r) { return HandleTables(r); });
  server_.RegisterHandler(
      "shards", read_spec,
      [this](const serve::Request& r) { return HandleShards(r); });

  for (const char* op : kRejectedOps) {
    serve::QueryServer::HandlerSpec reject_spec;
    reject_spec.mutating = true;
    reject_spec.admin_only = std::string(op) == "checkpoint";
    const std::string name = op;
    server_.RegisterHandler(
        op, reject_spec, [name](const serve::Request& r) {
          return serve::ErrorResponse(
              r.request_id,
              Status::FailedPrecondition(
                  name +
                  " is not routable on a tag-sharded deployment; run it "
                  "on the shards directly"));
        });
  }

  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    GEA_RETURN_IF_ERROR(EnsureConnected(*worker));
  }
  GEA_RETURN_IF_ERROR(server_.Start());
  running_ = true;
  return Status::OK();
}

void RouterServer::Stop() {
  if (!running_) return;
  server_.Stop();
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->client.Close();
  }
  running_ = false;
}

Status RouterServer::EnsureConnected(Worker& worker) {
  if (worker.client.Connected()) return Status::OK();
  GEA_RETURN_IF_ERROR(worker.client.Connect(worker.port));
  worker.client.SetDeadlineMs(options_.shard_deadline_ms);
  return worker.client.Login(options_.worker_user, options_.worker_password,
                             options_.worker_level);
}

std::vector<Result<serve::Response>> RouterServer::FanOut(
    const std::string& op, const std::map<std::string, std::string>& params) {
  obs::TraceSpan span("router_fanout");
  Fanouts().Add(1);
  std::vector<Result<serve::Response>> results(
      workers_.size(), Status::Internal("fan-out did not run"));
  std::vector<std::thread> threads;
  threads.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    threads.emplace_back([this, i, &op, &params, &results] {
      Worker& worker = *workers_[i];
      std::lock_guard<std::mutex> lock(worker.mu);
      if (Status status = EnsureConnected(worker); !status.ok()) {
        results[i] = status;
        return;
      }
      results[i] = worker.client.Call(op, params);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& result : results) {
    if (!result.ok() || !(*result).ok()) ShardErrors().Add(1);
  }
  return results;
}

serve::Response RouterServer::HandleBroadcast(const serve::Request& request) {
  std::vector<Result<serve::Response>> results =
      FanOut(request.op, request.params);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      return serve::ErrorResponse(request.request_id,
                                  TagShard(i, results[i].status()));
    }
    if (!(*results[i]).ok()) {
      return serve::ErrorResponse(request.request_id,
                                  TagShard(i, (*results[i]).ToStatus()));
    }
  }
  // All shards agreed; shard 0's response already has the single-node
  // shape ("created <out>").
  serve::Response response = std::move(*results[0]);
  response.request_id = request.request_id;
  return response;
}

serve::Response RouterServer::HandleTopGap(const serve::Request& request) {
  auto fail = [&](const Status& status) {
    return serve::ErrorResponse(request.request_id, status);
  };
  // Read x and mode through the accessors the single-node command table
  // uses, because the gather side re-runs the selection locally.
  const workbench::CommandParams params(request.op, request.params);
  Result<int64_t> x = params.Int("x", 0, INT64_MAX);
  if (!x.ok()) return fail(x.status());
  Result<int64_t> mode = params.IntOr("mode", 0, 0, 2);
  if (!mode.ok()) return fail(mode.status());

  // Phase 1: every shard stores its local top-x candidates.
  std::vector<Result<serve::Response>> phase1 =
      FanOut("top_gap", request.params);
  for (size_t i = 0; i < phase1.size(); ++i) {
    if (!phase1[i].ok()) {
      return fail(TagShard(i, phase1[i].status()));
    }
    if (!(*phase1[i]).ok()) {
      return fail(TagShard(i, (*phase1[i]).ToStatus()));
    }
  }
  const std::string name = (*phase1[0]).text;  // "<gap>_<x>"

  // Phase 2: gather the candidate tables, merge in tag order, re-select.
  Result<rel::Table> merged = FetchMerged("get_table", {{"name", name}});
  if (!merged.ok()) return fail(merged.status());
  Result<rel::Table> selected =
      SelectTopGapRows(*merged, static_cast<size_t>(*x),
                       static_cast<core::TopGapMode>(*mode), name);
  if (!selected.ok()) return fail(selected.status());
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    cache_.insert_or_assign(name, std::move(*selected));
  }
  serve::Response response;
  response.text = name;
  return response;
}

Result<rel::Table> RouterServer::FetchMerged(
    const std::string& op, const std::map<std::string, std::string>& params) {
  std::vector<Result<serve::Response>> results = FanOut(op, params);
  std::vector<rel::Table> parts;
  parts.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      return TagShard(i, results[i].status());
    }
    if (!(*results[i]).ok()) {
      return TagShard(i, (*results[i]).ToStatus());
    }
    if (!(*results[i]).table.has_value()) {
      return Status::Internal("shard " + std::to_string(i) +
                              " returned no table for " + op);
    }
    parts.push_back(std::move(*(*results[i]).table));
  }
  if (parts[0].schema().FindColumn("TagNo").has_value()) {
    obs::TraceSpan span("router_merge");
    return MergeByTagNo(parts[0].name(), parts);
  }
  // No tag key: only shard-invariant results (Typeinfo, the stat views
  // with identical schemas...) are routable, and they must agree exactly.
  const std::string first = store::EncodeTable(parts[0]);
  for (size_t i = 1; i < parts.size(); ++i) {
    if (store::EncodeTable(parts[i]) != first) {
      return Status::FailedPrecondition(
          "result of " + op +
          " is shard-dependent and carries no TagNo column; not routable");
    }
  }
  return std::move(parts[0]);
}

serve::Response RouterServer::HandleTableRead(const serve::Request& request) {
  if (request.op == "get_table") {
    auto name_it = request.params.find("name");
    if (name_it != request.params.end()) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      auto cached = cache_.find(name_it->second);
      if (cached != cache_.end()) {
        serve::Response response;
        response.table = cached->second;
        return response;
      }
    }
  }
  Result<rel::Table> merged = FetchMerged(request.op, request.params);
  if (!merged.ok()) {
    return serve::ErrorResponse(request.request_id, merged.status());
  }
  serve::Response response;
  response.table = std::move(*merged);
  return response;
}

serve::Response RouterServer::HandleTables(const serve::Request& request) {
  std::vector<Result<serve::Response>> results = FanOut("tables", {});
  std::set<std::string> names;
  std::optional<rel::Table> shape;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      return serve::ErrorResponse(request.request_id,
                                  TagShard(i, results[i].status()));
    }
    if (!(*results[i]).ok()) {
      return serve::ErrorResponse(request.request_id,
                                  TagShard(i, (*results[i]).ToStatus()));
    }
    if (!(*results[i]).table.has_value()) {
      return serve::ErrorResponse(
          request.request_id,
          Status::Internal("shard " + std::to_string(i) +
                           " returned no table list"));
    }
    const rel::Table& table = *(*results[i]).table;
    if (!shape.has_value()) {
      shape.emplace(table.name(), table.schema());
    }
    for (size_t row = 0; row < table.NumRows(); ++row) {
      names.insert(table.At(row, 0).AsString());
    }
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    for (const auto& [name, table] : cache_) names.insert(name);
  }
  rel::Table merged(shape->name(), shape->schema());
  for (const std::string& name : names) {
    merged.AppendRowUnchecked({rel::Value::String(name)});
  }
  serve::Response response;
  response.table = std::move(merged);
  return response;
}

serve::Response RouterServer::HandleShards(const serve::Request& request) {
  (void)request;
  rel::Table table("shards",
                   rel::Schema({{"shard", rel::ValueType::kInt},
                                {"port", rel::ValueType::kInt}}));
  for (size_t i = 0; i < workers_.size(); ++i) {
    table.AppendRowUnchecked({rel::Value::Int(static_cast<int64_t>(i)),
                              rel::Value::Int(workers_[i]->port)});
  }
  serve::Response response;
  response.table = std::move(table);
  return response;
}

}  // namespace gea::dist
