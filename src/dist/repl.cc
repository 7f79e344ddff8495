#include "dist/repl.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <utility>

#include "obs/metrics.h"
#include "obs/statviews.h"
#include "rel/schema.h"
#include "rel/table.h"
#include "serve/protocol.h"
#include "store/format.h"
#include "workbench/command.h"

namespace gea::dist {

namespace {

/// The view name; mirrors the obs::kStat*View constants. Declared here
/// rather than in obs so the view only exists in binaries linking dist.
constexpr const char* kStatReplicationView = "gea_stat_replication";

obs::Counter& FramesShipped() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "gea.dist.repl.frames_shipped");
  return c;
}
obs::Counter& BytesShipped() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "gea.dist.repl.bytes_shipped");
  return c;
}
obs::Counter& SnapshotsServed() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "gea.dist.repl.snapshots_served");
  return c;
}

// ---- The gea_stat_replication view ----
// Same static-registration idiom as gea_stat_serve: live sources register
// while they exist; the provider materializes one row per source. The
// view only registers in binaries that reference this object file (i.e.
// link gea_dist), so binaries without replication keep their view count.

std::mutex g_sources_mu;
std::map<const void*, std::function<ReplicationStatRow()>>& Sources() {
  static auto* sources =
      new std::map<const void*, std::function<ReplicationStatRow()>>();
  return *sources;
}

rel::Table ReplicationStatTable() {
  rel::Table table(
      kStatReplicationView,
      rel::Schema({{"role", rel::ValueType::kString},
                   {"port", rel::ValueType::kInt},
                   {"shipped_lsn", rel::ValueType::kInt},
                   {"applied_lsn", rel::ValueType::kInt},
                   {"lag_records", rel::ValueType::kInt},
                   {"lag_bytes", rel::ValueType::kInt},
                   {"lag_ms", rel::ValueType::kInt}}));
  std::lock_guard<std::mutex> lock(g_sources_mu);
  for (const auto& [token, source] : Sources()) {
    const ReplicationStatRow row = source();
    table.AppendRowUnchecked(
        {rel::Value::String(row.role), rel::Value::Int(row.port),
         rel::Value::Int(static_cast<int64_t>(row.shipped_lsn)),
         rel::Value::Int(static_cast<int64_t>(row.applied_lsn)),
         rel::Value::Int(static_cast<int64_t>(row.lag_records)),
         rel::Value::Int(static_cast<int64_t>(row.lag_bytes)),
         rel::Value::Int(static_cast<int64_t>(row.lag_ms))});
  }
  return table;
}

const bool g_replication_view_registered = [] {
  obs::RegisterStatViewProvider(kStatReplicationView, ReplicationStatTable);
  return true;
}();

}  // namespace

void RegisterReplicationStatSource(const void* token,
                                   std::function<ReplicationStatRow()> source) {
  std::lock_guard<std::mutex> lock(g_sources_mu);
  Sources()[token] = std::move(source);
}

void UnregisterReplicationStatSource(const void* token) {
  std::lock_guard<std::mutex> lock(g_sources_mu);
  Sources().erase(token);
}

// ---- Blob codecs ----

std::string EncodeFrameBatch(uint64_t durable_lsn,
                             const std::vector<EncodedFrame>& frames) {
  std::string blob;
  store::PutU64(&blob, durable_lsn);
  store::PutU32(&blob, static_cast<uint32_t>(frames.size()));
  for (const EncodedFrame& frame : frames) {
    store::PutU64(&blob, frame.lsn);
    store::PutString(&blob, frame.framed);
  }
  return blob;
}

Result<FrameBatch> DecodeFrameBatch(std::string_view blob) {
  store::ByteReader reader(blob);
  FrameBatch batch;
  GEA_ASSIGN_OR_RETURN(batch.durable_lsn, reader.ReadU64());
  GEA_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  // A shipped frame takes at least its LSN, its string length and a frame
  // header, so a count the blob cannot hold is refused before anything
  // is reserved for it.
  constexpr size_t kMinFrameBytes = 8 + 4 + store::kFrameHeaderBytes;
  if (count > reader.remaining() / kMinFrameBytes) {
    return Status::IoError("frame batch count " + std::to_string(count) +
                           " exceeds its blob");
  }
  batch.frames.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ShippedFrame frame;
    GEA_ASSIGN_OR_RETURN(frame.lsn, reader.ReadU64());
    GEA_ASSIGN_OR_RETURN(std::string framed, reader.ReadString());
    store::ByteReader frame_reader(framed);
    GEA_ASSIGN_OR_RETURN(std::string_view body, frame_reader.ReadFrame());
    if (!frame_reader.Done()) {
      return Status::IoError("shipped WAL frame length mismatch");
    }
    GEA_ASSIGN_OR_RETURN(frame.record, store::DecodeWalRecordBody(body));
    batch.frames.push_back(std::move(frame));
  }
  if (!reader.Done()) {
    return Status::IoError("trailing bytes after frame batch");
  }
  return batch;
}

std::string EncodeSnapshotLsnBlob(uint64_t lsn, std::string_view snapshot) {
  std::string blob;
  store::PutU64(&blob, lsn);
  store::PutString(&blob, snapshot);
  return blob;
}

Result<std::pair<uint64_t, std::string>> DecodeSnapshotLsnBlob(
    std::string_view blob) {
  store::ByteReader reader(blob);
  GEA_ASSIGN_OR_RETURN(uint64_t lsn, reader.ReadU64());
  GEA_ASSIGN_OR_RETURN(std::string snapshot, reader.ReadString());
  if (!reader.Done()) {
    return Status::IoError("trailing bytes after snapshot blob");
  }
  return std::make_pair(lsn, std::move(snapshot));
}

// ---- ReplicationHub ----

ReplicationHub::ReplicationHub(workbench::AnalysisSession* session,
                               serve::QueryServer* server, Options options)
    : session_(session), server_(server), options_(options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Records appended before the hub attached were never buffered, so
    // every follower starting below the current LSN must snapshot first.
    shipped_lsn_ = session_->DurableLsn();
    floor_lsn_ = shipped_lsn_;
  }
  session_->SetWalObserver(
      [this](uint64_t lsn, const store::WalRecord& record) {
        OnWalAppend(lsn, record);
      });
  const serve::QueryServer::HandlerSpec control{
      /*mutating=*/false, /*needs_auth=*/true, /*admin_only=*/true,
      /*allow_on_replica=*/false, /*needs_session_lock=*/true};
  serve::QueryServer::HandlerSpec poll = control;
  // The long-poll must not hold the session lock: it waits for an append
  // that needs the exclusive lock.
  poll.needs_session_lock = false;
  server_->RegisterHandler(
      "repl_subscribe", control,
      [this](const serve::Request& r) { return HandleSubscribe(r); });
  server_->RegisterHandler(
      "repl_frames", poll,
      [this](const serve::Request& r) { return HandleFrames(r); });
  server_->RegisterHandler(
      "repl_snapshot", control,
      [this](const serve::Request& r) { return HandleSnapshot(r); });
  RegisterReplicationStatSource(this, [this] {
    ReplicationStatRow row;
    row.role = "primary";
    row.port = server_->Port();
    std::lock_guard<std::mutex> lock(mu_);
    row.shipped_lsn = shipped_lsn_;
    row.lag_bytes = buffered_bytes_;
    return row;
  });
}

ReplicationHub::~ReplicationHub() {
  UnregisterReplicationStatSource(this);
  session_->SetWalObserver({});
  cv_.notify_all();
}

uint64_t ReplicationHub::FloorLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return floor_lsn_;
}

uint64_t ReplicationHub::ShippedLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shipped_lsn_;
}

uint64_t ReplicationHub::BufferedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffered_bytes_;
}

void ReplicationHub::OnWalAppend(uint64_t lsn,
                                 const store::WalRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (record.type == store::WalRecord::Type::kCheckpoint &&
      record.op == "state_reset") {
    // The session's state was bulk-replaced outside the WAL: nothing a
    // follower applied so far is still valid, and nothing buffered here
    // can bridge the gap. Raise the floor so everyone re-snapshots.
    buffer_.clear();
    buffered_bytes_ = 0;
    floor_lsn_ = lsn;
    if (lsn > shipped_lsn_) shipped_lsn_ = lsn;
    cv_.notify_all();
    return;
  }
  BufferedFrame frame{lsn, store::EncodeWalRecord(record)};
  buffered_bytes_ += frame.framed.size();
  BytesShipped().Add(static_cast<int64_t>(frame.framed.size()));
  FramesShipped().Add(1);
  buffer_.push_back(std::move(frame));
  shipped_lsn_ = lsn;
  while (buffered_bytes_ > options_.max_buffer_bytes && !buffer_.empty()) {
    // Evicting a frame puts its LSN out of reach: followers behind the
    // evicted prefix fall back to snapshot catch-up.
    buffered_bytes_ -= buffer_.front().framed.size();
    floor_lsn_ = buffer_.front().lsn;
    buffer_.pop_front();
  }
  cv_.notify_all();
}

serve::Response ReplicationHub::HandleSubscribe(
    const serve::Request& request) {
  (void)request;
  serve::Response response;
  rel::Table table("repl_subscribe",
                   rel::Schema({{"name", rel::ValueType::kString},
                                {"value", rel::ValueType::kString}}));
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t buffer_first = buffer_.empty() ? 0 : buffer_.front().lsn;
  table.AppendRowUnchecked({rel::Value::String("durable_lsn"),
                            rel::Value::String(std::to_string(shipped_lsn_))});
  table.AppendRowUnchecked({rel::Value::String("floor_lsn"),
                            rel::Value::String(std::to_string(floor_lsn_))});
  table.AppendRowUnchecked({rel::Value::String("buffer_first_lsn"),
                            rel::Value::String(std::to_string(buffer_first))});
  response.table = std::move(table);
  return response;
}

serve::Response ReplicationHub::HandleFrames(const serve::Request& request) {
  auto fail = [&](const Status& status) {
    return serve::ErrorResponse(request.request_id, status);
  };
  const workbench::CommandParams params(request.op, request.params);
  Result<int64_t> from_param = params.Int("from_lsn", 0, INT64_MAX);
  if (!from_param.ok()) return fail(from_param.status());
  Result<int64_t> wait_ms = params.IntOr("wait_ms", 500, 0, INT64_MAX);
  if (!wait_ms.ok()) return fail(wait_ms.status());
  const uint64_t from = static_cast<uint64_t>(*from_param);

  std::unique_lock<std::mutex> lock(mu_);
  auto covered = [&] {
    if (from < floor_lsn_) return false;
    if (buffer_.empty()) return from >= shipped_lsn_;
    return from + 1 >= buffer_.front().lsn;
  };
  if (!covered()) {
    return fail(Status::FailedPrecondition(
        "snapshot catch-up required: follower at lsn " +
        std::to_string(from) + ", shippable history starts after lsn " +
        std::to_string(floor_lsn_)));
  }
  if (shipped_lsn_ <= from) {
    // Long-poll: bounded wait for the next acknowledged append. The
    // handler holds no session lock (see HandlerSpec), so the append can
    // proceed and wake us.
    cv_.wait_for(lock, std::chrono::milliseconds(
                           std::min<int64_t>(*wait_ms, 60'000)),
                 [&] { return shipped_lsn_ > from; });
    if (!covered()) {
      return fail(Status::FailedPrecondition(
          "snapshot catch-up required: follower at lsn " +
          std::to_string(from) + ", shippable history starts after lsn " +
          std::to_string(floor_lsn_)));
    }
  }
  // Cut the batch straight from the buffered framed bytes, without a
  // decode/re-encode round.
  std::vector<EncodedFrame> picked;
  size_t bytes = 0;
  for (const BufferedFrame& frame : buffer_) {
    if (frame.lsn <= from) continue;
    if (!picked.empty() &&
        bytes + frame.framed.size() > options_.max_batch_bytes) {
      break;
    }
    bytes += frame.framed.size();
    picked.push_back({frame.lsn, frame.framed});
  }
  serve::Response response;
  response.text = EncodeFrameBatch(shipped_lsn_, picked);
  return response;
}

serve::Response ReplicationHub::HandleSnapshot(const serve::Request& request) {
  // Runs under the shared session lock (HandlerSpec), so no writer
  // publishes or submits meanwhile. A served writer publishes its epoch
  // and submits its WAL record under the exclusive lock but waits for the
  // fsync after releasing it, so the epoch can hold writes that are not
  // durable yet. Commit them first: then the exported catalog is exactly
  // the durable history up to DurableLsn(). If that commit fails, the
  // epoch holds a write that never became durable, and shipping it would
  // let a follower outrun the primary's log.
  if (Status committed = session_->DrainCommits(); !committed.ok()) {
    return serve::ErrorResponse(request.request_id, committed);
  }
  SnapshotsServed().Add(1);
  serve::Response response;
  response.text =
      EncodeSnapshotLsnBlob(session_->DurableLsn(),
                            session_->ExportSnapshotBlob());
  return response;
}

}  // namespace gea::dist
