#include "store/wal.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "store/format.h"

namespace gea::store {

WalRecord WalRecord::LogicalOp(std::string op,
                               std::map<std::string, std::string> params) {
  WalRecord record;
  record.type = Type::kLogicalOp;
  record.op = std::move(op);
  record.params = std::move(params);
  return record;
}

WalRecord WalRecord::BlobRecord(std::string op, std::string payload) {
  WalRecord record;
  record.type = Type::kBlob;
  record.op = std::move(op);
  record.payload = std::move(payload);
  return record;
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string body;
  PutU8(&body, static_cast<uint8_t>(record.type));
  PutString(&body, record.op);
  PutStringMap(&body, record.params);
  PutString(&body, record.payload);

  std::string framed;
  framed.reserve(kFrameHeaderBytes + body.size());
  PutFrame(&framed, body);
  return framed;
}

Result<WalRecord> DecodeWalRecordBody(std::string_view body) {
  ByteReader reader(body);
  GEA_ASSIGN_OR_RETURN(uint8_t type_tag, reader.ReadU8());
  WalRecord record;
  switch (type_tag) {
    case static_cast<uint8_t>(WalRecord::Type::kLogicalOp):
      record.type = WalRecord::Type::kLogicalOp;
      break;
    case static_cast<uint8_t>(WalRecord::Type::kBlob):
      record.type = WalRecord::Type::kBlob;
      break;
    case static_cast<uint8_t>(WalRecord::Type::kCheckpoint):
      record.type = WalRecord::Type::kCheckpoint;
      break;
    default:
      return Status::InvalidArgument("unknown WAL record type: " +
                                     std::to_string(type_tag));
  }
  GEA_ASSIGN_OR_RETURN(record.op, reader.ReadString());
  GEA_ASSIGN_OR_RETURN(record.params, reader.ReadStringMap());
  GEA_ASSIGN_OR_RETURN(record.payload, reader.ReadString());
  if (!reader.Done()) {
    return Status::InvalidArgument("trailing bytes in WAL record");
  }
  return record;
}

Result<WalReadResult> ReadWalFile(FileEnv* env, const std::string& path) {
  WalReadResult result;
  if (!env->FileExists(path)) return result;
  GEA_ASSIGN_OR_RETURN(std::string data, env->ReadFileToString(path));

  ByteReader reader(data);
  while (!reader.Done()) {
    const size_t start = reader.position();
    Result<std::string_view> body = reader.ReadFrame();
    // Cut short, failing its CRC, or empty (no record is; zeros a crash
    // left past the last write read as an empty frame whose CRC checks
    // out): the tail of a crash mid-append.
    if (!body.ok() || body->empty()) {
      result.torn_tail = true;
      result.valid_bytes = start;
      break;
    }
    Result<WalRecord> record = DecodeWalRecordBody(*body);
    if (!record.ok()) {
      return Status(record.status().code(),
                    path + " at byte " + std::to_string(start) + ": " +
                        record.status().message());
    }
    result.records.push_back(std::move(*record));
    result.valid_bytes = reader.position();
  }
  result.dropped_bytes = data.size() - result.valid_bytes;
  return result;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(FileEnv* env,
                                                   const std::string& path,
                                                   bool truncate) {
  GEA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                       env->NewWritableFile(path, truncate));
  return std::unique_ptr<WalWriter>(new WalWriter(std::move(file)));
}

Status WalWriter::Append(const std::vector<WalRecord>& records) {
  // Stage attribution: the batch leader appends on the thread of the
  // request it serves, so that request's stages (if any) are charged
  // with the append and the fsync.
  const bool attribute = obs::CurrentContext().stages != nullptr;
  uint64_t batch_bytes = 0;
  {
    obs::TraceSpan append_span("wal_append_batch");
    const uint64_t append_start = attribute ? obs::NowNanos() : 0;
    for (const WalRecord& record : records) {
      const std::string framed = EncodeWalRecord(record);
      GEA_RETURN_IF_ERROR(file_->Append(framed));
      batch_bytes += framed.size();
    }
    if (attribute) {
      obs::AddStageNanos(obs::RequestStage::kWalAppend,
                         obs::NowNanos() - append_start);
    }
  }
  {
    obs::TraceSpan fsync_span("wal_fsync");
    const uint64_t fsync_start = attribute ? obs::NowNanos() : 0;
    GEA_RETURN_IF_ERROR(file_->Sync());
    if (attribute) {
      obs::AddStageNanos(obs::RequestStage::kWalFsync,
                         obs::NowNanos() - fsync_start);
    }
  }
  records_ += records.size();
  bytes_ += batch_bytes;

  static obs::Counter& wal_records =
      obs::MetricsRegistry::Global().GetCounter("gea.store.wal_records");
  static obs::Counter& wal_bytes =
      obs::MetricsRegistry::Global().GetCounter("gea.store.wal_bytes");
  wal_records.Add(records.size());
  wal_bytes.Add(batch_bytes);
  return Status::OK();
}

Status WalWriter::Close() {
  if (!file_) return Status::OK();
  Status s = file_->Close();
  file_.reset();
  return s;
}

}  // namespace gea::store
