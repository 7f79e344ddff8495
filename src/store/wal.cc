#include "store/wal.h"

#include <utility>

#include "common/crc32.h"
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
  PutU32(&body, static_cast<uint32_t>(record.params.size()));
  for (const auto& [key, value] : record.params) {
    PutString(&body, key);
    PutString(&body, value);
  }
  PutString(&body, record.payload);

  std::string framed;
  framed.reserve(body.size() + 8);
  PutU32(&framed, static_cast<uint32_t>(body.size()));
  PutU32(&framed, Crc32(body));
  framed += body;
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
  GEA_ASSIGN_OR_RETURN(uint32_t param_count, reader.ReadU32());
  for (uint32_t i = 0; i < param_count; ++i) {
    GEA_ASSIGN_OR_RETURN(std::string key, reader.ReadString());
    GEA_ASSIGN_OR_RETURN(std::string value, reader.ReadString());
    record.params.emplace(std::move(key), std::move(value));
  }
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

  size_t pos = 0;
  while (pos < data.size()) {
    ByteReader frame(std::string_view(data).substr(pos));
    auto len = frame.ReadU32();
    auto crc = frame.ReadU32();
    if (!len.ok() || !crc.ok() || frame.remaining() < *len) {
      result.torn_tail = true;  // partial frame from a crash mid-append
      break;
    }
    std::string_view body = std::string_view(data).substr(pos + 8, *len);
    if (Crc32(body) != *crc) {
      result.torn_tail = true;  // torn or bit-rotted body
      break;
    }
    auto record = DecodeWalRecordBody(body);
    if (!record.ok()) {
      result.torn_tail = true;
      break;
    }
    result.records.push_back(std::move(*record));
    pos += 8 + *len;
  }
  result.valid_bytes = pos;
  result.dropped_bytes = data.size() - pos;
  return result;
}

Result<std::unique_ptr<WalReader>> WalReader::Open(FileEnv* env,
                                                   std::string path) {
  return std::unique_ptr<WalReader>(new WalReader(env, std::move(path)));
}

Result<WalReader::TailResult> WalReader::Poll() {
  TailResult result;
  result.valid_bytes = offset_;
  if (!env_->FileExists(path_)) {
    // Not-yet-created log: an empty file, same as ReadWalFile. A log that
    // existed before and vanished is a rotation; that case falls under
    // the truncation check below once the file reappears shorter.
    if (offset_ != 0) {
      return Status::FailedPrecondition("WAL removed under tail reader: " +
                                        path_);
    }
    return result;
  }
  GEA_ASSIGN_OR_RETURN(std::string data, env_->ReadFileToString(path_));
  if (data.size() < offset_) {
    // The log was truncated/rotated (checkpoint) past our position. The
    // consumed prefix can no longer be mapped onto the file, so the
    // caller must restart from a snapshot rather than keep tailing.
    return Status::FailedPrecondition("WAL truncated under tail reader: " +
                                      path_);
  }

  // Same frame walk as ReadWalFile, resumed at offset_. A frame that does
  // not check out is left unconsumed — if the writer is mid-append it
  // completes by a later Poll; if it is a crash artifact it stays pending
  // forever and the caller decides.
  size_t pos = offset_;
  while (pos < data.size()) {
    ByteReader frame(std::string_view(data).substr(pos));
    auto len = frame.ReadU32();
    auto crc = frame.ReadU32();
    if (!len.ok() || !crc.ok() || frame.remaining() < *len) break;
    std::string_view body = std::string_view(data).substr(pos + 8, *len);
    if (Crc32(body) != *crc) break;
    auto record = DecodeWalRecordBody(body);
    if (!record.ok()) break;
    result.records.push_back(std::move(*record));
    pos += 8 + *len;
  }
  offset_ = pos;
  records_read_ += result.records.size();
  result.valid_bytes = pos;
  result.pending_bytes = data.size() - pos;
  result.torn_tail = result.pending_bytes > 0;
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
