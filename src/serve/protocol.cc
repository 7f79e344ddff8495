#include "serve/protocol.h"

#include <iterator>
#include <utility>

#include "common/net.h"
#include "store/format.h"

namespace gea::serve {

Status Response::ToStatus() const {
  if (code == StatusCode::kOk) return Status::OK();
  return Status(code, message);
}

Response ErrorResponse(uint64_t request_id, const Status& status) {
  Response response;
  response.request_id = request_id;
  response.code = status.code();
  response.message = std::string(status.message());
  return response;
}

// ---- Payload codecs ----

namespace {

// The fixed-width timing block's u64 slots, in wire order: the
// RequestStage nanos, then the memory-accounting pair.
constexpr uint64_t StageBreakdown::*kTimingSlots[] = {
    &StageBreakdown::decode_nanos,    &StageBreakdown::queue_nanos,
    &StageBreakdown::execute_nanos,   &StageBreakdown::wal_append_nanos,
    &StageBreakdown::wal_fsync_nanos, &StageBreakdown::encode_nanos,
    &StageBreakdown::write_nanos,     &StageBreakdown::lock_wait_nanos,
    &StageBreakdown::alloc_bytes,     &StageBreakdown::peak_bytes};
constexpr size_t kTimingBytes = std::size(kTimingSlots) * 8;

void PutStageBreakdown(std::string* out, const StageBreakdown& timing) {
  for (uint64_t StageBreakdown::*slot : kTimingSlots) {
    store::PutU64(out, timing.*slot);
  }
}

Status CheckVersion(store::ByteReader& reader) {
  GEA_ASSIGN_OR_RETURN(uint8_t version, reader.ReadU8());
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(version));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeRequest(const Request& request) {
  std::string out;
  store::PutU8(&out, kProtocolVersion);
  store::PutU64(&out, request.request_id);
  store::PutU32(&out, request.deadline_ms);
  store::PutString(&out, request.op);
  store::PutStringMap(&out, request.params);
  if (request.trace.has_value()) {
    store::PutU8(&out, 1);
    store::PutU64(&out, request.trace->trace_id);
    store::PutU8(&out, request.trace->sampled ? 1 : 0);
  } else {
    store::PutU8(&out, 0);
  }
  return out;
}

Result<Request> DecodeRequest(std::string_view payload) {
  store::ByteReader reader(payload);
  GEA_RETURN_IF_ERROR(CheckVersion(reader));
  Request request;
  GEA_ASSIGN_OR_RETURN(request.request_id, reader.ReadU64());
  GEA_ASSIGN_OR_RETURN(request.deadline_ms, reader.ReadU32());
  GEA_ASSIGN_OR_RETURN(request.op, reader.ReadString());
  GEA_ASSIGN_OR_RETURN(request.params, reader.ReadStringMap());
  GEA_ASSIGN_OR_RETURN(uint8_t has_trace, reader.ReadU8());
  if (has_trace == 1) {
    TraceContext trace;
    GEA_ASSIGN_OR_RETURN(trace.trace_id, reader.ReadU64());
    GEA_ASSIGN_OR_RETURN(uint8_t sampled, reader.ReadU8());
    if (sampled > 1) {
      return Status::InvalidArgument("bad sampled flag in trace context");
    }
    trace.sampled = sampled == 1;
    request.trace = trace;
  } else if (has_trace != 0) {
    return Status::InvalidArgument("bad has_trace flag in request");
  }
  if (!reader.Done()) {
    return Status::InvalidArgument("trailing bytes after request payload");
  }
  return request;
}

std::string EncodeResponse(const Response& response) {
  std::string out;
  store::PutU8(&out, kProtocolVersion);
  store::PutU64(&out, response.request_id);
  store::PutU8(&out, static_cast<uint8_t>(response.code));
  store::PutString(&out, response.message);
  store::PutString(&out, response.text);
  if (response.table.has_value()) {
    store::PutU8(&out, 1);
    store::PutString(&out, store::EncodeTable(*response.table));
  } else {
    store::PutU8(&out, 0);
  }
  store::PutU64(&out, response.trace_id);
  if (response.timing.has_value()) {
    store::PutU8(&out, 1);
    PutStageBreakdown(&out, *response.timing);
  } else {
    store::PutU8(&out, 0);
  }
  return out;
}

Result<Response> DecodeResponse(std::string_view payload) {
  store::ByteReader reader(payload);
  GEA_RETURN_IF_ERROR(CheckVersion(reader));
  Response response;
  GEA_ASSIGN_OR_RETURN(response.request_id, reader.ReadU64());
  GEA_ASSIGN_OR_RETURN(uint8_t code, reader.ReadU8());
  GEA_ASSIGN_OR_RETURN(response.code, StatusCodeFromWire(code));
  GEA_ASSIGN_OR_RETURN(response.message, reader.ReadString());
  GEA_ASSIGN_OR_RETURN(response.text, reader.ReadString());
  GEA_ASSIGN_OR_RETURN(uint8_t has_table, reader.ReadU8());
  if (has_table == 1) {
    GEA_ASSIGN_OR_RETURN(uint32_t table_bytes, reader.ReadU32());
    GEA_ASSIGN_OR_RETURN(std::string_view encoded,
                         reader.ReadBytes(table_bytes));
    GEA_ASSIGN_OR_RETURN(rel::Table table, store::DecodeTable(encoded));
    response.table = std::move(table);
  } else if (has_table != 0) {
    return Status::InvalidArgument("bad has_table flag in response");
  }
  GEA_ASSIGN_OR_RETURN(response.trace_id, reader.ReadU64());
  GEA_ASSIGN_OR_RETURN(uint8_t has_timing, reader.ReadU8());
  if (has_timing == 1) {
    StageBreakdown timing;
    for (uint64_t StageBreakdown::*slot : kTimingSlots) {
      GEA_ASSIGN_OR_RETURN(timing.*slot, reader.ReadU64());
    }
    response.timing = timing;
  } else if (has_timing != 0) {
    return Status::InvalidArgument("bad has_timing flag in response");
  }
  if (!reader.Done()) {
    return Status::InvalidArgument("trailing bytes after response payload");
  }
  return response;
}

bool PatchResponseTiming(std::string* payload, const StageBreakdown& timing) {
  // A payload with a timing block ends in: u8 has_timing=1 | 10 x u64.
  if (payload == nullptr || payload->size() < kTimingBytes + 1) {
    return false;
  }
  const size_t flag_at = payload->size() - kTimingBytes - 1;
  if (static_cast<uint8_t>((*payload)[flag_at]) != 1) return false;
  std::string block;
  block.reserve(kTimingBytes);
  PutStageBreakdown(&block, timing);
  payload->replace(flag_at + 1, kTimingBytes, block);
  return true;
}

// ---- Framing ----

std::string Frame(std::string_view payload) {
  std::string out;
  out.reserve(store::kFrameHeaderBytes + payload.size());
  store::PutFrame(&out, payload);
  return out;
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  return net::SendAll(fd, Frame(payload));
}

Result<std::optional<std::string>> ReadFrame(int fd) {
  char header[store::kFrameHeaderBytes];
  GEA_ASSIGN_OR_RETURN(
      size_t got, net::RecvExact(fd, header, sizeof(header), /*eof_ok=*/true));
  if (got == 0) return std::optional<std::string>();  // clean EOF

  const std::string_view header_bytes(header, sizeof(header));
  const uint32_t length = store::FrameBodyLength(header_bytes);
  if (length > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload too large: " +
                                   std::to_string(length) + " bytes (max " +
                                   std::to_string(kMaxPayloadBytes) + ")");
  }
  std::string payload(length, '\0');
  if (length > 0) {
    GEA_RETURN_IF_ERROR(net::RecvExact(fd, payload.data(), length).status());
  }
  GEA_RETURN_IF_ERROR(store::CheckFrameBody(header_bytes, payload));
  return std::optional<std::string>(std::move(payload));
}

Result<StatusCode> StatusCodeFromWire(uint8_t code) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kPermissionDenied:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kOutOfRange:
    case StatusCode::kInternal:
    case StatusCode::kIoError:
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
      return static_cast<StatusCode>(code);
  }
  return Status::InvalidArgument("unknown status code on the wire: " +
                                 std::to_string(code));
}

}  // namespace gea::serve
