#ifndef GEA_SERVE_PROTOCOL_H_
#define GEA_SERVE_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "rel/table.h"

namespace gea::serve {

/// The GEA query-service wire protocol: a length-prefixed, CRC-framed
/// request/response exchange over one TCP connection. Clients are
/// synchronous — one request, one response, in order — which keeps the
/// framing trivial and still supports many concurrent clients because
/// each connection gets its own reader thread on the server.
///
/// Each payload travels in the storage formats' one checksummed frame
/// (store/format.h's PutFrame):
///
///   u32 payload_length | u32 crc32(payload) | payload bytes
///
/// so a torn or corrupted frame is detected and the connection is
/// dropped instead of the server acting on garbage.
///
/// There is one protocol version, kProtocolVersion; both decoders reject
/// any other version byte, since every peer is built from this tree.
///
/// Request payload:
///   u8  version          kProtocolVersion
///   u64 request_id       echoed verbatim in the response
///   u32 deadline_ms      0 = no deadline; measured from receipt
///   str op               command name, e.g. "sql", "populate"
///   u32 nparams, then nparams x (str key, str value), keys strictly
///                        ascending (store::PutStringMap); a repeated
///                        or out-of-order key is refused
///   u8  has_trace        1 => a trace context follows
///   u64 trace_id         client-supplied id (0 = server assigns one)
///   u8  sampled          1 => force-sample this request server-side
///
/// Response payload:
///   u8  version          kProtocolVersion
///   u64 request_id
///   u8  status code      StatusCode numeric value
///   str message          status message (empty on OK)
///   str text             human-readable payload (explain, ping, ...)
///   u8  has_table        1 => a str follows holding the table in the
///                        canonical columnar encoding of store::EncodeTable
///   u64 trace_id         the request's effective trace id (0 = none)
///   u8  has_timing       1 => the timing block follows
///   10 x u64             the RequestStage nanos in stage order (decode,
///                        queue_wait, execute, wal_append, wal_fsync,
///                        encode, write, lock_wait), then alloc_bytes and
///                        peak_bytes from per-query memory accounting
///
/// The timing block is fixed-width and last on purpose: the server
/// encodes the response with zeros, measures the encode itself, then
/// patches the trailing bytes in place before framing (the frame CRC is
/// computed at write time). `write_nanos` is 0 on the wire — the time to
/// write a response cannot be known before writing it — but is recorded
/// with its real value in the server-side trace ring.
///
/// Commands, parameters and their semantics are documented on
/// QueryServer (server.h); the protocol layer is content-agnostic.

inline constexpr uint8_t kProtocolVersion = 3;

/// Upper bound on one frame's payload; oversized frames are rejected at
/// the framing layer before any allocation of that size happens. The
/// server answers a reply that would not fit with a RESOURCE_EXHAUSTED
/// error instead.
inline constexpr size_t kMaxPayloadBytes = 16u << 20;  // 16 MiB

/// Wire-level trace context a client attaches to a request.
struct TraceContext {
  uint64_t trace_id = 0;  // 0 = let the server assign one
  bool sampled = false;   // force-sample server-side (head sampling aside)
};

/// Server-side stage timing echoed in a traced request's response,
/// nanoseconds per stage in pipeline order. Matches obs::RequestStage.
struct StageBreakdown {
  uint64_t decode_nanos = 0;
  uint64_t queue_nanos = 0;
  uint64_t execute_nanos = 0;
  uint64_t wal_append_nanos = 0;  // subset of execute
  uint64_t wal_fsync_nanos = 0;   // subset of execute
  uint64_t encode_nanos = 0;
  uint64_t write_nanos = 0;  // always 0 on the wire; see layout note
  uint64_t lock_wait_nanos = 0;  // session-lock wait, subset of execute
  uint64_t alloc_bytes = 0;      // bytes allocated during execution
  uint64_t peak_bytes = 0;       // high-water mark of live bytes

  /// Server-side pipeline total (WAL and lock-wait stages excluded —
  /// they are already inside execute).
  uint64_t TotalNanos() const {
    return decode_nanos + queue_nanos + execute_nanos + encode_nanos +
           write_nanos;
  }
};

struct Request {
  uint64_t request_id = 0;
  uint32_t deadline_ms = 0;  // 0 = no deadline
  std::string op;
  std::map<std::string, std::string> params;
  std::optional<TraceContext> trace;  // request tracing opt-in
};

struct Response {
  uint64_t request_id = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;            // status message when code != kOk
  std::string text;               // optional human-readable payload
  std::optional<rel::Table> table;  // optional tabular payload
  uint64_t trace_id = 0;          // effective trace id (0 = none)
  std::optional<StageBreakdown> timing;  // stage breakdown

  bool ok() const { return code == StatusCode::kOk; }
  /// The response's status: OK, or code+message.
  Status ToStatus() const;
};

/// Builds an error response echoing `request_id`.
Response ErrorResponse(uint64_t request_id, const Status& status);

// ---- Payload codecs ----

std::string EncodeRequest(const Request& request);
Result<Request> DecodeRequest(std::string_view payload);

std::string EncodeResponse(const Response& response);
Result<Response> DecodeResponse(std::string_view payload);

/// Rewrites the trailing fixed-width timing block of a response payload
/// that was encoded with a timing breakdown present. Returns false
/// (payload untouched) if the payload carries no timing block. This is
/// how the server stamps the encode stage's own duration after measuring
/// it.
bool PatchResponseTiming(std::string* payload, const StageBreakdown& timing);

// ---- Framing over a socket ----

/// `payload` as one frame (store::PutFrame).
std::string Frame(std::string_view payload);

/// Writes one framed payload to `fd`.
Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame from `fd`. Returns nullopt on a clean EOF *before*
/// the first header byte (the peer hung up between requests); any torn
/// frame, CRC mismatch or length over kMaxPayloadBytes is an error.
Result<std::optional<std::string>> ReadFrame(int fd);

/// Validates a wire status-code byte. Unknown values fail (a response
/// from a newer/corrupt peer must not alias to OK).
Result<StatusCode> StatusCodeFromWire(uint8_t code);

}  // namespace gea::serve

#endif  // GEA_SERVE_PROTOCOL_H_
