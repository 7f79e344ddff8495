#ifndef GEA_STORE_WAL_H_
#define GEA_STORE_WAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "store/file_env.h"

namespace gea::store {

/// Append-only write-ahead log. Each record is one frame (format.h's
/// PutFrame: u32 body length, u32 body CRC32, body) whose body is
///
///   u8 type tag, string op, parameter map (PutStringMap), string payload
///
/// all little-endian. Readers stop at the first frame that is cut short,
/// fails its CRC or is empty (zeros read as an empty frame, and no record
/// is empty): everything before it is the durable prefix, everything from
/// it on is a torn tail from a crash mid-append and is discarded by
/// recovery. Any other frame was written whole, so a body that does not
/// decode is an error, not a torn tail.
///
/// Two record families share the format:
///   kLogicalOp — an operator invocation (mine/populate/aggregate/diff,
///     ...) with its parameters; replay re-executes it through the
///     normal engine, which is deterministic, so the same log always
///     rebuilds the same catalog.
///   kBlob — a physical payload too large or too external to re-derive
///     (e.g. an imported SAGE data set), carried verbatim.
///   kCheckpoint — a marker written right after a snapshot rotation;
///     never replayed, useful for forensics on retained logs.

struct WalRecord {
  enum class Type : uint8_t { kLogicalOp = 1, kBlob = 2, kCheckpoint = 3 };

  Type type = Type::kLogicalOp;
  std::string op;                           // operator or blob kind
  std::map<std::string, std::string> params;  // deterministic encoding order
  std::string payload;                      // blob body, empty for logical ops

  static WalRecord LogicalOp(std::string op,
                             std::map<std::string, std::string> params);
  static WalRecord BlobRecord(std::string op, std::string payload);
};

/// Framed bytes for a single record, exactly as appended to the log.
std::string EncodeWalRecord(const WalRecord& record);
Result<WalRecord> DecodeWalRecordBody(std::string_view body);

struct WalReadResult {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;    // durable prefix length
  uint64_t dropped_bytes = 0;  // torn tail length (file size - valid)
  bool torn_tail = false;      // true when a partial/corrupt frame was cut
};

/// Scans a log file, returning every intact record plus where the
/// durable prefix ends. A missing file is an empty log, not an error;
/// any other read failure is, and so is a record that does not decode.
Result<WalReadResult> ReadWalFile(FileEnv* env, const std::string& path);

/// Appender: every Append is one batch of records followed by one fsync,
/// so a record is durable when its Append returns OK.
class WalWriter {
 public:
  static Result<std::unique_ptr<WalWriter>> Open(FileEnv* env,
                                                 const std::string& path,
                                                 bool truncate);

  /// Appends every record, then issues ONE fsync for the whole batch.
  /// On failure the batch must be treated as entirely unacknowledged (the
  /// tail may be torn mid-batch; recovery trims it like any other torn
  /// tail).
  Status Append(const std::vector<WalRecord>& records);

  Status Close();

  uint64_t records() const { return records_; }
  uint64_t bytes() const { return bytes_; }

 private:
  explicit WalWriter(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<WritableFile> file_;
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace gea::store

#endif  // GEA_STORE_WAL_H_
