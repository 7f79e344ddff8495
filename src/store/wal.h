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

/// Append-only write-ahead log. Each record is framed as
///
///   u32 payload length
///   u32 payload CRC32
///   payload: u8 type tag, string op, u32 param count,
///            (string key, string value)*, string payload blob
///
/// all little-endian (format.h primitives). Readers stop at the first
/// frame whose length or CRC does not check out — everything before it
/// is the durable prefix, everything after is a torn tail from a crash
/// mid-append and is discarded by recovery.
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
/// any other read failure is.
Result<WalReadResult> ReadWalFile(FileEnv* env, const std::string& path);

/// Incremental tail-follower over a WAL file — the streaming counterpart
/// to the one-shot ReadWalFile scan, built for WAL shipping: a caller
/// polls the file while a writer appends to it and receives every newly
/// completed record exactly once, in append order.
///
/// The subtlety a follower must handle is the *torn final frame*: a poll
/// that races a writer mid-append sees a partial frame (or one whose CRC
/// does not yet check out). Unlike crash recovery, that frame is not
/// garbage — the writer simply has not finished it — so Poll() leaves the
/// read offset at the start of the incomplete frame and re-examines those
/// bytes on the next call; once the append completes, the record is
/// returned as if it had never been torn. Only the caller can know
/// whether a persistent torn tail is a crash artifact (writer gone) or
/// work in progress (writer alive).
///
/// At any point, `offset() + TailStatus.pending_bytes == file size`, and
/// (valid, dropped) of a final Poll match ReadWalFile on the same file —
/// a parity the tests pin down.
class WalReader {
 public:
  /// Opens a tail-follow over `path`. The file may not exist yet (an
  /// empty log); it appears at whatever Poll() first observes it.
  static Result<std::unique_ptr<WalReader>> Open(FileEnv* env,
                                                 std::string path);

  struct TailResult {
    std::vector<WalRecord> records;  // newly completed since last Poll
    uint64_t valid_bytes = 0;        // cumulative durable prefix length
    uint64_t pending_bytes = 0;      // trailing bytes of an incomplete frame
    bool torn_tail = false;          // true when pending_bytes > 0
  };

  /// Reads every record completed since the previous Poll. Never fails
  /// on a torn tail (see class comment); only I/O errors are errors.
  Result<TailResult> Poll();

  /// Byte offset of the durable prefix consumed so far.
  uint64_t offset() const { return offset_; }
  /// Records returned across all Polls.
  uint64_t records_read() const { return records_read_; }

 private:
  WalReader(FileEnv* env, std::string path)
      : env_(env), path_(std::move(path)) {}

  FileEnv* env_;
  std::string path_;
  uint64_t offset_ = 0;
  uint64_t records_read_ = 0;
};

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
