#ifndef GEA_STORE_FORMAT_H_
#define GEA_STORE_FORMAT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "rel/table.h"

namespace gea::store {

/// Little-endian fixed-width primitives for every byte format: the
/// snapshot, the WAL, the query-service wire and shipped WAL batches.
/// Strings are u32-length-prefixed byte runs.

void PutU8(std::string* dst, uint8_t v);
void PutU32(std::string* dst, uint32_t v);
void PutU64(std::string* dst, uint64_t v);
void PutString(std::string* dst, std::string_view v);

/// A parameter map: u32 n, then n x (str key, str value) in ascending
/// key order, so each map has exactly one encoding.
void PutStringMap(std::string* dst,
                  const std::map<std::string, std::string>& map);

/// The one checksummed frame every format shares (a WAL record, a
/// snapshot section, a query-service payload, a shipped WAL frame):
///
///   u32 body length | u32 CRC32(body) | body
///
/// A frame whose body is short of its length, or fails its CRC, is torn
/// or corrupt; what that means is up to the reader (the WAL's end, or an
/// error everywhere else).
inline constexpr size_t kFrameHeaderBytes = 8;

void PutFrame(std::string* dst, std::string_view body);

/// For a reader that takes a frame's header and body in two reads (a
/// socket): the body length a header announces, and the CRC check of a
/// body against its header.
uint32_t FrameBodyLength(std::string_view header);
Status CheckFrameBody(std::string_view header, std::string_view body);

/// Sequential reader over an encoded buffer. Every getter fails with
/// OutOfRange on truncated input instead of reading past the end, which
/// is what turns a torn write into a clean recovery instead of UB.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<std::string> ReadString();
  /// The next `n` raw bytes, as a view into the buffer.
  Result<std::string_view> ReadBytes(size_t n);
  /// A PutStringMap map; a repeated key or keys out of order are refused.
  Result<std::map<std::string, std::string>> ReadStringMap();
  /// A PutFrame frame's body, as a view into the buffer, once its CRC
  /// checks out: OutOfRange when the frame is cut short, IoError when
  /// the CRC fails.
  Result<std::string_view> ReadFrame();

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// The relation codec, used by snapshots, query-service replies, the
/// replication snapshot blob and every byte-level table comparison.
/// Layout:
///
///   u32 0xFFFFFFFF      sentinel (it told this layout from a retired
///                       row layout, which no code reads any more)
///   u8  1               columnar layout version
///   str name, u32 ncols, ncols x (str column name, u8 type tag)
///   u64 rows
///   per column: NullWordsFor(rows) x u64 null bitmap (bit set = NULL),
///   then rows x i64, rows x f64 bits, or (u32 dictionary size, the
///   dictionary strings, rows x u32 codes); NULL-typed columns stop after
///   the bitmap.
///
/// The encoding is canonical: the bytes depend only on the table's name,
/// schema and cells. A string column writes only the dictionary entries
/// its non-null rows use, in order of first use, with codes renumbered to
/// match; null slots are written as zero, and so are bitmap bits past the
/// last row. Equal bytes therefore mean equal tables, whichever operator
/// built them.
std::string EncodeTable(const rel::Table& table);

/// Decodes the layout above. Every count is checked against the bytes
/// that remain before anything is sized from it.
Result<rel::Table> DecodeTable(std::string_view data);

}  // namespace gea::store

#endif  // GEA_STORE_FORMAT_H_
