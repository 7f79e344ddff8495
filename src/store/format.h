#ifndef GEA_STORE_FORMAT_H_
#define GEA_STORE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "rel/table.h"

namespace gea::store {

/// Little-endian fixed-width primitives for the snapshot and WAL formats.
/// Strings are u32-length-prefixed byte runs. Every composite the engine
/// writes is framed and CRC32-checked one level up (snapshot.h / wal.h);
/// this layer is pure byte shuffling.

void PutU8(std::string* dst, uint8_t v);
void PutU32(std::string* dst, uint32_t v);
void PutU64(std::string* dst, uint64_t v);
void PutString(std::string* dst, std::string_view v);

/// Sequential reader over an encoded buffer. Every getter fails with
/// OutOfRange on truncated input instead of reading past the end, which
/// is what turns a torn write into a clean recovery instead of UB.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadF64();
  Result<std::string> ReadString();
  /// The next `n` raw bytes, as a view into the buffer.
  Result<std::string_view> ReadBytes(size_t n);

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
///   u32 0xFFFFFFFF      sentinel: an impossible name length in the row
///                       layout below, so DecodeTable can tell them apart
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

/// Decodes the layout above, or the row layout of older snapshot files
/// (name, schema, row count, then per cell a type tag and its payload).
/// Every count is checked against the bytes that remain before anything
/// is sized from it.
Result<rel::Table> DecodeTable(std::string_view data);

}  // namespace gea::store

#endif  // GEA_STORE_FORMAT_H_
