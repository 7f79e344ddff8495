#include "store/format.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "rel/schema.h"
#include "rel/value.h"

namespace gea::store {

namespace {

Status Truncated(const char* what) {
  return Status::OutOfRange(std::string("truncated encoding: ") + what);
}

// The formats are little-endian, so a fixed-width word is its host
// bytes.
static_assert(std::endian::native == std::endian::little,
              "LoadLE/StoreLE need byte swaps on big-endian hosts");

template <typename T>
T LoadLE(const char* p) {
  T v{};
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <typename T>
void StoreLE(char* p, T v) {
  std::memcpy(p, &v, sizeof(v));
}

// Grows `out` by `bytes` and returns where they start.
char* Extend(std::string* out, size_t bytes) {
  const size_t at = out->size();
  out->resize(at + bytes);
  return out->data() + at;
}

}  // namespace

void PutU8(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}

void PutU32(std::string* dst, uint32_t v) {
  StoreLE(Extend(dst, sizeof(v)), v);
}

void PutU64(std::string* dst, uint64_t v) {
  StoreLE(Extend(dst, sizeof(v)), v);
}

void PutString(std::string* dst, std::string_view v) {
  PutU32(dst, static_cast<uint32_t>(v.size()));
  dst->append(v.data(), v.size());
}

Result<uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) return Truncated("u8");
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) return Truncated("u32");
  const uint32_t v = LoadLE<uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  if (remaining() < 8) return Truncated("u64");
  const uint64_t v = LoadLE<uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

Result<std::string> ByteReader::ReadString() {
  GEA_ASSIGN_OR_RETURN(uint32_t size, ReadU32());
  GEA_ASSIGN_OR_RETURN(std::string_view body, ReadBytes(size));
  return std::string(body);
}

Result<std::string_view> ByteReader::ReadBytes(size_t n) {
  if (remaining() < n) return Truncated("byte run");
  std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

void PutStringMap(std::string* dst,
                  const std::map<std::string, std::string>& map) {
  PutU32(dst, static_cast<uint32_t>(map.size()));
  for (const auto& [key, value] : map) {
    PutString(dst, key);
    PutString(dst, value);
  }
}

Result<std::map<std::string, std::string>> ByteReader::ReadStringMap() {
  GEA_ASSIGN_OR_RETURN(uint32_t count, ReadU32());
  std::map<std::string, std::string> map;
  for (uint32_t i = 0; i < count; ++i) {
    GEA_ASSIGN_OR_RETURN(std::string key, ReadString());
    GEA_ASSIGN_OR_RETURN(std::string value, ReadString());
    // Keys ascend strictly, as PutStringMap writes them, so an accepted
    // map re-encodes to the bytes it came from.
    if (!map.empty() && !(map.rbegin()->first < key)) {
      return Status::InvalidArgument(
          "parameter key repeated or out of order: " + key);
    }
    map.emplace_hint(map.end(), std::move(key), std::move(value));
  }
  return map;
}

void PutFrame(std::string* dst, std::string_view body) {
  PutU32(dst, static_cast<uint32_t>(body.size()));
  PutU32(dst, Crc32(body));
  dst->append(body);
}

uint32_t FrameBodyLength(std::string_view header) {
  return LoadLE<uint32_t>(header.data());
}

Status CheckFrameBody(std::string_view header, std::string_view body) {
  if (Crc32(body) != LoadLE<uint32_t>(header.data() + 4)) {
    return Status::IoError("frame CRC mismatch (corrupt or torn frame)");
  }
  return Status::OK();
}

Result<std::string_view> ByteReader::ReadFrame() {
  GEA_ASSIGN_OR_RETURN(std::string_view header, ReadBytes(kFrameHeaderBytes));
  GEA_ASSIGN_OR_RETURN(std::string_view body,
                       ReadBytes(FrameBodyLength(header)));
  GEA_RETURN_IF_ERROR(CheckFrameBody(header, body));
  return body;
}

namespace {

// Column type tags are indexes into kTagTypes. Distinct from
// rel::ValueType's numbering on purpose: the format is frozen here, the
// enum is not.
constexpr rel::ValueType kTagTypes[] = {
    rel::ValueType::kNull, rel::ValueType::kInt, rel::ValueType::kDouble,
    rel::ValueType::kString};

uint8_t ColumnTypeTag(rel::ValueType type) {
  return static_cast<uint8_t>(
      std::find(std::begin(kTagTypes), std::end(kTagTypes), type) -
      std::begin(kTagTypes));
}

Result<rel::ValueType> ColumnTypeFromTag(uint8_t tag) {
  if (tag >= std::size(kTagTypes)) {
    return Status::InvalidArgument("unknown type tag: " + std::to_string(tag));
  }
  return kTagTypes[tag];
}

constexpr uint32_t kColumnarSentinel = 0xFFFFFFFFu;
constexpr uint8_t kColumnarVersion = 1;

// The bitmap bits of the last word that belong to rows.
uint64_t LastWordMask(uint64_t rows) {
  return rows % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (rows % 64)) - 1;
}

void EncodeSchema(std::string* out, const rel::Table& table) {
  PutString(out, table.name());
  PutU32(out, static_cast<uint32_t>(table.schema().NumColumns()));
  for (const rel::ColumnDef& col : table.schema().columns()) {
    PutString(out, col.name);
    PutU8(out, ColumnTypeTag(col.type));
  }
}

// Writes `value(r)` for each row as one fixed-width run, zero on nulls.
template <typename T, typename Fn>
void PutValues(std::string* out, const rel::Column& col, size_t rows,
               Fn value) {
  char* p = Extend(out, rows * sizeof(T));
  for (size_t r = 0; r < rows; ++r) {
    StoreLE<T>(p + r * sizeof(T), col.IsNull(r) ? T{} : value(r));
  }
}

// Writes only the dictionary entries that non-null rows use, renumbered
// in order of first use: a gathered column keeps its source's whole
// dictionary, and neither that nor interning order may show in the bytes.
void EncodeStrings(std::string* out, const rel::Column& col, size_t rows) {
  constexpr uint32_t kUnused = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> renumbered(col.dict().size(), kUnused);
  std::vector<uint32_t> used;  // source codes in order of first use
  for (size_t r = 0; r < rows; ++r) {
    if (col.IsNull(r)) continue;
    uint32_t& code = renumbered[col.CodeAt(r)];
    if (code == kUnused) {
      code = static_cast<uint32_t>(used.size());
      used.push_back(col.CodeAt(r));
    }
  }
  PutU32(out, static_cast<uint32_t>(used.size()));
  for (uint32_t code : used) PutString(out, col.dict()[code]);
  PutValues<uint32_t>(out, col, rows,
                      [&](size_t r) { return renumbered[col.CodeAt(r)]; });
}

struct DecodedSchema {
  std::string name;
  rel::Schema schema;
};

Result<DecodedSchema> DecodeSchema(ByteReader& reader) {
  GEA_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
  GEA_ASSIGN_OR_RETURN(uint32_t num_columns, reader.ReadU32());
  // A column takes at least 5 bytes: its name's length and a type tag.
  if (num_columns > reader.remaining() / 5) return Truncated("schema");
  std::vector<rel::ColumnDef> defs;
  defs.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    GEA_ASSIGN_OR_RETURN(std::string col_name, reader.ReadString());
    GEA_ASSIGN_OR_RETURN(uint8_t tag, reader.ReadU8());
    GEA_ASSIGN_OR_RETURN(rel::ValueType type, ColumnTypeFromTag(tag));
    defs.push_back({std::move(col_name), type});
  }
  GEA_ASSIGN_OR_RETURN(rel::Schema schema,
                       rel::Schema::Create(std::move(defs)));
  return DecodedSchema{std::move(name), std::move(schema)};
}

bool NullBit(const uint64_t* nulls, size_t row) {
  return (nulls[row >> 6] >> (row & 63)) & 1;
}

// `count` fixed-width values, checked against the bytes that remain
// before anything is sized from `count`. Slots under a bit of `nulls`
// (when given) decode as zero whatever the input holds there.
template <typename T>
Result<std::vector<T>> ReadValues(ByteReader& reader, uint64_t count,
                                  const uint64_t* nulls) {
  if (count > reader.remaining() / sizeof(T)) return Truncated("column");
  GEA_ASSIGN_OR_RETURN(std::string_view raw,
                       reader.ReadBytes(count * sizeof(T)));
  std::vector<T> values(count);
  for (size_t i = 0; i < count; ++i) {
    if (nulls == nullptr || !NullBit(nulls, i)) {
      values[i] = LoadLE<T>(raw.data() + i * sizeof(T));
    }
  }
  return values;
}

Result<rel::Table> DecodeColumns(ByteReader& reader) {
  GEA_ASSIGN_OR_RETURN(uint32_t sentinel, reader.ReadU32());
  GEA_ASSIGN_OR_RETURN(uint8_t version, reader.ReadU8());
  if (sentinel != kColumnarSentinel || version != kColumnarVersion) {
    return Status::InvalidArgument("not a columnar table encoding");
  }
  GEA_ASSIGN_OR_RETURN(DecodedSchema decoded, DecodeSchema(reader));
  GEA_ASSIGN_OR_RETURN(uint64_t rows, reader.ReadU64());
  const size_t num_columns = decoded.schema.NumColumns();
  // Every column spends a bitmap word per 64 rows.
  if (num_columns > 0 && rows / 64 > reader.remaining() / 8) {
    return Truncated("null bitmap");
  }
  std::vector<rel::Column> columns;
  columns.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    GEA_ASSIGN_OR_RETURN(
        std::vector<uint64_t> nulls,
        ReadValues<uint64_t>(reader, rel::Column::NullWordsFor(rows), nullptr));
    // Bits past the last row are not cells.
    if (!nulls.empty()) nulls.back() &= LastWordMask(rows);
    switch (decoded.schema.column(c).type) {
      case rel::ValueType::kInt: {
        GEA_ASSIGN_OR_RETURN(std::vector<int64_t> vals,
                             ReadValues<int64_t>(reader, rows, nulls.data()));
        columns.push_back(
            rel::Column::FromRawInts(std::move(vals), std::move(nulls), rows));
        break;
      }
      case rel::ValueType::kDouble: {
        GEA_ASSIGN_OR_RETURN(std::vector<double> vals,
                             ReadValues<double>(reader, rows, nulls.data()));
        columns.push_back(rel::Column::FromRawDoubles(std::move(vals),
                                                      std::move(nulls), rows));
        break;
      }
      case rel::ValueType::kString: {
        GEA_ASSIGN_OR_RETURN(uint32_t dict_size, reader.ReadU32());
        // An entry takes at least its 4-byte length.
        if (dict_size > reader.remaining() / 4) return Truncated("dictionary");
        std::vector<std::string> dict;
        dict.reserve(dict_size);
        for (uint32_t d = 0; d < dict_size; ++d) {
          GEA_ASSIGN_OR_RETURN(std::string s, reader.ReadString());
          dict.push_back(std::move(s));
        }
        GEA_ASSIGN_OR_RETURN(std::vector<uint32_t> codes,
                             ReadValues<uint32_t>(reader, rows, nulls.data()));
        for (size_t r = 0; r < rows; ++r) {
          if (codes[r] >= dict_size && !NullBit(nulls.data(), r)) {
            return Status::InvalidArgument("dictionary code out of range: " +
                                           std::to_string(codes[r]));
          }
        }
        GEA_ASSIGN_OR_RETURN(
            rel::Column column,
            rel::Column::FromRawStrings(std::move(dict), std::move(codes),
                                        std::move(nulls), rows));
        columns.push_back(std::move(column));
        break;
      }
      case rel::ValueType::kNull:
        columns.push_back(rel::Column::FromRawNulls(rows));
        break;
    }
  }
  return rel::Table::FromColumns(std::move(decoded.name),
                                 std::move(decoded.schema),
                                 std::move(columns), rows);
}

}  // namespace

std::string EncodeTable(const rel::Table& table) {
  std::string out;
  PutU32(&out, kColumnarSentinel);
  PutU8(&out, kColumnarVersion);
  EncodeSchema(&out, table);
  const size_t rows = table.NumRows();
  PutU64(&out, rows);
  const size_t words = rel::Column::NullWordsFor(rows);
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    const rel::Column& col = table.column(c);
    for (size_t w = 0; w < words; ++w) {
      PutU64(&out, col.null_words()[w] &
                       (w + 1 == words ? LastWordMask(rows) : ~uint64_t{0}));
    }
    switch (col.type()) {
      case rel::ValueType::kInt:
        PutValues<int64_t>(&out, col, rows,
                           [&](size_t r) { return col.IntAt(r); });
        break;
      case rel::ValueType::kDouble:
        PutValues<double>(&out, col, rows,
                          [&](size_t r) { return col.DoubleAt(r); });
        break;
      case rel::ValueType::kString:
        EncodeStrings(&out, col, rows);
        break;
      case rel::ValueType::kNull:
        break;  // no payload; the bitmap says it all
    }
  }
  return out;
}

Result<rel::Table> DecodeTable(std::string_view data) {
  ByteReader reader(data);
  GEA_ASSIGN_OR_RETURN(rel::Table table, DecodeColumns(reader));
  if (!reader.Done()) {
    return Status::InvalidArgument("trailing bytes after table encoding");
  }
  return table;
}

}  // namespace gea::store
