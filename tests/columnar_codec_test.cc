// Property and round-trip tests for the table codec (store/format.h):
// null-bitmap edge cases, dictionary-coded tag ids through snapshot and
// wire transport, the canonical form (equal cells <=> equal bytes,
// whatever operator built the table) and decoder bounds on hostile
// counts.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "rel/expr.h"
#include "rel/ops.h"
#include "rel/table.h"
#include "rel/value.h"
#include "serve/protocol.h"
#include "store/format.h"
#include "store/snapshot.h"

namespace gea::store {
namespace {

using rel::ColumnDef;
using rel::Row;
using rel::Schema;
using rel::Table;
using rel::Value;
using rel::ValueType;

// Same type and same payload; doubles compare by bit pattern, as the
// codec writes them.
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return a.AsInt() == b.AsInt();
    case ValueType::kDouble:
      return std::bit_cast<uint64_t>(a.AsDouble()) ==
             std::bit_cast<uint64_t>(b.AsDouble());
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

// Cell-by-cell equality of name, schema and contents, independent of the
// codec under test.
bool SameCells(const Table& a, const Table& b) {
  if (a.name() != b.name() || a.NumRows() != b.NumRows() ||
      a.NumColumns() != b.NumColumns()) {
    return false;
  }
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    if (a.schema().column(c).name != b.schema().column(c).name ||
        a.schema().column(c).type != b.schema().column(c).type) {
      return false;
    }
    for (size_t r = 0; r < a.NumRows(); ++r) {
      if (!SameCell(a.At(r, c), b.At(r, c))) return false;
    }
  }
  return true;
}

// Round trip plus the canonical-form property: decode(encode(t)) holds
// the same cells and re-encodes to the exact same bytes.
void ExpectRoundTrip(const Table& table) {
  const std::string encoded = EncodeTable(table);
  Result<Table> back = DecodeTable(encoded);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(SameCells(*back, table));
  EXPECT_EQ(EncodeTable(*back), encoded);
}

Schema FourColumnSchema() {
  return Schema({{"TagName", ValueType::kString},
                 {"TagNo", ValueType::kInt},
                 {"Mean", ValueType::kDouble},
                 {"Note", ValueType::kString}});
}

TEST(ColumnarCodecTest, NullBitmapAllNullColumns) {
  Table t("allnull", FourColumnSchema());
  for (int i = 0; i < 70; ++i) {  // >64 rows: the bitmap spans two words
    ASSERT_TRUE(
        t.AppendRow({Value::Null(), Value::Null(), Value::Null(),
                     Value::Null()})
            .ok());
  }
  ExpectRoundTrip(t);
}

TEST(ColumnarCodecTest, NullBitmapNoNulls) {
  Table t("nonull", FourColumnSchema());
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::String("T" + std::to_string(i % 5)),
                             Value::Int(i), Value::Double(i * 0.5),
                             Value::String("note")})
                    .ok());
  }
  ExpectRoundTrip(t);
}

TEST(ColumnarCodecTest, NullBitmapSingleRow) {
  {
    Table t("one", FourColumnSchema());
    ASSERT_TRUE(t.AppendRow({Value::String("AATCGG"), Value::Int(7),
                             Value::Double(1.5), Value::Null()})
                    .ok());
    ExpectRoundTrip(t);
  }
  {
    Table t("one_all_null", FourColumnSchema());
    ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Null(), Value::Null(),
                             Value::Null()})
                    .ok());
    ExpectRoundTrip(t);
  }
}

TEST(ColumnarCodecTest, ZeroRowsAndDeclaredNullColumn) {
  Table empty("empty", Schema({{"OnlyCol", ValueType::kDouble}}));
  ExpectRoundTrip(empty);

  Table declared("declared_null", Schema({{"Void", ValueType::kNull},
                                          {"N", ValueType::kInt}}));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(declared.AppendRow({Value::Null(), Value::Int(i)}).ok());
  }
  ExpectRoundTrip(declared);
}

TEST(ColumnarCodecTest, RandomizedTablesRoundTrip) {
  std::mt19937 rng(20260809);
  for (int iter = 0; iter < 20; ++iter) {
    Table t("rand" + std::to_string(iter), FourColumnSchema());
    const size_t rows = rng() % 200;
    const int null_percent = static_cast<int>(rng() % 101);
    for (size_t r = 0; r < rows; ++r) {
      auto maybe_null = [&](Value v) {
        return static_cast<int>(rng() % 100) < null_percent ? Value::Null()
                                                            : v;
      };
      ASSERT_TRUE(
          t.AppendRow(
               {maybe_null(Value::String("TAG" + std::to_string(rng() % 7))),
                maybe_null(
                    Value::Int(static_cast<int64_t>(rng()) - (1ll << 31))),
                maybe_null(Value::Double(static_cast<double>(rng()) / 997.0)),
                maybe_null(Value::String(std::string(rng() % 30, 'x')))})
              .ok());
    }
    ExpectRoundTrip(t);
  }
}

TEST(ColumnarCodecTest, DictionaryCodesOutOfRangeRejected) {
  // A corrupted dictionary code on a non-null row must be caught, not
  // indexed blindly.
  Table t("dict", Schema({{"S", ValueType::kString}}));
  ASSERT_TRUE(t.AppendRow({Value::String("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::String("b")}).ok());
  std::string encoded = EncodeTable(t);
  ASSERT_TRUE(DecodeTable(encoded).ok());
  // The last u32 of the buffer is row 1's code; overwrite with 999.
  std::string bad = encoded;
  bad[bad.size() - 4] = char(0xE7);
  bad[bad.size() - 3] = 3;
  bad[bad.size() - 2] = 0;
  bad[bad.size() - 1] = 0;
  Result<Table> r = DecodeTable(bad);
  EXPECT_FALSE(r.ok());
}

TEST(ColumnarCodecTest, DictionaryTagIdsSurviveSnapshotAndWire) {
  // Tag names repeat heavily (low cardinality); the column should store
  // each distinct string once and the round trips must preserve values.
  Table t("tags", FourColumnSchema());
  const std::vector<std::string> names = {"AATCGG", "TTAGCC", "GGCATA"};
  for (int i = 0; i < 90; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::String(names[i % names.size()]),
                             Value::Int(i % names.size()),
                             Value::Double(i * 0.25),
                             i % 4 == 0 ? Value::Null()
                                        : Value::String("liver")})
                    .ok());
  }
  EXPECT_EQ(t.column(0).dict().size(), names.size());

  // Snapshot save/load (columnar payload inside the section).
  SnapshotImage image;
  image.sections.push_back(SnapshotSection::Table("relation", t));
  Result<SnapshotImage> back = DecodeSnapshot(EncodeSnapshot(image));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const SnapshotSection* section = back->Find("relation", "tags");
  ASSERT_NE(section, nullptr);
  ASSERT_TRUE(section->table.has_value());
  EXPECT_TRUE(SameCells(*section->table, t));
  // The decoded column re-interns into an identical dictionary.
  EXPECT_EQ(section->table->column(0).dict().size(), names.size());

  // Query-service replies carry the same encoding.
  serve::Response response;
  response.table = t;
  Result<serve::Response> reply =
      serve::DecodeResponse(serve::EncodeResponse(response));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->table.has_value());
  EXPECT_TRUE(SameCells(*reply->table, t));
  EXPECT_EQ(reply->table->column(0).dict().size(), names.size());
}

// ---- Canonical form ----

TEST(ColumnarCodecTest, SelectedRowsEncodeLikeFreshlyAppendedRows) {
  Table source("t", FourColumnSchema());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        source
            .AppendRow({Value::String("TAG" + std::to_string(i)),
                        Value::Int(i),
                        i % 7 == 0 ? Value::Null() : Value::Double(i * 0.5),
                        i % 3 == 0 ? Value::Null()
                                   : Value::String(i % 2 ? "liver" : "brain")})
            .ok());
  }

  // rel::Select hands its output the source's whole dictionary.
  Result<Table> selected = rel::Select(
      source, rel::Between("TagNo", Value::Int(150), Value::Int(159)), "t");
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  ASSERT_EQ(selected->NumRows(), 10u);
  EXPECT_EQ(selected->column(0).dict().size(), 200u);
  Table fresh("t", FourColumnSchema());
  for (size_t r = 0; r < selected->NumRows(); ++r) {
    ASSERT_TRUE(fresh.AppendRow(selected->GetRow(r)).ok());
  }
  EXPECT_EQ(fresh.column(0).dict().size(), 10u);
  EXPECT_EQ(EncodeTable(*selected), EncodeTable(fresh));

  // A gather whose first use runs against the source's interning order
  // ("brain" before "liver"), with repeats and nulls.
  const std::vector<uint32_t> rows = {190, 4, 190, 1, 14};
  Table gathered("t", FourColumnSchema());
  gathered.GatherAppendRows(source, rows.data(), rows.size());
  EXPECT_EQ(gathered.column(0).dict().size(), 200u);
  Table appended("t", FourColumnSchema());
  for (uint32_t r : rows) {
    ASSERT_TRUE(appended.AppendRow(source.GetRow(r)).ok());
  }
  EXPECT_EQ(EncodeTable(gathered), EncodeTable(appended));
  ExpectRoundTrip(gathered);
}

Row RandomSmallRow(std::mt19937& rng) {
  static const char* const kTags[] = {"AATCGG", "TTAGCC", "GGCATA"};
  auto maybe_null = [&rng](Value v) {
    return rng() % 4 == 0 ? Value::Null() : std::move(v);
  };
  return {maybe_null(Value::String(kTags[rng() % 3])),
          maybe_null(Value::Int(rng() % 2)),
          maybe_null(Value::Double(rng() % 2 ? 0.5 : -1.25)),
          maybe_null(Value::String(rng() % 2 ? "liver" : ""))};
}

// `rows` gathered out of a source that first holds decoy rows, so every
// string dictionary carries unused entries ahead of the used ones.
Table GatheredTable(const std::vector<Row>& rows, std::mt19937& rng) {
  Table source("pair", FourColumnSchema());
  for (int i = 0; i < 3; ++i) {
    source.AppendRowUnchecked(
        {Value::String("DECOY" + std::to_string(rng() % 5)), Value::Null(),
         Value::Null(), Value::String(rng() % 2 ? "decoy" : "liver")});
  }
  std::vector<uint32_t> picks;
  for (const Row& row : rows) {
    picks.push_back(static_cast<uint32_t>(source.NumRows()));
    source.AppendRowUnchecked(row);
  }
  Table out("pair", FourColumnSchema());
  out.GatherAppendRows(source, picks.data(), picks.size());
  return out;
}

TEST(ColumnarCodecTest, BytesEqualExactlyWhenCellsEqual) {
  std::mt19937 rng(20261017);
  int equal_pairs = 0;
  int different_pairs = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<Row> a_rows(rng() % 5);
    for (Row& row : a_rows) row = RandomSmallRow(rng);
    // Half the pairs share every cell; the rest redraw one cell, which
    // may land on the same value again.
    std::vector<Row> b_rows = a_rows;
    if (!b_rows.empty() && rng() % 2 == 0) {
      const size_t r = rng() % b_rows.size();
      const size_t c = rng() % 4;
      b_rows[r][c] = RandomSmallRow(rng)[c];
    }
    Table a("pair", FourColumnSchema());
    if (rng() % 2 == 0) {
      for (const Row& row : a_rows) a.AppendRowUnchecked(row);
    } else {
      a = GatheredTable(a_rows, rng);
    }
    const Table b = GatheredTable(b_rows, rng);
    const bool same = SameCells(a, b);
    EXPECT_EQ(EncodeTable(a) == EncodeTable(b), same) << "pair " << iter;
    ++(same ? equal_pairs : different_pairs);
  }
  EXPECT_GT(equal_pairs, 200);
  EXPECT_GT(different_pairs, 200);
}

// ---- Decoder robustness ----

TEST(ColumnarCodecTest, HostileCountsFailInsteadOfAllocating) {
  // One string column, one row, then a dictionary size of 0xFFFFFFF0.
  std::string columnar;
  PutU32(&columnar, 0xFFFFFFFFu);  // columnar sentinel
  PutU8(&columnar, 1);             // layout version
  PutString(&columnar, "");
  PutU32(&columnar, 1);
  PutString(&columnar, "S");
  PutU8(&columnar, 3);  // string column
  PutU64(&columnar, 1);  // rows
  PutU64(&columnar, 0);  // null bitmap
  PutU32(&columnar, 0xFFFFFFF0u);
  PutU8(&columnar, 0);
  ASSERT_EQ(columnar.size(), 40u);
  EXPECT_FALSE(DecodeTable(columnar).ok());

  // A row count the remaining bytes cannot hold.
  Table one("one", Schema({{"N", ValueType::kInt}}));
  ASSERT_TRUE(one.AppendRow({Value::Int(7)}).ok());
  std::string huge = EncodeTable(one);
  const size_t rows_at = huge.size() - 8 - 8 - 8;  // rows, bitmap, value
  for (int i = 0; i < 8; ++i) huge[rows_at + i] = i == 5 ? 1 : 0;  // 2^40
  EXPECT_FALSE(DecodeTable(huge).ok());

  // Any lead but the columnar sentinel: the retired row layout is refused.
  std::string row_layout;
  PutString(&row_layout, "one");
  PutU32(&row_layout, 0);
  PutU64(&row_layout, 0);
  EXPECT_FALSE(DecodeTable(row_layout).ok());
}

TEST(ColumnarCodecTest, NonCanonicalInputDecodesCanonicallyOrFails) {
  Table t("dict", Schema({{"S", ValueType::kString}}));
  ASSERT_TRUE(t.AppendRow({Value::String("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::String("b")}).ok());
  const std::string encoded = EncodeTable(t);
  // Tail: u64 bitmap, u32 dictionary size, "a", "b" (5 bytes each), then
  // two u32 codes.
  const size_t codes_at = encoded.size() - 8;
  const size_t bitmap_at = codes_at - 5 - 5 - 4 - 8;

  // Null bits past the last row are not cells: they decode away.
  std::string stray = encoded;
  stray[bitmap_at + 7] = static_cast<char>(0x80);
  Result<Table> cleaned = DecodeTable(stray);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  EXPECT_EQ(cleaned->column(0).null_count(), 0u);
  EXPECT_EQ(EncodeTable(*cleaned), encoded);

  // Equal cells must share one code, so a repeated entry is refused.
  std::string repeated = encoded;
  repeated[codes_at - 1] = 'a';
  EXPECT_FALSE(DecodeTable(repeated).ok());
}

}  // namespace
}  // namespace gea::store
