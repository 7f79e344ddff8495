// Tests for the relational substrate: schema/table, predicates, operators,
// indexes, catalog and CSV persistence.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "rel/catalog.h"
#include "rel/expr.h"
#include "rel/index.h"
#include "rel/ops.h"
#include "rel/table.h"
#include "rel/table_io.h"

namespace gea::rel {
namespace {

Schema PeopleSchema() {
  return Schema({{"name", ValueType::kString},
                 {"age", ValueType::kInt},
                 {"score", ValueType::kDouble}});
}

Table People() {
  Table t("people", PeopleSchema());
  t.AppendRowUnchecked({Value::String("ann"), Value::Int(30),
                        Value::Double(1.5)});
  t.AppendRowUnchecked({Value::String("bob"), Value::Int(25),
                        Value::Double(2.5)});
  t.AppendRowUnchecked({Value::String("cid"), Value::Int(35),
                        Value::Double(0.5)});
  t.AppendRowUnchecked({Value::String("dee"), Value::Int(25),
                        Value::Null()});
  return t;
}

// ---------- Schema / Table ----------

TEST(SchemaTest, CreateRejectsDuplicates) {
  EXPECT_FALSE(Schema::Create({{"a", ValueType::kInt},
                               {"a", ValueType::kInt}})
                   .ok());
  EXPECT_FALSE(Schema::Create({{"", ValueType::kInt}}).ok());
  EXPECT_TRUE(Schema::Create({{"a", ValueType::kInt}}).ok());
}

TEST(SchemaTest, FindColumn) {
  Schema s = PeopleSchema();
  EXPECT_EQ(*s.FindColumn("age"), 1u);
  EXPECT_FALSE(s.FindColumn("nope").has_value());
  EXPECT_TRUE(s.ColumnIndex("nope").status().IsNotFound());
}

TEST(TableTest, AppendRowValidatesArityAndTypes) {
  Table t("t", PeopleSchema());
  EXPECT_TRUE(t.AppendRow({Value::String("x"), Value::Int(1),
                           Value::Double(1)})
                  .ok());
  EXPECT_FALSE(t.AppendRow({Value::String("x"), Value::Int(1)}).ok());
  EXPECT_FALSE(t.AppendRow({Value::Int(1), Value::Int(1), Value::Double(1)})
                   .ok());
  // NULL allowed anywhere.
  EXPECT_TRUE(
      t.AppendRow({Value::Null(), Value::Null(), Value::Null()}).ok());
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(TableTest, GetByName) {
  Table t = People();
  EXPECT_EQ(t.Get(0, "name")->AsString(), "ann");
  EXPECT_TRUE(t.Get(99, "name").status().code() == StatusCode::kOutOfRange);
  EXPECT_TRUE(t.Get(0, "bogus").status().IsNotFound());
}

// ---------- Predicates / Select ----------

TEST(SelectTest, CompareLiteral) {
  Table t = People();
  Result<Table> out = Select(t, Compare("age", CompareOp::kGt,
                                        Value::Int(26)), "old");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);
}

TEST(SelectTest, NullNeverMatchesComparisons) {
  Table t = People();
  // dee has NULL score; she matches neither < nor >= filters.
  Result<Table> lt = Select(t, Compare("score", CompareOp::kLt,
                                       Value::Double(100.0)), "lt");
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(lt->NumRows(), 3u);
  Result<Table> ge = Select(t, Compare("score", CompareOp::kGe,
                                       Value::Double(-100.0)), "ge");
  EXPECT_EQ(ge->NumRows(), 3u);
}

TEST(SelectTest, IsNullPredicates) {
  Table t = People();
  EXPECT_EQ(Select(t, IsNull("score"), "n")->NumRows(), 1u);
  EXPECT_EQ(Select(t, IsNotNull("score"), "nn")->NumRows(), 3u);
}

TEST(SelectTest, BetweenInclusive) {
  Table t = People();
  Result<Table> out =
      Select(t, Between("age", Value::Int(25), Value::Int(30)), "mid");
  EXPECT_EQ(out->NumRows(), 3u);
}

TEST(SelectTest, BooleanCombinators) {
  Table t = People();
  std::vector<PredicatePtr> both;
  both.push_back(Compare("age", CompareOp::kEq, Value::Int(25)));
  both.push_back(IsNotNull("score"));
  EXPECT_EQ(Select(t, And(std::move(both)), "a")->NumRows(), 1u);

  std::vector<PredicatePtr> either;
  either.push_back(Compare("name", CompareOp::kEq, Value::String("ann")));
  either.push_back(Compare("name", CompareOp::kEq, Value::String("cid")));
  EXPECT_EQ(Select(t, Or(std::move(either)), "o")->NumRows(), 2u);

  EXPECT_EQ(Select(t, Not(IsNull("score")), "not")->NumRows(), 3u);
  EXPECT_EQ(Select(t, True(), "all")->NumRows(), 4u);
}

TEST(SelectTest, CompareColumns) {
  Schema s({{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  Table t("t", s);
  t.AppendRowUnchecked({Value::Int(1), Value::Int(2)});
  t.AppendRowUnchecked({Value::Int(3), Value::Int(3)});
  t.AppendRowUnchecked({Value::Int(5), Value::Int(4)});
  EXPECT_EQ(Select(t, CompareColumns("a", CompareOp::kLt, "b"), "lt")
                ->NumRows(),
            1u);
  EXPECT_EQ(Select(t, CompareColumns("a", CompareOp::kEq, "b"), "eq")
                ->NumRows(),
            1u);
}

TEST(SelectTest, UnknownColumnFailsAtBind) {
  Table t = People();
  EXPECT_TRUE(Select(t, Compare("bogus", CompareOp::kEq, Value::Int(1)), "x")
                  .status()
                  .IsNotFound());
}

// ---------- Row oracle for every predicate ----------
//
// Select runs only the columnar kernels. These tests hold them to the row
// semantics spelled with Value::Compare: a comparison is false when
// either side is NULL; Between needs a non-null cell with Compare(lo) >= 0
// and Compare(hi) <= 0, so a NULL lo admits every cell and a NULL hi
// none; NaN compares equal to everything numeric; numbers sort before
// strings; And/Or/Not/True combine the row verdicts.

using RowOracle = std::function<bool(const Row&)>;

bool Holds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};

// Column 0 is a row id; the rest are the cells under test.
const std::vector<std::string>& OracleColumns() {
  static const std::vector<std::string> names = {"id", "i", "d",
                                                 "s",  "j", "e"};
  return names;
}
constexpr size_t kIntCol = 1, kDoubleCol = 2, kStringCol = 3;

Table OracleTable() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Value null = Value::Null();
  const std::vector<Row> cells = {
      {Value::Int(1), Value::Double(1.0), Value::String("a"), Value::Int(2),
       Value::Double(1.0)},
      {Value::Int(2), Value::Double(2.5), Value::String("b"), Value::Int(2),
       Value::Double(nan)},
      {null, Value::Double(nan), null, Value::Int(1), Value::Double(2.0)},
      {Value::Int(-5), null, Value::String(""), null, Value::Double(3.0)},
      {Value::Int(2), Value::Double(-0.0), Value::String("bb"), Value::Int(0),
       null},
      {Value::Int(7), Value::Double(2.0), Value::String("a"), Value::Int(7),
       Value::Double(7.0)},
      {Value::Int(0), Value::Double(1e300), Value::String("\xc3\xa9"),
       Value::Int(3), Value::Double(2.0)},
      {null, Value::Double(3.0), Value::String("B"), Value::Int(4),
       Value::Double(nan)},
      {Value::Int(3), null, Value::String("b"), null, Value::Double(1.5)},
  };
  Table t("cells", Schema({{"id", ValueType::kInt},
                           {"i", ValueType::kInt},
                           {"d", ValueType::kDouble},
                           {"s", ValueType::kString},
                           {"j", ValueType::kInt},
                           {"e", ValueType::kDouble}}));
  for (size_t r = 0; r < cells.size(); ++r) {
    Row row = {Value::Int(static_cast<int64_t>(r))};
    row.insert(row.end(), cells[r].begin(), cells[r].end());
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

std::vector<Value> OracleLiterals() {
  return {Value::Int(2),       Value::Int(-5),
          Value::Double(2.0),  Value::Double(2.5),
          Value::Double(std::numeric_limits<double>::quiet_NaN()),
          Value::Null(),       Value::String("b"),
          Value::String("")};
}

// Select must keep exactly the rows, in order, that `oracle` keeps.
void ExpectSelectMatchesOracle(const Table& table, const PredicatePtr& pred,
                               const RowOracle& oracle) {
  const std::string label = pred->ToString();
  Result<Table> out = Select(table, pred, "out");
  ASSERT_TRUE(out.ok()) << label << ": " << out.status().ToString();
  std::vector<int64_t> kept;
  for (size_t r = 0; r < out->NumRows(); ++r) {
    kept.push_back(out->GetRow(r)[0].AsInt());
  }
  std::vector<int64_t> expected;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const Row row = table.GetRow(r);
    if (oracle(row)) expected.push_back(row[0].AsInt());
  }
  EXPECT_EQ(kept, expected) << label;
}

TEST(PredicateOracleTest, CompareEveryOpAgainstEveryLiteral) {
  const Table t = OracleTable();
  for (size_t col : {kIntCol, kDoubleCol, kStringCol}) {
    for (CompareOp op : kAllOps) {
      for (const Value& lit : OracleLiterals()) {
        ExpectSelectMatchesOracle(
            t, Compare(OracleColumns()[col], op, lit), [&](const Row& row) {
              const Value& v = row[col];
              return !v.is_null() && !lit.is_null() &&
                     Holds(op, v.Compare(lit));
            });
      }
    }
  }
}

TEST(PredicateOracleTest, CompareColumnsAcrossTypes) {
  const Table t = OracleTable();
  const std::pair<size_t, size_t> pairs[] = {
      {1, 4}, {2, 5}, {1, 5}, {4, 2}, {2, 3}, {3, 1}, {3, 3}, {5, 5}};
  for (const auto& [lhs, rhs] : pairs) {
    for (CompareOp op : kAllOps) {
      ExpectSelectMatchesOracle(
          t,
          CompareColumns(OracleColumns()[lhs], op, OracleColumns()[rhs]),
          [&](const Row& row) {
            const Value& a = row[lhs];
            const Value& b = row[rhs];
            return !a.is_null() && !b.is_null() && Holds(op, a.Compare(b));
          });
    }
  }
}

TEST(PredicateOracleTest, NullTests) {
  const Table t = OracleTable();
  for (size_t col = 1; col < OracleColumns().size(); ++col) {
    ExpectSelectMatchesOracle(t, IsNull(OracleColumns()[col]),
                              [&](const Row& row) {
                                return row[col].is_null();
                              });
    ExpectSelectMatchesOracle(t, IsNotNull(OracleColumns()[col]),
                              [&](const Row& row) {
                                return !row[col].is_null();
                              });
  }
}

TEST(PredicateOracleTest, BetweenEveryPairOfBounds) {
  const Table t = OracleTable();
  for (size_t col : {kIntCol, kDoubleCol, kStringCol}) {
    for (const Value& lo : OracleLiterals()) {
      for (const Value& hi : OracleLiterals()) {
        ExpectSelectMatchesOracle(
            t, Between(OracleColumns()[col], lo, hi), [&](const Row& row) {
              const Value& v = row[col];
              return !v.is_null() && v.Compare(lo) >= 0 &&
                     v.Compare(hi) <= 0;
            });
      }
    }
  }
}

TEST(PredicateOracleTest, CombinatorsOverEveryLeafPair) {
  const Table t = OracleTable();
  struct Leaf {
    std::function<PredicatePtr()> make;
    RowOracle oracle;
  };
  auto compare_leaf = [](size_t col, CompareOp op, Value lit) {
    return Leaf{[=] { return Compare(OracleColumns()[col], op, lit); },
                [=](const Row& row) {
                  return !row[col].is_null() && !lit.is_null() &&
                         Holds(op, row[col].Compare(lit));
                }};
  };
  const std::vector<Leaf> leaves = {
      compare_leaf(kIntCol, CompareOp::kGe, Value::Int(2)),
      compare_leaf(kDoubleCol, CompareOp::kLt, Value::Int(3)),
      compare_leaf(kStringCol, CompareOp::kNe, Value::String("b")),
      compare_leaf(kDoubleCol, CompareOp::kEq, Value::Null()),
      {[] { return IsNull("s"); },
       [](const Row& row) { return row[kStringCol].is_null(); }},
      {[] { return Between("e", Value::Double(1.0), Value::Int(2)); },
       [](const Row& row) {
         const Value& v = row[5];
         return !v.is_null() && v.Compare(Value::Double(1.0)) >= 0 &&
                v.Compare(Value::Int(2)) <= 0;
       }},
  };
  for (const Leaf& a : leaves) {
    ExpectSelectMatchesOracle(t, Not(a.make()),
                              [&](const Row& row) { return !a.oracle(row); });
    for (const Leaf& b : leaves) {
      std::vector<PredicatePtr> both;
      both.push_back(a.make());
      both.push_back(b.make());
      ExpectSelectMatchesOracle(t, And(std::move(both)), [&](const Row& row) {
        return a.oracle(row) && b.oracle(row);
      });
      std::vector<PredicatePtr> either;
      either.push_back(a.make());
      either.push_back(b.make());
      ExpectSelectMatchesOracle(t, Or(std::move(either)), [&](const Row& row) {
        return a.oracle(row) || b.oracle(row);
      });
      std::vector<PredicatePtr> nested;
      std::vector<PredicatePtr> inner;
      inner.push_back(a.make());
      inner.push_back(Not(b.make()));
      nested.push_back(Or(std::move(inner)));
      nested.push_back(True());
      ExpectSelectMatchesOracle(t, And(std::move(nested)), [&](const Row& row) {
        return a.oracle(row) || !b.oracle(row);
      });
    }
  }
  ExpectSelectMatchesOracle(t, True(), [](const Row&) { return true; });
  ExpectSelectMatchesOracle(t, Not(True()), [](const Row&) { return false; });
  ExpectSelectMatchesOracle(t, And({}), [](const Row&) { return true; });
  ExpectSelectMatchesOracle(t, Or({}), [](const Row&) { return false; });
}

// ---------- Project / Distinct / Rename / Sort / Limit ----------

TEST(ProjectTest, ReordersColumns) {
  Table t = People();
  Result<Table> out = Project(t, {"age", "name"}, "p");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().column(0).name, "age");
  EXPECT_EQ(out->At(0, 1).AsString(), "ann");
}

TEST(ProjectTest, UnknownColumnFails) {
  EXPECT_FALSE(Project(People(), {"nope"}, "p").ok());
}

TEST(DistinctTest, RemovesDuplicates) {
  Schema s({{"x", ValueType::kInt}});
  Table t("t", s);
  for (int v : {1, 2, 1, 3, 2, 1}) {
    t.AppendRowUnchecked({Value::Int(v)});
  }
  EXPECT_EQ(Distinct(t, "d")->NumRows(), 3u);
}

TEST(RenameTest, RenamesColumn) {
  Result<Table> out = RenameColumn(People(), "age", "years", "r");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->schema().FindColumn("years").has_value());
  EXPECT_FALSE(out->schema().FindColumn("age").has_value());
}

TEST(SortTest, MultiKeyWithDirections) {
  Table t = People();
  Result<Table> out = Sort(t, {{"age", true}, {"name", false}}, "s");
  ASSERT_TRUE(out.ok());
  // age 25 first (bob, dee -> desc name: dee then bob), then 30, 35.
  EXPECT_EQ(out->At(0, 0).AsString(), "dee");
  EXPECT_EQ(out->At(1, 0).AsString(), "bob");
  EXPECT_EQ(out->At(2, 0).AsString(), "ann");
  EXPECT_EQ(out->At(3, 0).AsString(), "cid");
}

TEST(SortTest, NullsSortFirst) {
  Table t = People();
  Result<Table> out = Sort(t, {{"score", true}}, "s");
  EXPECT_TRUE(out->At(0, 2).is_null());
}

TEST(LimitTest, TruncatesAndHandlesOverrun) {
  EXPECT_EQ(Limit(People(), 2, "l")->NumRows(), 2u);
  EXPECT_EQ(Limit(People(), 99, "l")->NumRows(), 4u);
}

// ---------- Join ----------

TEST(JoinTest, BasicEquiJoin) {
  Schema left_schema({{"id", ValueType::kInt}, {"name", ValueType::kString}});
  Table left("left", left_schema);
  left.AppendRowUnchecked({Value::Int(1), Value::String("a")});
  left.AppendRowUnchecked({Value::Int(2), Value::String("b")});
  left.AppendRowUnchecked({Value::Int(3), Value::String("c")});

  Schema right_schema({{"key", ValueType::kInt}, {"val", ValueType::kString}});
  Table right("right", right_schema);
  right.AppendRowUnchecked({Value::Int(2), Value::String("x")});
  right.AppendRowUnchecked({Value::Int(2), Value::String("y")});
  right.AppendRowUnchecked({Value::Int(4), Value::String("z")});

  Result<Table> out = HashJoin(left, right, "id", "key", "j");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);  // id=2 joins twice
  EXPECT_EQ(out->schema().NumColumns(), 3u);  // id, name, val
}

TEST(JoinTest, NullKeysNeverJoin) {
  Schema s({{"k", ValueType::kInt}});
  Table a("a", s);
  a.AppendRowUnchecked({Value::Null()});
  Table b("b", s);
  b.AppendRowUnchecked({Value::Null()});
  EXPECT_EQ(HashJoin(a, b, "k", "k", "j")->NumRows(), 0u);
}

TEST(JoinTest, ClashingColumnNamesGetPrefixed) {
  Schema s({{"k", ValueType::kInt}, {"name", ValueType::kString}});
  Table a("a", s);
  a.AppendRowUnchecked({Value::Int(1), Value::String("l")});
  Table b("b", s);
  b.AppendRowUnchecked({Value::Int(1), Value::String("r")});
  Result<Table> out = HashJoin(a, b, "k", "k", "j");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->schema().FindColumn("r_name").has_value());
}

// ---------- GroupAggregate ----------

TEST(AggregateTest, GroupedAggregates) {
  Table t = People();
  Result<Table> out = GroupAggregate(
      t, {"age"},
      {{AggFn::kCount, "", "n"}, {AggFn::kAvg, "score", "avg_score"}},
      "g");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 3u);
  // age 25 group: bob (2.5) + dee (NULL) -> count 2, avg over non-null 2.5.
  bool found = false;
  for (size_t r = 0; r < out->NumRows(); ++r) {
    if (out->At(r, 0).AsInt() == 25) {
      EXPECT_EQ(out->At(r, 1).AsInt(), 2);
      EXPECT_DOUBLE_EQ(out->At(r, 2).AsDouble(), 2.5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AggregateTest, GlobalAggregatesOnEmptyGroupList) {
  Table t = People();
  Result<Table> out = GroupAggregate(
      t, {},
      {{AggFn::kCount, "", "n"},
       {AggFn::kMin, "age", "min_age"},
       {AggFn::kMax, "age", "max_age"},
       {AggFn::kSum, "score", "total"}},
      "g");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->At(0, 0).AsInt(), 4);
  EXPECT_EQ(out->At(0, 1).AsInt(), 25);
  EXPECT_EQ(out->At(0, 2).AsInt(), 35);
  EXPECT_DOUBLE_EQ(out->At(0, 3).AsDouble(), 4.5);
}

TEST(AggregateTest, StdDevMatchesPopulationFormula) {
  Schema s({{"x", ValueType::kDouble}});
  Table t("t", s);
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    t.AppendRowUnchecked({Value::Double(v)});
  }
  Result<Table> out =
      GroupAggregate(t, {}, {{AggFn::kStdDev, "x", "sd"}}, "g");
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->At(0, 0).AsDouble(), 2.0, 1e-9);  // classic example
}

TEST(AggregateTest, NumericFnOnStringColumnFails) {
  EXPECT_FALSE(
      GroupAggregate(People(), {}, {{AggFn::kSum, "name", "s"}}, "g").ok());
}

TEST(AggregateTest, EmptyInputGlobalGroupEmitsOneRow) {
  Table t("t", PeopleSchema());
  Result<Table> out = GroupAggregate(
      t, {}, {{AggFn::kCount, "", "n"}, {AggFn::kAvg, "score", "a"}}, "g");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->At(0, 0).AsInt(), 0);
  EXPECT_TRUE(out->At(0, 1).is_null());
}

// ---------- Set operations ----------

Table Numbers(const std::string& name, std::vector<int> xs) {
  Schema s({{"x", ValueType::kInt}});
  Table t(name, s);
  for (int x : xs) t.AppendRowUnchecked({Value::Int(x)});
  return t;
}

TEST(SetOpsTest, UnionDeduplicates) {
  Result<Table> out =
      Union(Numbers("a", {1, 2, 2}), Numbers("b", {2, 3}), "u");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 3u);
}

TEST(SetOpsTest, IntersectAndMinus) {
  Table a = Numbers("a", {1, 2, 3, 3});
  Table b = Numbers("b", {2, 3, 4});
  EXPECT_EQ(Intersect(a, b, "i")->NumRows(), 2u);
  EXPECT_EQ(Minus(a, b, "m")->NumRows(), 1u);
  EXPECT_EQ(Minus(a, b, "m")->At(0, 0).AsInt(), 1);
}

TEST(SetOpsTest, SchemaMismatchFails) {
  Table a = Numbers("a", {1});
  Table b("b", Schema({{"y", ValueType::kInt}}));
  EXPECT_FALSE(Union(a, b, "u").ok());
}

// ---------- SortedIndex ----------

TEST(IndexTest, RangeLookupAndCount) {
  Table t = People();
  Result<SortedIndex> idx = SortedIndex::Build(t, "age");
  ASSERT_TRUE(idx.ok());
  std::vector<size_t> rows = idx->RangeLookup(Value::Int(25), Value::Int(30));
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(idx->RangeCount(Value::Int(25), Value::Int(30)), 3u);
  EXPECT_EQ(idx->RangeCount(Value::Int(100), Value::Int(200)), 0u);
}

TEST(IndexTest, ExcludesNulls) {
  Table t = People();
  Result<SortedIndex> idx = SortedIndex::Build(t, "score");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->NumEntries(), 3u);
}

TEST(IndexTest, UnknownColumnFails) {
  EXPECT_FALSE(SortedIndex::Build(People(), "bogus").ok());
}

// ---------- Catalog ----------

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(People()).ok());
  EXPECT_TRUE(catalog.HasTable("people"));
  ASSERT_TRUE(catalog.GetTable("people").ok());
  EXPECT_TRUE(catalog.DropTable("people").ok());
  EXPECT_FALSE(catalog.HasTable("people"));
  EXPECT_TRUE(catalog.DropTable("people").IsNotFound());
}

TEST(CatalogTest, RedundancyCheck) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(People()).ok());
  // Section 4.4.5.2: re-creating without replace is refused.
  EXPECT_TRUE(catalog.CreateTable(People()).IsAlreadyExists());
  EXPECT_TRUE(catalog.CreateTable(People(), /*replace=*/true).ok());
}

TEST(CatalogTest, InitializeDropsEverything) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(People()).ok());
  ASSERT_TRUE(catalog.RegisterComputed("view", [] {
    return Table("view", Schema({{"n", ValueType::kInt}}));
  }).ok());
  catalog.Initialize();
  EXPECT_EQ(catalog.NumTables(), 0u);
  EXPECT_FALSE(catalog.HasTable("view"));
}

// ---------- Computed (view-style) tables ----------

Catalog::TableBuilder CountingBuilder(int* builds) {
  return [builds] {
    ++*builds;
    Table t("view", Schema({{"n", ValueType::kInt}}));
    t.AppendRowUnchecked({Value::Int(*builds)});
    return t;
  };
}

TEST(CatalogTest, ComputedTableRematerializesOnEveryRead) {
  Catalog catalog;
  int builds = 0;
  ASSERT_TRUE(catalog.RegisterComputed("view", CountingBuilder(&builds)).ok());
  EXPECT_TRUE(catalog.HasTable("view"));
  EXPECT_TRUE(catalog.IsComputed("view"));
  EXPECT_FALSE(catalog.IsComputed("people"));

  Result<Table> first = catalog.MaterializeTable("view");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->At(0, 0).AsInt(), 1);
  Result<Table> second = catalog.MaterializeTable("view");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->At(0, 0).AsInt(), 2);  // builder ran again
  // A view has no stored copy to borrow, and asking runs no builder.
  EXPECT_TRUE(catalog.GetTable("view").status().IsFailedPrecondition());
  EXPECT_EQ(builds, 2);
}

TEST(CatalogTest, ComputedTableIsReadOnly) {
  Catalog catalog;
  int builds = 0;
  ASSERT_TRUE(catalog.RegisterComputed("view", CountingBuilder(&builds)).ok());
  EXPECT_TRUE(catalog.GetMutableTable("view").status().IsFailedPrecondition());
}

TEST(CatalogTest, ComputedTableNameConflicts) {
  Catalog catalog;
  int builds = 0;
  ASSERT_TRUE(catalog.CreateTable(People()).ok());
  // Stored name blocks a computed registration (and vice versa) without
  // replace; with replace the older object is gone.
  EXPECT_TRUE(catalog.RegisterComputed("people", CountingBuilder(&builds))
                  .IsAlreadyExists());
  ASSERT_TRUE(catalog
                  .RegisterComputed("people", CountingBuilder(&builds),
                                    /*replace=*/true)
                  .ok());
  EXPECT_TRUE(catalog.IsComputed("people"));
  EXPECT_EQ(catalog.NumTables(), 1u);

  Table stored("people", PeopleSchema());
  EXPECT_TRUE(catalog.CreateTable(stored).IsAlreadyExists());
  ASSERT_TRUE(catalog.CreateTable(std::move(stored), /*replace=*/true).ok());
  EXPECT_FALSE(catalog.IsComputed("people"));
}

TEST(CatalogTest, ComputedTableDropAndRejects) {
  Catalog catalog;
  int builds = 0;
  EXPECT_TRUE(catalog.RegisterComputed("", CountingBuilder(&builds))
                  .IsInvalidArgument());
  EXPECT_TRUE(
      catalog.RegisterComputed("view", nullptr).IsInvalidArgument());
  ASSERT_TRUE(catalog.RegisterComputed("view", CountingBuilder(&builds)).ok());
  EXPECT_TRUE(catalog.DropTable("view").ok());
  EXPECT_FALSE(catalog.HasTable("view"));
  EXPECT_TRUE(catalog.DropTable("view").IsNotFound());
}

// ---------- Table IO ----------

TEST(TableIoTest, CsvRoundTripPreservesTypesAndNulls) {
  Table t = People();
  Result<Table> back = TableFromCsv("people", TableToCsv(t));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->NumRows(), t.NumRows());
  EXPECT_TRUE(back->schema() == t.schema());
  EXPECT_TRUE(back->At(3, 2).is_null());
  EXPECT_EQ(back->At(0, 1).AsInt(), 30);
}

TEST(TableIoTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/gea_table.csv";
  ASSERT_TRUE(SaveTable(People(), path).ok());
  Result<Table> back = LoadTable("people", path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumRows(), 4u);
}

TEST(TableIoTest, BadHeaderFails) {
  EXPECT_FALSE(TableFromCsv("t", "noType\n1\n").ok());
  EXPECT_FALSE(TableFromCsv("t", "a:varchar\nx\n").ok());
}

TEST(TableIoTest, MalformedFileCorpusFailsCleanly) {
  // Every corpus entry is a damaged table file a crashed or hostile
  // writer could leave behind; LoadTable must return an error for each —
  // never crash, never hand back a half-parsed table.
  const struct {
    const char* label;
    const char* text;
  } corpus[] = {
      {"empty header", "\n1,2\n"},
      {"untyped column", "id:int,name\n1,x\n"},
      {"unknown type", "id:int,len:float\n1,2\n"},
      {"duplicate columns", "id:int,id:int\n1,2\n"},
      {"row too short", "id:int,name:string\n1\n"},
      {"row too long", "id:int,name:string\n1,x,extra\n"},
      {"non-numeric int cell", "id:int\nforty-two\n"},
      {"float in int column", "id:int\n4.2\n"},
      {"non-numeric double cell", "score:double\n--\n"},
      {"int overflow", "id:int\n99999999999999999999999\n"},
      {"int underflow", "id:int\n-99999999999999999999999\n"},
      {"double overflow", "score:double\n1e999\n"},
      {"truncated quoted field", "name:string\n\"unterminated\n"},
      {"truncated final row",
       "id:int,name:string,score:double\n1,ok,2.5\n2,tor"},
  };
  for (const auto& bad : corpus) {
    const std::string path = testing::TempDir() + "/gea_bad_table.csv";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bad.text;
    }
    Result<Table> loaded = LoadTable("t", path);
    EXPECT_FALSE(loaded.ok()) << "corpus entry accepted: " << bad.label;
  }
}

TEST(TableIoTest, ExtremeButValidNumbersLoad) {
  const std::string path = testing::TempDir() + "/gea_extreme_table.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "id:int,score:double\n"
        << "9223372036854775807,1e308\n"
        << "-9223372036854775808,1e-320\n";  // denormal underflow is fine
  }
  Result<Table> loaded = LoadTable("t", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->At(0, 0).AsInt(), INT64_MAX);
  EXPECT_EQ(loaded->At(1, 0).AsInt(), INT64_MIN);
  EXPECT_GT(loaded->At(1, 1).AsDouble(), 0.0);
}

}  // namespace
}  // namespace gea::rel
