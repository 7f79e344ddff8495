// Differential battery for the columnar kernels (same pattern as the
// PR-1 serial/parallel harness): run aggregate/populate/diff/top-gap and
// the SQL SELECT path through both a row-at-a-time reference
// implementation (written out longhand here, against the logical API
// only) and the batch kernels, over randomized seeded datasets of
// varying tag cardinality and null density, at 1/2/8 threads — and
// require *bit-identical* tables every time. The comparisons go through
// the canonical table codec, which serializes doubles by bit pattern, so
// a single ULP of drift anywhere fails the battery.
//
// Labelled "parallel": the 2- and 8-thread legs exercise ParallelFor
// with real pool helpers and are TSan targets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/enum_table.h"
#include "core/gap.h"
#include "core/gap_ops.h"
#include "core/operators.h"
#include "core/populate.h"
#include "core/sumy.h"
#include "rel/catalog.h"
#include "rel/sql.h"
#include "rel/table.h"
#include "store/format.h"

namespace gea::core {
namespace {

// Real pool helpers even on single-core hosts, so the multi-thread legs
// genuinely interleave (and TSan sees the handoffs).
ForceParallelHelpersScope g_force_helpers;

const size_t kThreadCounts[] = {1, 2, 8};

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Bit-exact table equality via the canonical table codec (doubles encode
// as their bit patterns, so this is exact, not tolerance-based).
void ExpectBitIdentical(const rel::Table& a, const rel::Table& b,
                        const char* what) {
  EXPECT_EQ(store::EncodeTable(a), store::EncodeTable(b)) << what;
}

// ---- Seeded dataset generation ----

struct DataConfig {
  uint32_t seed = 1;
  size_t num_libs = 8;
  size_t num_tags = 100;
  // Fraction (percent) of cells snapped to a small integer grid: high
  // values create ties, overlapping µ±σ bands and therefore null gaps.
  int grid_percent = 50;
};

EnumTable MakeEnum(const DataConfig& config, const std::string& name) {
  std::mt19937 rng(config.seed);
  std::vector<sage::LibraryMeta> libs(config.num_libs);
  for (size_t i = 0; i < libs.size(); ++i) {
    libs[i].id = static_cast<int>(i + 1);
    libs[i].name = name + "_L" + std::to_string(i + 1);
    libs[i].state = (rng() % 2) ? sage::NeoplasticState::kCancer
                                : sage::NeoplasticState::kNormal;
  }
  std::vector<sage::TagId> tags(config.num_tags);
  sage::TagId next = 0;
  for (size_t t = 0; t < tags.size(); ++t) {
    next += 1 + rng() % 5;  // ascending, gappy tag universe
    tags[t] = next;
  }
  std::vector<double> values(config.num_libs * config.num_tags);
  std::uniform_real_distribution<double> dist(-50.0, 50.0);
  for (double& v : values) {
    v = dist(rng);
    if (static_cast<int>(rng() % 100) < config.grid_percent) {
      v = std::floor(v / 10.0) * 10.0;  // snap: ties and overlaps
    }
  }
  Result<EnumTable> e = EnumTable::FromRows(name, std::move(libs),
                                            std::move(tags),
                                            std::move(values));
  EXPECT_TRUE(e.ok());
  return *e;
}

// ---- Row-at-a-time references (logical API only, no kernels) ----

// Same arithmetic contract as the kernel documents: shifted moments with
// the column's first row as shift, reciprocal multiply. One column at a
// time, rows ascending.
SumyTable ReferenceAggregate(const EnumTable& input,
                             const std::string& out_name) {
  std::vector<SumyEntry> entries;
  const double n = static_cast<double>(input.NumLibraries());
  for (size_t c = 0; c < input.NumTags(); ++c) {
    const double shift = input.ValueAt(0, c);
    double lo = shift, hi = shift, sum = 0.0, sumsq = 0.0;
    for (size_t row = 0; row < input.NumLibraries(); ++row) {
      const double v = input.ValueAt(row, c);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      const double d = v - shift;
      sum += d;
      sumsq += d * d;
    }
    const double inv_n = 1.0 / n;
    const double mean_d = sum * inv_n;
    const double var = sumsq * inv_n - mean_d * mean_d;
    entries.push_back(SumyEntry(input.tags()[c], lo, hi, shift + mean_d,
                                std::sqrt(std::max(0.0, var))));
  }
  return SumyTable::FromSortedEntries(out_name, std::move(entries));
}

GapTable ReferenceDiff(const SumyTable& sumy1, const SumyTable& sumy2,
                       const std::string& out_name) {
  std::vector<GapEntry> rows;
  for (const SumyEntry& ea : sumy1.entries()) {
    std::optional<SumyEntry> eb = sumy2.Find(ea.tag);
    if (!eb.has_value()) continue;
    const bool first_is_higher = ea.mean >= eb->mean;
    const SumyEntry& hi = first_is_higher ? ea : *eb;
    const SumyEntry& lo = first_is_higher ? *eb : ea;
    const double magnitude = (hi.mean - hi.stddev) - (lo.mean + lo.stddev);
    GapEntry row;
    row.tag = ea.tag;
    if (magnitude <= 0.0) {
      row.gaps.push_back(std::nullopt);
    } else {
      row.gaps.push_back(first_is_higher ? magnitude : -magnitude);
    }
    rows.push_back(std::move(row));
  }
  Result<GapTable> table = GapTable::Create(out_name, {"Gap"},
                                            std::move(rows));
  EXPECT_TRUE(table.ok());
  return *table;
}

EnumTable ReferencePopulate(const SumyTable& sumy, const EnumTable& base,
                            const std::string& out_name) {
  // Sequential scan: a library qualifies when its level satisfies every
  // tag-range condition (absent tags hold level 0).
  std::vector<sage::LibraryMeta> libs;
  std::vector<double> values;
  for (size_t row = 0; row < base.NumLibraries(); ++row) {
    bool ok = true;
    for (const SumyEntry& e : sumy.entries()) {
      auto it = std::lower_bound(base.tags().begin(), base.tags().end(),
                                 e.tag);
      const double v = (it != base.tags().end() && *it == e.tag)
                           ? base.ValueAt(row, it - base.tags().begin())
                           : 0.0;
      if (v < e.min || v > e.max) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    libs.push_back(base.library(row));
    for (const SumyEntry& e : sumy.entries()) {
      auto it = std::lower_bound(base.tags().begin(), base.tags().end(),
                                 e.tag);
      values.push_back((it != base.tags().end() && *it == e.tag)
                           ? base.ValueAt(row, it - base.tags().begin())
                           : 0.0);
    }
  }
  std::vector<sage::TagId> tags;
  for (const SumyEntry& e : sumy.entries()) tags.push_back(e.tag);
  Result<EnumTable> out = EnumTable::FromRows(out_name, std::move(libs),
                                              std::move(tags),
                                              std::move(values));
  EXPECT_TRUE(out.ok());
  return *out;
}

GapTable ReferenceTopGap(const GapTable& input, size_t x, TopGapMode mode,
                         const std::string& out_name) {
  // The pre-columnar implementation: materialize rows, filter non-null,
  // stable-sort descending by the mode key, truncate, rebuild.
  std::vector<GapEntry> rows;
  for (const GapEntry& e : input.entries()) {
    if (e.gaps[0].has_value()) rows.push_back(e);
  }
  auto key = [mode](const GapEntry& e) {
    const double g = *e.gaps[0];
    switch (mode) {
      case TopGapMode::kLargestMagnitude:
        return std::abs(g);
      case TopGapMode::kHighest:
        return g;
      case TopGapMode::kLowest:
        return -g;
    }
    return g;
  };
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const GapEntry& a, const GapEntry& b) {
                     return key(a) > key(b);
                   });
  if (rows.size() > x) rows.resize(x);
  Result<GapTable> out = GapTable::Create(out_name, input.gap_columns(),
                                          std::move(rows));
  EXPECT_TRUE(out.ok());
  return *out;
}

void ExpectEnumBitIdentical(const EnumTable& a, const EnumTable& b) {
  ASSERT_EQ(a.NumLibraries(), b.NumLibraries());
  ASSERT_EQ(a.NumTags(), b.NumTags());
  EXPECT_EQ(a.tags(), b.tags());
  for (size_t row = 0; row < a.NumLibraries(); ++row) {
    EXPECT_EQ(a.library(row).id, b.library(row).id);
    EXPECT_EQ(a.library(row).name, b.library(row).name);
  }
  for (size_t i = 0; i < a.values().size(); ++i) {
    ASSERT_EQ(Bits(a.values()[i]), Bits(b.values()[i])) << "cell " << i;
  }
}

// ---- The battery ----

const DataConfig kConfigs[] = {
    // seed, libs, tags, grid% (higher grid% -> more ties -> more nulls)
    {101, 1, 3, 0},       // degenerate: single library, tiny tag set
    {202, 7, 64, 30},     //
    {303, 24, 257, 60},   // stripe (32) misaligned cardinality
    {404, 16, 1000, 85},  // null-heavy
};

TEST(ColumnarBatteryTest, AggregateMatchesRowReferenceAtEveryThreadCount) {
  for (const DataConfig& config : kConfigs) {
    EnumTable e = MakeEnum(config, "E" + std::to_string(config.seed));
    const SumyTable expected = ReferenceAggregate(e, "S");
    for (size_t threads : kThreadCounts) {
      ThreadCountOverride scope(threads);
      Result<SumyTable> got = Aggregate(e, "S");
      ASSERT_TRUE(got.ok());
      ExpectBitIdentical(expected.ToRelTable(), got->ToRelTable(),
                         "aggregate");
    }
  }
}

TEST(ColumnarBatteryTest, DiffMatchesRowReferenceAtEveryThreadCount) {
  for (const DataConfig& config : kConfigs) {
    if (config.num_libs < 2) continue;  // need two clusters
    EnumTable e = MakeEnum(config, "E");
    EnumTable c1 = e.FilterLibraries("C1", [](const sage::LibraryMeta& l) {
      return l.state == sage::NeoplasticState::kCancer;
    });
    EnumTable c2 = e.FilterLibraries("C2", [](const sage::LibraryMeta& l) {
      return l.state == sage::NeoplasticState::kNormal;
    });
    if (c1.NumLibraries() == 0 || c2.NumLibraries() == 0) continue;
    Result<SumyTable> s1 = Aggregate(c1, "S1");
    Result<SumyTable> s2 = Aggregate(c2, "S2");
    ASSERT_TRUE(s1.ok() && s2.ok());
    const GapTable expected = ReferenceDiff(*s1, *s2, "G");
    for (size_t threads : kThreadCounts) {
      ThreadCountOverride scope(threads);
      Result<GapTable> got = Diff(*s1, *s2, "G");
      ASSERT_TRUE(got.ok());
      ExpectBitIdentical(expected.ToRelTable(), got->ToRelTable(), "diff");
    }
  }
}

TEST(ColumnarBatteryTest, DiffMergePathMatchesReferenceOnDisjointTagSets) {
  // Partially overlapping tag universes force the merge fallback (the
  // aligned fast path only fires on identical tag vectors).
  EnumTable e = MakeEnum({707, 8, 200, 40}, "E");
  std::vector<sage::TagId> odd_tags, third_tags;
  for (size_t i = 0; i < e.NumTags(); ++i) {
    if (i % 2 == 1) odd_tags.push_back(e.tags()[i]);
    if (i % 3 == 0) third_tags.push_back(e.tags()[i]);
  }
  Result<EnumTable> e_odd = e.RestrictTags("EO", odd_tags);
  Result<EnumTable> e_third = e.RestrictTags("ET", third_tags);
  ASSERT_TRUE(e_odd.ok() && e_third.ok());
  Result<SumyTable> s1 = Aggregate(*e_odd, "S1");
  Result<SumyTable> s2 = Aggregate(*e_third, "S2");
  ASSERT_TRUE(s1.ok() && s2.ok());
  const GapTable expected = ReferenceDiff(*s1, *s2, "G");
  EXPECT_GT(expected.NumTags(), 0u);
  EXPECT_LT(expected.NumTags(), s1->NumTags());
  for (size_t threads : kThreadCounts) {
    ThreadCountOverride scope(threads);
    Result<GapTable> got = Diff(*s1, *s2, "G");
    ASSERT_TRUE(got.ok());
    ExpectBitIdentical(expected.ToRelTable(), got->ToRelTable(),
                       "diff merge");
  }
}

TEST(ColumnarBatteryTest, PopulateMatchesScanReferenceWithAndWithoutIndexes) {
  for (const DataConfig& config : kConfigs) {
    if (config.num_libs < 4) continue;
    EnumTable base = MakeEnum(config, "B");
    // Aggregate a half-cluster: its ranges re-select a superset of the
    // half under populate.
    EnumTable half = base.FilterLibraries(
        "H", [](const sage::LibraryMeta& l) { return l.id % 2 == 0; });
    Result<SumyTable> sumy = Aggregate(half, "S");
    ASSERT_TRUE(sumy.ok());
    const EnumTable expected = ReferencePopulate(*sumy, base, "P");
    EXPECT_GE(expected.NumLibraries(), half.NumLibraries());
    for (size_t threads : kThreadCounts) {
      ThreadCountOverride scope(threads);
      PopulateEngine engine(base);
      Result<EnumTable> scan = engine.Populate(*sumy, "P");
      ASSERT_TRUE(scan.ok());
      ExpectEnumBitIdentical(expected, *scan);
      // Indexed plan: same answer through a different physical path.
      ASSERT_TRUE(engine
                      .BuildIndexes({base.tags()[0],
                                     base.tags()[base.NumTags() / 2]})
                      .ok());
      Result<EnumTable> indexed = engine.Populate(*sumy, "P");
      ASSERT_TRUE(indexed.ok());
      ExpectEnumBitIdentical(expected, *indexed);
    }
  }
}

TEST(ColumnarBatteryTest, TopGapMatchesRowReferenceInEveryMode) {
  EnumTable e = MakeEnum({505, 20, 300, 70}, "E");
  EnumTable c1 = e.FilterLibraries(
      "C1", [](const sage::LibraryMeta& l) { return l.id <= 10; });
  EnumTable c2 = e.FilterLibraries(
      "C2", [](const sage::LibraryMeta& l) { return l.id > 10; });
  Result<SumyTable> s1 = Aggregate(c1, "S1");
  Result<SumyTable> s2 = Aggregate(c2, "S2");
  ASSERT_TRUE(s1.ok() && s2.ok());
  Result<GapTable> gap = Diff(*s1, *s2, "G");
  ASSERT_TRUE(gap.ok());
  for (TopGapMode mode : {TopGapMode::kLargestMagnitude, TopGapMode::kHighest,
                          TopGapMode::kLowest}) {
    for (size_t x : {size_t{1}, size_t{10}, size_t{100000}}) {
      const GapTable expected = ReferenceTopGap(*gap, x, mode, "T");
      for (size_t threads : kThreadCounts) {
        ThreadCountOverride scope(threads);
        Result<GapTable> got = TopGap(*gap, x, mode, "T");
        ASSERT_TRUE(got.ok());
        ExpectBitIdentical(expected.ToRelTable(), got->ToRelTable(),
                           TopGapModeName(mode));
      }
    }
  }
}

// ---- SQL SELECT through the columnar scan/filter path ----

// Reference evaluation: filter with a plain row loop over materialized
// Values, project, sort by TagNo (unique, so the order is total).
rel::Table ReferenceSelect(
    const rel::Table& source, const std::vector<std::string>& columns,
    const std::function<bool(const rel::Table&, size_t)>& pred,
    bool descending) {
  std::vector<rel::ColumnDef> defs;
  for (const std::string& name : columns) {
    defs.push_back(source.schema().column(*source.schema().FindColumn(name)));
  }
  std::vector<size_t> rows;
  for (size_t r = 0; r < source.NumRows(); ++r) {
    if (pred(source, r)) rows.push_back(r);
  }
  std::sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    const int64_t ta = source.Get(a, "TagNo")->AsInt();
    const int64_t tb = source.Get(b, "TagNo")->AsInt();
    return descending ? ta > tb : ta < tb;
  });
  rel::Table out("query", rel::Schema(std::move(defs)));
  for (size_t r : rows) {
    rel::Row row;
    for (const std::string& name : columns) row.push_back(*source.Get(r, name));
    out.AppendRowUnchecked(std::move(row));
  }
  return out;
}

TEST(ColumnarBatteryTest, SqlSelectMatchesRowReferenceAtEveryThreadCount) {
  for (const DataConfig& config : kConfigs) {
    if (config.num_libs < 2) continue;
    EnumTable e = MakeEnum(config, "E");
    EnumTable c1 = e.FilterLibraries(
        "C1", [](const sage::LibraryMeta& l) { return l.id % 2 == 0; });
    EnumTable c2 = e.FilterLibraries(
        "C2", [](const sage::LibraryMeta& l) { return l.id % 2 == 1; });
    Result<SumyTable> s1 = Aggregate(c1, "S1");
    Result<SumyTable> s2 = Aggregate(c2, "S2");
    ASSERT_TRUE(s1.ok() && s2.ok());
    Result<GapTable> gap = Diff(*s1, *s2, "G");
    ASSERT_TRUE(gap.ok());
    rel::Table g = gap->ToRelTable();  // TagName, TagNo, Gap (with NULLs)

    rel::Catalog catalog;
    ASSERT_TRUE(catalog.CreateTable(g).ok());

    struct Query {
      const char* sql;
      std::vector<std::string> columns;
      std::function<bool(const rel::Table&, size_t)> pred;
      bool descending;
    };
    auto gap_at = [](const rel::Table& t, size_t r) {
      return t.Get(r, "Gap");
    };
    const Query queries[] = {
        {"SELECT * FROM G WHERE Gap > 0 AND TagNo < 400 ORDER BY TagNo",
         {"TagName", "TagNo", "Gap"},
         [&](const rel::Table& t, size_t r) {
           auto gv = gap_at(t, r);
           return gv->type() == rel::ValueType::kDouble &&
                  gv->AsDouble() > 0 && t.Get(r, "TagNo")->AsInt() < 400;
         },
         false},
        {"SELECT TagNo, Gap FROM G WHERE Gap < 0 OR TagNo IN (3, 9, 27, 81, "
         "243) ORDER BY TagNo DESC",
         {"TagNo", "Gap"},
         [&](const rel::Table& t, size_t r) {
           auto gv = gap_at(t, r);
           const int64_t tag = t.Get(r, "TagNo")->AsInt();
           return (gv->type() == rel::ValueType::kDouble &&
                   gv->AsDouble() < 0) ||
                  tag == 3 || tag == 9 || tag == 27 || tag == 81 ||
                  tag == 243;
         },
         true},
        {"SELECT TagName, TagNo FROM G WHERE Gap IS NULL AND (TagNo < 100 OR "
         "TagNo > 600) ORDER BY TagNo",
         {"TagName", "TagNo"},
         [&](const rel::Table& t, size_t r) {
           const int64_t tag = t.Get(r, "TagNo")->AsInt();
           return gap_at(t, r)->is_null() && (tag < 100 || tag > 600);
         },
         false},
    };
    for (const Query& q : queries) {
      const rel::Table expected =
          ReferenceSelect(g, q.columns, q.pred, q.descending);
      for (size_t threads : kThreadCounts) {
        ThreadCountOverride scope(threads);
        Result<rel::Table> got = rel::ExecuteQuery(catalog, q.sql);
        ASSERT_TRUE(got.ok()) << q.sql << ": " << got.status().ToString();
        ExpectBitIdentical(expected, *got, q.sql);
      }
    }
  }
}

}  // namespace
}  // namespace gea::core
