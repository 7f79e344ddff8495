// Micro-benchmarks for the relational substrate (the host-DBMS stand-in):
// selection, hash join, sort, group-aggregate and the sorted range index.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "rel/expr.h"
#include "rel/index.h"
#include "rel/ops.h"
#include "rel/table.h"

namespace {

using namespace gea;
using namespace gea::rel;

Table MakeTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Schema schema({{"id", ValueType::kInt},
                 {"bucket", ValueType::kInt},
                 {"value", ValueType::kDouble},
                 {"name", ValueType::kString}});
  Table table("bench", schema);
  for (size_t r = 0; r < rows; ++r) {
    table.AppendRowUnchecked(
        {Value::Int(static_cast<int64_t>(r)),
         Value::Int(rng.UniformInt(0, 99)),
         Value::Double(rng.UniformDouble(0.0, 1000.0)),
         Value::String("row_" + std::to_string(r % 1000))});
  }
  return table;
}

void BM_Select(benchmark::State& state) {
  Table table = MakeTable(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    PredicatePtr pred =
        Between("value", Value::Double(100.0), Value::Double(300.0));
    benchmark::DoNotOptimize(Select(table, pred, "out"));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Select)->RangeMultiplier(4)->Range(1000, 64000)
    ->Complexity(benchmark::oN);

// Row-at-a-time counterpart of BM_Select: the same range test spelled
// with Value::Compare on materialized Rows — the pre-columnar scan path,
// kept benchmarked so the columnar-vs-row gap stays visible.
void BM_SelectRow(benchmark::State& state) {
  Table table = MakeTable(static_cast<size_t>(state.range(0)), 1);
  Result<size_t> column = table.schema().ColumnIndex("value");
  if (!column.ok()) state.SkipWithError("no value column");
  const Value lo = Value::Double(100.0);
  const Value hi = Value::Double(300.0);
  for (auto _ : state) {
    Table out("out", table.schema());
    for (size_t r = 0; r < table.NumRows(); ++r) {
      Row row = table.GetRow(r);
      const Value& v = row[*column];
      if (!v.is_null() && v.Compare(lo) >= 0 && v.Compare(hi) <= 0) {
        out.AppendRowUnchecked(std::move(row));
      }
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SelectRow)->RangeMultiplier(4)->Range(1000, 64000)
    ->Complexity(benchmark::oN);

void BM_HashJoin(benchmark::State& state) {
  Table left = MakeTable(static_cast<size_t>(state.range(0)), 1);
  Table right = MakeTable(static_cast<size_t>(state.range(0)) / 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashJoin(left, right, "bucket", "bucket", "j"));
  }
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(4000);

void BM_Sort(benchmark::State& state) {
  Table table = MakeTable(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Sort(table, {{"bucket", true}, {"value", false}}, "s"));
  }
}
BENCHMARK(BM_Sort)->RangeMultiplier(4)->Range(1000, 64000);

void BM_GroupAggregate(benchmark::State& state) {
  Table table = MakeTable(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GroupAggregate(
        table, {"bucket"},
        {{AggFn::kCount, "", "n"},
         {AggFn::kAvg, "value", "avg_v"},
         {AggFn::kStdDev, "value", "sd_v"}},
        "g"));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GroupAggregate)->RangeMultiplier(4)->Range(1000, 64000)
    ->Complexity(benchmark::oN);

void BM_IndexBuild(benchmark::State& state) {
  Table table = MakeTable(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIndex::Build(table, "value"));
  }
}
BENCHMARK(BM_IndexBuild)->Arg(1000)->Arg(16000)->Arg(64000);

void BM_IndexRangeLookup(benchmark::State& state) {
  Table table = MakeTable(static_cast<size_t>(state.range(0)), 1);
  SortedIndex index = std::move(SortedIndex::Build(table, "value")).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.RangeLookup(Value::Double(400.0), Value::Double(410.0)));
  }
}
BENCHMARK(BM_IndexRangeLookup)->Arg(1000)->Arg(16000)->Arg(64000);

void BM_SetIntersect(benchmark::State& state) {
  Table a = MakeTable(static_cast<size_t>(state.range(0)), 1);
  Table b = MakeTable(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Intersect(a, b, "i"));
  }
}
BENCHMARK(BM_SetIntersect)->Arg(1000)->Arg(8000);

}  // namespace
