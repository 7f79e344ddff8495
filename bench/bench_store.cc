// Micro-benchmarks for the durable storage engine: snapshot save/load,
// WAL append (one record per fsync) and WAL replay, plus the
// binary-snapshot vs CSV comparison that motivates the format.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rel/table.h"
#include "rel/table_io.h"
#include "store/file_env.h"
#include "store/format.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace {

using namespace gea;

std::string BenchDir() {
  static const std::string* dir = [] {
    auto* path = new std::string(
        (std::filesystem::temp_directory_path() / "gea_bench_store").string());
    std::filesystem::remove_all(*path);
    std::filesystem::create_directories(*path);
    return path;
  }();
  return *dir;
}

// A catalog-shaped table: the expression-matrix mix of ids, doubles and
// the occasional NULL that dominates real snapshots.
rel::Table MakeTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  rel::Schema schema({{"TagNo", rel::ValueType::kInt},
                      {"Mean", rel::ValueType::kDouble},
                      {"StdDev", rel::ValueType::kDouble},
                      {"Gap", rel::ValueType::kDouble},
                      {"Name", rel::ValueType::kString}});
  rel::Table table("bench", schema);
  for (size_t r = 0; r < rows; ++r) {
    rel::Value gap = rng.UniformDouble(0.0, 1.0) < 0.1
                         ? rel::Value::Null()
                         : rel::Value::Double(rng.UniformDouble(-8.0, 8.0));
    table.AppendRowUnchecked({rel::Value::Int(static_cast<int64_t>(r)),
                              rel::Value::Double(rng.UniformDouble(0.0, 500.0)),
                              rel::Value::Double(rng.UniformDouble(0.0, 50.0)),
                              std::move(gap),
                              rel::Value::String("tag_" + std::to_string(r))});
  }
  return table;
}

store::SnapshotImage MakeImage(size_t rows) {
  store::SnapshotImage image;
  image.sections.push_back(
      store::SnapshotSection::Table("relation", MakeTable(rows, 7)));
  return image;
}

store::WalRecord MakeRecord(size_t i) {
  return store::WalRecord::LogicalOp(
      "populate", {{"sumy", "brain_sumy_" + std::to_string(i)},
                   {"base", "brain"},
                   {"out", "out_" + std::to_string(i)},
                   {"replace", "0"}});
}

void BM_SnapshotWrite(benchmark::State& state) {
  store::SnapshotImage image = MakeImage(static_cast<size_t>(state.range(0)));
  store::FileEnv* env = store::FileEnv::Default();
  const std::string path = BenchDir() + "/bm_write.gea";
  for (auto _ : state) {
    Status s = store::WriteSnapshotFile(env, path, image);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(s);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SnapshotWrite)->Arg(1000)->Arg(16000);

void BM_SnapshotRead(benchmark::State& state) {
  store::FileEnv* env = store::FileEnv::Default();
  const std::string path = BenchDir() + "/bm_read.gea";
  Status written = store::WriteSnapshotFile(
      env, path, MakeImage(static_cast<size_t>(state.range(0))));
  if (!written.ok()) state.SkipWithError(written.ToString().c_str());
  for (auto _ : state) {
    Result<store::SnapshotImage> image = store::ReadSnapshotFile(env, path);
    if (!image.ok()) state.SkipWithError(image.status().ToString().c_str());
    benchmark::DoNotOptimize(image);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SnapshotRead)->Arg(1000)->Arg(16000);

// The comparison the snapshot format exists for: the same table persisted
// as a typed-CSV dump (what SaveDatabase writes) vs one binary section.
void BM_TableSaveCsv(benchmark::State& state) {
  rel::Table table = MakeTable(static_cast<size_t>(state.range(0)), 7);
  const std::string path = BenchDir() + "/bm_table.csv";
  for (auto _ : state) {
    Status s = rel::SaveTable(table, path);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TableSaveCsv)->Arg(16000);

void BM_TableLoadCsv(benchmark::State& state) {
  const std::string path = BenchDir() + "/bm_table_load.csv";
  Status saved =
      rel::SaveTable(MakeTable(static_cast<size_t>(state.range(0)), 7), path);
  if (!saved.ok()) state.SkipWithError(saved.ToString().c_str());
  for (auto _ : state) {
    Result<rel::Table> table = rel::LoadTable("bench", path);
    if (!table.ok()) state.SkipWithError(table.status().ToString().c_str());
    benchmark::DoNotOptimize(table);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TableLoadCsv)->Arg(16000);

// The durability price: one fsync per acknowledged record.
void BM_WalAppendSync(benchmark::State& state) {
  store::FileEnv* env = store::FileEnv::Default();
  const std::string path = BenchDir() + "/bm_append_sync.log";
  Result<std::unique_ptr<store::WalWriter>> writer =
      store::WalWriter::Open(env, path, /*truncate=*/true);
  if (!writer.ok()) state.SkipWithError(writer.status().ToString().c_str());
  size_t i = 0;
  for (auto _ : state) {
    Status s = (*writer)->Append({MakeRecord(i++)});
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  (void)(*writer)->Close();
  (void)env->RemoveFile(path);
}
BENCHMARK(BM_WalAppendSync);

void BM_WalReplay(benchmark::State& state) {
  store::FileEnv* env = store::FileEnv::Default();
  const std::string path = BenchDir() + "/bm_replay.log";
  {
    Result<std::unique_ptr<store::WalWriter>> writer =
        store::WalWriter::Open(env, path, /*truncate=*/true);
    if (!writer.ok()) state.SkipWithError(writer.status().ToString().c_str());
    std::vector<store::WalRecord> records;
    for (int64_t i = 0; i < state.range(0); ++i) {
      records.push_back(MakeRecord(static_cast<size_t>(i)));
    }
    Status s = (*writer)->Append(records);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    (void)(*writer)->Close();
  }
  for (auto _ : state) {
    Result<store::WalReadResult> read = store::ReadWalFile(env, path);
    if (!read.ok()) state.SkipWithError(read.status().ToString().c_str());
    benchmark::DoNotOptimize(read);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WalReplay)->Arg(1000)->Arg(16000);

}  // namespace
