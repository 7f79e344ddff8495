// Tests for the durable storage engine: the binary table codec, the
// snapshot format, the WAL framing and torn-tail handling, generation
// rotation in StorageEngine, its group commit (leader-follower handoff,
// LSN-ordered durable callbacks, the batch crash contract, and what
// Checkpoint and Close commit first), and the fault-injection FileEnv.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "obs/statviews.h"
#include "store/engine.h"
#include "store/fault_env.h"
#include "store/file_env.h"
#include "store/format.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "support/corpus.h"

namespace gea::store {
namespace {

namespace fs = std::filesystem;

using support::FreshDir;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

rel::Table SampleTable() {
  rel::Table table("mixed",
                   rel::Schema({{"id", rel::ValueType::kInt},
                                {"level", rel::ValueType::kDouble},
                                {"name", rel::ValueType::kString}}));
  table.AppendRowUnchecked({rel::Value::Int(1), rel::Value::Double(0.5),
                            rel::Value::String("alpha")});
  table.AppendRowUnchecked({rel::Value::Int(-7), rel::Value::Null(),
                            rel::Value::String("")});
  table.AppendRowUnchecked(
      {rel::Value::Null(), rel::Value::Double(-1.25e100), rel::Value::Null()});
  return table;
}

// ---------- format primitives ----------

TEST(FormatTest, PrimitivesRoundTrip) {
  std::string buf;
  PutU8(&buf, 0xAB);
  PutU32(&buf, 0xDEADBEEF);
  PutU64(&buf, 0x0123456789ABCDEFull);
  PutU64(&buf, static_cast<uint64_t>(int64_t{-42}));
  PutU64(&buf, std::bit_cast<uint64_t>(3.14159));
  PutString(&buf, "hello\0world");  // embedded NUL is cut by the literal,
  PutString(&buf, std::string("a\0b", 3));  // so also test an explicit one

  ByteReader reader(buf);
  EXPECT_EQ(*reader.ReadU8(), 0xAB);
  EXPECT_EQ(*reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*reader.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(static_cast<int64_t>(*reader.ReadU64()), -42);
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(*reader.ReadU64()), 3.14159);
  EXPECT_EQ(*reader.ReadString(), "hello");
  EXPECT_EQ(*reader.ReadString(), std::string("a\0b", 3));
  EXPECT_TRUE(reader.Done());
}

TEST(FormatTest, ReaderFailsCleanlyOnTruncation) {
  std::string buf;
  PutU64(&buf, 99);
  PutString(&buf, "payload");
  // Every strict prefix must produce OutOfRange somewhere, never UB.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteReader reader(std::string_view(buf).substr(0, cut));
    Result<uint64_t> v = reader.ReadU64();
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
      continue;
    }
    Result<std::string> s = reader.ReadString();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(FormatTest, TableCodecRoundTripsNullsAndTypes) {
  rel::Table table = SampleTable();
  std::string encoded = EncodeTable(table);
  Result<rel::Table> back = DecodeTable(encoded);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->name(), "mixed");
  ASSERT_EQ(back->schema().NumColumns(), 3u);
  EXPECT_EQ(back->schema().column(1).name, "level");
  EXPECT_EQ(back->schema().column(1).type, rel::ValueType::kDouble);
  ASSERT_EQ(back->NumRows(), table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(back->At(r, c), table.At(r, c))
          << "row " << r << " col " << c;
    }
  }
  // Determinism: re-encoding the decoded table is byte-identical.
  EXPECT_EQ(EncodeTable(*back), encoded);
}

TEST(FormatTest, TableCodecRejectsCorruptInput) {
  std::string encoded = EncodeTable(SampleTable());
  EXPECT_FALSE(DecodeTable("").ok());
  EXPECT_FALSE(DecodeTable(encoded + "x").ok());  // trailing garbage
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(DecodeTable(std::string_view(encoded).substr(0, cut)).ok())
        << "prefix of " << cut << " bytes decoded";
  }
}

// ---------- snapshots ----------

SnapshotImage SampleImage() {
  SnapshotImage image;
  image.sections.push_back(
      SnapshotSection::Blob("sage", "dataset", std::string("\x00\x01raw", 5)));
  image.sections.push_back(SnapshotSection::Table("relation", SampleTable()));
  return image;
}

TEST(SnapshotTest, EncodeDecodeRoundTrip) {
  SnapshotImage image = SampleImage();
  std::string encoded = EncodeSnapshot(image);
  Result<SnapshotImage> back = DecodeSnapshot(encoded);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->sections.size(), 2u);

  const SnapshotSection* blob = back->Find("sage", "dataset");
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->type, SnapshotSection::Type::kBlob);
  EXPECT_EQ(blob->blob, std::string("\x00\x01raw", 5));

  const SnapshotSection* table = back->Find("relation", "mixed");
  ASSERT_NE(table, nullptr);
  ASSERT_TRUE(table->table.has_value());
  EXPECT_EQ(EncodeTable(*table->table), EncodeTable(SampleTable()));

  EXPECT_EQ(back->Find("relation", "nope"), nullptr);
}

// Flips and truncations of every frame user, snapshots included, are
// in decoder_mutation_test.
TEST(SnapshotTest, HostileSectionCountIsRefused) {
  EXPECT_FALSE(DecodeSnapshot(EncodeSnapshot(SampleImage()) + "tail").ok());
  // A valid 28-byte header claiming 2^32-1 sections over an empty
  // payload: an error, not a reservation sized by the count.
  std::string header("GEASNAP1", 8);
  PutU32(&header, kSnapshotVersion);
  PutU32(&header, 0xFFFFFFFFu);
  PutU64(&header, 0);
  PutU32(&header, Crc32(header));
  ASSERT_EQ(header.size(), 28u);
  EXPECT_FALSE(DecodeSnapshot(header).ok());
}

TEST(SnapshotTest, FileRoundTripIsAtomic) {
  std::string dir = FreshDir("snapfile");
  FileEnv* env = FileEnv::Default();
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  std::string path = dir + "/snap-1.gea";

  ASSERT_TRUE(WriteSnapshotFile(env, path, SampleImage()).ok());
  EXPECT_FALSE(env->FileExists(path + ".tmp"));  // tmp renamed away

  Result<SnapshotImage> back = ReadSnapshotFile(env, path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->sections.size(), 2u);

  // Overwriting goes through the same tmp+rename path.
  SnapshotImage image2;
  image2.sections.push_back(SnapshotSection::Blob("sage", "d2", "x"));
  ASSERT_TRUE(WriteSnapshotFile(env, path, image2).ok());
  back = ReadSnapshotFile(env, path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->sections.size(), 1u);

  EXPECT_FALSE(ReadSnapshotFile(env, dir + "/absent.gea").ok());
}

// ---------- WAL ----------

WalRecord SampleOp(int i) {
  return WalRecord::LogicalOp(
      "populate", {{"sumy", "s" + std::to_string(i)}, {"out", "o"}});
}

WalRecord Op(const std::string& name) { return WalRecord::LogicalOp(name, {}); }

/// Submits one record and waits for its commit.
Status Commit(StorageEngine& engine, WalRecord record) {
  return engine.Submit(std::move(record))->Wait();
}

TEST(WalTest, WriteReadRoundTrip) {
  std::string dir = FreshDir("wal_rt");
  FileEnv* env = FileEnv::Default();
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  std::string path = dir + "/wal-0.log";

  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(env, path, /*truncate=*/true);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append({SampleOp(0)}).ok());
  ASSERT_TRUE(
      (*writer)
          ->Append({WalRecord::BlobRecord("load_dataset", "blob\0bytes")})
          .ok());
  EXPECT_EQ((*writer)->records(), 2u);
  ASSERT_TRUE((*writer)->Close().ok());

  Result<WalReadResult> read = ReadWalFile(env, path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->dropped_bytes, 0u);
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0].type, WalRecord::Type::kLogicalOp);
  EXPECT_EQ(read->records[0].op, "populate");
  EXPECT_EQ(read->records[0].params.at("sumy"), "s0");
  EXPECT_EQ(read->records[1].type, WalRecord::Type::kBlob);
  EXPECT_EQ(read->records[1].op, "load_dataset");

  // Reopening for append keeps the old records.
  writer = WalWriter::Open(env, path, /*truncate=*/false);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append({SampleOp(2)}).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  read = ReadWalFile(env, path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 3u);
}

TEST(WalTest, MissingFileIsEmptyLog) {
  Result<WalReadResult> read =
      ReadWalFile(FileEnv::Default(), FreshDir("wal_miss") + "/wal-0.log");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_FALSE(read->torn_tail);
}

TEST(WalTest, TornTailAtEveryByteKeepsDurablePrefix) {
  std::string frames[3] = {EncodeWalRecord(SampleOp(0)),
                           EncodeWalRecord(SampleOp(1)),
                           EncodeWalRecord(SampleOp(2))};
  std::string full = frames[0] + frames[1] + frames[2];
  std::string dir = FreshDir("wal_torn");
  FileEnv* env = FileEnv::Default();
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  std::string path = dir + "/wal-0.log";

  size_t prefix2 = frames[0].size() + frames[1].size();
  // Tear the file anywhere inside the third frame: the first two records
  // must survive and the tail must be reported torn.
  for (size_t cut = prefix2 + 1; cut < full.size(); ++cut) {
    WriteAll(path, full.substr(0, cut));
    Result<WalReadResult> read = ReadWalFile(env, path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->records.size(), 2u) << "cut at " << cut;
    EXPECT_TRUE(read->torn_tail);
    EXPECT_EQ(read->valid_bytes, prefix2);
    EXPECT_EQ(read->dropped_bytes, cut - prefix2);
  }

  // A corrupt byte mid-log cuts everything from that frame on.
  std::string bad = full;
  bad[frames[0].size() + 9] ^= 0x01;  // inside frame 1's body
  WriteAll(path, bad);
  Result<WalReadResult> read = ReadWalFile(env, path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 1u);
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(read->valid_bytes, frames[0].size());
  EXPECT_EQ(read->dropped_bytes, full.size() - frames[0].size());

  // A crash can leave zeros past the last write. They read as an empty
  // frame whose CRC checks out, but no record is empty: a torn tail.
  WriteAll(path, frames[0] + std::string(16, '\0'));
  read = ReadWalFile(env, path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->records.size(), 1u);
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(read->dropped_bytes, 16u);
}

TEST(WalTest, RecordBodyRefusesRepeatedAndUnorderedParams) {
  // Hand-built bodies: a logical op "op" whose parameter pairs are
  // written in the order given.
  auto body = [](std::vector<std::pair<std::string, std::string>> params) {
    std::string out;
    PutU8(&out, static_cast<uint8_t>(WalRecord::Type::kLogicalOp));
    PutString(&out, "op");
    PutU32(&out, static_cast<uint32_t>(params.size()));
    for (const auto& [key, value] : params) {
      PutString(&out, key);
      PutString(&out, value);
    }
    PutString(&out, "");
    return out;
  };
  Result<WalRecord> ordered =
      DecodeWalRecordBody(body({{"a", "1"}, {"out", "x"}}));
  ASSERT_TRUE(ordered.ok()) << ordered.status().ToString();
  EXPECT_EQ(EncodeWalRecord(*ordered).substr(kFrameHeaderBytes),
            body({{"a", "1"}, {"out", "x"}}));
  EXPECT_FALSE(DecodeWalRecordBody(body({{"out", "x"}, {"out", "y"}})).ok());
  EXPECT_FALSE(DecodeWalRecordBody(body({{"out", "x"}, {"a", "1"}})).ok());
}

// ---------- storage engine ----------

TEST(EngineTest, BootstrapAppendReopenReplaysRecords) {
  std::string dir = FreshDir("engine_basic");
  FileEnv* env = FileEnv::Default();
  StorageOptions options;

  Result<StorageEngine::OpenResult> open =
      StorageEngine::Open(env, dir, options);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open->engine->generation(), 0u);
  EXPECT_FALSE(open->snapshot.has_value());
  EXPECT_TRUE(open->records.empty());
  EXPECT_FALSE(open->summary.snapshot_loaded);

  ASSERT_TRUE(Commit(*open->engine, SampleOp(0)).ok());
  ASSERT_TRUE(Commit(*open->engine, SampleOp(1)).ok());
  ASSERT_TRUE(open->engine->Close().ok());

  open = StorageEngine::Open(env, dir, options);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->engine->generation(), 0u);
  ASSERT_EQ(open->records.size(), 2u);
  EXPECT_EQ(open->records[1].params.at("sumy"), "s1");
  EXPECT_EQ(open->summary.wal_records_replayed, 2u);
  EXPECT_EQ(LastRecoverySummary().wal_records_replayed, 2u);
}

TEST(EngineTest, CheckpointRotatesGenerationAndClearsWal) {
  std::string dir = FreshDir("engine_ckpt");
  FileEnv* env = FileEnv::Default();
  StorageOptions options;

  Result<StorageEngine::OpenResult> open =
      StorageEngine::Open(env, dir, options);
  ASSERT_TRUE(open.ok());
  StorageEngine* engine = open->engine.get();
  ASSERT_TRUE(Commit(*engine, SampleOp(0)).ok());

  ASSERT_TRUE(engine->Checkpoint(SampleImage()).ok());
  EXPECT_EQ(engine->generation(), 1u);
  EXPECT_EQ(engine->records_since_checkpoint(), 0u);
  // Old generation files are swept, new ones exist.
  EXPECT_TRUE(env->FileExists(engine->SnapshotPath(1)));
  EXPECT_FALSE(env->FileExists(engine->WalPath(0)));

  // Records after the checkpoint land in the new WAL.
  ASSERT_TRUE(Commit(*engine, SampleOp(7)).ok());
  ASSERT_TRUE(engine->Close().ok());

  open = StorageEngine::Open(env, dir, options);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->engine->generation(), 1u);
  ASSERT_TRUE(open->snapshot.has_value());
  EXPECT_EQ(open->snapshot->sections.size(), 2u);
  ASSERT_EQ(open->records.size(), 1u);  // kCheckpoint marker filtered out
  EXPECT_EQ(open->records[0].params.at("sumy"), "s7");
  EXPECT_TRUE(open->summary.snapshot_loaded);
  EXPECT_EQ(open->summary.generation, 1u);
}

TEST(EngineTest, AutomaticCheckpointThreshold) {
  std::string dir = FreshDir("engine_auto");
  StorageOptions options;
  options.checkpoint_every_records = 3;
  Result<StorageEngine::OpenResult> open =
      StorageEngine::Open(FileEnv::Default(), dir, options);
  ASSERT_TRUE(open.ok());
  StorageEngine* engine = open->engine.get();
  EXPECT_FALSE(engine->CheckpointDue());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(Commit(*engine, SampleOp(i)).ok());
  EXPECT_TRUE(engine->CheckpointDue());
  ASSERT_TRUE(engine->Checkpoint(SampleImage()).ok());
  EXPECT_FALSE(engine->CheckpointDue());
}

TEST(EngineTest, MissingCurrentFallsBackToSnapshotScan) {
  std::string dir = FreshDir("engine_fallback");
  FileEnv* env = FileEnv::Default();
  StorageOptions options;
  {
    Result<StorageEngine::OpenResult> open =
        StorageEngine::Open(env, dir, options);
    ASSERT_TRUE(open.ok());
    ASSERT_TRUE(Commit(*open->engine, SampleOp(0)).ok());
    ASSERT_TRUE(open->engine->Checkpoint(SampleImage()).ok());
    ASSERT_TRUE(Commit(*open->engine, SampleOp(1)).ok());
    ASSERT_TRUE(open->engine->Close().ok());
  }
  ASSERT_TRUE(env->RemoveFile(dir + "/CURRENT").ok());

  Result<StorageEngine::OpenResult> open =
      StorageEngine::Open(env, dir, options);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_TRUE(open->summary.used_fallback_scan);
  EXPECT_EQ(open->engine->generation(), 1u);
  ASSERT_TRUE(open->snapshot.has_value());
  ASSERT_EQ(open->records.size(), 1u);
  EXPECT_EQ(open->records[0].params.at("sumy"), "s1");
}

TEST(EngineTest, TornWalTailIsTruncatedOnDisk) {
  std::string dir = FreshDir("engine_torn");
  FileEnv* env = FileEnv::Default();
  StorageOptions options;
  {
    Result<StorageEngine::OpenResult> open =
        StorageEngine::Open(env, dir, options);
    ASSERT_TRUE(open.ok());
    ASSERT_TRUE(Commit(*open->engine, SampleOp(0)).ok());
    ASSERT_TRUE(open->engine->Close().ok());
  }
  std::string wal_path = dir + "/wal-0.log";
  std::string intact = ReadAll(wal_path);
  WriteAll(wal_path, intact + EncodeWalRecord(SampleOp(1)).substr(0, 5));

  Result<StorageEngine::OpenResult> open =
      StorageEngine::Open(env, dir, options);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_TRUE(open->summary.wal_torn_tail);
  EXPECT_EQ(open->summary.wal_bytes_truncated, 5u);
  ASSERT_EQ(open->records.size(), 1u);
  ASSERT_TRUE(open->engine->Close().ok());
  // The torn bytes are gone from disk, not just skipped.
  EXPECT_EQ(ReadAll(wal_path).size(), intact.size());
}

// Every file in `dir`, by name, with its bytes.
std::map<std::string, std::string> DirectoryFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = ReadAll(entry.path().string());
  }
  return files;
}

// Open must fail on `dir` with an error that names `culprit`, and leave
// every file as it found it.
void ExpectOpenFailsAndKeepsFiles(const std::string& dir,
                                  const std::string& culprit) {
  const std::map<std::string, std::string> before = DirectoryFiles(dir);
  Result<StorageEngine::OpenResult> open =
      StorageEngine::Open(FileEnv::Default(), dir, {});
  ASSERT_FALSE(open.ok()) << "opened at generation "
                          << open->engine->generation() << " with "
                          << open->records.size() << " records";
  EXPECT_NE(open.status().message().find(culprit), std::string::npos)
      << open.status().ToString();
  EXPECT_EQ(DirectoryFiles(dir), before);
}

TEST(EngineTest, UndecodableCommittedSnapshotFailsOpenAndKeepsFiles) {
  std::string dir = FreshDir("engine_bad_snap");
  {
    Result<StorageEngine::OpenResult> open =
        StorageEngine::Open(FileEnv::Default(), dir, {});
    ASSERT_TRUE(open.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(Commit(*open->engine, SampleOp(i)).ok());
    }
    ASSERT_TRUE(open->engine->Checkpoint(SampleImage()).ok());
    for (int i = 3; i < 5; ++i) {
      ASSERT_TRUE(Commit(*open->engine, SampleOp(i)).ok());
    }
    ASSERT_TRUE(open->engine->Close().ok());
  }
  std::string snapshot = ReadAll(dir + "/snap-1.gea");
  snapshot[40] ^= 0x01;  // inside the first section's body
  WriteAll(dir + "/snap-1.gea", snapshot);
  ExpectOpenFailsAndKeepsFiles(dir, "snap-1.gea");
}

TEST(EngineTest, UndecodableWalRecordFailsOpenAndKeepsFiles) {
  std::string dir = FreshDir("engine_bad_record");
  {
    Result<StorageEngine::OpenResult> open =
        StorageEngine::Open(FileEnv::Default(), dir, {});
    ASSERT_TRUE(open.ok());
    ASSERT_TRUE(open->engine->Close().ok());
  }
  // The middle record names record type 9 under a CRC that checks out.
  std::string body = EncodeWalRecord(SampleOp(1)).substr(8);
  body[0] = 9;
  std::string log = EncodeWalRecord(SampleOp(0));
  PutFrame(&log, body);
  log += EncodeWalRecord(SampleOp(2));
  WriteAll(dir + "/wal-0.log", log);
  ExpectOpenFailsAndKeepsFiles(
      dir, "wal-0.log at byte " +
               std::to_string(EncodeWalRecord(SampleOp(0)).size()));
}

// No code writes the row table layout any more: a snapshot in it (the
// checked-in fixture) fails Open instead of being swept as a leftover.
TEST(EngineTest, RowLayoutSnapshotFailsOpenAndKeepsFiles) {
  const std::string fixture =
      ReadAll(std::string(GEA_TESTDATA_DIR) + "/snapshot_pr4_rowformat.bin");
  ASSERT_FALSE(fixture.empty()) << "fixture file missing";
  std::string dir = FreshDir("engine_row_layout");
  ASSERT_TRUE(FileEnv::Default()->CreateDirs(dir).ok());
  WriteAll(dir + "/snap-1.gea", fixture);
  WriteAll(dir + "/CURRENT", "1\n");
  ExpectOpenFailsAndKeepsFiles(dir, "snap-1.gea");
}

TEST(EngineTest, StaleTmpFilesAreSweptOnOpen) {
  std::string dir = FreshDir("engine_sweep");
  FileEnv* env = FileEnv::Default();
  StorageOptions options;
  {
    Result<StorageEngine::OpenResult> open =
        StorageEngine::Open(env, dir, options);
    ASSERT_TRUE(open.ok());
    ASSERT_TRUE(open->engine->Close().ok());
  }
  WriteAll(dir + "/snap-9.gea.tmp", "half a snapshot");
  Result<StorageEngine::OpenResult> open =
      StorageEngine::Open(env, dir, options);
  ASSERT_TRUE(open.ok());
  EXPECT_FALSE(env->FileExists(dir + "/snap-9.gea.tmp"));
}

// ---------- group commit ----------

TEST(GroupCommitTest, SingleWriterCommitsDurably) {
  const std::string dir = FreshDir("gc_single");
  auto opened = StorageEngine::Open(FileEnv::Default(), dir, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StorageEngine> engine = std::move(opened->engine);

  std::vector<uint64_t> acked;
  engine->set_durable_callback(
      [&](uint64_t lsn, const WalRecord&) { acked.push_back(lsn); });

  std::shared_ptr<CommitTicket> ticket = engine->Submit(Op("alpha"));
  EXPECT_EQ(ticket->lsn(), 1u);
  ASSERT_TRUE(ticket->Wait().ok());
  EXPECT_TRUE(ticket->Wait().ok());  // idempotent
  EXPECT_EQ(engine->last_lsn(), 1u);
  EXPECT_EQ(acked, std::vector<uint64_t>({1}));
  EXPECT_EQ(engine->QueueDepth(), 0u);
  ASSERT_TRUE(engine->Close().ok());

  auto reopened = StorageEngine::Open(FileEnv::Default(), dir, {});
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->records.size(), 1u);
  EXPECT_EQ(reopened->records[0].op, "alpha");
}

TEST(GroupCommitTest, ConcurrentWritersCoalesceAndAckInLsnOrder) {
  const std::string dir = FreshDir("gc_coalesce");
  auto opened = StorageEngine::Open(FileEnv::Default(), dir, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StorageEngine> engine = std::move(opened->engine);

  std::mutex acked_mu;
  std::vector<uint64_t> acked;
  engine->set_durable_callback([&](uint64_t lsn, const WalRecord&) {
    std::lock_guard<std::mutex> lock(acked_mu);
    acked.push_back(lsn);
  });

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::shared_ptr<CommitTicket> ticket = engine->Submit(
            Op("w" + std::to_string(t) + "_" + std::to_string(i)));
        if (!ticket->Wait().ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& w : writers) w.join();

  constexpr uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine->last_lsn(), kTotal);
  // The durable callback saw every record exactly once, in LSN order —
  // batching must not reorder or drop replication shipping.
  ASSERT_EQ(acked.size(), kTotal);
  for (uint64_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(acked[i], i + 1);
  }
  ASSERT_TRUE(engine->Close().ok());

  auto reopened = StorageEngine::Open(FileEnv::Default(), dir, {});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->records.size(), kTotal);
}

TEST(GroupCommitTest, KillBetweenBatchWriteAndFsyncAcksNothing) {
  const std::string dir = FreshDir("gc_kill");
  FaultInjectionEnv env(FileEnv::Default());
  auto opened = StorageEngine::Open(&env, dir, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StorageEngine> engine = std::move(opened->engine);

  std::vector<uint64_t> acked;
  engine->set_durable_callback(
      [&](uint64_t lsn, const WalRecord&) { acked.push_back(lsn); });

  // Batch 1 commits cleanly.
  std::shared_ptr<CommitTicket> alpha = engine->Submit(Op("alpha"));
  ASSERT_TRUE(alpha->Wait().ok());
  ASSERT_EQ(acked, std::vector<uint64_t>({1}));

  // Batch 2 = two appends + one shared fsync. Kill the fsync: the batch
  // is written into the page cache but never reaches the platter.
  // ArmFault zeroes the point counter, so the appends are points 0 and 1
  // and the shared fsync is point 2.
  env.ArmFault(2, FaultInjectionEnv::FaultKind::kKill);
  std::shared_ptr<CommitTicket> beta = engine->Submit(Op("beta"));
  std::shared_ptr<CommitTicket> gamma = engine->Submit(Op("gamma"));
  EXPECT_FALSE(engine->Drain().ok());

  // Nothing in the torn batch is acknowledged: both waiters get the
  // error, no frame was shipped, the engine's LSN never advanced.
  EXPECT_FALSE(beta->Wait().ok());
  EXPECT_FALSE(gamma->Wait().ok());
  EXPECT_EQ(acked, std::vector<uint64_t>({1}));
  EXPECT_EQ(engine->last_lsn(), 1u);

  // The WAL tail is indeterminate, so the engine is sticky-failed.
  std::shared_ptr<CommitTicket> delta = engine->Submit(Op("delta"));
  EXPECT_FALSE(delta->Wait().ok());

  (void)engine->Close();  // dead env; recovery decides what survived

  // Recovery replays exactly the acked prefix.
  auto reopened = StorageEngine::Open(FileEnv::Default(), dir, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened->records.size(), 1u);
  EXPECT_EQ(reopened->records[0].op, "alpha");
  EXPECT_EQ(reopened->engine->last_lsn(), 1u);
}

TEST(GroupCommitTest, FailedSyncAcksNothingToo) {
  const std::string dir = FreshDir("gc_failsync");
  FaultInjectionEnv env(FileEnv::Default());
  auto opened = StorageEngine::Open(&env, dir, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StorageEngine> engine = std::move(opened->engine);

  std::vector<uint64_t> acked;
  engine->set_durable_callback(
      [&](uint64_t lsn, const WalRecord&) { acked.push_back(lsn); });

  // ArmFault zeroes the point counter: the batch's single append is
  // point 0, its fsync is point 1.
  env.ArmFault(1, FaultInjectionEnv::FaultKind::kFailSync);
  std::shared_ptr<CommitTicket> ticket = engine->Submit(Op("alpha"));
  EXPECT_FALSE(ticket->Wait().ok());
  EXPECT_TRUE(acked.empty());
  EXPECT_EQ(engine->last_lsn(), 0u);
  (void)engine->Close();

  auto reopened = StorageEngine::Open(FileEnv::Default(), dir, {});
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->records.empty());
}

// Records submitted but never waited on are committed by the checkpoint,
// before it rotates the log they belong in.
TEST(GroupCommitTest, CheckpointCommitsSubmittedRecords) {
  const std::string dir = FreshDir("gc_ckpt");
  auto opened = StorageEngine::Open(FileEnv::Default(), dir, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StorageEngine> engine = std::move(opened->engine);

  std::vector<uint64_t> acked;
  engine->set_durable_callback(
      [&](uint64_t lsn, const WalRecord&) { acked.push_back(lsn); });
  std::vector<std::shared_ptr<CommitTicket>> tickets;
  for (int i = 0; i < 3; ++i) tickets.push_back(engine->Submit(SampleOp(i)));
  EXPECT_EQ(engine->QueueDepth(), 3u);
  EXPECT_EQ(engine->last_lsn(), 0u);

  ASSERT_TRUE(engine->Checkpoint(SampleImage()).ok());
  EXPECT_EQ(engine->QueueDepth(), 0u);
  EXPECT_EQ(acked, std::vector<uint64_t>({1, 2, 3}));
  EXPECT_EQ(engine->last_lsn(), 3u);
  EXPECT_EQ(engine->generation(), 1u);
  for (const std::shared_ptr<CommitTicket>& ticket : tickets) {
    EXPECT_TRUE(ticket->Wait().ok()) << ticket->lsn();
  }

  // The LSN survives the rotation: the next record continues the count.
  std::shared_ptr<CommitTicket> next = engine->Submit(SampleOp(3));
  EXPECT_EQ(next->lsn(), 4u);
  ASSERT_TRUE(next->Wait().ok());
  EXPECT_EQ(acked.back(), 4u);
}

TEST(GroupCommitTest, CloseCommitsSubmittedRecords) {
  const std::string dir = FreshDir("gc_close");
  auto opened = StorageEngine::Open(FileEnv::Default(), dir, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::shared_ptr<CommitTicket> first = opened->engine->Submit(SampleOp(0));
  std::shared_ptr<CommitTicket> second = opened->engine->Submit(SampleOp(1));
  ASSERT_TRUE(opened->engine->Close().ok());
  EXPECT_TRUE(first->Wait().ok());
  EXPECT_TRUE(second->Wait().ok());

  auto reopened = StorageEngine::Open(FileEnv::Default(), dir, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened->records.size(), 2u);
  EXPECT_EQ(reopened->records[0].params.at("sumy"), "s0");
  EXPECT_EQ(reopened->records[1].params.at("sumy"), "s1");
  EXPECT_EQ(reopened->engine->last_lsn(), 2u);
}

// A ticket shares its queue with the engine, so it still answers after
// the engine is gone: the engine's teardown committed it.
TEST(GroupCommitTest, TicketOutlivesItsEngine) {
  const std::string dir = FreshDir("gc_outlive");
  FaultInjectionEnv env(FileEnv::Default());
  auto opened = StorageEngine::Open(&env, dir, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::shared_ptr<CommitTicket> committed = opened->engine->Submit(Op("a"));
  ASSERT_TRUE(committed->Wait().ok());
  std::shared_ptr<CommitTicket> pending = opened->engine->Submit(Op("b"));
  opened->engine.reset();
  EXPECT_TRUE(committed->Wait().ok());
  EXPECT_TRUE(pending->Wait().ok());

  // A failed commit keeps its error past the engine too.
  opened = StorageEngine::Open(&env, dir, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  env.ArmFault(1, FaultInjectionEnv::FaultKind::kFailSync);
  std::shared_ptr<CommitTicket> failed = opened->engine->Submit(Op("c"));
  opened->engine.reset();
  EXPECT_FALSE(failed->Wait().ok());
}

// After a failed batch the log tail is indeterminate, so a checkpoint
// must not write a snapshot that claims the failed records.
TEST(GroupCommitTest, CheckpointAfterFailedBatchWritesNoSnapshot) {
  const std::string dir = FreshDir("gc_ckpt_fail");
  FaultInjectionEnv env(FileEnv::Default());
  auto opened = StorageEngine::Open(&env, dir, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StorageEngine> engine = std::move(opened->engine);
  ASSERT_TRUE(Commit(*engine, SampleOp(0)).ok());

  env.ArmFault(1, FaultInjectionEnv::FaultKind::kFailSync);
  std::shared_ptr<CommitTicket> doomed = engine->Submit(SampleOp(1));
  Status checkpointed = engine->Checkpoint(SampleImage());
  EXPECT_FALSE(checkpointed.ok());
  EXPECT_FALSE(doomed->Wait().ok());
  EXPECT_EQ(checkpointed.ToString(), doomed->Wait().ToString());
  EXPECT_EQ(engine->generation(), 0u);
  EXPECT_FALSE(FileEnv::Default()->FileExists(engine->SnapshotPath(1)));
  EXPECT_FALSE(engine->Checkpoint(SampleImage()).ok());  // still refused
  EXPECT_FALSE(FileEnv::Default()->FileExists(engine->SnapshotPath(1)));
}

// ---------- fault-injection env ----------

TEST(FaultEnvTest, UnsyncedAppendsAreLostOnKill) {
  std::string dir = FreshDir("fault_lost");
  FileEnv* base = FileEnv::Default();
  ASSERT_TRUE(base->CreateDirs(dir).ok());
  FaultInjectionEnv env(base);

  // Synced data survives; buffered-but-unsynced data must not.
  Result<std::unique_ptr<WritableFile>> file =
      env.NewWritableFile(dir + "/f", /*truncate=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("durable").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("volatile").ok());

  // ArmFault restarts the fault-point counter, so the next mutating
  // operation is point 0.
  env.ArmFault(0, FaultInjectionEnv::FaultKind::kKill);
  EXPECT_FALSE((*file)->Sync().ok());  // the armed point fires here
  EXPECT_TRUE(env.Killed());
  (void)(*file)->Close();
  EXPECT_EQ(ReadAll(dir + "/f"), "durable");

  // Every later mutating call fails like a dead process.
  EXPECT_FALSE(env.RenameFile(dir + "/f", dir + "/g").ok());
  EXPECT_FALSE(env.NewWritableFile(dir + "/h", true).ok());
}

TEST(FaultEnvTest, ShortWriteTearsTheTail) {
  std::string dir = FreshDir("fault_torn");
  FileEnv* base = FileEnv::Default();
  ASSERT_TRUE(base->CreateDirs(dir).ok());
  FaultInjectionEnv env(base);

  Result<std::unique_ptr<WritableFile>> file =
      env.NewWritableFile(dir + "/f", /*truncate=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("0123456789").ok());
  env.ArmFault(0, FaultInjectionEnv::FaultKind::kShortWrite);
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_TRUE(env.Killed());

  std::string survived = ReadAll(dir + "/f");
  EXPECT_GT(survived.size(), 0u);
  EXPECT_LT(survived.size(), 10u);
  EXPECT_EQ(survived, std::string("0123456789").substr(0, survived.size()));
}

TEST(FaultEnvTest, ResetRevivesTheEnv) {
  std::string dir = FreshDir("fault_reset");
  FileEnv* base = FileEnv::Default();
  ASSERT_TRUE(base->CreateDirs(dir).ok());
  FaultInjectionEnv env(base);
  env.ArmFault(0, FaultInjectionEnv::FaultKind::kKill);
  EXPECT_FALSE(env.RenameFile(dir + "/a", dir + "/b").ok());
  EXPECT_TRUE(env.Killed());
  env.Reset();
  EXPECT_FALSE(env.Killed());
  Result<std::unique_ptr<WritableFile>> file =
      env.NewWritableFile(dir + "/f", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(ReadAll(dir + "/f"), "x");
}

TEST(FaultEnvTest, EngineRunsCleanlyThroughFaultEnvWhenDisarmed) {
  std::string dir = FreshDir("fault_engine");
  FaultInjectionEnv env(FileEnv::Default());
  StorageOptions options;
  Result<StorageEngine::OpenResult> open =
      StorageEngine::Open(&env, dir, options);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_TRUE(Commit(*open->engine, SampleOp(0)).ok());
  ASSERT_TRUE(open->engine->Checkpoint(SampleImage()).ok());
  ASSERT_TRUE(open->engine->Close().ok());
  EXPECT_GT(env.FaultPointsSeen(), 5u);  // a real matrix to iterate over

  // The directory is valid for a plain POSIX reopen.
  Result<StorageEngine::OpenResult> reopen =
      StorageEngine::Open(FileEnv::Default(), dir, options);
  ASSERT_TRUE(reopen.ok());
  EXPECT_EQ(reopen->engine->generation(), 1u);
  ASSERT_TRUE(reopen->snapshot.has_value());
}

// ---------- storage stat view ----------

TEST(StorageStatViewTest, ViewReportsLastRecovery) {
  std::string dir = FreshDir("statview");
  StorageOptions options;
  {
    Result<StorageEngine::OpenResult> open =
        StorageEngine::Open(FileEnv::Default(), dir, options);
    ASSERT_TRUE(open.ok());
    ASSERT_TRUE(Commit(*open->engine, SampleOp(0)).ok());
    ASSERT_TRUE(open->engine->Close().ok());
  }
  Result<StorageEngine::OpenResult> open =
      StorageEngine::Open(FileEnv::Default(), dir, options);
  ASSERT_TRUE(open.ok());

  Result<rel::Table> view = obs::BuildStatView(obs::kStatStorageView);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  int64_t replayed = -1;
  for (size_t vr_ = 0; vr_ < view->NumRows(); ++vr_) {
    const rel::Row row = view->GetRow(vr_);
    if (row[0].AsString() == "recovery.wal_records_replayed") {
      replayed = row[1].AsInt();
    }
  }
  EXPECT_EQ(replayed, 1);
}

}  // namespace
}  // namespace gea::store
