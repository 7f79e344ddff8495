// Tests for store::WalReader, the incremental tail-follower WAL shipping
// is built on: records stream exactly once in append order, a torn final
// frame is re-examined until the writer completes it, and a final Poll
// agrees byte-for-byte with the one-shot ReadWalFile scan on the same
// file — the (valid, dropped) parity the class comment promises.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "store/file_env.h"
#include "store/wal.h"

namespace gea::store {
namespace {

std::string FreshPath(const std::string& tag) {
  std::string path = testing::TempDir() + "/gea_wal_reader_" + tag + ".wal";
  (void)FileEnv::Default()->RemoveFile(path);
  return path;
}

WalRecord MakeRecord(int i) {
  return WalRecord::LogicalOp(
      "aggregate", {{"enum", "brain"}, {"out", "S_" + std::to_string(i)}});
}

TEST(WalReaderTest, StreamsRecordsExactlyOnceInOrder) {
  const std::string path = FreshPath("stream");
  FileEnv* env = FileEnv::Default();
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(env, path, /*truncate=*/true);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  Result<std::unique_ptr<WalReader>> reader = WalReader::Open(env, path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*writer)->Append({MakeRecord(i)}).ok());
  }
  Result<WalReader::TailResult> first = (*reader)->Poll();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->records.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(first->records[i].params.at("out"), "S_" + std::to_string(i));
  }
  EXPECT_FALSE(first->torn_tail);
  EXPECT_EQ(first->pending_bytes, 0u);
  EXPECT_EQ(first->valid_bytes, (*reader)->offset());

  // The next poll starts where the last one stopped: nothing repeats.
  for (int i = 3; i < 5; ++i) {
    ASSERT_TRUE((*writer)->Append({MakeRecord(i)}).ok());
  }
  Result<WalReader::TailResult> second = (*reader)->Poll();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->records.size(), 2u);
  EXPECT_EQ(second->records[0].params.at("out"), "S_3");
  EXPECT_EQ((*reader)->records_read(), 5u);

  Result<WalReader::TailResult> drained = (*reader)->Poll();
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained->records.empty());
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(WalReaderTest, MissingFileIsAnEmptyLogUntilItAppears) {
  const std::string path = FreshPath("late");
  FileEnv* env = FileEnv::Default();
  Result<std::unique_ptr<WalReader>> reader = WalReader::Open(env, path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  Result<WalReader::TailResult> empty = (*reader)->Poll();
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->records.empty());
  EXPECT_FALSE(empty->torn_tail);

  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(env, path, /*truncate=*/true);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append({MakeRecord(0)}).ok());
  Result<WalReader::TailResult> found = (*reader)->Poll();
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->records.size(), 1u);
  ASSERT_TRUE((*writer)->Close().ok());
}

// The shipping subtlety: a poll racing the writer mid-append sees a
// partial frame. It must stay pending — not be dropped — and surface as a
// completed record once the writer finishes it.
TEST(WalReaderTest, TornFinalFrameCompletesOnALaterPoll) {
  const std::string path = FreshPath("torn");
  FileEnv* env = FileEnv::Default();

  const std::string first = EncodeWalRecord(MakeRecord(0));
  const std::string second = EncodeWalRecord(MakeRecord(1));
  const size_t cut = second.size() / 2;
  {
    Result<std::unique_ptr<WritableFile>> file =
        env->NewWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(first).ok());
    ASSERT_TRUE((*file)->Append(std::string_view(second).substr(0, cut)).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  Result<std::unique_ptr<WalReader>> reader = WalReader::Open(env, path);
  ASSERT_TRUE(reader.ok());
  Result<WalReader::TailResult> torn = (*reader)->Poll();
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  ASSERT_EQ(torn->records.size(), 1u);
  EXPECT_TRUE(torn->torn_tail);
  EXPECT_EQ(torn->pending_bytes, cut);
  EXPECT_EQ((*reader)->offset(), first.size());  // parked at the frame start

  // Re-polling without progress keeps the frame pending, not consumed.
  Result<WalReader::TailResult> still = (*reader)->Poll();
  ASSERT_TRUE(still.ok());
  EXPECT_TRUE(still->records.empty());
  EXPECT_TRUE(still->torn_tail);

  // The writer finishes the append: the record materializes untorn.
  {
    Result<std::unique_ptr<WritableFile>> file =
        env->NewWritableFile(path, /*truncate=*/false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string_view(second).substr(cut)).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  Result<WalReader::TailResult> completed = (*reader)->Poll();
  ASSERT_TRUE(completed.ok());
  ASSERT_EQ(completed->records.size(), 1u);
  EXPECT_EQ(completed->records[0].params.at("out"), "S_1");
  EXPECT_FALSE(completed->torn_tail);
  EXPECT_EQ(completed->valid_bytes, first.size() + second.size());
}

// (valid, dropped) of a final Poll must match ReadWalFile on the same
// file, for a genuinely corrupt tail too (crash artifact, not a race).
TEST(WalReaderTest, FinalPollMatchesReadWalFileOnACorruptTail) {
  const std::string path = FreshPath("parity");
  FileEnv* env = FileEnv::Default();

  std::string good = EncodeWalRecord(MakeRecord(0)) +
                     EncodeWalRecord(MakeRecord(1));
  // A full-length frame whose CRC cannot check out: flip payload bytes of
  // a valid frame, leaving the header intact.
  std::string corrupt = EncodeWalRecord(MakeRecord(2));
  for (size_t i = 8; i < corrupt.size(); ++i) corrupt[i] ^= 0x5a;
  {
    Result<std::unique_ptr<WritableFile>> file =
        env->NewWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(good + corrupt).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  Result<std::unique_ptr<WalReader>> reader = WalReader::Open(env, path);
  ASSERT_TRUE(reader.ok());
  Result<WalReader::TailResult> tail = (*reader)->Poll();
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();

  Result<WalReadResult> scan = ReadWalFile(env, path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(tail->records.size(), scan->records.size());
  EXPECT_EQ(tail->valid_bytes, scan->valid_bytes);
  EXPECT_EQ(tail->pending_bytes, scan->dropped_bytes);
  EXPECT_EQ(tail->torn_tail, scan->torn_tail);
  EXPECT_EQ(tail->valid_bytes, good.size());
  EXPECT_EQ(tail->pending_bytes, corrupt.size());
}

TEST(WalReaderTest, TruncationAndRemovalUnderTheReaderFail) {
  const std::string path = FreshPath("shrink");
  FileEnv* env = FileEnv::Default();
  {
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(env, path, /*truncate=*/true);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append({MakeRecord(0)}).ok());
    ASSERT_TRUE((*writer)->Append({MakeRecord(1)}).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  Result<std::unique_ptr<WalReader>> reader = WalReader::Open(env, path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->Poll().ok());

  // Rotation past the reader's position: the consumed prefix no longer
  // maps onto the file, so tailing must stop rather than mis-resume.
  {
    Result<std::unique_ptr<WritableFile>> file =
        env->NewWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(EncodeWalRecord(MakeRecord(9))).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  Result<WalReader::TailResult> shrunk = (*reader)->Poll();
  ASSERT_FALSE(shrunk.ok());
  EXPECT_EQ(shrunk.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(env->RemoveFile(path).ok());
  Result<WalReader::TailResult> removed = (*reader)->Poll();
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace gea::store
