// Tests for the replication half of src/dist: the frame/snapshot blob
// codecs, tag partitioning, the primary-side ReplicationHub wire surface
// (long-poll, snapshot-floor redirection, admin gating) and the full
// primary -> replica pipeline — streaming, cold-start snapshot catch-up,
// read-your-writes via WaitForLsn, replica write rejection, promotion,
// and the gea_stat_replication view.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dist/partition.h"
#include "dist/repl.h"
#include "dist/replica.h"
#include "store/engine.h"
#include "store/fault_env.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/format.h"
#include "store/wal.h"
#include "support/corpus.h"
#include "workbench/session.h"

namespace gea::dist {
namespace {

using serve::QueryClient;
using serve::QueryServer;
using serve::Response;
using workbench::AccessLevel;

using support::AdminSession;
using support::FreshDir;

// ---------- partitioning ----------

TEST(PartitionTest, SplitMix64IsPinnedForever) {
  // Shard placement is contractual: these are the canonical splitmix64
  // outputs for states 0 and 1. If this test breaks, the hash changed and
  // every sharded deployment's placement moved.
  EXPECT_EQ(SplitMix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(SplitMix64(1) ^ SplitMix64(1), 0ull);  // deterministic
  EXPECT_NE(SplitMix64(1), SplitMix64(2));
}

TEST(PartitionTest, ShardOfTagCoversAllShardsAndIsStable) {
  constexpr size_t kShards = 4;
  std::set<size_t> seen;
  for (sage::TagId tag = 0; tag < 1000; ++tag) {
    const size_t shard = ShardOfTag(tag, kShards);
    ASSERT_LT(shard, kShards);
    EXPECT_EQ(shard, ShardOfTag(tag, kShards));  // stable
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), kShards);  // a 1000-tag universe hits every shard
  EXPECT_EQ(ShardOfTag(12345, 1), 0u);
}

TEST(PartitionTest, SlicesAreADisjointCoverWithEveryLibraryPresent) {
  const sage::SageDataSet& full = support::Panel();
  constexpr size_t kShards = 3;

  // tag -> count per library, reassembled from the slices.
  std::map<std::pair<std::string, sage::TagId>, double> reassembled;
  for (size_t shard = 0; shard < kShards; ++shard) {
    sage::SageDataSet slice = PartitionDataSet(full, shard, kShards);
    ASSERT_EQ(slice.NumLibraries(), full.NumLibraries());
    for (size_t i = 0; i < slice.NumLibraries(); ++i) {
      const sage::SageLibrary& lib = slice.library(i);
      EXPECT_EQ(lib.name(), full.library(i).name());
      EXPECT_EQ(lib.id(), full.library(i).id());
      for (const sage::SageLibrary::Entry& entry : lib.entries()) {
        EXPECT_EQ(ShardOfTag(entry.tag, kShards), shard);
        auto [it, inserted] =
            reassembled.emplace(std::make_pair(lib.name(), entry.tag),
                                entry.count);
        EXPECT_TRUE(inserted) << "tag owned by two shards: " << entry.tag;
        (void)it;
      }
    }
  }
  size_t full_entries = 0;
  for (size_t i = 0; i < full.NumLibraries(); ++i) {
    const sage::SageLibrary& lib = full.library(i);
    full_entries += lib.entries().size();
    for (const sage::SageLibrary::Entry& entry : lib.entries()) {
      auto it = reassembled.find(std::make_pair(lib.name(), entry.tag));
      ASSERT_NE(it, reassembled.end());
      EXPECT_EQ(it->second, entry.count);
    }
  }
  EXPECT_EQ(reassembled.size(), full_entries);
}

// ---------- blob codecs ----------

// The batch's blob, each record in its WAL framing.
std::string EncodeBatch(const FrameBatch& batch) {
  std::vector<std::string> framed;
  for (const ShippedFrame& frame : batch.frames) {
    framed.push_back(store::EncodeWalRecord(frame.record));
  }
  std::vector<EncodedFrame> frames;
  for (size_t i = 0; i < framed.size(); ++i) {
    frames.push_back({batch.frames[i].lsn, framed[i]});
  }
  return EncodeFrameBatch(batch.durable_lsn, frames);
}

TEST(ReplCodecTest, FrameBatchRoundTrips) {
  FrameBatch batch;
  batch.durable_lsn = 42;
  batch.frames.push_back(
      {7, store::WalRecord::LogicalOp("aggregate",
                                      {{"enum", "brain"}, {"out", "s"}})});
  batch.frames.push_back(
      {8, store::WalRecord::BlobRecord("load_dataset",
                                       std::string("bin\0ary", 7))});

  Result<FrameBatch> decoded = DecodeFrameBatch(EncodeBatch(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->durable_lsn, 42u);
  ASSERT_EQ(decoded->frames.size(), 2u);
  EXPECT_EQ(decoded->frames[0].lsn, 7u);
  EXPECT_EQ(decoded->frames[0].record.op, "aggregate");
  EXPECT_EQ(decoded->frames[0].record.params.at("out"), "s");
  EXPECT_EQ(decoded->frames[1].lsn, 8u);
  EXPECT_EQ(decoded->frames[1].record.payload, std::string("bin\0ary", 7));
}

TEST(ReplCodecTest, CorruptFrameBatchIsRejectedByTheCrc) {
  FrameBatch batch;
  batch.durable_lsn = 1;
  batch.frames.push_back(
      {1, store::WalRecord::LogicalOp("diff", {{"gap", "g"}})});
  std::string blob = EncodeBatch(batch);
  blob[blob.size() / 2] ^= 0x40;  // flip a bit inside the framed record
  EXPECT_FALSE(DecodeFrameBatch(blob).ok());
  EXPECT_FALSE(DecodeFrameBatch(blob + "x").ok());  // trailing bytes too

  // A 12-byte blob claiming 2^32-1 frames: an error, not a reservation
  // sized by the count.
  std::string hostile;
  store::PutU64(&hostile, 1);
  store::PutU32(&hostile, 0xFFFFFFFFu);
  ASSERT_EQ(hostile.size(), 12u);
  EXPECT_NO_THROW(EXPECT_FALSE(DecodeFrameBatch(hostile).ok()));
}

TEST(ReplCodecTest, SnapshotLsnBlobRoundTrips) {
  const std::string snapshot = std::string("snap\0shot", 9);
  Result<std::pair<uint64_t, std::string>> decoded =
      DecodeSnapshotLsnBlob(EncodeSnapshotLsnBlob(99, snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->first, 99u);
  EXPECT_EQ(decoded->second, snapshot);
  EXPECT_FALSE(
      DecodeSnapshotLsnBlob(EncodeSnapshotLsnBlob(99, snapshot) + "y").ok());
}

// A commit batch killed between the WAL write and its fsync must be
// invisible everywhere: the writer is not acked, the hub ships no frame,
// and recovery replays exactly the previously acked prefix. This is the
// group-commit edition of the "replication never outruns durability"
// contract.
TEST(ReplicationHubTest, TornCommitBatchShipsNoFrames) {
  const std::string dir = FreshDir("torn_batch");
  store::FaultInjectionEnv env(store::FileEnv::Default());
  auto session = AdminSession();
  ASSERT_TRUE(session->OpenStorage(dir, store::StorageOptions{}, &env).ok());
  ASSERT_TRUE(session->LoadDataSet(support::Panel()).ok());
  ASSERT_TRUE(session->CreateTissueDataSet(sage::TissueType::kBrain).ok());
  const uint64_t pre_lsn = session->DurableLsn();
  ASSERT_GT(pre_lsn, 0u);

  {
    QueryServer server(session.get());
    ReplicationHub hub(session.get(), &server);

    // A clean mutation commits and ships.
    ASSERT_TRUE(session->Aggregate("brain", "CleanSumy").ok());
    EXPECT_EQ(hub.ShippedLsn(), pre_lsn + 1);

    // Kill the batch's shared fsync. ArmFault zeroes the point counter,
    // so the single append is point 0 and the sync (point 1) takes the
    // machine down: the record reaches the page cache, not the platter.
    env.ArmFault(1, store::FaultInjectionEnv::FaultKind::kKill);
    Status torn = session->Aggregate("brain", "TornSumy");
    EXPECT_FALSE(torn.ok());                   // the waiter was never acked
    EXPECT_EQ(hub.ShippedLsn(), pre_lsn + 1);  // no frame left the hub
    EXPECT_EQ(session->DurableLsn(), pre_lsn + 1);
  }  // the hub detaches its observer while the session is still alive

  // Reboot: recovery sees exactly the acked prefix.
  session.reset();
  auto recovered = AdminSession();
  ASSERT_TRUE(recovered->OpenStorage(dir).ok());
  EXPECT_TRUE(recovered->GetSumy("CleanSumy").ok());
  EXPECT_TRUE(recovered->GetSumy("TornSumy").status().IsNotFound());
  EXPECT_EQ(recovered->DurableLsn(), pre_lsn + 1);
}

// A served writer publishes its epoch and submits its record under the
// exclusive lock, then waits for the fsync after releasing it. A snapshot
// taken in between must not ship the write before its commit: the hub
// commits what was submitted first, answers with the error when that
// commit fails, and otherwise stamps an LSN that covers the write.
TEST(ReplicationHubTest, SnapshotShipsOnlyCommittedWrites) {
  const std::string dir = FreshDir("snapshot_commit");
  store::FaultInjectionEnv env(store::FileEnv::Default());
  auto session = AdminSession();
  ASSERT_TRUE(session->OpenStorage(dir, store::StorageOptions{}, &env).ok());
  ASSERT_TRUE(session->LoadDataSet(support::Panel()).ok());
  ASSERT_TRUE(session->CreateTissueDataSet(sage::TissueType::kBrain).ok());

  QueryServer server(session.get());
  ReplicationHub hub(session.get(), &server);
  ASSERT_TRUE(server.Start().ok());  // serving defers commits
  QueryClient admin;
  ASSERT_TRUE(admin.Connect(server.Port()).ok());
  ASSERT_TRUE(admin.Login("admin", "secret", "admin").ok());

  // A write made the way a served writer makes it, its commit not yet
  // awaited.
  auto deferred_write = [&](const std::string& out) {
    std::unique_lock<SharedTimedMutex> lock(server.SessionMutex());
    EXPECT_TRUE(session->Aggregate("brain", out).ok());
    return session->TakePendingCommit();
  };

  std::shared_ptr<store::CommitTicket> committed = deferred_write("Committed");
  ASSERT_NE(committed, nullptr);
  Result<Response> shipped = admin.Call("repl_snapshot");
  ASSERT_TRUE(shipped.ok());
  ASSERT_TRUE(shipped->ok()) << shipped->message;
  Result<std::pair<uint64_t, std::string>> blob =
      DecodeSnapshotLsnBlob(shipped->text);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_GE(blob->first, committed->lsn());
  EXPECT_TRUE(committed->Wait().ok());

  // The next commit's fsync fails: its append is fault point 0, the sync
  // point 1.
  env.ArmFault(1, store::FaultInjectionEnv::FaultKind::kFailSync);
  std::shared_ptr<store::CommitTicket> doomed = deferred_write("Doomed");
  ASSERT_NE(doomed, nullptr);
  Result<Response> refused = admin.Call("repl_snapshot");
  ASSERT_TRUE(refused.ok());
  EXPECT_FALSE(refused->ok()) << "shipped a write whose commit failed";
  EXPECT_FALSE(doomed->Wait().ok());
  EXPECT_EQ(hub.ShippedLsn(), committed->lsn());

  server.Stop();
}

// ---------- the hub's wire surface ----------

TEST(ReplicationHubTest, WireSurfaceFloorsAndLongPolls) {
  const std::string dir = FreshDir("hub");
  auto session = AdminSession();
  ASSERT_TRUE(session->OpenStorage(dir).ok());
  ASSERT_TRUE(session->LoadDataSet(support::Panel()).ok());
  ASSERT_TRUE(session->CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(
      session->AddUser("reader", "pw", AccessLevel::kUser).ok());
  const uint64_t pre_hub_lsn = session->DurableLsn();
  ASSERT_GT(pre_hub_lsn, 0u);

  QueryServer server(session.get());
  ReplicationHub hub(session.get(), &server);
  ASSERT_TRUE(server.Start().ok());

  // Pre-attach history is not shippable: the floor starts at attach LSN.
  EXPECT_EQ(hub.FloorLsn(), pre_hub_lsn);
  EXPECT_EQ(hub.ShippedLsn(), pre_hub_lsn);

  QueryClient admin;
  ASSERT_TRUE(admin.Connect(server.Port()).ok());
  ASSERT_TRUE(admin.Login("admin", "secret", "admin").ok());

  // A cold follower (lsn 0) predates the floor: snapshot required.
  Result<Response> behind = admin.Call(
      "repl_frames", {{"from_lsn", "0"}, {"wait_ms", "1"}});
  ASSERT_TRUE(behind.ok());
  EXPECT_EQ(behind->code, StatusCode::kFailedPrecondition);
  EXPECT_NE(behind->message.find("snapshot catch-up required"),
            std::string::npos);

  // The snapshot hands over the catalog stamped with its LSN.
  Result<Response> snapshot = admin.Call("repl_snapshot");
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(snapshot->ok()) << snapshot->message;
  Result<std::pair<uint64_t, std::string>> blob =
      DecodeSnapshotLsnBlob(snapshot->text);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(blob->first, pre_hub_lsn);
  EXPECT_FALSE(blob->second.empty());

  // Caught-up pollers get an empty batch after the bounded wait...
  Result<Response> empty = admin.Call(
      "repl_frames",
      {{"from_lsn", std::to_string(pre_hub_lsn)}, {"wait_ms", "1"}});
  ASSERT_TRUE(empty.ok());
  ASSERT_TRUE(empty->ok()) << empty->message;
  Result<FrameBatch> empty_batch = DecodeFrameBatch(empty->text);
  ASSERT_TRUE(empty_batch.ok());
  EXPECT_TRUE(empty_batch->frames.empty());
  EXPECT_EQ(empty_batch->durable_lsn, pre_hub_lsn);

  // ...and frames once a mutation is acknowledged.
  Result<Response> agg =
      admin.Call("aggregate", {{"enum", "brain"}, {"out", "HubSumy"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->ok()) << agg->message;
  Result<Response> frames = admin.Call(
      "repl_frames",
      {{"from_lsn", std::to_string(pre_hub_lsn)}, {"wait_ms", "2000"}});
  ASSERT_TRUE(frames.ok());
  ASSERT_TRUE(frames->ok()) << frames->message;
  Result<FrameBatch> batch = DecodeFrameBatch(frames->text);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->frames.size(), 1u);
  EXPECT_EQ(batch->frames[0].lsn, pre_hub_lsn + 1);
  EXPECT_EQ(batch->frames[0].record.op, "aggregate");
  EXPECT_EQ(batch->frames[0].record.params.at("out"), "HubSumy");

  // The handshake reports the same numbers the poll semantics use.
  Result<Response> subscribe = admin.Call("repl_subscribe");
  ASSERT_TRUE(subscribe.ok());
  ASSERT_TRUE(subscribe->ok());
  ASSERT_TRUE(subscribe->table.has_value());
  std::map<std::string, std::string> handshake;
  for (size_t i = 0; i < subscribe->table->NumRows(); ++i) {
    handshake[subscribe->table->At(i, 0).AsString()] =
        subscribe->table->At(i, 1).AsString();
  }
  EXPECT_EQ(handshake.at("durable_lsn"), std::to_string(pre_hub_lsn + 1));
  EXPECT_EQ(handshake.at("floor_lsn"), std::to_string(pre_hub_lsn));

  // repl_* are admin-only.
  QueryClient reader;
  ASSERT_TRUE(reader.Connect(server.Port()).ok());
  ASSERT_TRUE(reader.Login("reader", "pw").ok());
  Result<Response> denied = reader.Call(
      "repl_frames", {{"from_lsn", "0"}, {"wait_ms", "1"}});
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied->code, StatusCode::kPermissionDenied);

  server.Stop();
}

// ---------- the full primary -> replica pipeline ----------

TEST(ReplicaServerTest, ColdStartCatchUpStreamingPromotion) {
  const std::string dir = FreshDir("pipeline");
  auto primary_session = AdminSession();
  ASSERT_TRUE(primary_session->OpenStorage(dir).ok());
  ASSERT_TRUE(primary_session->LoadDataSet(support::Panel()).ok());
  ASSERT_TRUE(
      primary_session->CreateTissueDataSet(sage::TissueType::kBrain).ok());

  QueryServer primary_server(primary_session.get());
  ReplicationHub hub(primary_session.get(), &primary_server);
  ASSERT_TRUE(primary_server.Start().ok());

  ReplicaServer::Options replica_options;
  replica_options.primary_port = primary_server.Port();
  replica_options.primary_user = "admin";
  replica_options.primary_password = "secret";
  replica_options.poll_wait_ms = 100;
  ReplicaServer replica(replica_options);
  ASSERT_TRUE(replica.Start().ok());

  QueryClient replica_client;
  ASSERT_TRUE(replica_client.Connect(replica.Port()).ok());
  ASSERT_TRUE(
      replica_client.Login("replicator", "replicator-secret", "admin").ok());

  // Cold start: the pre-hub history arrives via snapshot catch-up.
  ASSERT_TRUE(
      replica_client.WaitForLsn(primary_session->DurableLsn(), 10'000).ok());
  Result<std::map<std::string, std::string>> info = replica_client.RoleInfo();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->at("role"), "replica");
  EXPECT_GE(std::stoull(info->at("snapshots_applied")), 1u);

  // Streaming: mutations on the primary become readable on the replica
  // after WaitForLsn — read-your-writes across the pair.
  QueryClient primary_client;
  ASSERT_TRUE(primary_client.Connect(primary_server.Port()).ok());
  ASSERT_TRUE(primary_client.Login("admin", "secret", "admin").ok());
  Result<Response> agg = primary_client.Call(
      "aggregate", {{"enum", "brain"}, {"out", "ReplSumy"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->ok()) << agg->message;
  const uint64_t after_agg = primary_session->DurableLsn();
  ASSERT_TRUE(replica_client.WaitForLsn(after_agg, 10'000).ok());

  Result<Response> replica_read =
      replica_client.Call("get_table", {{"name", "ReplSumy"}});
  ASSERT_TRUE(replica_read.ok());
  ASSERT_TRUE(replica_read->ok()) << replica_read->message;
  ASSERT_TRUE(replica_read->table.has_value());
  Result<Response> primary_read =
      primary_client.Call("get_table", {{"name", "ReplSumy"}});
  ASSERT_TRUE(primary_read.ok());
  ASSERT_TRUE(primary_read->ok());
  ASSERT_TRUE(primary_read->table.has_value());
  EXPECT_EQ(store::EncodeTable(*replica_read->table),
            store::EncodeTable(*primary_read->table));

  // WaitForLsn against the primary is a type error, not a hang: the
  // primary's role info has no applied_lsn.
  EXPECT_EQ(primary_client.WaitForLsn(1, 100).code(),
            StatusCode::kFailedPrecondition);

  // Writes bounce off the replica with FailedPrecondition.
  Result<Response> rejected = replica_client.Call(
      "aggregate", {{"enum", "brain"}, {"out", "Nope"}});
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->code, StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected->message.find("read-only replica"), std::string::npos);

  // Both ends surface in the stat view (it is process-global here, so
  // either server's SQL sees the two rows).
  Result<rel::Table> stats = primary_client.Sql(
      "SELECT role, applied_lsn, lag_records FROM gea_stat_replication");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::set<std::string> roles;
  for (size_t i = 0; i < stats->NumRows(); ++i) {
    roles.insert(stats->At(i, 0).AsString());
  }
  EXPECT_TRUE(roles.count("primary")) << stats->NumRows();
  EXPECT_TRUE(roles.count("replica")) << stats->NumRows();

  // Promotion over the wire: the role flips and writes start landing.
  Result<Response> promoted = replica_client.Call("promote");
  ASSERT_TRUE(promoted.ok());
  ASSERT_TRUE(promoted->ok()) << promoted->message;
  EXPECT_EQ(promoted->text, "promoted");
  EXPECT_TRUE(replica.Promoted());
  Result<std::map<std::string, std::string>> promoted_info =
      replica_client.RoleInfo();
  ASSERT_TRUE(promoted_info.ok());
  EXPECT_EQ(promoted_info->at("role"), "primary");
  Result<Response> write = replica_client.Call(
      "aggregate", {{"enum", "brain"}, {"out", "PostPromote"}});
  ASSERT_TRUE(write.ok());
  EXPECT_TRUE(write->ok()) << write->message;
  EXPECT_TRUE(replica.session().GetSumy("PostPromote").ok());

  replica.Stop();
  primary_server.Stop();
}

}  // namespace
}  // namespace gea::dist
