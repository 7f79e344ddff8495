// Crash-recovery tests for the session-level durable storage. The
// corpus runners replay seeded command corpora (tests/support) against a
// session with storage: after a clean restart, and interrupted at every
// fault-injection point with every fault kind, the recovered catalog must
// be byte-identical to the reference run's at the acknowledged prefix.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "store/fault_env.h"
#include "store/file_env.h"
#include "store/snapshot.h"
#include "support/corpus.h"
#include "workbench/session.h"

namespace gea {
namespace {

using store::FaultInjectionEnv;
using support::AdminSession;
using support::Command;
using support::Fingerprint;
using support::FreshDir;
using support::Panel;
using support::Reference;
using support::SameCatalog;
using workbench::AnalysisSession;

/// One reference per logged-scope seed, shared by the tests of a run.
const Reference& LoggedReference(uint64_t seed) {
  static std::map<uint64_t, std::unique_ptr<Reference>>* references =
      new std::map<uint64_t, std::unique_ptr<Reference>>();
  std::unique_ptr<Reference>& reference = (*references)[seed];
  if (reference == nullptr) {
    reference = std::make_unique<Reference>(seed, support::Scope::kLogged);
  }
  return *reference;
}

/// Runs `reference`'s corpus against a session with storage at `dir`
/// through `env`, up to the first step that fails where the reference
/// succeeded. Returns the acknowledged prefix.
size_t RunOnStorage(const Reference& reference, const std::string& dir,
                    store::FileEnv* env) {
  std::unique_ptr<AnalysisSession> session = AdminSession();
  if (!session->OpenStorage(dir, store::StorageOptions{}, env).ok()) return 0;
  return support::RunAckedPrefix(reference, [&](const Command& command) {
    return support::RunStep(*session, command);
  });
}

// ---------- attach ----------

TEST(RecoveryTest, OpenStorageRequiresAdmin) {
  AnalysisSession session("admin", "secret");
  EXPECT_TRUE(session.OpenStorage(FreshDir("noadmin")).IsPermissionDenied());
}

TEST(RecoveryTest, DoubleAttachFails) {
  std::unique_ptr<AnalysisSession> session = AdminSession();
  ASSERT_TRUE(session->OpenStorage(FreshDir("attach1")).ok());
  EXPECT_TRUE(
      session->OpenStorage(FreshDir("attach2")).IsFailedPrecondition());
}

// ---------- clean restarts ----------

// A corpus run to its end, closed and reopened, recovers the reference's
// catalog; the summary counts what recovery did: one generation per
// checkpoint, and a replay of the records acknowledged after the last one.
// The recovered session keeps taking logged writes.
class CleanRestartTest : public testing::TestWithParam<uint64_t> {};

TEST_P(CleanRestartTest, RecoversTheWholeCorpus) {
  const Reference& reference = LoggedReference(GetParam());
  const std::vector<Command>& corpus = reference.corpus();
  const std::string dir = FreshDir("store");
  ASSERT_EQ(RunOnStorage(reference, dir, store::FileEnv::Default()),
            corpus.size());

  uint64_t checkpoints = 0;
  uint64_t tail = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (corpus[i].op == "checkpoint") {
      ++checkpoints;
      tail = 0;
    } else if (reference.steps()[i].code == StatusCode::kOk) {
      ++tail;
    }
  }

  std::unique_ptr<AnalysisSession> recovered = AdminSession();
  ASSERT_TRUE(recovered->OpenStorage(dir).ok());
  EXPECT_TRUE(SameCatalog(Fingerprint(*recovered),
                          reference.FingerprintAt(corpus.size())));
  Result<store::RecoverySummary> summary = recovered->StorageRecovery();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->generation, checkpoints);
  EXPECT_EQ(summary->snapshot_loaded, checkpoints > 0);
  EXPECT_EQ(summary->wal_records_replayed, tail);
  EXPECT_FALSE(summary->wal_torn_tail);

  // The recovered session keeps logging: its writes replay on the next
  // open, and after a checkpoint nothing is left to replay.
  ASSERT_TRUE(recovered
                  ->CreateTissueDataSet(sage::TissueType::kBrain,
                                        /*replace=*/true)
                  .ok());
  ASSERT_TRUE(
      recovered->Aggregate("brain", "post_sumy", /*replace=*/true).ok());
  const std::string logged = Fingerprint(*recovered);
  ASSERT_TRUE(recovered->CloseStorage().ok());
  std::unique_ptr<AnalysisSession> reopened = AdminSession();
  ASSERT_TRUE(reopened->OpenStorage(dir).ok());
  EXPECT_TRUE(SameCatalog(Fingerprint(*reopened), logged));
  EXPECT_EQ(reopened->StorageRecovery()->wal_records_replayed, tail + 2);

  ASSERT_TRUE(reopened->Checkpoint().ok());
  ASSERT_TRUE(reopened->CloseStorage().ok());
  std::unique_ptr<AnalysisSession> snapshot_only = AdminSession();
  ASSERT_TRUE(snapshot_only->OpenStorage(dir).ok());
  EXPECT_TRUE(SameCatalog(Fingerprint(*snapshot_only), logged));
  summary = snapshot_only->StorageRecovery();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->generation, checkpoints + 1);
  EXPECT_TRUE(summary->snapshot_loaded);
  EXPECT_EQ(summary->wal_records_replayed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CleanRestartTest,
                         testing::ValuesIn(support::kCorpusSeeds));

// ---------- failed writes ----------

TEST(RecoveryTest, FailedWritesLeaveTheSessionAsTheyFoundIt) {
  std::string dir = FreshDir("live");
  std::unique_ptr<AnalysisSession> live = AdminSession();
  ASSERT_TRUE(live->OpenStorage(dir).ok());
  // A failing write changes neither the writer's catalog nor the
  // readers' epoch.
  auto failing_write = [&live](const std::function<Status()>& write) {
    const std::vector<std::string> tables = live->TableNames();
    const std::vector<std::string> published = live->SnapshotTableNames();
    EXPECT_FALSE(write().ok());
    EXPECT_EQ(live->TableNames(), tables);
    EXPECT_EQ(live->SnapshotTableNames(), published);
  };

  ASSERT_TRUE(live->LoadDataSet(Panel()).ok());
  ASSERT_TRUE(live->CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(live->CreateCustomDataSet("X", {1, 2, 3}).ok());
  // Exported now, applied below: its tables differ from the live ones.
  const std::string early_blob = live->ExportSnapshotBlob();
  failing_write([&] {
    return live->CreateCustomDataSet("X", {999999}, /*replace=*/true);
  });

  ASSERT_TRUE(live->Aggregate("X", "XS").ok());
  ASSERT_TRUE(live->Aggregate("brain", "BS").ok());
  ASSERT_TRUE(live->CreateGap("BS", "XS", "G").ok());
  ASSERT_TRUE(live->CreateGap("XS", "BS", "G_0").ok());
  ASSERT_TRUE(live->CalculateTopGap("G", 5).ok());
  failing_write([&] { return live->CalculateTopGap("G", 0).status(); });

  // Mining stores nothing when a later fascicle's name is taken.
  ASSERT_TRUE(live->GenerateMetadata("brain", 25.0, "meta").ok());
  Result<std::vector<std::string>> mined =
      live->CalculateFascicles("brain", "meta", 150, 6, 3, "M");
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_GE(mined->size(), 2u);
  ASSERT_TRUE(live->CreateCustomDataSet("F_2", {4, 5}).ok());
  failing_write([&] {
    return live->CalculateFascicles("brain", "meta", 150, 6, 3, "F").status();
  });

  // A blob that decodes but cannot install — one relation section whose
  // table has an empty name — changes nothing, not even half of it.
  Result<store::SnapshotImage> image = store::DecodeSnapshot(early_blob);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  image->sections.push_back(store::SnapshotSection::Table(
      "relation", rel::Table("", rel::Schema({{"A", rel::ValueType::kInt}}))));
  const std::string bad_blob = store::EncodeSnapshot(*image);
  const std::string exported = live->ExportSnapshotBlob();
  failing_write([&] { return live->ApplySnapshotBlob(bad_blob); });
  EXPECT_EQ(live->ExportSnapshotBlob(), exported);

  ASSERT_TRUE(live->Aggregate("X", "XS2").ok());
  ASSERT_TRUE(live->GetGap("G_0").ok());

  const std::string live_fingerprint = Fingerprint(*live);
  ASSERT_TRUE(live->CloseStorage().ok());
  live.reset();
  std::unique_ptr<AnalysisSession> recovered = AdminSession();
  ASSERT_TRUE(recovered->OpenStorage(dir).ok());
  EXPECT_TRUE(SameCatalog(Fingerprint(*recovered), live_fingerprint));
}

// A data set whose counts the library text cannot hold is refused before
// it is logged: the store still opens, and nothing replays.
TEST(RecoveryTest, UnreadableCountsAreRefusedBeforeLogging) {
  const std::string dir = FreshDir("counts");
  std::unique_ptr<AnalysisSession> live = AdminSession();
  ASSERT_TRUE(live->OpenStorage(dir).ok());
  const sage::SageLibrary& first = Panel().library(0);
  for (double count : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(), -2.0}) {
    SCOPED_TRACE("count " + std::to_string(count));
    sage::SageDataSet dataset = Panel();
    dataset.mutable_library(0).SetCount(first.entries().front().tag, count);
    EXPECT_TRUE(live->LoadDataSet(std::move(dataset)).IsInvalidArgument());
    EXPECT_FALSE(live->DataSet().ok());
  }
  ASSERT_TRUE(live->CloseStorage().ok());

  std::unique_ptr<AnalysisSession> reopened = AdminSession();
  ASSERT_TRUE(reopened->OpenStorage(dir).ok());
  EXPECT_EQ(reopened->StorageRecovery()->wal_records_replayed, 0u);
  EXPECT_FALSE(reopened->DataSet().ok());
}

// ---------- replay decoding ----------

// Replay decodes through the command table the wire uses, so a logical
// record carrying a value the wire refuses fails and stores nothing.
TEST(RecoveryTest, ReplayRefusesOutOfRangeParameters) {
  std::unique_ptr<AnalysisSession> session = AdminSession();
  ASSERT_TRUE(session->LoadDataSet(Panel()).ok());
  ASSERT_TRUE(session->CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(session->CreateTissueDataSet(sage::TissueType::kBreast).ok());
  ASSERT_TRUE(session->Aggregate("brain", "brain_sumy").ok());
  ASSERT_TRUE(session->Aggregate("breast", "breast_sumy").ok());
  ASSERT_TRUE(session->CreateGap("brain_sumy", "breast_sumy", "g1").ok());
  ASSERT_TRUE(session->CreateGap("breast_sumy", "brain_sumy", "g2").ok());
  ASSERT_TRUE(session
                  ->CompareGapTables("g1", "g2", core::GapCompareKind::kUnion,
                                     "cmp")
                  .ok());
  const std::vector<std::string> tables = session->TableNames();

  EXPECT_FALSE(session
                   ->ApplyReplicatedRecord(store::WalRecord::LogicalOp(
                       "gap_query", {{"compared", "cmp"},
                                     {"query", "99"},
                                     {"out", "q"},
                                     {"replace", "0"}}))
                   .ok());
  EXPECT_FALSE(session
                   ->ApplyReplicatedRecord(store::WalRecord::LogicalOp(
                       "top_gap", {{"gap", "g1"}, {"x", "-1"}, {"mode", "0"}}))
                   .ok());
  EXPECT_EQ(session->TableNames(), tables);

  // The same records with values in range apply.
  EXPECT_TRUE(session
                  ->ApplyReplicatedRecord(store::WalRecord::LogicalOp(
                      "gap_query", {{"compared", "cmp"},
                                    {"query", "1"},
                                    {"out", "q"},
                                    {"replace", "0"}}))
                  .ok());
  EXPECT_TRUE(session
                  ->ApplyReplicatedRecord(store::WalRecord::LogicalOp(
                      "top_gap", {{"gap", "g1"}, {"x", "5"}, {"mode", "0"}}))
                  .ok());
  EXPECT_TRUE(session->GetGap("q").ok());
  EXPECT_TRUE(session->GetGap("g1_5").ok());
}

// ---------- the kill-point matrix ----------

/// Interrupts the corpus at every mutating file-system operation it
/// performs, with one fault kind, and recovers with the real file system:
/// the catalog must be the reference's at the acknowledged prefix.
void RunKillPointMatrix(uint64_t seed, FaultInjectionEnv::FaultKind kind) {
  const Reference& reference = LoggedReference(seed);
  const size_t steps = reference.corpus().size();

  // Dry run: count the fault points, the matrix dimension.
  FaultInjectionEnv probe(store::FileEnv::Default());
  ASSERT_EQ(RunOnStorage(reference, FreshDir("probe"), &probe), steps);
  const uint64_t points = probe.FaultPointsSeen();
  ASSERT_GT(points, 10u);

  for (uint64_t point = 0; point < points; ++point) {
    SCOPED_TRACE("fault point " + std::to_string(point));
    const std::string dir = FreshDir("matrix");
    FaultInjectionEnv env(store::FileEnv::Default());
    env.ArmFault(point, kind);
    // Every point in the matrix fires and cuts the run short, except one
    // in the best-effort cleanup that ends a checkpoint: that still
    // acknowledges it, so only a corpus ending in a checkpoint can be
    // acknowledged whole.
    const size_t acked = RunOnStorage(reference, dir, &env);
    ASSERT_TRUE(env.Killed());
    if (acked == steps) {
      ASSERT_EQ(reference.corpus().back().op, "checkpoint");
    }

    // Reboot: recover with the real file system.
    std::unique_ptr<AnalysisSession> recovered = AdminSession();
    Status opened = recovered->OpenStorage(dir);
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    ASSERT_TRUE(SameCatalog(Fingerprint(*recovered),
                            reference.FingerprintAt(acked)))
        << "acknowledged prefix " << acked;
  }
}

const char* FaultKindName(FaultInjectionEnv::FaultKind kind) {
  switch (kind) {
    case FaultInjectionEnv::FaultKind::kKill:
      return "Kill";
    case FaultInjectionEnv::FaultKind::kShortWrite:
      return "ShortWrite";
    case FaultInjectionEnv::FaultKind::kFailSync:
      return "FailSync";
  }
  return "Unknown";
}

using MatrixCell = std::tuple<uint64_t, FaultInjectionEnv::FaultKind>;

std::string CellName(const testing::TestParamInfo<MatrixCell>& info) {
  return "Seed" + std::to_string(std::get<0>(info.param)) +
         FaultKindName(std::get<1>(info.param));
}

class KillPointMatrixTest : public testing::TestWithParam<MatrixCell> {};

TEST_P(KillPointMatrixTest, RecoversToAcknowledgedPrefix) {
  RunKillPointMatrix(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

// ctest crashes each seed with one fault kind, so every kind runs once.
INSTANTIATE_TEST_SUITE_P(
    Seeds, KillPointMatrixTest,
    testing::Values(MatrixCell{1, FaultInjectionEnv::FaultKind::kKill},
                    MatrixCell{2, FaultInjectionEnv::FaultKind::kShortWrite},
                    MatrixCell{3, FaultInjectionEnv::FaultKind::kFailSync}),
    CellName);

// The sweep: more seeds, every fault kind each. CI runs it with
// --gtest_also_run_disabled_tests.
TEST(KillPointSweep, DISABLED_EverySeedEveryFaultKind) {
  for (uint64_t seed = 4; seed <= 9; ++seed) {
    for (FaultInjectionEnv::FaultKind kind :
         {FaultInjectionEnv::FaultKind::kKill,
          FaultInjectionEnv::FaultKind::kShortWrite,
          FaultInjectionEnv::FaultKind::kFailSync}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                   FaultKindName(kind));
      RunKillPointMatrix(seed, kind);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace gea
