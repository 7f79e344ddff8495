// Crash-recovery tests for the session-level durable storage: WAL replay
// across clean restarts, checkpoint rotation, and the kill-point matrix —
// the same workload interrupted at every fault-injection point with every
// fault kind, asserting the recovered catalog is byte-identical to the
// state produced by exactly the committed (acknowledged) prefix of
// operations.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sage/cleaning.h"
#include "sage/generator.h"
#include "sage/io.h"
#include "store/fault_env.h"
#include "store/file_env.h"
#include "store/snapshot.h"
#include "workbench/session.h"

namespace gea {
namespace {

namespace fs = std::filesystem;

using store::FaultInjectionEnv;
using workbench::AccessLevel;
using workbench::AnalysisSession;

std::string FreshDir(const std::string& tag) {
  std::string dir = testing::TempDir() + "/gea_recover_" + tag;
  fs::remove_all(dir);
  return dir;
}

const sage::SageDataSet& TestDataSet() {
  static const sage::SageDataSet* dataset = [] {
    sage::GeneratorConfig config;
    config.seed = 42;
    config.panels = sage::SyntheticSageGenerator::SmallPanels();
    sage::SyntheticSage synth = sage::SyntheticSageGenerator(config).Generate();
    sage::CleanAndNormalize(synth.dataset);
    // Round-trip through the library text codec once so the dataset is a
    // fixed point of it: the WAL persists datasets in that format, and the
    // byte-identical assertions below need replayed computations to see
    // exactly the same doubles as the reference session.
    auto* fixed = new sage::SageDataSet();
    for (size_t i = 0; i < synth.dataset.NumLibraries(); ++i) {
      const sage::SageLibrary& lib = synth.dataset.library(i);
      Result<sage::SageLibrary> back =
          sage::ReadLibraryText(lib.name(), sage::WriteLibraryText(lib));
      EXPECT_TRUE(back.ok()) << back.status().ToString();
      fixed->AddLibrary(std::move(*back));
    }
    return fixed;
  }();
  return *dataset;
}

std::unique_ptr<AnalysisSession> NewAdminSession() {
  auto session = std::make_unique<AnalysisSession>("admin", "secret");
  EXPECT_TRUE(
      session->Login("admin", "secret", AccessLevel::kAdministrator).ok());
  return session;
}

/// The workload the kill-point matrix interrupts. Every step is a logical
/// operation the WAL must make durable; the mid-workload checkpoint step
/// exercises the snapshot rotation fault points too (it is a no-op for
/// the storage-less reference sessions — checkpoints do not change the
/// logical catalog).
std::vector<std::function<Status(AnalysisSession&)>> WorkloadSteps() {
  return {
      [](AnalysisSession& s) { return s.LoadDataSet(TestDataSet()); },
      [](AnalysisSession& s) {
        return s.CreateTissueDataSet(sage::TissueType::kBrain);
      },
      [](AnalysisSession& s) {
        return s.GenerateMetadata("brain", 25.0, "meta");
      },
      [](AnalysisSession& s) { return s.Aggregate("brain", "brain_sumy"); },
      [](AnalysisSession& s) {
        return s.CreateTissueDataSet(sage::TissueType::kBreast);
      },
      [](AnalysisSession& s) { return s.Aggregate("breast", "breast_sumy"); },
      [](AnalysisSession& s) {
        return s.CreateGap("brain_sumy", "breast_sumy", "bb_gap");
      },
      [](AnalysisSession& s) {
        return s.StorageAttached() ? s.Checkpoint() : Status::OK();
      },
      [](AnalysisSession& s) {
        return s.CalculateTopGap("bb_gap", 5).status();
      },
      [](AnalysisSession& s) { return s.CommentOn("bb_gap", "crash test"); },
      [](AnalysisSession& s) {
        return s.DeleteTable("breast_sumy", /*cascade=*/false);
      },
  };
}

/// Canonical byte-level state of a session: every file SaveDatabase
/// emits, keyed by relative path. SaveDatabase is deterministic, so two
/// sessions holding the same catalog fingerprint identically.
std::map<std::string, std::string> Fingerprint(const AnalysisSession& session,
                                               const std::string& tag) {
  std::string dir = FreshDir("fp_" + tag);
  Status saved = session.SaveDatabase(dir);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[fs::relative(entry.path(), dir).string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  fs::remove_all(dir);
  return files;
}

// Both whole-catalog installs restore a session byte for byte: a
// database directory through LoadDatabase, and an exported blob through
// ApplySnapshotBlob. Exact because TestDataSet() is a fixed point of the
// library text format.
TEST(RecoveryTest, SavedAndExportedCatalogsReinstallIdentically) {
  std::unique_ptr<AnalysisSession> source = NewAdminSession();
  for (const auto& step : WorkloadSteps()) ASSERT_TRUE(step(*source).ok());
  const auto fingerprint = Fingerprint(*source, "reinstall_source");

  const std::string dir = FreshDir("reinstall_saved");
  ASSERT_TRUE(source->SaveDatabase(dir).ok());
  std::unique_ptr<AnalysisSession> loaded = NewAdminSession();
  Status load = loaded->LoadDatabase(dir);
  ASSERT_TRUE(load.ok()) << load.ToString();
  EXPECT_EQ(Fingerprint(*loaded, "reinstall_loaded"), fingerprint);

  std::unique_ptr<AnalysisSession> applied = NewAdminSession();
  Status apply = applied->ApplySnapshotBlob(source->ExportSnapshotBlob());
  ASSERT_TRUE(apply.ok()) << apply.ToString();
  EXPECT_EQ(Fingerprint(*applied, "reinstall_applied"), fingerprint);
}

/// Runs the workload against a session with storage at `dir` through
/// `env`, stopping at the first failed step. Returns how many steps were
/// acknowledged (returned OK) — with sync-every-record, exactly the
/// committed prefix.
size_t RunWorkload(const std::string& dir, store::FileEnv* env) {
  std::unique_ptr<AnalysisSession> session = NewAdminSession();
  if (!session->OpenStorage(dir, store::StorageOptions{}, env).ok()) return 0;
  size_t committed = 0;
  for (const auto& step : WorkloadSteps()) {
    if (!step(*session).ok()) break;
    ++committed;
  }
  return committed;
}

// ---------- clean restarts ----------

TEST(RecoveryTest, WalReplayAcrossCleanRestart) {
  std::string dir = FreshDir("clean");
  size_t committed = RunWorkload(dir, store::FileEnv::Default());
  EXPECT_EQ(committed, WorkloadSteps().size());

  std::unique_ptr<AnalysisSession> reference = NewAdminSession();
  for (const auto& step : WorkloadSteps()) ASSERT_TRUE(step(*reference).ok());

  std::unique_ptr<AnalysisSession> recovered = NewAdminSession();
  ASSERT_TRUE(recovered->OpenStorage(dir).ok());
  EXPECT_EQ(Fingerprint(*recovered, "clean_rec"),
            Fingerprint(*reference, "clean_ref"));

  Result<store::RecoverySummary> summary = recovered->StorageRecovery();
  ASSERT_TRUE(summary.ok());
  // The mid-workload checkpoint rotated to generation 1 with a snapshot;
  // only the post-checkpoint operations were replayed from the WAL.
  EXPECT_EQ(summary->generation, 1u);
  EXPECT_TRUE(summary->snapshot_loaded);
  EXPECT_EQ(summary->wal_records_replayed, 3u);
  EXPECT_FALSE(summary->wal_torn_tail);
}

TEST(RecoveryTest, CheckpointThenRestartLoadsSnapshotOnly) {
  std::string dir = FreshDir("ckpt");
  {
    std::unique_ptr<AnalysisSession> session = NewAdminSession();
    ASSERT_TRUE(session->OpenStorage(dir).ok());
    for (const auto& step : WorkloadSteps()) ASSERT_TRUE(step(*session).ok());
    ASSERT_TRUE(session->Checkpoint().ok());
  }
  std::unique_ptr<AnalysisSession> recovered = NewAdminSession();
  ASSERT_TRUE(recovered->OpenStorage(dir).ok());
  Result<store::RecoverySummary> summary = recovered->StorageRecovery();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->wal_records_replayed, 0u);
  EXPECT_TRUE(summary->snapshot_loaded);
  EXPECT_EQ(summary->generation, 2u);

  std::unique_ptr<AnalysisSession> reference = NewAdminSession();
  for (const auto& step : WorkloadSteps()) ASSERT_TRUE(step(*reference).ok());
  EXPECT_EQ(Fingerprint(*recovered, "ckpt_rec"),
            Fingerprint(*reference, "ckpt_ref"));

  // The recovered session keeps working and logging.
  ASSERT_TRUE(recovered->Aggregate("brain", "post_sumy").ok());
  ASSERT_TRUE(recovered->CloseStorage().ok());
}

TEST(RecoveryTest, OpenStorageRequiresAdmin) {
  AnalysisSession session("admin", "secret");
  EXPECT_TRUE(session.OpenStorage(FreshDir("noadmin")).IsPermissionDenied());
}

TEST(RecoveryTest, DoubleAttachFails) {
  std::unique_ptr<AnalysisSession> session = NewAdminSession();
  ASSERT_TRUE(session->OpenStorage(FreshDir("attach1")).ok());
  EXPECT_TRUE(
      session->OpenStorage(FreshDir("attach2")).IsFailedPrecondition());
}

// ---------- failed writes ----------

TEST(RecoveryTest, FailedWritesLeaveTheSessionAsTheyFoundIt) {
  std::string dir = FreshDir("failed_writes");
  std::unique_ptr<AnalysisSession> live = NewAdminSession();
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

  ASSERT_TRUE(live->LoadDataSet(TestDataSet()).ok());
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

  const auto live_fingerprint = Fingerprint(*live, "failed_live");
  ASSERT_TRUE(live->CloseStorage().ok());
  live.reset();
  std::unique_ptr<AnalysisSession> recovered = NewAdminSession();
  ASSERT_TRUE(recovered->OpenStorage(dir).ok());
  EXPECT_EQ(Fingerprint(*recovered, "failed_recovered"), live_fingerprint);
}

// ---------- replay decoding ----------

// Replay decodes through the command table the wire uses, so a logical
// record carrying a value the wire refuses fails and stores nothing.
TEST(RecoveryTest, ReplayRefusesOutOfRangeParameters) {
  std::unique_ptr<AnalysisSession> session = NewAdminSession();
  ASSERT_TRUE(session->LoadDataSet(TestDataSet()).ok());
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

// control_groups and initialize are logged kinds the workload above never
// produces: the recovered catalog must still equal the live one.
TEST(RecoveryTest, ControlGroupsAndInitializeReplay) {
  std::string dir = FreshDir("control_init");
  std::unique_ptr<AnalysisSession> live = NewAdminSession();
  ASSERT_TRUE(live->OpenStorage(dir).ok());
  ASSERT_TRUE(live->LoadDataSet(TestDataSet()).ok());
  ASSERT_TRUE(live->CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(live->Aggregate("brain", "wiped_sumy").ok());
  ASSERT_TRUE(live->InitializeDatabase().ok());

  ASSERT_TRUE(live->LoadDataSet(TestDataSet()).ok());
  ASSERT_TRUE(live->CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(live->GenerateMetadata("brain", 25.0, "meta").ok());
  Result<std::vector<std::string>> mined =
      live->CalculateFascicles("brain", "meta", 150, 6, 3, "F");
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  // Control groups form only over a pure fascicle; the impure ones fail
  // and log nothing.
  size_t formed = 0;
  for (const std::string& fascicle : *mined) {
    if (live->FormControlGroups("brain", fascicle).ok()) ++formed;
  }
  ASSERT_GT(formed, 0u);
  EXPECT_TRUE(live->GetSumy("wiped_sumy").status().IsNotFound());

  const auto live_fingerprint = Fingerprint(*live, "control_live");
  ASSERT_TRUE(live->CloseStorage().ok());
  live.reset();
  std::unique_ptr<AnalysisSession> recovered = NewAdminSession();
  ASSERT_TRUE(recovered->OpenStorage(dir).ok());
  Result<store::RecoverySummary> summary = recovered->StorageRecovery();
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->snapshot_loaded);
  EXPECT_EQ(summary->wal_records_replayed, 8u + formed);
  EXPECT_EQ(Fingerprint(*recovered, "control_recovered"), live_fingerprint);
}

// ---------- the kill-point matrix ----------

class KillPointMatrixTest
    : public testing::TestWithParam<FaultInjectionEnv::FaultKind> {};

TEST_P(KillPointMatrixTest, RecoversToCommittedPrefix) {
  const FaultInjectionEnv::FaultKind kind = GetParam();

  // Dry run: count the mutating file-system operations the workload
  // performs — that is the matrix dimension.
  FaultInjectionEnv probe(store::FileEnv::Default());
  {
    std::string dir = FreshDir("probe");
    size_t committed = RunWorkload(dir, &probe);
    ASSERT_EQ(committed, WorkloadSteps().size());
  }
  const uint64_t points = probe.FaultPointsSeen();
  ASSERT_GT(points, 10u);

  // Reference fingerprints for every possible committed prefix, built
  // lazily — most kill points land on a handful of prefixes.
  std::map<size_t, std::map<std::string, std::string>> references;
  auto reference_for = [&](size_t committed) {
    auto it = references.find(committed);
    if (it != references.end()) return it->second;
    std::unique_ptr<AnalysisSession> session = NewAdminSession();
    std::vector<std::function<Status(AnalysisSession&)>> steps =
        WorkloadSteps();
    for (size_t i = 0; i < committed; ++i) {
      EXPECT_TRUE(steps[i](*session).ok()) << "reference step " << i;
    }
    return references
        .emplace(committed,
                 Fingerprint(*session, "ref" + std::to_string(committed)))
        .first->second;
  };

  for (uint64_t point = 0; point < points; ++point) {
    SCOPED_TRACE("fault point " + std::to_string(point));
    std::string dir = FreshDir("matrix");

    FaultInjectionEnv env(store::FileEnv::Default());
    env.ArmFault(point, kind);
    size_t committed = RunWorkload(dir, &env);
    ASSERT_TRUE(env.Killed());  // every point in the matrix actually fires
    ASSERT_LT(committed, WorkloadSteps().size());

    // Reboot: recover with the real file system.
    std::unique_ptr<AnalysisSession> recovered = NewAdminSession();
    Status opened = recovered->OpenStorage(dir);
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    ASSERT_EQ(Fingerprint(*recovered, "rec"), reference_for(committed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultKinds, KillPointMatrixTest,
    testing::Values(FaultInjectionEnv::FaultKind::kKill,
                    FaultInjectionEnv::FaultKind::kShortWrite,
                    FaultInjectionEnv::FaultKind::kFailSync),
    [](const testing::TestParamInfo<FaultInjectionEnv::FaultKind>& info) {
      switch (info.param) {
        case FaultInjectionEnv::FaultKind::kKill:
          return "Kill";
        case FaultInjectionEnv::FaultKind::kShortWrite:
          return "ShortWrite";
        case FaultInjectionEnv::FaultKind::kFailSync:
          return "FailSync";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace gea
