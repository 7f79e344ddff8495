// Failover end-to-end: a primary serving a wire workload over
// fault-injected storage is killed mid-load, the replica that was
// streaming its acknowledged WAL frames is promoted, and the promoted
// catalog must be byte-identical to a reference session that executed
// exactly the acknowledged prefix of the workload — the replication
// analogue of recovery_test's kill-point matrix, with the network in the
// loop. Three kill points across the workload cover all three fault
// kinds (process kill, torn write, failed fsync).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/repl.h"
#include "dist/replica.h"
#include "sage/cleaning.h"
#include "sage/generator.h"
#include "sage/io.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/fault_env.h"
#include "store/file_env.h"
#include "workbench/session.h"

namespace gea::dist {
namespace {

namespace fs = std::filesystem;

using serve::QueryClient;
using serve::QueryServer;
using serve::Response;
using store::FaultInjectionEnv;
using workbench::AccessLevel;
using workbench::AnalysisSession;

std::string FreshDir(const std::string& tag) {
  std::string dir = testing::TempDir() + "/gea_dist_failover_" + tag;
  fs::remove_all(dir);
  return dir;
}

/// Fixed point of the library text codec (the recovery_test idiom): the
/// WAL and the snapshot ship datasets through the codec, so the
/// byte-identical assertion needs replicated state to see exactly the
/// doubles the reference session computes with.
const sage::SageDataSet& TestDataSet() {
  static const sage::SageDataSet* dataset = [] {
    sage::GeneratorConfig config;
    config.seed = 42;
    config.panels = sage::SyntheticSageGenerator::SmallPanels();
    sage::SyntheticSage synth = sage::SyntheticSageGenerator(config).Generate();
    sage::CleanAndNormalize(synth.dataset);
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

std::unique_ptr<AnalysisSession> AdminSession() {
  auto session = std::make_unique<AnalysisSession>("admin", "secret");
  EXPECT_TRUE(
      session->Login("admin", "secret", AccessLevel::kAdministrator).ok());
  return session;
}

/// One workload step: the wire call the load driver sends, paired with
/// the in-process equivalent the reference session replays.
struct WorkloadStep {
  std::string op;
  std::map<std::string, std::string> params;
  std::function<Status(AnalysisSession&)> replay;
};

std::vector<WorkloadStep> WorkloadSteps() {
  std::vector<int> custom_ids;
  std::string custom_libs;
  for (size_t i = 0; i < 3; ++i) {
    custom_ids.push_back(TestDataSet().library(i).id());
    custom_libs += (i > 0 ? "," : "") + std::to_string(custom_ids.back());
  }
  return {
      {"tissue_dataset",
       {{"tissue", "brain"}},
       [](AnalysisSession& s) {
         return s.CreateTissueDataSet(sage::TissueType::kBrain);
       }},
      {"generate_metadata",
       {{"dataset", "brain"}, {"percent", "25"}, {"meta", "meta"}},
       [](AnalysisSession& s) {
         return s.GenerateMetadata("brain", 25.0, "meta");
       }},
      {"aggregate",
       {{"enum", "brain"}, {"out", "s1"}},
       [](AnalysisSession& s) { return s.Aggregate("brain", "s1"); }},
      {"tissue_dataset",
       {{"tissue", "breast"}},
       [](AnalysisSession& s) {
         return s.CreateTissueDataSet(sage::TissueType::kBreast);
       }},
      {"aggregate",
       {{"enum", "breast"}, {"out", "s2"}},
       [](AnalysisSession& s) { return s.Aggregate("breast", "s2"); }},
      {"diff",
       {{"sumy1", "s1"}, {"sumy2", "s2"}, {"gap", "g"}},
       [](AnalysisSession& s) { return s.CreateGap("s1", "s2", "g"); }},
      // Mid-load checkpoint: snapshot rotation fault points are in the
      // matrix too. A checkpoint never changes the logical catalog, so
      // the storage-less reference treats it as a no-op.
      {"checkpoint", {}, [](AnalysisSession&) { return Status::OK(); }},
      {"top_gap",
       {{"gap", "g"}, {"x", "5"}},
       [](AnalysisSession& s) { return s.CalculateTopGap("g", 5).status(); }},
      {"custom_dataset",
       {{"name", "X"}, {"libs", custom_libs}},
       [custom_ids](AnalysisSession& s) {
         return s.CreateCustomDataSet("X", custom_ids);
       }},
      // No algorithm on the wire: the server must mine greedy, the
      // library default.
      {"mine",
       {{"dataset", "brain"},
        {"meta", "meta"},
        {"min_compact_tags", "150"},
        {"batch_size", "6"},
        {"min_size", "3"},
        {"out_prefix", "F"}},
       [](AnalysisSession& s) {
         return s.CalculateFascicles("brain", "meta", 150, 6, 3, "F")
             .status();
       }},
      {"populate",
       {{"sumy", "s1"}, {"base", "X"}, {"out", "p"}},
       [](AnalysisSession& s) { return s.Populate("s1", "X", "p"); }},
      {"diff",
       {{"sumy1", "s2"}, {"sumy2", "s1"}, {"gap", "g2"}},
       [](AnalysisSession& s) { return s.CreateGap("s2", "s1", "g2"); }},
      {"compare_gaps",
       {{"a", "g"}, {"b", "g2"}, {"kind", "0"}, {"out", "cmp"}},
       [](AnalysisSession& s) {
         return s.CompareGapTables("g", "g2", core::GapCompareKind::kUnion,
                                   "cmp");
       }},
      {"gap_query",
       {{"compared", "cmp"}, {"query", "1"}, {"out", "q"}},
       [](AnalysisSession& s) {
         return s.RunGapQuery("cmp",
                              core::GapCompareQuery::kHigherInAInBoth, "q");
       }},
  };
}

/// A storage-less session that ran the first `steps` workload steps
/// through the library API.
std::unique_ptr<AnalysisSession> ReferenceSession(size_t steps) {
  auto reference = AdminSession();
  EXPECT_TRUE(reference->LoadDataSet(TestDataSet()).ok());
  std::vector<WorkloadStep> workload = WorkloadSteps();
  for (size_t i = 0; i < steps; ++i) {
    Status status = workload[i].replay(*reference);
    EXPECT_TRUE(status.ok()) << workload[i].op << ": " << status.ToString();
  }
  return reference;
}

/// Canonical byte-level state (the recovery_test Fingerprint): every file
/// SaveDatabase emits, keyed by relative path.
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

struct RunResult {
  size_t acked_steps = 0;
  uint64_t fault_points = 0;
};

/// Spins up primary (+hub), optionally a replica, drives the workload
/// over the wire until a step fails, then hands the pieces back through
/// `inspect` while everything is still running.
RunResult RunPipeline(
    const std::string& tag, FaultInjectionEnv* env,
    const std::function<void(AnalysisSession& primary_session,
                             ReplicaServer& replica, size_t acked)>& inspect) {
  RunResult result;
  const std::string dir = FreshDir(tag);
  auto primary_session = AdminSession();
  EXPECT_TRUE(
      primary_session->OpenStorage(dir, store::StorageOptions{}, env).ok());
  EXPECT_TRUE(primary_session->LoadDataSet(TestDataSet()).ok());

  QueryServer primary_server(primary_session.get());
  ReplicationHub hub(primary_session.get(), &primary_server);
  EXPECT_TRUE(primary_server.Start().ok());

  ReplicaServer::Options replica_options;
  replica_options.primary_port = primary_server.Port();
  replica_options.primary_user = "admin";
  replica_options.primary_password = "secret";
  replica_options.poll_wait_ms = 50;
  replica_options.retry_ms = 10;
  ReplicaServer replica(replica_options);
  EXPECT_TRUE(replica.Start().ok());
  {
    // The follower's first snapshot catch-up lands before the workload
    // starts. A snapshot asked for after the primary's storage died is
    // refused (it could hold a write that never became durable), so a
    // follower still waiting for its first one then would never reach
    // the acknowledged LSN.
    QueryClient follower;
    EXPECT_TRUE(follower.Connect(replica.Port()).ok());
    EXPECT_TRUE(
        follower.WaitForLsn(primary_session->DurableLsn(), 15'000).ok());
  }

  QueryClient client;
  EXPECT_TRUE(client.Connect(primary_server.Port()).ok());
  EXPECT_TRUE(client.Login("admin", "secret", "admin").ok());
  for (const WorkloadStep& step : WorkloadSteps()) {
    Result<Response> response = client.Call(step.op, step.params);
    if (!response.ok() || !(*response).ok()) break;
    ++result.acked_steps;
  }
  result.fault_points = env->FaultPointsSeen();

  inspect(*primary_session, replica, result.acked_steps);

  replica.Stop();
  primary_server.Stop();
  return result;
}

TEST(DistFailoverTest, PromotedReplicaIsByteIdenticalToTheAckedPrefix) {
  store::FileEnv* base = store::FileEnv::Default();

  // Probe run, no fault armed: the whole workload must ack, the replica
  // must converge, and we learn how many fault points the pipeline has.
  FaultInjectionEnv probe(base);
  uint64_t setup_points = 0;
  {
    // Count the points consumed by storage setup + dataset load so the
    // armed kills land mid-workload, not mid-bootstrap.
    FaultInjectionEnv sizing(base);
    const std::string dir = FreshDir("sizing");
    auto session = AdminSession();
    ASSERT_TRUE(
        session->OpenStorage(dir, store::StorageOptions{}, &sizing).ok());
    ASSERT_TRUE(session->LoadDataSet(TestDataSet()).ok());
    setup_points = sizing.FaultPointsSeen();
  }
  const size_t total_steps = WorkloadSteps().size();
  RunResult clean = RunPipeline(
      "probe", &probe,
      [&](AnalysisSession& primary_session, ReplicaServer& replica,
          size_t acked) {
        ASSERT_EQ(acked, total_steps);
        QueryClient replica_client;
        ASSERT_TRUE(replica_client.Connect(replica.Port()).ok());
        ASSERT_TRUE(
            replica_client.WaitForLsn(primary_session.DurableLsn(), 15'000)
                .ok());
        // Every served write decodes and runs like its library call, on
        // the primary and through the replica's replay alike.
        const auto reference =
            Fingerprint(*ReferenceSession(total_steps), "probe_reference");
        EXPECT_EQ(Fingerprint(primary_session, "probe_primary"), reference);
        EXPECT_EQ(Fingerprint(replica.session(), "probe_replica"),
                  reference);
      });
  ASSERT_EQ(clean.acked_steps, total_steps);
  ASSERT_GT(clean.fault_points, setup_points + 3);

  // Three mid-load kills spread across the workload, one per fault kind.
  const uint64_t span = clean.fault_points - setup_points;
  struct Kill {
    uint64_t point;
    FaultInjectionEnv::FaultKind kind;
    const char* name;
  };
  const Kill kills[] = {
      {setup_points + span / 4, FaultInjectionEnv::FaultKind::kKill, "kill"},
      {setup_points + span / 2, FaultInjectionEnv::FaultKind::kShortWrite,
       "torn"},
      {setup_points + (3 * span) / 4, FaultInjectionEnv::FaultKind::kFailSync,
       "failsync"},
  };

  for (const Kill& kill : kills) {
    SCOPED_TRACE(std::string(kill.name) + " at fault point " +
                 std::to_string(kill.point));
    FaultInjectionEnv env(base);
    env.ArmFault(kill.point, kill.kind);
    RunResult faulted = RunPipeline(
        std::string("fail_") + kill.name, &env,
        [&](AnalysisSession& primary_session, ReplicaServer& replica,
            size_t acked) {
          ASSERT_TRUE(env.Killed());
          ASSERT_LT(acked, total_steps);  // the kill landed mid-load

          // The replica drains every acknowledged frame: the primary's
          // durable LSN only counts fsync-acked appends.
          QueryClient replica_client;
          ASSERT_TRUE(replica_client.Connect(replica.Port()).ok());
          ASSERT_TRUE(
              replica_client.WaitForLsn(primary_session.DurableLsn(), 15'000)
                  .ok());

          // Failover: the dead primary's follower becomes the primary.
          ASSERT_TRUE(replica.Promote().ok());
          ASSERT_TRUE(replica.Promoted());

          // The promoted catalog is exactly the acknowledged prefix.
          EXPECT_EQ(Fingerprint(replica.session(),
                                std::string("promoted_") + kill.name),
                    Fingerprint(*ReferenceSession(acked),
                                std::string("reference_") + kill.name));

          // And it takes writes (a step that only needs the base dataset,
          // which every kill point leaves intact via the snapshot, and a
          // name no workload step ever creates).
          ASSERT_TRUE(
              replica_client.Login("replicator", "replicator-secret", "admin")
                  .ok());
          Result<Response> write = replica_client.Call(
              "custom_dataset",
              {{"name", "post_promote"},
               {"libs", std::to_string(TestDataSet().library(0).id())}});
          ASSERT_TRUE(write.ok());
          EXPECT_TRUE(write->ok()) << write->message;
        });
    EXPECT_LT(faulted.acked_steps, total_steps);
  }
}

}  // namespace
}  // namespace gea::dist
