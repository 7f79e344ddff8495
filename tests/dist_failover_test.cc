// Failover end-to-end: a primary serving a seeded corpus (tests/support)
// over fault-injected storage is killed mid-load, the replica that was
// streaming its acknowledged WAL frames is promoted, and the promoted
// catalog must be byte-identical to the reference run's at the
// acknowledged prefix — the replication analogue of recovery_test's
// kill-point matrix, with the network in the loop. Three kill points
// across the corpus cover all three fault kinds (process kill, torn
// write, failed fsync).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "dist/repl.h"
#include "dist/replica.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/fault_env.h"
#include "store/file_env.h"
#include "support/corpus.h"
#include "workbench/session.h"

namespace gea::dist {
namespace {

using serve::QueryClient;
using serve::QueryServer;
using serve::Response;
using store::FaultInjectionEnv;
using support::AdminSession;
using support::Command;
using support::Fingerprint;
using support::FreshDir;
using support::Reference;
using support::SameCatalog;
using support::StepResult;
using workbench::AnalysisSession;

struct RunResult {
  size_t acked_steps = 0;
  uint64_t fault_points = 0;
};

/// Spins up a primary (+hub) with storage through `env` and a replica,
/// drives the corpus over the wire until a step fails where the
/// reference succeeded, then hands the pieces to `inspect` while
/// everything is still running.
RunResult RunPipeline(
    const Reference& reference, const std::string& tag,
    FaultInjectionEnv* env,
    const std::function<void(AnalysisSession& primary_session,
                             ReplicaServer& replica, size_t acked)>& inspect) {
  RunResult result;
  const std::string dir = FreshDir(tag);
  auto primary_session = AdminSession();
  EXPECT_TRUE(
      primary_session->OpenStorage(dir, store::StorageOptions{}, env).ok());
  // The corpus opens with load_dataset, which is no wire command: the
  // primary runs it before it serves.
  const StepResult loaded =
      support::RunStep(*primary_session, reference.corpus().front());

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
  result.acked_steps =
      support::RunAckedPrefix(reference, [&](const Command& command) {
        if (command.op == "load_dataset") return loaded;
        return support::FromResponse(client.Call(command.op, command.params));
      });
  result.fault_points = env->FaultPointsSeen();

  inspect(*primary_session, replica, result.acked_steps);

  replica.Stop();
  primary_server.Stop();
  return result;
}

/// The probe run and three mid-load kills over one served corpus.
void RunFailover(uint64_t seed) {
  const Reference reference(seed, support::Scope::kServed);
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
    ASSERT_TRUE(session->LoadDataSet(support::Panel()).ok());
    setup_points = sizing.FaultPointsSeen();
  }
  const size_t total_steps = reference.corpus().size();
  RunResult clean = RunPipeline(
      reference, "probe", &probe,
      [&](AnalysisSession& primary_session, ReplicaServer& replica,
          size_t acked) {
        ASSERT_EQ(acked, total_steps);
        QueryClient replica_client;
        ASSERT_TRUE(replica_client.Connect(replica.Port()).ok());
        ASSERT_TRUE(
            replica_client.WaitForLsn(primary_session.DurableLsn(), 15'000)
                .ok());
        // Every served write decodes and runs like its direct call, on
        // the primary and through the replica's replay alike.
        const std::string& want = reference.FingerprintAt(total_steps);
        EXPECT_TRUE(SameCatalog(Fingerprint(primary_session), want));
        EXPECT_TRUE(SameCatalog(Fingerprint(replica.session()), want));
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
        reference, std::string("fail_") + kill.name, &env,
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
          EXPECT_TRUE(SameCatalog(Fingerprint(replica.session()),
                                  reference.FingerprintAt(acked)))
              << "acknowledged prefix " << acked;

          // And it takes writes (a step that only needs the base dataset,
          // which every kill point leaves intact via the snapshot, and a
          // name no workload step ever creates).
          ASSERT_TRUE(
              replica_client.Login("replicator", "replicator-secret", "admin")
                  .ok());
          Result<Response> write = replica_client.Call(
              "custom_dataset",
              {{"name", "post_promote"},
               {"libs", std::to_string(support::Panel().library(0).id())}});
          ASSERT_TRUE(write.ok());
          EXPECT_TRUE(write->ok()) << write->message;
        });
    EXPECT_LT(faulted.acked_steps, total_steps);
  }
}

class DistFailoverTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DistFailoverTest, PromotedReplicaIsByteIdenticalToTheAckedPrefix) {
  RunFailover(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistFailoverTest,
                         testing::ValuesIn(support::kCorpusSeeds));

// The sweep over more seeds; CI runs it with
// --gtest_also_run_disabled_tests.
TEST(DistFailoverSweep, DISABLED_MoreSeeds) {
  for (uint64_t seed = 4; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunFailover(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace gea::dist
