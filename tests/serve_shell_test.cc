// Drives the gea_shell binary against a live QueryServer through a
// scripted stdin, the way the serving quick-start in README.md does.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "dist/repl.h"
#include "dist/router.h"
#include "serve/server.h"
#include "support/corpus.h"
#include "workbench/session.h"

namespace gea::serve {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ServeShellTest, ScriptedSessionEndToEnd) {
  std::unique_ptr<workbench::AnalysisSession> session = support::AdminSession();
  ASSERT_TRUE(session->LoadDataSet(support::Panel()).ok());
  ASSERT_TRUE(session->CreateTissueDataSet(sage::TissueType::kBrain).ok());

  QueryServer server(session.get());
  // A hub makes the replication surface visible to the shell: \role shows
  // the role row and \lag reads the gea_stat_replication view.
  dist::ReplicationHub hub(session.get(), &server);
  ASSERT_TRUE(server.Start().ok());

  const std::string script_path = testing::TempDir() + "/gea_shell_script.txt";
  const std::string out_path = testing::TempDir() + "/gea_shell_out.txt";
  {
    std::ofstream script(script_path);
    script << "ping\n"
           << "sql SELECT * FROM Libraries\n"  // before login: denied
           << "login admin secret admin\n"
           << "aggregate enum=brain out=ShellSumy\n"
           << "sql SELECT COUNT(*) AS n FROM Libraries\n"
           << "tables\n"
           << "\\timing on\n"
           << "ping\n"
           << "\\stats\n"
           << "\\stats gea_stat_counters\n"
           << "\\role\n"
           << "\\lag\n"
           << "bogus_command\n"
           << "quit\n";
  }

  const std::string command = std::string(GEA_SHELL_PATH) +
                              " --port=" + std::to_string(server.Port()) +
                              " < " + script_path + " > " + out_path + " 2>&1";
  const int rc = std::system(command.c_str());
  server.Stop();
  ASSERT_EQ(rc, 0) << ReadFileOrEmpty(out_path);

  const std::string output = ReadFileOrEmpty(out_path);
  EXPECT_NE(output.find("pong"), std::string::npos) << output;
  EXPECT_NE(output.find("ERROR PermissionDenied"), std::string::npos)
      << output;
  EXPECT_NE(output.find("logged in as admin"), std::string::npos) << output;
  EXPECT_NE(output.find("created ShellSumy"), std::string::npos) << output;
  EXPECT_NE(output.find("rows)"), std::string::npos) << output;
  EXPECT_NE(output.find("ERROR InvalidArgument"), std::string::npos) << output;
  // \timing renders the v3 stage breakdown, lock-wait slot included.
  EXPECT_NE(output.find("Timing is on."), std::string::npos) << output;
  EXPECT_NE(output.find("lock-wait"), std::string::npos) << output;
  // \stats defaults to gea_stat_requests; a named view works too.
  EXPECT_NE(output.find("lock_wait_ms"), std::string::npos) << output;
  EXPECT_NE(output.find("gea_stat_counters ("), std::string::npos) << output;

  // \role prints the role table; \lag reads gea_stat_replication, where
  // the hub registered its primary row.
  EXPECT_NE(output.find("primary"), std::string::npos) << output;
  EXPECT_NE(output.find("gea_stat_replication ("), std::string::npos)
      << output;
  EXPECT_NE(output.find("shipped_lsn"), std::string::npos) << output;

  // The shell's mutation really landed in the shared session.
  EXPECT_TRUE(session->GetSumy("ShellSumy").ok());
}

// The same scripted shell against a router front end: \role shows the
// router role and \shards renders the shard topology.
TEST(ServeShellTest, ScriptedSessionAgainstARouter) {
  std::unique_ptr<workbench::AnalysisSession> worker_session =
      support::AdminSession();
  ASSERT_TRUE(worker_session->LoadDataSet(support::Panel()).ok());
  QueryServer worker(worker_session.get());
  ASSERT_TRUE(worker.Start().ok());

  dist::RouterServer::Options options;
  options.worker_ports = {worker.Port()};
  options.worker_user = "admin";
  options.worker_password = "secret";
  dist::RouterServer router(options);
  ASSERT_TRUE(router.Start().ok());

  const std::string script_path =
      testing::TempDir() + "/gea_shell_router_script.txt";
  const std::string out_path =
      testing::TempDir() + "/gea_shell_router_out.txt";
  {
    std::ofstream script(script_path);
    script << "login router router-secret admin\n"
           << "\\role\n"
           << "\\shards\n"
           << "tissue_dataset tissue=brain\n"
           << "aggregate enum=brain out=RoutedSumy\n"
           << "sql SELECT COUNT(*) AS n FROM Libraries\n"
           << "quit\n";
  }
  const std::string command = std::string(GEA_SHELL_PATH) +
                              " --port=" + std::to_string(router.Port()) +
                              " < " + script_path + " > " + out_path + " 2>&1";
  const int rc = std::system(command.c_str());
  router.Stop();
  worker.Stop();
  ASSERT_EQ(rc, 0) << ReadFileOrEmpty(out_path);

  const std::string output = ReadFileOrEmpty(out_path);
  EXPECT_NE(output.find("router"), std::string::npos) << output;
  EXPECT_NE(output.find("shards ("), std::string::npos) << output;
  EXPECT_NE(output.find("created RoutedSumy"), std::string::npos) << output;
  EXPECT_TRUE(worker_session->GetSumy("RoutedSumy").ok());
}

}  // namespace
}  // namespace gea::serve
