// Tests for the workbench: user accounts (Appendix III), the session
// facade, data management, redundancy checks, search operations, and
// lineage integration.

#include <gtest/gtest.h>

#include <cmath>

#include "obs/export.h"
#include "obs/log.h"
#include "support/corpus.h"
#include "workbench/session.h"
#include "workbench/users.h"

namespace gea::workbench {
namespace {

// ---------- UserDatabase ----------

TEST(UserDatabaseTest, BootstrapAdminCanAuthenticate) {
  UserDatabase users("admin", "secret");
  EXPECT_TRUE(users.Authenticate("admin", "secret",
                                 AccessLevel::kAdministrator)
                  .ok());
}

TEST(UserDatabaseTest, LoginFailsOnWrongPasswordOrType) {
  // The Fig. 4.27 hint: password and TYPE must both match.
  UserDatabase users("admin", "secret");
  EXPECT_TRUE(users.Authenticate("admin", "wrong",
                                 AccessLevel::kAdministrator)
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(users.Authenticate("admin", "secret", AccessLevel::kUser)
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(users.Authenticate("ghost", "secret",
                                 AccessLevel::kAdministrator)
                  .status()
                  .IsPermissionDenied());
}

TEST(UserDatabaseTest, AddDeleteModify) {
  UserDatabase users("admin", "secret");
  ASSERT_TRUE(users.AddUser("jessica", "pw", AccessLevel::kUser).ok());
  EXPECT_TRUE(users.AddUser("jessica", "pw2", AccessLevel::kUser)
                  .IsAlreadyExists());
  EXPECT_TRUE(users.Authenticate("jessica", "pw", AccessLevel::kUser).ok());

  // Promote to administrator with a new password (Fig. AIII.11).
  ASSERT_TRUE(
      users.ModifyUser("jessica", "pw2", AccessLevel::kAdministrator).ok());
  EXPECT_TRUE(users.Authenticate("jessica", "pw", AccessLevel::kUser)
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(users
                  .Authenticate("jessica", "pw2",
                                AccessLevel::kAdministrator)
                  .ok());

  ASSERT_TRUE(users.DeleteUser("jessica").ok());
  EXPECT_TRUE(users.DeleteUser("jessica").IsNotFound());
}

TEST(UserDatabaseTest, LastAdministratorIsProtected) {
  UserDatabase users("admin", "secret");
  EXPECT_EQ(users.DeleteUser("admin").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(users.ModifyUser("admin", "x", AccessLevel::kUser).code(),
            StatusCode::kFailedPrecondition);
  // With a second admin, deletion works.
  ASSERT_TRUE(
      users.AddUser("root2", "pw", AccessLevel::kAdministrator).ok());
  EXPECT_TRUE(users.DeleteUser("admin").ok());
}

TEST(UserDatabaseTest, Introspection) {
  UserDatabase users("admin", "secret");
  users.AddUser("u1", "p", AccessLevel::kUser);
  EXPECT_TRUE(users.HasUser("u1"));
  EXPECT_EQ(*users.GetLevel("u1"), AccessLevel::kUser);
  EXPECT_EQ(users.UserNames().size(), 2u);
  EXPECT_TRUE(users.GetLevel("nope").status().IsNotFound());
}

// ---------- AnalysisSession ----------

class SessionTest : public testing::Test {
 protected:
  AnalysisSession LoggedInSession() {
    AnalysisSession session("admin", "secret");
    EXPECT_TRUE(
        session.Login("admin", "secret", AccessLevel::kAdministrator).ok());
    EXPECT_TRUE(session.LoadDataSet(support::Panel()).ok());
    return session;
  }
};

TEST_F(SessionTest, OperationsRequireLogin) {
  AnalysisSession session("admin", "secret");
  EXPECT_TRUE(session.LoadDataSet(support::Panel()).IsPermissionDenied());
  EXPECT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain)
                  .IsPermissionDenied());
  EXPECT_FALSE(session.IsLoggedIn());
  EXPECT_FALSE(session.CurrentUser().ok());
}

TEST_F(SessionTest, LoginLogout) {
  AnalysisSession session("admin", "secret");
  EXPECT_TRUE(session.Login("admin", "bad", AccessLevel::kAdministrator)
                  .IsPermissionDenied());
  ASSERT_TRUE(
      session.Login("admin", "secret", AccessLevel::kAdministrator).ok());
  EXPECT_TRUE(session.IsLoggedIn());
  EXPECT_EQ(*session.CurrentUser(), "admin");
  session.Logout();
  EXPECT_FALSE(session.IsLoggedIn());
}

TEST_F(SessionTest, AdministrationRequiresAdminLevel) {
  AnalysisSession session("admin", "secret");
  ASSERT_TRUE(
      session.Login("admin", "secret", AccessLevel::kAdministrator).ok());
  ASSERT_TRUE(session.AddUser("jess", "pw", AccessLevel::kUser).ok());
  session.Logout();
  ASSERT_TRUE(session.Login("jess", "pw", AccessLevel::kUser).ok());
  EXPECT_TRUE(session.AddUser("x", "y", AccessLevel::kUser)
                  .IsPermissionDenied());
  EXPECT_TRUE(session.SetConfiguration("db_path", "/x").IsPermissionDenied());
  EXPECT_TRUE(session.InitializeDatabase().IsPermissionDenied());
  // But analysis operations are available to plain users.
  EXPECT_TRUE(session.LoadDataSet(support::Panel()).ok());
  EXPECT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());
}

TEST_F(SessionTest, ConfigurationDefaultsAndUpdates) {
  AnalysisSession session("admin", "secret");
  ASSERT_TRUE(
      session.Login("admin", "secret", AccessLevel::kAdministrator).ok());
  EXPECT_TRUE(session.GetConfiguration("db_path").ok());
  ASSERT_TRUE(session.SetConfiguration("db_path", "/tmp/gea").ok());
  EXPECT_EQ(*session.GetConfiguration("db_path"), "/tmp/gea");
  EXPECT_TRUE(session.GetConfiguration("nope").status().IsNotFound());
}

TEST_F(SessionTest, LoadDataSetBuildsRelations) {
  AnalysisSession session = LoggedInSession();
  EXPECT_TRUE(session.Relations().HasTable("Libraries"));
  EXPECT_TRUE(session.Relations().HasTable("Typeinfo"));
  EXPECT_TRUE(session.Relations().HasTable("Sageinfo"));
  EXPECT_TRUE(session.Lineage().FindByName("SAGE").ok());
}

TEST_F(SessionTest, TissueDataSetAndRedundancyCheck) {
  AnalysisSession session = LoggedInSession();
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());
  Result<const core::EnumTable*> brain = session.GetEnum("brain");
  ASSERT_TRUE(brain.ok());
  EXPECT_EQ((*brain)->NumLibraries(), 12u);
  // Redundancy check (Fig. 4.28): refused without replace.
  EXPECT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain)
                  .IsAlreadyExists());
  EXPECT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain,
                                          /*replace=*/true)
                  .ok());
  // A tissue with no libraries in the small panel is NotFound.
  EXPECT_TRUE(session.CreateTissueDataSet(sage::TissueType::kKidney)
                  .IsNotFound());
}

TEST_F(SessionTest, CustomDataSet) {
  AnalysisSession session = LoggedInSession();
  std::vector<int> ids = {1, 2, 13};
  ASSERT_TRUE(session.CreateCustomDataSet("newBrain", ids).ok());
  Result<const core::EnumTable*> custom = session.GetEnum("newBrain");
  ASSERT_TRUE(custom.ok());
  EXPECT_EQ((*custom)->NumLibraries(), 3u);
  EXPECT_TRUE(
      session.CreateCustomDataSet("bad", {9999}).IsNotFound());
}

TEST_F(SessionTest, MetadataValidation) {
  AnalysisSession session = LoggedInSession();
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());
  EXPECT_TRUE(
      session.GenerateMetadata("brain", 150.0, "m").IsInvalidArgument());
  EXPECT_TRUE(session.GenerateMetadata("brain", std::nan(""), "m")
                  .IsInvalidArgument());
  EXPECT_TRUE(session.GenerateMetadata("nope", 10.0, "m").IsNotFound());
  ASSERT_TRUE(session.GenerateMetadata("brain", 10.0, "brainfile.meta").ok());
  EXPECT_TRUE(session.GenerateMetadata("brain", 10.0, "brainfile.meta")
                  .IsAlreadyExists());
  EXPECT_TRUE(session
                  .GenerateMetadata("brain", 10.0, "brainfile.meta",
                                    /*replace=*/true)
                  .ok());
}

TEST_F(SessionTest, SearchOperations) {
  AnalysisSession session = LoggedInSession();
  // Library info by id and name (Fig. 4.23).
  Result<sage::LibraryMeta> by_id = session.SearchLibrary(1);
  ASSERT_TRUE(by_id.ok());
  Result<sage::LibraryMeta> by_name = session.SearchLibrary(by_id->name);
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(by_name->id, 1);
  EXPECT_TRUE(session.SearchLibrary(424242).status().IsNotFound());

  // Tissue type info (Fig. 4.24).
  Result<std::vector<std::string>> brains =
      session.LibrariesOfTissue(sage::TissueType::kBrain);
  ASSERT_TRUE(brains.ok());
  EXPECT_EQ(brains->size(), 12u);

  // Tag frequency (Figs. 4.25/4.26): values match the library's counts.
  const sage::SageLibrary& lib = (*session.DataSet())->library(0);
  ASSERT_FALSE(lib.entries().empty());
  sage::TagId tag = lib.entries().front().tag;
  Result<std::vector<AnalysisSession::TagFrequencyRow>> rows =
      session.TagFrequency(tag, tag, {lib.name()});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->front().tag, tag);
  EXPECT_DOUBLE_EQ(rows->front().values[0], lib.Count(tag));

  EXPECT_TRUE(
      session.TagFrequency(tag, tag, {"missing_library"}).status()
          .IsNotFound());
}

TEST_F(SessionTest, SqlQueryOverAuxiliaryRelations) {
  AnalysisSession session = LoggedInSession();
  Result<rel::Table> out = session.Query(
      "SELECT Type, COUNT(*) AS n FROM Libraries GROUP BY Type ORDER BY "
      "Type");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->NumRows(), 2u);  // brain + breast in the small panel
  EXPECT_EQ(out->Get(0, "Type")->AsString(), "brain");
  EXPECT_EQ(out->Get(0, "n")->AsInt(), 12);
  // Queries require login.
  session.Logout();
  EXPECT_TRUE(session.Query("SELECT * FROM Libraries").status()
                  .IsPermissionDenied());
}

TEST_F(SessionTest, RangeSearchOverStoredSumys) {
  AnalysisSession session = LoggedInSession();
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(session.GenerateMetadata("brain", 25.0, "meta").ok());
  Result<std::vector<std::string>> fascicles = session.CalculateFascicles(
      "brain", "meta", 150, 6, 3, "rs");
  ASSERT_TRUE(fascicles.ok());
  ASSERT_FALSE(fascicles->empty());
  const std::string sumy_name = fascicles->front() + "_SUMY";
  Result<const core::SumyTable*> sumy = session.GetSumy(sumy_name);
  ASSERT_TRUE(sumy.ok());
  ASSERT_GT((*sumy)->NumTags(), 0u);
  sage::TagId tag = (*sumy)->entry(0).tag;
  const core::SumyEntry& entry = (*sumy)->entry(0);

  // Query with the tag's own range: relation equals must match.
  Result<std::vector<core::RangeSearchHit>> hits = session.RangeSearchSumys(
      {sumy_name}, tag, tag, interval::AllenRelation::kEquals,
      {entry.min, entry.max});
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ(hits->front().outcome,
            core::RangeSearchHit::Outcome::kMatch);

  EXPECT_TRUE(session
                  .RangeSearchSumys({"nope"}, tag, tag,
                                    interval::AllenRelation::kEquals,
                                    {0, 1})
                  .status()
                  .IsNotFound());
}

TEST_F(SessionTest, InitializeDatabaseClearsEverything) {
  AnalysisSession session = LoggedInSession();
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(session.InitializeDatabase().ok());
  // Only the built-in stat views survive (seven from obs plus
  // gea_stat_storage and gea_stat_transactions); every stored relation
  // is gone.
  EXPECT_EQ(session.Relations().NumTables(), 9u);
  for (const std::string& name : session.Relations().TableNames()) {
    EXPECT_EQ(name.rfind("gea_stat_", 0), 0u) << name;
  }
  EXPECT_TRUE(session.GetEnum("brain").status().IsNotFound());
  EXPECT_FALSE(session.DataSet().ok());
}

TEST_F(SessionTest, LineageDeleteCascadeDropsTables) {
  AnalysisSession session = LoggedInSession();
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(session.GenerateMetadata("brain", 25.0, "meta").ok());
  Result<std::vector<std::string>> fascicles = session.CalculateFascicles(
      "brain", "meta", /*min_compact_tags=*/150, /*batch_size=*/6,
      /*min_size=*/3, "brain150");
  ASSERT_TRUE(fascicles.ok()) << fascicles.status().ToString();
  ASSERT_FALSE(fascicles->empty());
  const std::string& fas = fascicles->front();
  ASSERT_TRUE(session.GetEnum(fas).ok());
  ASSERT_TRUE(session.GetSumy(fas + "_SUMY").ok());
  ASSERT_TRUE(session.CommentOn(fas, "interesting compact tags").ok());

  // Cascade delete removes the fascicle and its SUMY.
  ASSERT_TRUE(session.DeleteTable(fas, /*cascade=*/true).ok());
  EXPECT_TRUE(session.GetEnum(fas).status().IsNotFound());
  EXPECT_TRUE(session.GetSumy(fas + "_SUMY").status().IsNotFound());
}

TEST_F(SessionTest, DeleteContentsKeepsLineageMetadata) {
  AnalysisSession session = LoggedInSession();
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBreast).ok());
  ASSERT_TRUE(session.DeleteTable("breast", /*cascade=*/false).ok());
  EXPECT_TRUE(session.GetEnum("breast").status().IsNotFound());
  // The lineage node survives with its parameters for regeneration.
  Result<lineage::LineageGraph::NodeId> node =
      session.Lineage().FindByName("breast");
  ASSERT_TRUE(node.ok());
  EXPECT_FALSE((*session.Lineage().GetNode(*node))->has_contents);
}

// ---------- Observability: query log + EXPLAIN ----------

TEST_F(SessionTest, QueryLogRecordsSuccessAndFailure) {
  AnalysisSession session = LoggedInSession();
  EXPECT_TRUE(session.ExplainLast().status().IsNotFound());

  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_EQ(session.QueryLog().size(), 1u);
  EXPECT_EQ(session.QueryLog()[0].operation, "tissue_dataset");
  EXPECT_EQ(session.QueryLog()[0].detail, "brain");
  EXPECT_TRUE(session.QueryLog()[0].ok);

  // A failing operation is logged too, with its status message.
  EXPECT_FALSE(session.CreateGap("no_such", "sumys", "g").ok());
  ASSERT_EQ(session.QueryLog().size(), 2u);
  EXPECT_EQ(session.QueryLog()[1].operation, "create_gap");
  EXPECT_FALSE(session.QueryLog()[1].ok);
  EXPECT_FALSE(session.QueryLog()[1].error.empty());

  session.ClearQueryLog();
  EXPECT_TRUE(session.QueryLog().empty());
}

TEST_F(SessionTest, QueryLogIsABoundedRing) {
  AnalysisSession session = LoggedInSession();
  session.ClearQueryLog();
  ASSERT_EQ(session.QueryLogCapacity(), 1024u);  // default
  session.SetQueryLogCapacity(3);
  EXPECT_EQ(session.QueryLogCapacity(), 3u);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        session.Query("SELECT COUNT(*) AS n" + std::to_string(i) +
                      " FROM Libraries")
            .ok());
  }

  // Only the newest three entries survive, in order.
  std::vector<AnalysisSession::QueryLogEntry> log = session.QueryLog();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_NE(log[0].detail.find("n2"), std::string::npos);
  EXPECT_NE(log[2].detail.find("n4"), std::string::npos);

  // Eviction never touches the last profile: EXPLAIN still works even
  // after its entry ages out of the ring.
  session.SetQueryLogCapacity(1);
  EXPECT_EQ(session.QueryLog().size(), 1u);
  Result<std::string> explain = session.ExplainLast();
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("sql_query"), std::string::npos);

  // Capacity 0 is clamped to 1 rather than disabling the log.
  session.SetQueryLogCapacity(0);
  EXPECT_EQ(session.QueryLogCapacity(), 1u);
}

TEST_F(SessionTest, AuthenticateUserIsLoggedWithoutChangingLogin) {
  AnalysisSession session = LoggedInSession();
  ASSERT_TRUE(
      session.AddUser("reader", "pw", AccessLevel::kUser).ok());
  session.ClearQueryLog();

  Result<AccessLevel> level =
      session.AuthenticateUser("reader", "pw", AccessLevel::kUser);
  ASSERT_TRUE(level.ok());
  EXPECT_EQ(*level, AccessLevel::kUser);
  EXPECT_TRUE(
      session.AuthenticateUser("reader", "wrong", AccessLevel::kUser)
          .status()
          .IsPermissionDenied());

  // Both attempts hit the query log; the session identity is untouched.
  std::vector<AnalysisSession::QueryLogEntry> log = session.QueryLog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].operation, "login");
  EXPECT_TRUE(log[0].ok);
  EXPECT_FALSE(log[1].ok);
  ASSERT_TRUE(session.CurrentUser().ok());
  EXPECT_EQ(*session.CurrentUser(), "admin");
}

TEST_F(SessionTest, ExplainLastOnPopulateThenDiffPipeline) {
  obs::ScopedMetricsEnable metrics(true);
  obs::ScopedTraceEnable trace(true);

  AnalysisSession session = LoggedInSession();
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBreast).ok());
  ASSERT_TRUE(session.Aggregate("brain", "brain_sumy").ok());
  ASSERT_TRUE(session.Aggregate("breast", "breast_sumy").ok());

  // populate: the profile's counters must match the produced table.
  ASSERT_TRUE(session.Populate("brain_sumy", "brain", "brain_pop").ok());
  Result<const obs::OperationProfile*> populate_profile =
      session.LastProfile();
  ASSERT_TRUE(populate_profile.ok());
  EXPECT_EQ((*populate_profile)->operation, "populate");
  Result<const core::EnumTable*> populated = session.GetEnum("brain_pop");
  ASSERT_TRUE(populated.ok());
  uint64_t rows_delta = 0, candidates_delta = 0;
  for (const obs::CounterDelta& d : (*populate_profile)->counters) {
    if (d.name == "gea.populate.rows_materialized") rows_delta = d.delta;
    if (d.name == "gea.populate.candidates_verified") {
      candidates_delta = d.delta;
    }
  }
  EXPECT_EQ(rows_delta, (*populated)->NumLibraries());
  EXPECT_GE(candidates_delta, rows_delta);
  bool saw_populate_span = false, saw_child_span = false;
  for (const obs::SpanRecord& span : (*populate_profile)->spans) {
    if (span.name == "populate") saw_populate_span = true;
    if (span.parent_id != 0) saw_child_span = true;
  }
  EXPECT_TRUE(saw_populate_span);
  EXPECT_TRUE(saw_child_span);

  // diff (CreateGap): tags_compared is the sum of both SUMY sizes.
  Result<const core::SumyTable*> s1 = session.GetSumy("brain_sumy");
  Result<const core::SumyTable*> s2 = session.GetSumy("breast_sumy");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE(session.CreateGap("brain_sumy", "breast_sumy", "g").ok());
  Result<std::string> explain = session.ExplainLast();
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("create_gap"), std::string::npos);
  EXPECT_NE(explain->find("spans:"), std::string::npos);
  EXPECT_NE(explain->find("diff"), std::string::npos);
  EXPECT_NE(explain->find("counters:"), std::string::npos);
  EXPECT_NE(explain->find("gea.diff.tags_compared"), std::string::npos);

  Result<const obs::OperationProfile*> gap_profile = session.LastProfile();
  ASSERT_TRUE(gap_profile.ok());
  uint64_t tags_compared = 0;
  for (const obs::CounterDelta& d : (*gap_profile)->counters) {
    if (d.name == "gea.diff.tags_compared") tags_compared = d.delta;
  }
  EXPECT_EQ(tags_compared, (*s1)->NumTags() + (*s2)->NumTags());
}

TEST_F(SessionTest, ExplainLastOnMine) {
  obs::ScopedMetricsEnable metrics(true);
  obs::ScopedTraceEnable trace(true);

  AnalysisSession session = LoggedInSession();
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(session.GenerateMetadata("brain", 25.0, "meta").ok());
  Result<std::vector<std::string>> fascicles = session.CalculateFascicles(
      "brain", "meta", /*min_compact_tags=*/150, /*batch_size=*/6,
      /*min_size=*/3, "brain150");
  ASSERT_TRUE(fascicles.ok()) << fascicles.status().ToString();

  Result<const obs::OperationProfile*> profile = session.LastProfile();
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ((*profile)->operation, "fascicles");
  bool saw_mine_span = false;
  for (const obs::SpanRecord& span : (*profile)->spans) {
    if (span.name == "mine") saw_mine_span = true;
  }
  EXPECT_TRUE(saw_mine_span);
  uint64_t mine_calls = 0, candidates = 0;
  for (const obs::CounterDelta& d : (*profile)->counters) {
    if (d.name == "gea.mine.calls") mine_calls = d.delta;
    if (d.name == "gea.fascicles.candidates_evaluated") candidates = d.delta;
  }
  EXPECT_GE(mine_calls, 1u);
  EXPECT_GE(candidates, 1u);

  Result<std::string> explain = session.ExplainLast();
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("fascicles"), std::string::npos);
  EXPECT_NE(explain->find("mine"), std::string::npos);
  EXPECT_NE(explain->find("gea.mine.calls"), std::string::npos);
}

TEST_F(SessionTest, ExplainLastOnGapAndSumySelections) {
  obs::ScopedMetricsEnable metrics(true);
  obs::ScopedTraceEnable trace(true);

  AnalysisSession session = LoggedInSession();
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBreast).ok());
  ASSERT_TRUE(session.Aggregate("brain", "brain_sumy").ok());
  ASSERT_TRUE(session.Aggregate("breast", "breast_sumy").ok());
  ASSERT_TRUE(session.CreateGap("brain_sumy", "breast_sumy", "g").ok());
  ASSERT_TRUE(session
                  .CompareGapTables("g", "g", core::GapCompareKind::kUnion,
                                    "g_cmp")
                  .ok());

  // RunGapQuery runs the gap selection operator: "gap.select" span plus
  // the tags_scanned/rows_kept counters.
  ASSERT_TRUE(session
                  .RunGapQuery("g_cmp",
                               core::GapCompareQuery::kNonNullInBoth, "g_q5")
                  .ok());
  Result<const obs::OperationProfile*> gap_profile = session.LastProfile();
  ASSERT_TRUE(gap_profile.ok());
  EXPECT_EQ((*gap_profile)->operation, "gap_query");
  bool saw_select_span = false;
  for (const obs::SpanRecord& span : (*gap_profile)->spans) {
    if (span.name == "gap.select") saw_select_span = true;
  }
  EXPECT_TRUE(saw_select_span);
  uint64_t tags_scanned = 0;
  for (const obs::CounterDelta& d : (*gap_profile)->counters) {
    if (d.name == "gea.gap.select.tags_scanned") tags_scanned = d.delta;
  }
  EXPECT_GE(tags_scanned, 1u);
  Result<std::string> explain = session.ExplainLast();
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("gap_query"), std::string::npos);
  EXPECT_NE(explain->find("gap.select"), std::string::npos);

  // RangeSearchSumys is a logged operation now: "range_search" with the
  // sumy.range_search span and counter.
  Result<const core::SumyTable*> sumy = session.GetSumy("brain_sumy");
  ASSERT_TRUE(sumy.ok());
  ASSERT_GT((*sumy)->NumTags(), 0u);
  const core::SumyEntry& entry = (*sumy)->entry(0);
  Result<std::vector<core::RangeSearchHit>> hits = session.RangeSearchSumys(
      {"brain_sumy"}, entry.tag, entry.tag, interval::AllenRelation::kEquals,
      {entry.min, entry.max});
  ASSERT_TRUE(hits.ok());
  Result<const obs::OperationProfile*> range_profile = session.LastProfile();
  ASSERT_TRUE(range_profile.ok());
  EXPECT_EQ((*range_profile)->operation, "range_search");
  bool saw_range_span = false;
  for (const obs::SpanRecord& span : (*range_profile)->spans) {
    if (span.name == "sumy.range_search") saw_range_span = true;
  }
  EXPECT_TRUE(saw_range_span);
  uint64_t range_calls = 0;
  for (const obs::CounterDelta& d : (*range_profile)->counters) {
    if (d.name == "gea.sumy.range_search.calls") range_calls = d.delta;
  }
  EXPECT_EQ(range_calls, 1u);
  EXPECT_EQ(session.QueryLog().back().operation, "range_search");
}

TEST_F(SessionTest, SlowQueryLogEmitsStructuredRecord) {
  obs::ScopedMetricsEnable metrics(true);
  obs::ScopedLogCapture capture;   // threshold down to debug, buffered
  obs::ScopedSlowQueryMs slow(0);  // every operation is "slow"

  AnalysisSession session = LoggedInSession();
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());

  const std::string out = capture.str();
  // Find the tissue_dataset slow-query record among the captured lines.
  std::string record;
  size_t start = 0;
  while (start < out.size()) {
    size_t nl = out.find('\n', start);
    if (nl == std::string::npos) nl = out.size();
    const std::string line = out.substr(start, nl - start);
    if (line.find("\"event\":\"slow_query\"") != std::string::npos &&
        line.find("\"operation\":\"tissue_dataset\"") != std::string::npos) {
      record = line;
    }
    start = nl + 1;
  }
  ASSERT_FALSE(record.empty()) << out;
  std::string error;
  EXPECT_TRUE(obs::internal::ValidateJson(record, &error)) << error << "\n"
                                                           << record;
  EXPECT_NE(record.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(record.find("\"detail\":\"brain\""), std::string::npos);
  EXPECT_NE(record.find("\"elapsed_ms\":"), std::string::npos);
  EXPECT_NE(record.find("\"threshold_ms\":0"), std::string::npos);
  EXPECT_NE(record.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(record.find("\"user\":\"admin\""), std::string::npos);

  // An operation that moves registry counters carries them in the
  // record: populate reports rows_materialized (metrics are on).
  ASSERT_TRUE(session.Aggregate("brain", "brain_sumy").ok());
  ASSERT_TRUE(session.Populate("brain_sumy", "brain", "brain_pop").ok());
  const std::string with_counters = capture.str();
  size_t populate_at =
      with_counters.find("\"operation\":\"populate\"");
  ASSERT_NE(populate_at, std::string::npos);
  const std::string populate_record = with_counters.substr(
      with_counters.rfind('\n', populate_at) + 1,
      with_counters.find('\n', populate_at) -
          with_counters.rfind('\n', populate_at) - 1);
  EXPECT_TRUE(obs::internal::ValidateJson(populate_record, &error))
      << error << "\n" << populate_record;
  EXPECT_NE(populate_record.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(populate_record.find("gea.populate.rows_materialized"),
            std::string::npos);

  // A failing operation logs ok:false with the error message.
  EXPECT_FALSE(session.CreateGap("no_such", "tables", "g").ok());
  const std::string after = capture.str();
  EXPECT_NE(after.find("\"operation\":\"create_gap\""), std::string::npos);
  EXPECT_NE(after.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(after.find("\"error\":"), std::string::npos);
}

TEST_F(SessionTest, SlowQueryLogSilentWhenDisabled) {
  obs::ScopedLogCapture capture;
  obs::ScopedSlowQueryMs off(std::nullopt);

  AnalysisSession session = LoggedInSession();
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());
  EXPECT_EQ(capture.str().find("slow_query"), std::string::npos);
}

}  // namespace
}  // namespace gea::workbench
