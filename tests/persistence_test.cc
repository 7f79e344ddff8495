// Tests for the persistence layer: SAGE library files, the relational
// round trips of the GEA structures, lineage export/import, the
// session-level SaveDatabase / LoadDatabase, and the corpus runners that
// reinstall a whole catalog mid-corpus (tests/support). The coverage test
// of the corpus generator lives here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>

#include "core/gap_ops.h"
#include "core/serialization.h"
#include "lineage/lineage.h"
#include "rel/table_io.h"
#include "sage/cleaning.h"
#include "sage/generator.h"
#include "sage/io.h"
#include "support/corpus.h"
#include "workbench/session.h"

namespace gea {
namespace {

namespace fs = std::filesystem;

using support::FreshDir;

sage::SageLibrary SampleLibrary() {
  sage::SageLibrary lib(7, "SAGE_brain_cancer_B1", sage::TissueType::kBrain,
                        sage::NeoplasticState::kCancer,
                        sage::TissueSource::kCellLine);
  lib.SetCount(*sage::EncodeTag("AAAAAAAAAC"), 13.0);
  lib.SetCount(*sage::EncodeTag("CCTTGAGTAC"), 4.5);
  lib.SetCount(*sage::EncodeTag("TTTTTTTTTT"), 1.0);
  return lib;
}

// ---------- SAGE library files ----------

TEST(SageIoTest, LibraryTextRoundTrip) {
  sage::SageLibrary lib = SampleLibrary();
  std::string text = sage::WriteLibraryText(lib);
  Result<sage::SageLibrary> back =
      sage::ReadLibraryText(lib.name(), text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->id(), 7);
  EXPECT_EQ(back->tissue(), sage::TissueType::kBrain);
  EXPECT_EQ(back->state(), sage::NeoplasticState::kCancer);
  EXPECT_EQ(back->source(), sage::TissueSource::kCellLine);
  ASSERT_EQ(back->entries().size(), lib.entries().size());
  EXPECT_DOUBLE_EQ(back->Count(*sage::EncodeTag("CCTTGAGTAC")), 4.5);
  EXPECT_NE(text.find("AAAAAAAAAC\t13\n"), std::string::npos) << text;
}

TEST(SageIoTest, ReadRejectsMalformedInput) {
  EXPECT_FALSE(sage::ReadLibraryText("x", "TAG\t3\n").ok());  // no header
  EXPECT_FALSE(sage::ReadLibraryText(
                   "x", "# gea-sage-library v1\nBADTAG\t3\n")
                   .ok());
  EXPECT_FALSE(sage::ReadLibraryText(
                   "x", "# gea-sage-library v1\nAAAAAAAAAC\tnope\n")
                   .ok());
  EXPECT_FALSE(sage::ReadLibraryText(
                   "x", "# gea-sage-library v1\nAAAAAAAAAC\n")
                   .ok());
  EXPECT_FALSE(sage::ReadLibraryText(
                   "x", "# gea-sage-library v1\n# tissue liver\n")
                   .ok());
  // A count must be finite and positive.
  for (const char* count : {"nan", "inf", "1e400", "0", "-2"}) {
    EXPECT_FALSE(sage::ReadLibraryText(
                     "x", std::string("# gea-sage-library v1\nAAAAAAAAAC\t") +
                              count + "\n")
                     .ok())
        << count;
  }
}

// The text is the durable form of a data set (the WAL's load_dataset
// record, the snapshot's data-set section, SaveDatabase's sage/), so it
// must give back every normalized count bit for bit.
TEST(SageIoTest, LibraryTextIsExactOnTheRawPanel) {
  size_t counts = 0;
  for (const sage::SageLibrary& lib : support::Panel().libraries()) {
    Result<sage::SageLibrary> back =
        sage::ReadLibraryText(lib.name(), sage::WriteLibraryText(lib));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->entries().size(), lib.entries().size());
    for (size_t i = 0; i < lib.entries().size(); ++i) {
      ASSERT_EQ(back->entries()[i].tag, lib.entries()[i].tag);
      ASSERT_EQ(std::bit_cast<uint64_t>(back->entries()[i].count),
                std::bit_cast<uint64_t>(lib.entries()[i].count))
          << lib.name() << " entry " << i;
      ++counts;
    }
  }
  EXPECT_GT(counts, 10000u);

  // Integral counts stay integers; the rest take their shortest exact
  // form.
  sage::SageLibrary lib(1, "L", sage::TissueType::kBrain,
                        sage::NeoplasticState::kNormal,
                        sage::TissueSource::kBulkTissue);
  lib.SetCount(*sage::EncodeTag("AAAAAAAAAA"), 300000.0);
  lib.SetCount(*sage::EncodeTag("AAAAAAAAAC"), 0.1 + 0.2);
  lib.SetCount(*sage::EncodeTag("AAAAAAAAAG"), 1e-7);
  const std::string text = sage::WriteLibraryText(lib);
  EXPECT_NE(text.find("AAAAAAAAAA\t300000\n"), std::string::npos) << text;
  EXPECT_NE(text.find("AAAAAAAAAC\t0.30000000000000004\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("AAAAAAAAAG\t1e-07\n"), std::string::npos) << text;
}

TEST(SageIoTest, DataSetDirectoryRoundTrip) {
  sage::GeneratorConfig config;
  config.seed = 5;
  config.panels = sage::SyntheticSageGenerator::SmallPanels();
  sage::SyntheticSage synth = sage::SyntheticSageGenerator(config).Generate();

  std::string dir = FreshDir("dataset");
  ASSERT_TRUE(sage::SaveDataSet(synth.dataset, dir).ok());
  ASSERT_TRUE(fs::exists(dir + "/sageName.txt"));

  Result<sage::SageDataSet> back = sage::LoadDataSet(dir);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->NumLibraries(), synth.dataset.NumLibraries());
  for (size_t i = 0; i < back->NumLibraries(); ++i) {
    const sage::SageLibrary& a = synth.dataset.library(i);
    const sage::SageLibrary& b = back->library(i);
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.id(), b.id());
    EXPECT_EQ(a.UniqueTagCount(), b.UniqueTagCount());
    EXPECT_DOUBLE_EQ(a.TotalTagCount(), b.TotalTagCount());
  }
}

TEST(SageIoTest, LoadMissingDirectoryFails) {
  EXPECT_FALSE(sage::LoadDataSet("/nonexistent/gea").ok());
}

// ---------- relational round trips ----------

class RoundTripTest : public testing::Test {
 protected:
  void SetUp() override {
    sage::GeneratorConfig config;
    config.seed = 11;
    config.panels = sage::SyntheticSageGenerator::SmallPanels();
    synth_ = sage::SyntheticSageGenerator(config).Generate();
    sage::CleanAndNormalize(synth_.dataset);
    brain_ = core::EnumTable::FromDataSet(
        "brain", synth_.dataset.FilterByTissue(sage::TissueType::kBrain));
  }
  sage::SyntheticSage synth_;
  core::EnumTable brain_ =
      core::EnumTable::FromDataSet("empty", sage::SageDataSet());
};

TEST_F(RoundTripTest, SumyThroughRelAndCsv) {
  core::SumyTable sumy =
      std::move(core::Aggregate(brain_, "brain_sumy")).value();
  // SUMY -> rel -> CSV -> rel -> SUMY.
  std::string csv = rel::TableToCsv(sumy.ToRelTable());
  Result<rel::Table> table = rel::TableFromCsv("brain_sumy", csv);
  ASSERT_TRUE(table.ok());
  Result<core::SumyTable> back =
      core::SumyFromRelTable(*table, "brain_sumy");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->NumTags(), sumy.NumTags());
  for (size_t i = 0; i < sumy.NumTags(); ++i) {
    EXPECT_EQ(back->entry(i).tag, sumy.entry(i).tag);
    EXPECT_NEAR(back->entry(i).mean, sumy.entry(i).mean, 1e-4);
    EXPECT_NEAR(back->entry(i).stddev, sumy.entry(i).stddev, 1e-4);
  }
}

TEST_F(RoundTripTest, GapWithNullsThroughRel) {
  core::EnumTable cancer = brain_.FilterLibraries(
      "cancer", [](const sage::LibraryMeta& lib) {
        return lib.state == sage::NeoplasticState::kCancer;
      });
  core::EnumTable normal = brain_.FilterLibraries(
      "normal", [](const sage::LibraryMeta& lib) {
        return lib.state == sage::NeoplasticState::kNormal;
      });
  core::SumyTable s1 = std::move(core::Aggregate(cancer, "s1")).value();
  core::SumyTable s2 = std::move(core::Aggregate(normal, "s2")).value();
  core::GapTable gap = std::move(core::Diff(s1, s2, "gap")).value();

  Result<core::GapTable> back =
      core::GapFromRelTable(gap.ToRelTable(), "gap");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->NumTags(), gap.NumTags());
  size_t nulls = 0;
  for (size_t i = 0; i < gap.NumTags(); ++i) {
    const core::GapEntry& a = gap.entry(i);
    const core::GapEntry& b = back->entry(i);
    EXPECT_EQ(a.tag, b.tag);
    ASSERT_EQ(a.gaps.size(), b.gaps.size());
    EXPECT_EQ(a.gaps[0].has_value(), b.gaps[0].has_value());
    if (a.gaps[0].has_value()) {
      EXPECT_NEAR(*a.gaps[0], *b.gaps[0], 1e-4);
    } else {
      ++nulls;
    }
  }
  EXPECT_GT(nulls, 0u);  // the round trip actually exercised nulls
}

TEST_F(RoundTripTest, TwoColumnGapThroughRel) {
  std::vector<core::GapEntry> entries = {{1, {1.5, std::nullopt}},
                                         {2, {std::nullopt, -2.0}}};
  core::GapTable gap = std::move(core::GapTable::Create(
                                     "g", {"GapA", "GapB"},
                                     std::move(entries)))
                           .value();
  Result<core::GapTable> back = core::GapFromRelTable(gap.ToRelTable(), "g");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->gap_columns(),
            (std::vector<std::string>{"GapA", "GapB"}));
  EXPECT_DOUBLE_EQ(*back->Gap(1, 0), 1.5);
  EXPECT_FALSE(back->Gap(1, 1).has_value());
}

TEST_F(RoundTripTest, EnumThroughRelTables) {
  Result<core::EnumTable> back = core::EnumFromRelTables(
      brain_.ToRelTable(), core::EnumLibrariesToRelTable(brain_, "libs"),
      "brain");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->NumLibraries(), brain_.NumLibraries());
  ASSERT_EQ(back->NumTags(), brain_.NumTags());
  for (size_t row = 0; row < brain_.NumLibraries(); ++row) {
    EXPECT_EQ(back->library(row).id, brain_.library(row).id);
    EXPECT_EQ(back->library(row).state, brain_.library(row).state);
    for (size_t col = 0; col < brain_.NumTags(); col += 97) {
      EXPECT_NEAR(back->ValueAt(row, col), brain_.ValueAt(row, col), 1e-4);
    }
  }
}

TEST_F(RoundTripTest, ReadersRejectWrongSchemas) {
  rel::Table wrong("w", rel::Schema({{"TagNo", rel::ValueType::kString}}));
  EXPECT_FALSE(core::SumyFromRelTable(wrong, "s").ok());
  EXPECT_FALSE(core::GapFromRelTable(wrong, "g").ok());
  rel::Table no_gaps("g", rel::Schema({{"TagName", rel::ValueType::kString},
                                       {"TagNo", rel::ValueType::kInt}}));
  EXPECT_FALSE(core::GapFromRelTable(no_gaps, "g").ok());
}

// ---------- lineage export/import ----------

TEST(LineagePersistTest, ExportImportRoundTrip) {
  lineage::LineageGraph graph;
  auto root = *graph.AddNode("SAGE", lineage::NodeKind::kDataSet, "load",
                             {{"libraries", "24"}}, {});
  auto fas = *graph.AddNode("brain25k_1", lineage::NodeKind::kFascicle,
                            "fascicles", {{"k", "150"}}, {root});
  auto sumy = *graph.AddNode("brain25k_1_SUMY", lineage::NodeKind::kSumy,
                             "aggregate", {}, {fas});
  ASSERT_TRUE(graph.SetComment(fas, "interesting").ok());
  ASSERT_TRUE(graph.DeleteContents(sumy).ok());

  lineage::LineageGraph::RelExport exported = graph.Export();
  Result<lineage::LineageGraph> back = lineage::LineageGraph::Import(
      exported.nodes, exported.params, exported.edges);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->NumNodes(), 3u);
  auto fas2 = *back->FindByName("brain25k_1");
  const lineage::LineageGraph::Node* node = *back->GetNode(fas2);
  EXPECT_EQ(node->comment, "interesting");
  EXPECT_EQ(node->parameters.at("k"), "150");
  EXPECT_EQ(node->parents.size(), 1u);
  EXPECT_EQ(node->children.size(), 1u);
  const lineage::LineageGraph::Node* sumy_node =
      *back->GetNode(*back->FindByName("brain25k_1_SUMY"));
  EXPECT_FALSE(sumy_node->has_contents);
  // Fresh ids continue after the imported maximum.
  Result<lineage::LineageGraph::NodeId> fresh = back->AddNode(
      "new", lineage::NodeKind::kGap, "diff", {}, {});
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, sumy);
}

TEST(LineagePersistTest, ImportRejectsCorruptTables) {
  lineage::LineageGraph graph;
  (void)*graph.AddNode("a", lineage::NodeKind::kDataSet, "load", {}, {});
  lineage::LineageGraph::RelExport exported = graph.Export();
  // Edge referencing an unknown node.
  exported.edges.AppendRowUnchecked(
      {rel::Value::Int(99), rel::Value::Int(1)});
  EXPECT_FALSE(lineage::LineageGraph::Import(exported.nodes,
                                             exported.params,
                                             exported.edges)
                   .ok());
}

// ---------- session save/load ----------

TEST(SessionPersistTest, SaveAndLoadDatabase) {
  using workbench::AccessLevel;
  using workbench::AnalysisSession;

  AnalysisSession session("admin", "secret");
  ASSERT_TRUE(
      session.Login("admin", "secret", AccessLevel::kAdministrator).ok());
  ASSERT_TRUE(session.LoadDataSet(support::Panel()).ok());
  ASSERT_TRUE(session.CreateTissueDataSet(sage::TissueType::kBrain).ok());
  ASSERT_TRUE(session.GenerateMetadata("brain", 25.0, "meta").ok());
  Result<std::vector<std::string>> fascicles = session.CalculateFascicles(
      "brain", "meta", 150, 6, 3, "brain25k");
  ASSERT_TRUE(fascicles.ok());
  ASSERT_FALSE(fascicles->empty());
  const std::string fas = fascicles->front();
  Result<AnalysisSession::ControlGroups> groups =
      session.FormControlGroups("brain", fas);
  ASSERT_TRUE(groups.ok());
  ASSERT_TRUE(session
                  .CreateGap(groups->fascicle_sumy, groups->opposite_sumy,
                             "brain_gap")
                  .ok());
  ASSERT_TRUE(session.CommentOn(fas, "saved comment").ok());

  std::string dir = FreshDir("session");
  ASSERT_TRUE(session.SaveDatabase(dir).ok());

  // A brand-new session loads everything back.
  AnalysisSession restored("admin", "secret");
  ASSERT_TRUE(
      restored.Login("admin", "secret", AccessLevel::kAdministrator).ok());
  ASSERT_TRUE(restored.LoadDatabase(dir).ok());

  EXPECT_EQ(restored.TableNames(), session.TableNames());
  Result<const core::EnumTable*> brain = restored.GetEnum("brain");
  ASSERT_TRUE(brain.ok());
  EXPECT_EQ((*brain)->NumLibraries(), 12u);
  Result<const core::GapTable*> gap = restored.GetGap("brain_gap");
  ASSERT_TRUE(gap.ok());
  Result<const core::GapTable*> original = session.GetGap("brain_gap");
  EXPECT_EQ((*gap)->NumTags(), (*original)->NumTags());

  // Lineage survived, including the comment and the derivation chain.
  Result<lineage::LineageGraph::NodeId> node =
      restored.Lineage().FindByName(fas);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ((*restored.Lineage().GetNode(*node))->comment, "saved comment");
  Result<lineage::LineageGraph::NodeId> gap_node =
      restored.Lineage().FindByName("brain_gap");
  ASSERT_TRUE(gap_node.ok());
  EXPECT_EQ((*restored.Lineage().GetNode(*gap_node))->parents.size(), 2u);

  // The data set itself round-tripped.
  Result<const sage::SageDataSet*> data = restored.DataSet();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)->NumLibraries(), support::Panel().NumLibraries());

  // And the restored session keeps working: re-run a downstream step.
  Result<std::string> top = restored.CalculateTopGap("brain_gap", 10);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_TRUE(restored.GetGap(*top).ok());
}

TEST(SessionPersistTest, SaveSkipsComputedStatViewsButKeepsStoredRelations) {
  using workbench::AccessLevel;
  using workbench::AnalysisSession;

  AnalysisSession session("admin", "secret");
  ASSERT_TRUE(
      session.Login("admin", "secret", AccessLevel::kAdministrator).ok());
  ASSERT_TRUE(session.LoadDataSet(support::Panel()).ok());
  // Touch a stat view so it is definitely live in the catalog.
  ASSERT_TRUE(session.Query("SELECT name FROM gea_stat_counters").ok());

  std::string dir = FreshDir("statview_skip");
  ASSERT_TRUE(session.SaveDatabase(dir).ok());

  // The stored auxiliary relations are persisted...
  EXPECT_TRUE(fs::exists(dir + "/relations/Libraries.csv"));
  EXPECT_TRUE(fs::exists(dir + "/relations/Typeinfo.csv"));
  // ...but the computed telemetry views must never be: persisting one
  // would freeze a counter sample and shadow the live view on reload.
  for (const auto& entry : fs::directory_iterator(dir + "/relations")) {
    EXPECT_EQ(entry.path().filename().string().rfind("gea_stat", 0),
              std::string::npos)
        << "computed view persisted: " << entry.path();
  }

  AnalysisSession restored("admin", "secret");
  ASSERT_TRUE(
      restored.Login("admin", "secret", AccessLevel::kAdministrator).ok());
  ASSERT_TRUE(restored.LoadDatabase(dir).ok());

  // Stored relations round-tripped and are queryable.
  Result<rel::Table> libs =
      restored.Query("SELECT Lib_ID, Lib_Name FROM Libraries");
  ASSERT_TRUE(libs.ok()) << libs.status().ToString();
  EXPECT_EQ(libs->NumRows(), support::Panel().NumLibraries());
  // The stat views are still computed (live), not frozen table data.
  Result<rel::Table> counters =
      restored.Query("SELECT name, value FROM gea_stat_counters");
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
}

TEST(SessionPersistTest, LoadRejectsMalformedManifest) {
  using workbench::AccessLevel;
  using workbench::AnalysisSession;

  AnalysisSession session("admin", "secret");
  ASSERT_TRUE(
      session.Login("admin", "secret", AccessLevel::kAdministrator).ok());
  std::string dir = FreshDir("bad_manifest");
  ASSERT_TRUE(session.SaveDatabase(dir).ok());

  // Corrupt the manifest: a row with the wrong shape must be rejected
  // with a clean error, not crash the loader.
  {
    std::ofstream out(dir + "/manifest.csv",
                      std::ios::binary | std::ios::trunc);
    out << "Name:string,Kind:string,Extra:int\na,enum,1\n";
  }
  AnalysisSession restored("admin", "secret");
  ASSERT_TRUE(
      restored.Login("admin", "secret", AccessLevel::kAdministrator).ok());
  EXPECT_FALSE(restored.LoadDatabase(dir).ok());
}

TEST(SessionPersistTest, SaveRequiresLogin) {
  workbench::AnalysisSession session("admin", "secret");
  EXPECT_TRUE(session.SaveDatabase(FreshDir("nologin")).IsPermissionDenied());
}

TEST(SessionPersistTest, LoadFromMissingDirectoryFails) {
  workbench::AnalysisSession session("admin", "secret");
  ASSERT_TRUE(session
                  .Login("admin", "secret",
                         workbench::AccessLevel::kAdministrator)
                  .ok());
  EXPECT_FALSE(session.LoadDatabase("/nonexistent/gea_db").ok());
}

// ---------- the corpus through whole-catalog reinstalls ----------

using support::AdminSession;
using support::Command;
using support::Fingerprint;
using support::Reference;
using support::SameCatalog;
using workbench::AnalysisSession;

using Reinstall = std::function<std::unique_ptr<AnalysisSession>(
    const AnalysisSession& live)>;

/// Runs a logged corpus on a direct session that, at every checkpoint
/// step and once more at the end, is swapped for a fresh session
/// `reinstall` builds from it. Every copy must hold its original's
/// catalog, every step must answer as the reference did, and the last
/// copy must hold the reference's final catalog: a reinstalled catalog
/// behaves like the one it came from.
void RunThroughReinstalls(uint64_t seed, const Reinstall& reinstall) {
  const Reference reference(seed, support::Scope::kLogged);
  const std::vector<Command>& corpus = reference.corpus();
  std::unique_ptr<AnalysisSession> session = AdminSession();
  auto swap = [&](size_t step) {
    std::unique_ptr<AnalysisSession> copy = reinstall(*session);
    EXPECT_TRUE(SameCatalog(Fingerprint(*copy), Fingerprint(*session)))
        << "reinstalled before step " << step;
    session = std::move(copy);
  };
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (corpus[i].op == "checkpoint") swap(i);
    EXPECT_EQ(support::RunStep(*session, corpus[i]), reference.steps()[i])
        << "step " << i << ": " << support::Describe(corpus[i]);
  }
  swap(corpus.size());
  EXPECT_TRUE(SameCatalog(Fingerprint(*session),
                          reference.FingerprintAt(corpus.size())));
}

class ReinstallCorpusTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ReinstallCorpusTest, SaveDatabaseThenLoadDatabase) {
  RunThroughReinstalls(GetParam(), [](const AnalysisSession& live) {
    const std::string dir = FreshDir("saved");
    Status saved = live.SaveDatabase(dir);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    std::unique_ptr<AnalysisSession> copy = AdminSession();
    Status loaded = copy->LoadDatabase(dir);
    EXPECT_TRUE(loaded.ok()) << loaded.ToString();
    return copy;
  });
}

TEST_P(ReinstallCorpusTest, ApplySnapshotBlob) {
  RunThroughReinstalls(GetParam(), [](const AnalysisSession& live) {
    std::unique_ptr<AnalysisSession> copy = AdminSession();
    Status applied = copy->ApplySnapshotBlob(live.ExportSnapshotBlob());
    EXPECT_TRUE(applied.ok()) << applied.ToString();
    return copy;
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReinstallCorpusTest,
                         testing::ValuesIn(support::kCorpusSeeds));

// The sweep over more seeds; CI runs it with
// --gtest_also_run_disabled_tests.
INSTANTIATE_TEST_SUITE_P(DISABLED_Sweep, ReinstallCorpusTest,
                         testing::Range<uint64_t>(4, 40));

// ---------- what the ctest seeds cover ----------

/// Labels for what each step of a corpus exercised, from its command and
/// the reference's answer: "<op>" for a successful op under its logged
/// name, plus the edge cases.
std::set<std::string> Coverage(support::Scope scope) {
  std::set<std::string> seen;
  for (uint64_t seed : support::kCorpusSeeds) {
    const Reference reference(seed, scope);
    const std::vector<Command>& corpus = reference.corpus();
    for (size_t i = 0; i < corpus.size(); ++i) {
      const Command& command = corpus[i];
      const StatusCode code = reference.steps()[i].code;
      auto param = [&](const std::string& key) {
        auto it = command.params.find(key);
        return it == command.params.end() ? std::string("absent")
                                          : it->second;
      };
      if (code == StatusCode::kAlreadyExists) seen.insert("taken name");
      if (code == StatusCode::kNotFound) seen.insert("unknown input");
      if (command.op == "top_gap" && param("x") == "0" &&
          code == StatusCode::kInvalidArgument) {
        seen.insert("x=0");
      }
      if (code != StatusCode::kOk) continue;
      const std::string& op = command.op;
      seen.insert(op == "mine" ? "fascicles" : op == "diff" ? "create_gap" : op);
      if (param("replace") == "1") seen.insert("replace on");
      if (command.params.count("replace") && param("replace") != "1") {
        seen.insert("replace off");
      }
      if (op == "custom_dataset" &&
          param(command.params.count("ids") ? "ids" : "libs").empty()) {
        seen.insert("empty id list");
      }
      if (op == "mine" || op == "fascicles") {
        seen.insert(param("algorithm") == "0" ? "exact" : "greedy");
      }
      if (op == "top_gap") {
        seen.insert("mode " + (param("mode") == "absent" ? std::string("0")
                                                          : param("mode")));
      }
      if (op == "delete_table") {
        seen.insert(param("cascade") == "1" ? "cascade delete"
                                            : "plain delete");
      }
      if (op == "initialize" && i + 1 < corpus.size() &&
          corpus[i + 1].op == "load_dataset" &&
          reference.steps()[i + 1].code == StatusCode::kOk) {
        seen.insert("initialize then reload");
      }
    }
    // A top gap over a gap with nulls: a shard's candidates can then be
    // all null.
    const AnalysisSession& session = reference.session();
    const std::vector<std::string> names = session.TableNames();
    for (const std::string& name : names) {
      Result<const core::GapTable*> gap = session.GetGap(name);
      if (!gap.ok()) continue;
      const std::vector<uint8_t>& valid = (*gap)->column_valid(0);
      const bool nulls =
          std::find(valid.begin(), valid.end(), 0) != valid.end();
      for (const std::string& other : names) {
        if (nulls && other.rfind(name + "_", 0) == 0) {
          seen.insert("top gap over nulls");
        }
      }
    }
  }
  return seen;
}

TEST(CorpusTest, SeedsCoverEveryLoggedKindAndEdgeCase) {
  const std::set<std::string> seen = Coverage(support::Scope::kLogged);
  for (const char* want :
       {// every kind the WAL logs, plus the checkpoint
        "load_dataset", "tissue_dataset", "custom_dataset",
        "generate_metadata", "fascicles", "control_groups", "aggregate",
        "populate", "create_gap", "top_gap", "compare_gaps", "gap_query",
        "comment", "delete_table", "initialize", "checkpoint",
        // the edge cases
        "empty id list", "replace on", "replace off", "greedy", "exact",
        "mode 0", "mode 1", "mode 2", "cascade delete", "plain delete",
        "initialize then reload", "taken name", "unknown input", "x=0"}) {
    EXPECT_TRUE(seen.count(want)) << want;
  }
}

TEST(CorpusTest, SeedsCoverTheServedAndPerTagVocabularies) {
  const std::set<std::string> served = Coverage(support::Scope::kServed);
  for (const char* want :
       {"tissue_dataset", "custom_dataset", "generate_metadata", "fascicles",
        "aggregate", "populate", "create_gap", "top_gap", "compare_gaps",
        "gap_query", "checkpoint", "taken name", "unknown input", "x=0"}) {
    EXPECT_TRUE(served.count(want)) << "served: " << want;
  }
  const std::set<std::string> per_tag = Coverage(support::Scope::kPerTag);
  for (const char* want :
       {"tissue_dataset", "custom_dataset", "generate_metadata", "aggregate",
        "create_gap", "top_gap", "compare_gaps", "gap_query", "mode 0",
        "mode 1", "mode 2", "top gap over nulls", "taken name",
        "unknown input", "x=0"}) {
    EXPECT_TRUE(per_tag.count(want)) << "per-tag: " << want;
  }
  for (const char* excluded : {"fascicles", "populate", "checkpoint",
                               "control_groups", "comment", "delete_table",
                               "initialize"}) {
    EXPECT_FALSE(per_tag.count(excluded)) << "per-tag: " << excluded;
  }
}

}  // namespace
}  // namespace gea
