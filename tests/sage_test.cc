// Tests for SageLibrary, SageDataSet and the relational stat builders,
// the rotated TAGS relation (Section 4.6.1) among them.

#include <gtest/gtest.h>

#include "rel/ops.h"
#include "sage/dataset.h"
#include "sage/library.h"
#include "sage/stats.h"

namespace gea::sage {
namespace {

SageLibrary MakeLib(int id, const std::string& name, TissueType tissue,
                    NeoplasticState state,
                    std::vector<std::pair<TagId, double>> counts,
                    TissueSource source = TissueSource::kBulkTissue) {
  SageLibrary lib(id, name, tissue, state, source);
  for (const auto& [tag, count] : counts) lib.SetCount(tag, count);
  return lib;
}

// ---------- SageLibrary ----------

TEST(LibraryTest, CountsAndTotals) {
  SageLibrary lib = MakeLib(1, "L1", TissueType::kBrain,
                            NeoplasticState::kNormal,
                            {{10, 5.0}, {20, 3.0}, {5, 2.0}});
  EXPECT_DOUBLE_EQ(lib.Count(10), 5.0);
  EXPECT_DOUBLE_EQ(lib.Count(999), 0.0);
  EXPECT_EQ(lib.UniqueTagCount(), 3u);
  EXPECT_DOUBLE_EQ(lib.TotalTagCount(), 10.0);
}

TEST(LibraryTest, EntriesStaySortedByTag) {
  SageLibrary lib = MakeLib(1, "L1", TissueType::kBrain,
                            NeoplasticState::kNormal,
                            {{30, 1.0}, {10, 1.0}, {20, 1.0}});
  ASSERT_EQ(lib.entries().size(), 3u);
  EXPECT_EQ(lib.entries()[0].tag, 10u);
  EXPECT_EQ(lib.entries()[1].tag, 20u);
  EXPECT_EQ(lib.entries()[2].tag, 30u);
}

TEST(LibraryTest, SetCountZeroErases) {
  SageLibrary lib = MakeLib(1, "L1", TissueType::kBrain,
                            NeoplasticState::kNormal, {{10, 5.0}});
  lib.SetCount(10, 0.0);
  EXPECT_EQ(lib.UniqueTagCount(), 0u);
}

TEST(LibraryTest, AddCountCreatesAndAccumulates) {
  SageLibrary lib(1, "L1", TissueType::kBrain, NeoplasticState::kNormal,
                  TissueSource::kCellLine);
  lib.AddCount(7, 2.0);
  lib.AddCount(7, 3.0);
  EXPECT_DOUBLE_EQ(lib.Count(7), 5.0);
  lib.AddCount(7, -5.0);
  EXPECT_EQ(lib.UniqueTagCount(), 0u);
}

TEST(LibraryTest, EraseReportsPresence) {
  SageLibrary lib = MakeLib(1, "L1", TissueType::kBrain,
                            NeoplasticState::kNormal, {{10, 5.0}});
  EXPECT_TRUE(lib.Erase(10));
  EXPECT_FALSE(lib.Erase(10));
}

TEST(LibraryTest, ScaleMultipliesAllCounts) {
  SageLibrary lib = MakeLib(1, "L1", TissueType::kBrain,
                            NeoplasticState::kNormal,
                            {{10, 5.0}, {20, 3.0}});
  lib.Scale(2.0);
  EXPECT_DOUBLE_EQ(lib.Count(10), 10.0);
  EXPECT_DOUBLE_EQ(lib.TotalTagCount(), 16.0);
}

TEST(LibraryTest, EnumNames) {
  EXPECT_STREQ(TissueTypeName(TissueType::kBrain), "brain");
  EXPECT_STREQ(NeoplasticStateName(NeoplasticState::kCancer), "cancer");
  EXPECT_STREQ(TissueSourceName(TissueSource::kCellLine), "cell_line");
  EXPECT_EQ(AllTissueTypes().size(), 9u);
  ASSERT_TRUE(ParseTissueType("kidney").ok());
  EXPECT_EQ(*ParseTissueType("kidney"), TissueType::kKidney);
  EXPECT_FALSE(ParseTissueType("liver").ok());
}

// ---------- SageDataSet ----------

SageDataSet TwoTissueData() {
  SageDataSet data;
  data.AddLibrary(MakeLib(1, "brain_c1", TissueType::kBrain,
                          NeoplasticState::kCancer, {{10, 4.0}, {20, 1.0}}));
  data.AddLibrary(MakeLib(2, "brain_n1", TissueType::kBrain,
                          NeoplasticState::kNormal, {{10, 2.0}, {30, 5.0}}));
  data.AddLibrary(MakeLib(3, "breast_c1", TissueType::kBreast,
                          NeoplasticState::kCancer, {{40, 9.0}}));
  return data;
}

TEST(DataSetTest, FindByIdAndName) {
  SageDataSet data = TwoTissueData();
  ASSERT_TRUE(data.FindById(2).ok());
  EXPECT_EQ((*data.FindById(2))->name(), "brain_n1");
  ASSERT_TRUE(data.FindByName("breast_c1").ok());
  EXPECT_TRUE(data.FindById(99).status().IsNotFound());
  EXPECT_TRUE(data.FindByName("nope").status().IsNotFound());
}

TEST(DataSetTest, TagUniverseIsSortedUnion) {
  SageDataSet data = TwoTissueData();
  EXPECT_EQ(data.TagUniverse(), (std::vector<TagId>{10, 20, 30, 40}));
  EXPECT_EQ(data.UniverseSize(), 4u);
}

TEST(DataSetTest, Filters) {
  SageDataSet data = TwoTissueData();
  EXPECT_EQ(data.FilterByTissue(TissueType::kBrain).NumLibraries(), 2u);
  EXPECT_EQ(data.FilterByState(NeoplasticState::kCancer).NumLibraries(), 2u);
}

TEST(DataSetTest, SelectAndExcludeIds) {
  SageDataSet data = TwoTissueData();
  Result<SageDataSet> selected = data.SelectByIds({3, 1});
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->NumLibraries(), 2u);
  EXPECT_EQ(selected->library(0).id(), 3);  // requested order
  EXPECT_TRUE(data.SelectByIds({99}).status().IsNotFound());
  EXPECT_TRUE(data.SelectByIds({1, 3, 1}).status().IsInvalidArgument());
  EXPECT_EQ(data.ExcludeIds({1, 3}).NumLibraries(), 1u);
}

// ---------- Relational stat builders (Appendix IV schemas) ----------

TEST(StatsTest, LibraryInfoTable) {
  SageDataSet data = TwoTissueData();
  rel::Table t = BuildLibraryInfoTable(data);
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.Get(0, "Lib_Name")->AsString(), "brain_c1");
  EXPECT_EQ(t.Get(0, "CAN_NOR")->AsString(), "cancer");
  EXPECT_EQ(t.Get(0, "Utag")->AsInt(), 2);
  EXPECT_DOUBLE_EQ(t.Get(0, "Tag")->AsDouble(), 5.0);
}

TEST(StatsTest, TissueTypeTableGroupsAndOrders) {
  SageDataSet data = TwoTissueData();
  rel::Table t = BuildTissueTypeTable(data);
  EXPECT_EQ(t.NumRows(), 3u);
  // brain rows come first (enum order) with LibOrder 0,1.
  EXPECT_EQ(t.Get(0, "Type")->AsString(), "brain");
  EXPECT_EQ(t.Get(1, "LibOrder")->AsInt(), 1);
  EXPECT_EQ(t.Get(2, "Type")->AsString(), "breast");
}

TEST(StatsTest, TagsTableIsRotated) {
  SageDataSet data = TwoTissueData();
  rel::Table t = BuildTagsTable(data);
  // Rows = tags, columns = TagName, TagNo + one per library.
  EXPECT_EQ(t.NumRows(), 4u);
  EXPECT_EQ(t.schema().NumColumns(), 5u);
  EXPECT_EQ(t.Get(0, "TagNo")->AsInt(), 10);
  EXPECT_DOUBLE_EQ(t.Get(0, "brain_c1")->AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(t.Get(0, "brain_n1")->AsDouble(), 2.0);
  // An absent tag reads 0 (Section 4.2), and rows ascend by tag.
  EXPECT_DOUBLE_EQ(t.Get(0, "breast_c1")->AsDouble(), 0.0);
  EXPECT_EQ(t.Get(3, "TagNo")->AsInt(), 40);
  EXPECT_DOUBLE_EQ(t.Get(3, "breast_c1")->AsDouble(), 9.0);
}

TEST(StatsTest, SageInfoTable) {
  SageDataSet data = TwoTissueData();
  rel::Table t = BuildSageInfoTable(data);
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.Get(0, "Totag")->AsInt(), 4);
  EXPECT_EQ(t.Get(0, "ToLib")->AsInt(), 3);
}

TEST(StatsTest, LibraryInfoComposesWithRelationalAlgebra) {
  // The Section 4.3.1 step-1 selection: sigma_{Type='brain'}(Libraries).
  SageDataSet data = TwoTissueData();
  rel::Table t = BuildLibraryInfoTable(data);
  Result<rel::Table> brains = rel::Select(
      t, rel::Compare("Type", rel::CompareOp::kEq, rel::Value::String("brain")),
      "brains");
  ASSERT_TRUE(brains.ok());
  EXPECT_EQ(brains->NumRows(), 2u);
}

}  // namespace
}  // namespace gea::sage
