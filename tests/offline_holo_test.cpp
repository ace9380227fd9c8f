// Tests for the offline "full cleaning" comparator, the HoloClean-style
// simulator, and the accuracy metrics.

#include <gtest/gtest.h>

#include <algorithm>

#include "cell_test_util.h"
#include "datagen/metrics.h"
#include "datagen/realworld.h"
#include "detect/fd_delta.h"
#include "holo/holoclean_sim.h"
#include "offline/offline_cleaner.h"
#include "repair/fd_repair.h"
#include "repair_oracle.h"

namespace daisy {
namespace {

Schema CitySchema() {
  return Schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
}

Table CitiesTable() {
  Table t("cities", CitySchema());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("New York")}).ok());
  return t;
}

// -------------------------------------------------------- OfflineCleaner --

TEST(OfflineCleanerTest, RepairsAllGroupsWithPerGroupPasses) {
  Database db;
  ASSERT_TRUE(db.AddTable(CitiesTable()).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  OfflineCleaner cleaner(&db, &rules);
  auto stats = cleaner.CleanAll().ValueOrDie();
  EXPECT_EQ(stats.violating_groups, 2u);
  EXPECT_EQ(stats.tuples_repaired, 5u);
  // One detection pass + one pass per violating group.
  EXPECT_EQ(stats.dataset_passes, 3u);
  const Table* t = db.GetTable("cities").ValueOrDie();
  EXPECT_GT(t->CountProbabilisticCells(), 0u);
  EXPECT_NE(cleaner.provenance("cities"), nullptr);
}

TEST(OfflineCleanerTest, RecordsEqualEngineRepairOfAllRows) {
  // The offline baseline writes the records cleanσ and CleanAll write:
  // RepairFdViolations over every live row, record for record.
  AirQualityConfig config;
  config.num_rows = 3000;
  config.violating_group_fraction = 0.5;
  GeneratedData data = GenerateAirQuality(config);
  const std::string fd_text = "phi: FD state_code, county_code -> county_name";
  Table engine_t = data.dirty;
  Database db;
  ASSERT_TRUE(db.AddTable(std::move(data.dirty)).ok());
  const Table* offline_t = db.GetTable(engine_t.name()).ValueOrDie();
  ConstraintSet rules;
  ASSERT_TRUE(
      rules.AddFromText(fd_text, engine_t.name(), engine_t.schema()).ok());
  OfflineCleaner cleaner(&db, &rules);
  const OfflineCleanStats stats = cleaner.CleanRule("phi").ValueOrDie();

  const FdDeltaDetector index(&engine_t, &rules.at(0));
  ProvenanceStore engine_prov;
  const RepairStats repaired =
      RepairFdViolations(&engine_t, index, engine_t.AllRowIds(), &engine_prov);
  EXPECT_GT(repaired.tuples_repaired, 0u);
  EXPECT_EQ(stats.tuples_repaired, repaired.tuples_repaired);
  EXPECT_EQ(stats.violating_groups, repaired.violating_groups);
  EXPECT_TRUE(
      testutil::SameRecords(*cleaner.provenance(engine_t.name()), engine_prov));
  for (RowId r = 0; r < engine_t.num_rows(); ++r) {
    for (size_t c = 0; c < engine_t.num_columns(); ++c) {
      ASSERT_EQ(offline_t->cell(r, c), engine_t.cell(r, c))
          << "row " << r << " col " << c;
    }
  }
}

TEST(OfflineCleanerTest, DatasetPassesScaleWithGroups) {
  // The O(groups * n) repair profile that Daisy's relaxation avoids.
  auto make_db = [](size_t groups) {
    Database db;
    Table t("cities", CitySchema());
    for (size_t g = 0; g < groups; ++g) {
      EXPECT_TRUE(t.AppendRow({Value(static_cast<int64_t>(g)),
                               Value("a" + std::to_string(g))})
                      .ok());
      EXPECT_TRUE(t.AppendRow({Value(static_cast<int64_t>(g)),
                               Value("b" + std::to_string(g))})
                      .ok());
    }
    EXPECT_TRUE(db.AddTable(std::move(t)).ok());
    return db;
  };
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  Database small = make_db(3);
  Database large = make_db(12);
  OfflineCleaner c1(&small, &rules), c2(&large, &rules);
  EXPECT_LT(c1.CleanAll().ValueOrDie().dataset_passes,
            c2.CleanAll().ValueOrDie().dataset_passes);
}

TEST(OfflineCleanerTest, CleanRuleByName) {
  Database db;
  ASSERT_TRUE(db.AddTable(CitiesTable()).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  OfflineCleaner cleaner(&db, &rules);
  EXPECT_TRUE(cleaner.CleanRule("phi").ok());
  EXPECT_FALSE(cleaner.CleanRule("nope").ok());
}

TEST(OfflineCleanerTest, GeneralDcPath) {
  Database db;
  Table t("emp", Schema({{"salary", ValueType::kDouble},
                         {"tax", ValueType::kDouble}}));
  ASSERT_TRUE(t.AppendRow({Value(3000.0), Value(0.2)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2000.0), Value(0.3)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules
                  .AddFromText("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                               "emp", db.GetTable("emp").ValueOrDie()->schema())
                  .ok());
  OfflineCleaner cleaner(&db, &rules);
  auto stats = cleaner.CleanAll().ValueOrDie();
  EXPECT_EQ(stats.tuples_repaired, 1u);  // one violating pair
  EXPECT_GT(stats.pairs_checked, 0u);
  EXPECT_TRUE(
      db.GetTable("emp").ValueOrDie()->cell(0, 0).is_probabilistic());
}

// ---------------------------------------------------------- HoloCleanSim --

TEST(HoloCleanSimTest, DomainsCoverTruthOnHospital) {
  HospitalConfig config;
  config.num_rows = 300;
  config.num_hospitals = 20;
  config.cell_error_rate = 0.05;
  GeneratedData data = GenerateHospital(config);
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi1: FD zip -> city", "hospital",
                                data.dirty.schema())
                  .ok());
  HoloCleanSim sim(&data.dirty, &rules, HoloOptions{0.2, 8});
  auto repairs = sim.Run().ValueOrDie();
  EXPECT_GT(repairs.size(), 0u);
  EXPECT_GT(sim.stats().dataset_passes, 0u);
  // For most dirty cells the true value should be inside the generated
  // domain (the hospital columns are highly correlated).
  size_t covered = 0;
  for (const CellRepair& rep : repairs) {
    const Value& truth = data.truth.cell(rep.row, rep.col).original();
    if (std::find(rep.domain.begin(), rep.domain.end(), truth) !=
        rep.domain.end()) {
      ++covered;
    }
  }
  EXPECT_GT(covered * 2, repairs.size());  // > 50%
}

TEST(HoloCleanSimTest, InferWithExternalDomains) {
  Table t = CitiesTable();
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  HoloCleanSim sim(&t, &rules, HoloOptions{});
  std::vector<std::pair<std::pair<RowId, size_t>, std::vector<Value>>> domains{
      {{1, 1}, {Value("Los Angeles"), Value("San Francisco")}}};
  auto repairs = sim.InferWithDomains(domains).ValueOrDie();
  ASSERT_EQ(repairs.size(), 1u);
  // Majority co-occurrence with zip 9001 favours Los Angeles.
  EXPECT_EQ(repairs[0].chosen, Value("Los Angeles"));

  // Out-of-range cells rejected.
  domains[0].first = {99, 1};
  EXPECT_FALSE(sim.InferWithDomains(domains).ok());
}

// ----------------------------------------------------------------- Metrics --

TEST(MetricsTest, TableRepairScoring) {
  Table truth("t", CitySchema());
  ASSERT_TRUE(truth.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(truth.AppendRow({Value(1), Value("a")}).ok());
  Table repaired("t", CitySchema());
  ASSERT_TRUE(repaired.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(repaired.AppendRow({Value(1), Value("b")}).ok());  // error
  // Repair row 1's city towards "a" (correct) with probability 0.7.
  testutil::AddCandidate(&repaired.mutable_cell(1, 1),
                         {Value("a"), 0.7, 0, CandidateKind::kPoint});
  testutil::AddCandidate(&repaired.mutable_cell(1, 1),
                         {Value("b"), 0.3, 0, CandidateKind::kPoint});
  auto m = EvaluateTableRepairs(repaired, truth).ValueOrDie();
  EXPECT_EQ(m.total_errors, 1u);
  EXPECT_EQ(m.total_updates, 1u);
  EXPECT_EQ(m.correct_updates, 1u);
  EXPECT_DOUBLE_EQ(m.precision(), 1.0);
  EXPECT_DOUBLE_EQ(m.recall(), 1.0);
  EXPECT_DOUBLE_EQ(m.f1(), 1.0);
}

TEST(MetricsTest, WrongUpdateHurtsPrecision) {
  Table truth("t", CitySchema());
  ASSERT_TRUE(truth.AppendRow({Value(1), Value("a")}).ok());
  Table repaired("t", CitySchema());
  ASSERT_TRUE(repaired.AppendRow({Value(1), Value("a")}).ok());
  // A clean cell wrongly "repaired" to z.
  testutil::AddCandidate(&repaired.mutable_cell(0, 1),
                         {Value("z"), 1.0, 0, CandidateKind::kPoint});
  auto m = EvaluateTableRepairs(repaired, truth).ValueOrDie();
  EXPECT_EQ(m.total_updates, 1u);
  EXPECT_EQ(m.correct_updates, 0u);
  EXPECT_DOUBLE_EQ(m.precision(), 0.0);
  EXPECT_EQ(m.total_errors, 0u);
  EXPECT_DOUBLE_EQ(m.recall(), 1.0);  // vacuous
  EXPECT_DOUBLE_EQ(m.f1(), 0.0);
}

TEST(MetricsTest, CellRepairListScoring) {
  Table truth("t", CitySchema());
  ASSERT_TRUE(truth.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(truth.AppendRow({Value(2), Value("b")}).ok());
  Table dirty("t", CitySchema());
  ASSERT_TRUE(dirty.AppendRow({Value(1), Value("x")}).ok());  // error
  ASSERT_TRUE(dirty.AppendRow({Value(2), Value("y")}).ok());  // error
  std::vector<CellRepair> repairs;
  repairs.push_back({0, 1, Value("a"), {}});  // corrects
  repairs.push_back({1, 1, Value("z"), {}});  // wrong update
  auto m = EvaluateCellRepairs(dirty, truth, repairs).ValueOrDie();
  EXPECT_EQ(m.total_errors, 2u);
  EXPECT_EQ(m.total_updates, 2u);
  EXPECT_EQ(m.correct_updates, 1u);
  EXPECT_EQ(m.corrected_errors, 1u);
  EXPECT_DOUBLE_EQ(m.precision(), 0.5);
  EXPECT_DOUBLE_EQ(m.recall(), 0.5);
}

TEST(MetricsTest, ShapeMismatchRejected) {
  Table a("a", CitySchema());
  Table b("b", Schema({{"x", ValueType::kInt}}));
  EXPECT_FALSE(EvaluateTableRepairs(a, b).ok());
}

}  // namespace
}  // namespace daisy
