// Tests for the cleaning core: the FD index, the cost model, the cleanσ /
// clean⋈ operators, and the DaisyEngine — including the paper's FD
// correctness guarantee (Daisy == offline) as a property test.

#include <gtest/gtest.h>

#include <algorithm>

#include "clean/daisy_engine.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "datagen/workload.h"
#include "offline/offline_cleaner.h"
#include "plan/compiled_filter.h"
#include "query/parser.h"

namespace daisy {
namespace {

Schema CitySchema() {
  return Schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
}

Table CitiesTable(const std::string& name = "cities") {
  Table t(name, CitySchema());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("New York")}).ok());
  return t;
}

// ---------------------------------------------------------------- FD index --

TEST(FdIndexTest, CountsDirtyGroups) {
  Database db;
  ASSERT_TRUE(db.AddTable(CitiesTable()).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules));
  ASSERT_TRUE(engine.Prepare().ok());
  const FdDeltaDetector* fd = engine.fd_index("phi");
  ASSERT_NE(fd, nullptr);
  const FdRuleStats s = fd->stats();
  EXPECT_EQ(s.table_rows, 5u);
  EXPECT_EQ(s.num_violating_groups, 2u);
  EXPECT_EQ(s.num_violating_rows, 5u);
  EXPECT_NEAR(s.avg_candidates, 2.0, 1e-12);
  EXPECT_EQ(fd->ViolatingGroups().size(), 2u);
  EXPECT_EQ(engine.fd_index("unknown"), nullptr);
}

TEST(FdIndexTest, RowsTouchDirtyPruning) {
  Table t("cities", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("b")}).ok());   // dirty group
  ASSERT_TRUE(t.AppendRow({Value(2), Value("c")}).ok());   // clean group
  ASSERT_TRUE(t.AppendRow({Value(3), Value("b")}).ok());   // clean, dirty rhs
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  FdDeltaDetector fd(&t, &dc);
  EXPECT_TRUE(fd.RowsTouchDirty({0}));
  EXPECT_FALSE(fd.RowsTouchDirty({2}));
  EXPECT_FALSE(fd.RowsTouchDirty({}));
  EXPECT_TRUE(fd.RowsTouchDirty({3}));  // "b" appears in group 1's conflict
}

// -------------------------------------------------------------- CostModel --

TEST(CostModelTest, AccumulatesAndSwitches) {
  CostModel model;
  EXPECT_EQ(model.cumulative_cost(), 0.0);
  QueryCostSample s;
  s.dataset_size = 1000;
  s.result_size = 20;
  s.extra_size = 10;
  s.errors = 5;
  s.candidate_width = 3.0;
  model.RecordQuery(s);
  EXPECT_GT(model.cumulative_cost(), 0.0);
  EXPECT_EQ(model.queries_recorded(), 1u);
  EXPECT_EQ(model.total_errors(), 5u);

  // With few violations the offline bound is small: repeated queries must
  // eventually cross it.
  const double offline = model.OfflineEstimate(1000, 8, 50, 3.0);
  EXPECT_GT(offline, 0.0);
  size_t queries = 1;
  while (!model.ShouldSwitchToFull(1000, 8, 50, 3.0) && queries < 1000) {
    model.RecordQuery(s);
    ++queries;
  }
  EXPECT_TRUE(model.ShouldSwitchToFull(1000, 8, 50, 3.0));
  EXPECT_LT(queries, 1000u);
}

TEST(CostModelTest, OfflineEstimateScalesWithErrors) {
  CostModel model;
  EXPECT_LT(model.OfflineEstimate(1000, 2, 10, 2.0),
            model.OfflineEstimate(1000, 50, 500, 2.0));
  EXPECT_LT(model.OfflineEstimate(1000, 2, 10, 2.0),
            model.OfflineEstimate(10000, 2, 10, 2.0));
}

TEST(CostModelTest, CumulativeIsMonotone) {
  CostModel model;
  QueryCostSample s;
  s.dataset_size = 100;
  s.result_size = 5;
  double prev = 0;
  for (int i = 0; i < 10; ++i) {
    model.RecordQuery(s);
    EXPECT_GT(model.cumulative_cost(), prev);
    prev = model.cumulative_cost();
  }
}

// ------------------------------------------------------------ CleanSelect --

TEST(CleanSelectTest, FdPathRepairsAndExtendsResult) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  ProvenanceStore prov;
  FdDeltaDetector fd(&t, &dc);
  CleanSelect op(&t, &dc, &prov, &fd, nullptr);
  // Query: zip == 9001 (Example 3). Dirty result rows 0-2.
  auto stmt = ParseQuery("SELECT city FROM cities WHERE zip = 9001")
                  .ValueOrDie();
  const CompiledFilter filter =
      CompiledFilter::Compile(t, *stmt.where).ValueOrDie();
  auto res = op.Run(&filter, {0, 1, 2}, CleaningOptions{}).ValueOrDie();
  // Row 3 now qualifies: its zip candidates include 9001... row 3's zip
  // cell candidates are {9001, 10001} from the San Francisco rhs group.
  EXPECT_TRUE(std::find(res.final_rows.begin(), res.final_rows.end(), 3u) !=
              res.final_rows.end());
  EXPECT_GE(res.final_rows.size(), 4u);  // Table 3: four qualifying tuples
  EXPECT_GT(res.errors_fixed, 0u);
  EXPECT_GT(res.extra_tuples, 0u);
}

TEST(CleanSelectTest, SecondRunIsPrunedByCheckedState) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  ProvenanceStore prov;
  FdDeltaDetector fd(&t, &dc);
  CleanSelect op(&t, &dc, &prov, &fd, nullptr);
  auto stmt = ParseQuery("SELECT city FROM cities WHERE zip = 9001")
                  .ValueOrDie();
  const CompiledFilter filter =
      CompiledFilter::Compile(t, *stmt.where).ValueOrDie();
  (void)op.Run(&filter, {0, 1, 2}, CleaningOptions{}).ValueOrDie();
  auto res = op.Run(&filter, {0, 1, 2}, CleaningOptions{}).ValueOrDie();
  EXPECT_TRUE(res.pruned);
  EXPECT_EQ(res.errors_fixed, 0u);
}

TEST(CleanSelectTest, StatisticsPruningSkipsCleanRegions) {
  Table t("cities", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("b")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("c")}).ok());
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  ProvenanceStore prov;
  FdDeltaDetector fd(&t, &dc);
  CleanSelect op(&t, &dc, &prov, &fd, nullptr);
  // Row 2 is in a clean group: pruned, no relaxation.
  auto res = op.Run(nullptr, {2}, CleaningOptions{}).ValueOrDie();
  EXPECT_TRUE(res.pruned);
  EXPECT_EQ(res.extra_tuples, 0u);
}

TEST(CleanSelectTest, CleanRemainingChecksEverything) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  ProvenanceStore prov;
  FdDeltaDetector fd(&t, &dc);
  CleanSelect op(&t, &dc, &prov, &fd, nullptr);
  EXPECT_FALSE(op.fully_checked());
  auto res = op.CleanRemaining().ValueOrDie();
  EXPECT_TRUE(op.fully_checked());
  EXPECT_EQ(res.errors_fixed, 5u);  // both groups repaired
  EXPECT_DOUBLE_EQ(op.checked_fraction(), 1.0);
}

// ------------------------------------------------------------ DaisyEngine --

DaisyEngine MakeEngine(Database* db, const std::string& rule_text,
                       DaisyOptions opts = {}) {
  ConstraintSet rules;
  const Table* t = db->GetTable("cities").ValueOrDie();
  EXPECT_TRUE(rules.AddFromText(rule_text, "cities", t->schema()).ok());
  DaisyEngine engine(db, std::move(rules), opts);
  EXPECT_TRUE(engine.Prepare().ok());
  return engine;
}

TEST(DaisyEngineTest, Example3QueryOnLhs) {
  Database db;
  ASSERT_TRUE(db.AddTable(CitiesTable()).ok());
  DaisyEngine engine = MakeEngine(&db, "phi: FD zip -> city");
  auto report =
      engine.Query("SELECT zip, city FROM cities WHERE zip = 9001")
          .ValueOrDie();
  // Table 3 of the paper: the corrected result has four tuples (rows 0-2
  // plus row 3 whose zip candidates include 9001).
  EXPECT_EQ(report.output.result.num_rows(), 4u);
  EXPECT_GT(report.errors_fixed, 0u);
  EXPECT_EQ(report.rules_applied, 1u);
}

TEST(DaisyEngineTest, StatementThatCannotBindFailsBeforeCleaning) {
  // The select list and GROUP BY bind at plan time: a statement naming a
  // missing column, or a plain item that is no GROUP BY key, repairs
  // nothing on its way to the error, so no unlogged repair is left behind.
  Database db;
  ASSERT_TRUE(db.AddTable(CitiesTable()).ok());
  DaisyEngine engine = MakeEngine(&db, "phi: FD zip -> city");
  const Table& t = *db.GetTable("cities").ValueOrDie();
  const Table before = t;
  Counter* repairs =
      MetricsRegistry::Global().GetCounter("daisy_engine_repairs_total");
  const uint64_t repairs_before = repairs->Value();
  for (const char* sql :
       {"SELECT nope FROM cities WHERE zip = 9001",
        "SELECT COUNT(*) FROM cities WHERE zip = 9001 GROUP BY nope",
        "SELECT city, COUNT(*) FROM cities WHERE zip = 9001 GROUP BY zip"}) {
    EXPECT_FALSE(engine.Query(sql).ok()) << sql;
    EXPECT_FALSE(engine.ExplainAnalyze(sql).ok()) << sql;
  }
  EXPECT_EQ(repairs->Value(), repairs_before);
  for (RowId r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_TRUE(t.cell(r, c) == before.cell(r, c)) << r << "," << c;
    }
  }
  EXPECT_FALSE(engine.RuleFullyChecked("phi").ValueOrDie());

  // The next valid query still finds and repairs the errors (Table 3).
  auto report =
      engine.Query("SELECT zip, city FROM cities WHERE zip = 9001")
          .ValueOrDie();
  EXPECT_EQ(report.output.result.num_rows(), 4u);
  EXPECT_GT(report.errors_fixed, 0u);
  EXPECT_EQ(repairs->Value(), repairs_before + report.errors_fixed);
}

TEST(DaisyEngineTest, QueryWithoutOverlapSkipsCleaning) {
  Database db;
  Table t("cities", Schema({{"zip", ValueType::kInt},
                            {"city", ValueType::kString},
                            {"pop", ValueType::kInt}}));
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a"), Value(10)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("b"), Value(20)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules
                  .AddFromText("phi: FD zip -> city", "cities",
                               db.GetTable("cities").ValueOrDie()->schema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  auto report =
      engine.Query("SELECT pop FROM cities WHERE pop > 5").ValueOrDie();
  EXPECT_EQ(report.rules_applied, 0u);
  EXPECT_EQ(report.errors_fixed, 0u);
}

TEST(DaisyEngineTest, RequiresPrepare) {
  Database db;
  ASSERT_TRUE(db.AddTable(CitiesTable()).ok());
  ConstraintSet rules;
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  EXPECT_FALSE(engine.Query("SELECT * FROM cities").ok());
}

TEST(DaisyEngineTest, CleanAllRemainingMatchesOffline) {
  // The paper's FD correctness guarantee: after Daisy has touched
  // everything, the probabilistic dataset equals the offline one.
  Database daisy_db;
  ASSERT_TRUE(daisy_db.AddTable(CitiesTable()).ok());
  DaisyEngine engine = MakeEngine(&daisy_db, "phi: FD zip -> city");
  ASSERT_TRUE(engine.CleanAllRemaining().ok());

  Database offline_db;
  ASSERT_TRUE(offline_db.AddTable(CitiesTable()).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  OfflineCleaner offline(&offline_db, &rules);
  ASSERT_TRUE(offline.CleanAll().ok());

  const Table* a = daisy_db.GetTable("cities").ValueOrDie();
  const Table* b = offline_db.GetTable("cities").ValueOrDie();
  ASSERT_EQ(a->num_rows(), b->num_rows());
  for (RowId r = 0; r < a->num_rows(); ++r) {
    for (size_t c = 0; c < a->num_columns(); ++c) {
      EXPECT_EQ(a->cell(r, c), b->cell(r, c))
          << "cell (" << r << "," << c << ") diverges";
    }
  }
}

// Property: for any FD workload that accesses the whole dataset, Daisy's
// final probabilistic dataset equals the offline cleaner's (the Section 4
// correctness claim), and each query's corrected result matches the
// offline-then-query result.
struct EquivParam {
  uint64_t seed;
  size_t rows;
  size_t zips;
  size_t cities;
  size_t queries;
};

class DaisyOfflineEquivalenceTest
    : public ::testing::TestWithParam<EquivParam> {};

TEST_P(DaisyOfflineEquivalenceTest, FdWorkloadMatchesOffline) {
  const EquivParam p = GetParam();
  Rng rng(p.seed);
  Table base("cities", CitySchema());
  for (size_t i = 0; i < p.rows; ++i) {
    ASSERT_TRUE(
        base.AppendRow(
                {Value(rng.UniformInt(0, static_cast<int64_t>(p.zips) - 1)),
                 Value("c" + std::to_string(
                                 rng.UniformInt(0, static_cast<int64_t>(p.cities) - 1)))})
            .ok());
  }

  // Daisy: incremental cleaning driven by a covering workload.
  Database daisy_db;
  {
    Table copy = base;
    ASSERT_TRUE(daisy_db.AddTable(std::move(copy)).ok());
  }
  DaisyOptions options;
  options.mode = DaisyOptions::Mode::kIncremental;
  options.accuracy_threshold = 0.5;
  options.theta_partitions = 16;
  DaisyEngine engine = MakeEngine(&daisy_db, "phi: FD zip -> city", options);
  auto queries = MakeNonOverlappingRangeQueries(
                     *daisy_db.GetTable("cities").ValueOrDie(), "zip",
                     p.queries)
                     .ValueOrDie();

  // Offline: clean everything first.
  Database offline_db;
  {
    Table copy = base;
    ASSERT_TRUE(offline_db.AddTable(std::move(copy)).ok());
  }
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                  .ok());
  OfflineCleaner offline(&offline_db, &rules);
  ASSERT_TRUE(offline.CleanAll().ok());
  QueryExecutor offline_exec(&offline_db);

  for (const std::string& sql : queries) {
    auto daisy_report = engine.Query(sql);
    ASSERT_TRUE(daisy_report.ok()) << sql << ": "
                                   << daisy_report.status().ToString();
    auto offline_out = offline_exec.Execute(sql);
    ASSERT_TRUE(offline_out.ok()) << sql;
    // Same corrected result (same row multiset — compare sorted lineage).
    auto sorted_tuples = [](const JoinedRows& rows) {
      std::vector<std::vector<RowId>> out;
      for (size_t i = 0; i < rows.size(); ++i) {
        out.emplace_back(rows[i], rows[i] + rows.width);
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(sorted_tuples(daisy_report.value().output.lineage),
              sorted_tuples(offline_out.value().lineage))
        << "result rows diverge for: " << sql;
  }

  // After the covering workload, the datasets must agree cell by cell.
  const Table* a = daisy_db.GetTable("cities").ValueOrDie();
  const Table* b = offline_db.GetTable("cities").ValueOrDie();
  for (RowId r = 0; r < a->num_rows(); ++r) {
    for (size_t c = 0; c < a->num_columns(); ++c) {
      ASSERT_EQ(a->cell(r, c), b->cell(r, c))
          << "cell (" << r << "," << c << ") diverges [seed " << p.seed << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DaisyOfflineEquivalenceTest,
    ::testing::Values(EquivParam{1, 50, 8, 5, 4}, EquivParam{2, 120, 15, 8, 6},
                      EquivParam{3, 200, 10, 10, 5},
                      EquivParam{4, 80, 4, 3, 3},
                      EquivParam{5, 300, 25, 12, 10}));

TEST(DaisyEngineTest, AdaptiveModeEventuallySwitches) {
  // A workload of many tiny queries over a dirty table: the cumulative
  // incremental cost crosses the offline bound and the engine switches.
  Rng rng(21);
  Database db;
  Table t("cities", CitySchema());
  for (int i = 0; i < 400; ++i) {
    // Unique city namespace per zip: correlated clusters stay within one
    // zip group, so relaxation cannot shortcut the whole table and the
    // cumulative incremental cost genuinely accrues per query.
    const int64_t zip = rng.UniformInt(0, 40);
    const std::string city = "c" + std::to_string(zip) +
                             (rng.Bernoulli(0.1) ? "_typo" : "");
    ASSERT_TRUE(t.AppendRow({Value(zip), Value(city)}).ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  DaisyOptions options;
  options.mode = DaisyOptions::Mode::kAdaptive;
  options.accuracy_threshold = 0.5;
  options.theta_partitions = 16;
  DaisyEngine engine = MakeEngine(&db, "phi: FD zip -> city", options);
  auto queries = MakePointQueries(*db.GetTable("cities").ValueOrDie(), "zip",
                                  60, "zip, city")
                     .ValueOrDie();
  bool switched = false;
  for (const std::string& sql : queries) {
    auto report = engine.Query(sql).ValueOrDie();
    switched |= report.switched_to_full;
  }
  EXPECT_TRUE(switched);
  EXPECT_TRUE(engine.RuleFullyChecked("phi").ValueOrDie());
}

TEST(DaisyEngineTest, DcQueryAccuracyFallback) {
  // 40% perturbed: predicted accuracy is poor, so the engine should clean
  // the whole matrix on the first query (Fig. 10's 20% case behaviour).
  Rng rng(31);
  Database db;
  Table t("cities", Schema({{"salary", ValueType::kDouble},
                            {"tax", ValueType::kDouble}}));
  for (int i = 0; i < 200; ++i) {
    const double salary = rng.UniformDouble(1000, 100000);
    double tax = salary / 200000.0;
    if (rng.Bernoulli(0.4)) tax += rng.UniformDouble(0.2, 0.6);
    ASSERT_TRUE(t.AppendRow({Value(salary), Value(tax)}).ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules
                  .AddFromText("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                               "cities",
                               db.GetTable("cities").ValueOrDie()->schema())
                  .ok());
  DaisyOptions options;
  options.mode = DaisyOptions::Mode::kIncremental;
  options.accuracy_threshold = 0.9;
  options.theta_partitions = 8;
  DaisyEngine engine(&db, std::move(rules), options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto report = engine.Query(
                          "SELECT salary, tax FROM cities WHERE "
                          "salary >= 20000 AND salary <= 40000")
                    .ValueOrDie();
  EXPECT_GT(report.errors_fixed, 0u);
  EXPECT_LE(report.min_estimated_accuracy, 1.0);
  // With threshold 0.9 and heavy dirt, the full-clean fallback fires.
  EXPECT_TRUE(report.used_dc_full_clean);
}

TEST(DaisyEngineTest, JoinQueryCleansBothSides) {
  // Example 6 flavour: FDs on both join tables.
  Database db;
  Table cities("cities", CitySchema());
  ASSERT_TRUE(cities.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  ASSERT_TRUE(cities.AppendRow({Value(9001), Value("San Francisco")}).ok());
  ASSERT_TRUE(cities.AppendRow({Value(10001), Value("San Francisco")}).ok());
  ASSERT_TRUE(db.AddTable(std::move(cities)).ok());
  Table emp("employee", Schema({{"zip", ValueType::kInt},
                                {"name", ValueType::kString},
                                {"phone", ValueType::kInt}}));
  ASSERT_TRUE(emp.AppendRow({Value(9001), Value("Peter"), Value(23456)}).ok());
  ASSERT_TRUE(emp.AppendRow({Value(10001), Value("Mary"), Value(12345)}).ok());
  ASSERT_TRUE(emp.AppendRow({Value(10002), Value("Jon"), Value(12345)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(emp)).ok());

  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText("phi1: FD zip -> city", "cities", CitySchema())
                  .ok());
  ASSERT_TRUE(rules
                  .AddFromText("phi2: FD phone -> zip", "employee",
                               db.GetTable("employee").ValueOrDie()->schema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  auto report =
      engine.Query(
                "SELECT cities.zip, employee.name FROM cities, employee "
                "WHERE cities.zip = employee.zip AND "
                "cities.city = 'Los Angeles'")
          .ValueOrDie();
  // The dirty result is only (9001, Peter); after cleaning, tuple 2 of
  // cities gets zip candidates {9001, 10001} and the phone FD gives Mary/
  // Jon zip candidates — the corrected join contains more pairs (Table 4e).
  EXPECT_GT(report.output.result.num_rows(), 1u);
  EXPECT_EQ(report.rules_applied, 2u);
  // Provenance recorded per table.
  EXPECT_NE(engine.provenance("cities"), nullptr);
  EXPECT_NE(engine.provenance("employee"), nullptr);
}

TEST(DaisyEngineTest, GroupByQueryCleansBeforeAggregation) {
  Database db;
  ASSERT_TRUE(db.AddTable(CitiesTable()).ok());
  DaisyEngine engine = MakeEngine(&db, "phi: FD zip -> city");
  auto report = engine.Query(
                          "SELECT city, COUNT(*) AS n FROM cities "
                          "WHERE zip >= 9001 AND zip <= 10001 GROUP BY city")
                    .ValueOrDie();
  EXPECT_GT(report.errors_fixed, 0u);
  EXPECT_GE(report.output.result.num_rows(), 2u);
}

TEST(DaisyEngineTest, CostModelAccessors) {
  Database db;
  ASSERT_TRUE(db.AddTable(CitiesTable()).ok());
  DaisyEngine engine = MakeEngine(&db, "phi: FD zip -> city");
  EXPECT_NE(engine.cost_model("phi"), nullptr);
  EXPECT_EQ(engine.cost_model("nope"), nullptr);
  (void)engine.Query("SELECT * FROM cities WHERE zip = 9001").ValueOrDie();
  EXPECT_EQ(engine.cost_model("phi")->queries_recorded(), 1u);
}

}  // namespace
}  // namespace daisy
