// EXPLAIN golden tests: the plan text is part of the engine's contract.
// Pins the deterministic tree for an SP query, an SPJ query, residual and
// cartesian join steps, and cleaning-augmented plans where statistics
// pruning drops a provably-clean rule's cleanσ node; with the cost-based
// optimizer on, also pins the chosen join order, per-node estimates,
// predicate pushdown below the reordered join tree, and cleanσ deferral
// above a selective join.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "clean/daisy_engine.h"
#include "plan/planner.h"
#include "query/parser.h"

namespace daisy {
namespace {

// Bare-planner consumers (QueryExecutor) default the optimizer from the
// ablation env (see Planner's constructor); these goldens pin both shapes
// so the CI ablation leg (DAISY_OPTIMIZER=0) stays green.
bool OptimizerEnvOn() {
  const char* v = std::getenv("DAISY_OPTIMIZER");
  if (v == nullptr) return true;
  const std::string s(v);
  return !(s == "0" || s == "false");
}

Database MakeEmpDeptDb() {
  Database db;
  Table emp("emp", Schema({{"name", ValueType::kString},
                           {"dept_id", ValueType::kInt},
                           {"salary", ValueType::kDouble}}));
  EXPECT_TRUE(emp.AppendRow({Value("ann"), Value(1), Value(100.0)}).ok());
  EXPECT_TRUE(emp.AppendRow({Value("bob"), Value(2), Value(200.0)}).ok());
  EXPECT_TRUE(emp.AppendRow({Value("cat"), Value(1), Value(300.0)}).ok());
  EXPECT_TRUE(db.AddTable(std::move(emp)).ok());
  Table dept("dept", Schema({{"id", ValueType::kInt},
                             {"dept_name", ValueType::kString}}));
  EXPECT_TRUE(dept.AppendRow({Value(1), Value("eng")}).ok());
  EXPECT_TRUE(dept.AppendRow({Value(2), Value("hr")}).ok());
  EXPECT_TRUE(db.AddTable(std::move(dept)).ok());
  return db;
}

TEST(ExplainTest, SelectProjectGolden) {
  Database db = MakeEmpDeptDb();
  QueryExecutor exec(&db);
  auto text =
      exec.Explain("SELECT name FROM emp WHERE salary >= 200").ValueOrDie();
  EXPECT_EQ(text,
            "Project [name]\n"
            "  Filter [emp: salary >= 200] [columnar]\n"
            "    Scan [emp]\n");
}

TEST(ExplainTest, SelectProjectJoinGolden) {
  Database db = MakeEmpDeptDb();
  QueryExecutor exec(&db);
  auto text = exec.Explain(
                      "SELECT emp.name, dept.dept_name FROM emp, dept WHERE "
                      "emp.dept_id = dept.id AND dept.dept_name = 'eng'")
                  .ValueOrDie();
  if (OptimizerEnvOn()) {
    // dpsize keeps the FROM order here (two tables, one split) but prices
    // the hash build side — the filtered dept chain — and annotates every
    // node with its estimates.
    EXPECT_EQ(text,
              "Project [emp.name, dept.dept_name]\n"
              "  HashJoin [emp.dept_id = dept.id] [build=right]"
              " est_rows=2 est_cost=10\n"
              "    Scan [emp] est_rows=3 est_cost=3\n"
              "    Filter [dept: dept.dept_name == 'eng'] [columnar]"
              " est_rows=1 est_cost=2\n"
              "      Scan [dept] est_rows=2 est_cost=2\n");
  } else {
    EXPECT_EQ(text,
              "Project [emp.name, dept.dept_name]\n"
              "  HashJoin [emp.dept_id = dept.id] [build=right]\n"
              "    Scan [emp]\n"
              "    Filter [dept: dept.dept_name == 'eng'] [columnar]\n"
              "      Scan [dept]\n");
  }
}

TEST(ExplainTest, OptimizerReordersJoinAndPushesFilterDownGolden) {
  // ta is big, tb joins tc, and tc's filter is highly selective: the DP
  // picks ta ⋈ (tb ⋈ tc) over the naive left-deep (ta ⋈ tb) ⋈ tc, and the
  // tc filter stays pushed below the lowest join of the reordered tree.
  Database db;
  Table ta("ta", Schema({{"x", ValueType::kInt}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ta.AppendRow({Value(i % 50)}).ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(ta)).ok());
  Table tb("tb", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tb.AppendRow({Value(i), Value(i)}).ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(tb)).ok());
  Table tc("tc", Schema({{"y", ValueType::kInt}, {"tag", ValueType::kString}}));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        tc.AppendRow({Value(i), Value(i == 7 ? "hit" : "t" + std::to_string(i))})
            .ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(tc)).ok());

  QueryExecutor exec(&db);
  auto text = exec.Explain(
                      "SELECT ta.x, tc.y FROM ta, tb, tc WHERE "
                      "ta.x = tb.x AND tb.y = tc.y AND tc.tag = 'hit'")
                  .ValueOrDie();
  if (OptimizerEnvOn()) {
    EXPECT_EQ(text,
              "Project [ta.x, tc.y]\n"
              "  HashJoin [ta.x = tb.x] [build=right] est_rows=2"
              " est_cost=306\n"
              "    Scan [ta] est_rows=100 est_cost=100\n"
              "    HashJoin [tb.y = tc.y] [build=right] est_rows=1"
              " est_cost=103\n"
              "      Scan [tb] est_rows=50 est_cost=50\n"
              "      Filter [tc: tc.tag == 'hit'] [columnar] est_rows=1"
              " est_cost=50\n"
              "        Scan [tc] est_rows=50 est_cost=50\n");
  } else {
    // The uncosted FROM-order chain: (ta ⋈ tb) ⋈ tc, no estimates.
    EXPECT_EQ(text,
              "Project [ta.x, tc.y]\n"
              "  HashJoin [tb.y = tc.y] [build=right]\n"
              "    HashJoin [ta.x = tb.x] [build=right]\n"
              "      Scan [ta]\n"
              "      Scan [tb]\n"
              "    Filter [tc: tc.tag == 'hit'] [columnar]\n"
              "      Scan [tc]\n");
  }
  // Same bytes either way: the optimized tree canonically sorts its root.
  auto on = exec.Execute(
                    "SELECT ta.x, tc.y FROM ta, tb, tc WHERE "
                    "ta.x = tb.x AND tb.y = tc.y AND tc.tag = 'hit'")
                .ValueOrDie();
  EXPECT_EQ(on.result.num_rows(), 2u);
}

TEST(ExplainTest, ResidualAndCartesianStepsGolden) {
  // Both plans are outside the DP's gate, so they are the same under
  // either optimizer setting: a second predicate binding a step renders as
  // a residual, and a step no predicate reaches as a cartesian product.
  Database db = MakeEmpDeptDb();
  QueryExecutor exec(&db);
  EXPECT_EQ(exec.Explain("SELECT emp.name FROM emp, dept WHERE "
                         "emp.dept_id = dept.id AND emp.name = dept.dept_name")
                .ValueOrDie(),
            "Project [emp.name]\n"
            "  HashJoin [emp.dept_id = dept.id] [build=right]"
            " [residual=emp.name = dept.dept_name]\n"
            "    Scan [emp]\n"
            "    Scan [dept]\n");
  EXPECT_EQ(
      exec.Explain("SELECT emp.name, dept.dept_name FROM emp, dept")
          .ValueOrDie(),
      "Project [emp.name, dept.dept_name]\n"
      "  HashJoin [cartesian]\n"
      "    Scan [emp]\n"
      "    Scan [dept]\n");
}

TEST(ExplainTest, AggregateGolden) {
  Database db = MakeEmpDeptDb();
  QueryExecutor exec(&db);
  auto text = exec.Explain(
                      "SELECT dept_id, COUNT(*) AS n FROM emp "
                      "GROUP BY dept_id")
                  .ValueOrDie();
  EXPECT_EQ(text,
            "Aggregate [select=[dept_id, COUNT(*) AS n] group_by=[dept_id]]\n"
            "  Scan [emp]\n");
}

TEST(ExplainTest, ExecutedPlanCarriesCardinalities) {
  Database db = MakeEmpDeptDb();
  auto stmt =
      ParseQuery("SELECT name FROM emp WHERE salary >= 200").ValueOrDie();
  Planner planner(&db);
  auto plan = planner.PlanQuery(stmt).ValueOrDie();
  auto out = plan.Execute().ValueOrDie();
  EXPECT_EQ(out.result.num_rows(), 2u);
  EXPECT_EQ(plan.Explain(),
            "Project [name] rows=2\n"
            "  Filter [emp: salary >= 200] [columnar] rows=2\n"
            "    Scan [emp] rows=3\n");
}

// -------------------------------------------------- cleaning-augmented --

Schema CitiesSchema() {
  return Schema({{"zip", ValueType::kInt},
                 {"city", ValueType::kString},
                 {"state", ValueType::kString}});
}

// zip -> city is violated (phi is dirty); city -> state holds (psi is
// provably clean from the precomputed statistics).
Database MakeCitiesDb() {
  Database db;
  Table t("cities", CitiesSchema());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("LA"), Value("CA")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("SF"), Value("CA")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("NY"), Value("NY")}).ok());
  EXPECT_TRUE(db.AddTable(std::move(t)).ok());
  return db;
}

ConstraintSet MakeCityRules() {
  ConstraintSet rules;
  EXPECT_TRUE(
      rules.AddFromText("phi: FD zip -> city", "cities", CitiesSchema()).ok());
  EXPECT_TRUE(
      rules.AddFromText("psi: FD city -> state", "cities", CitiesSchema())
          .ok());
  return rules;
}


TEST(ExplainTest, CleaningPlanDropsStatisticsPrunedRuleGolden) {
  Database db = MakeCitiesDb();
  DaisyEngine engine(&db, MakeCityRules(), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  // Both rules overlap the query columns, but psi has zero violating rows:
  // statistics pruning removes its cleanσ node at plan construction.
  auto text =
      engine.Explain("SELECT zip, city, state FROM cities WHERE zip = 9001")
          .ValueOrDie();
  EXPECT_EQ(text,
            "Project [zip, city, state]\n"
            "  CleanSelect [rule=phi fd] [adaptive]\n"
            "    Filter [cities: zip == 9001] [columnar]\n"
            "      Scan [cities]\n");
}

TEST(ExplainTest, ExplainAnalyzeShowsDeltaRowsChecked) {
  Database db = MakeCitiesDb();
  DaisyEngine engine(&db, MakeCityRules(), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  // Two rows arrive after Prepare; the next executed query settles them and
  // the executed plan says so on the cleanσ node.
  ASSERT_TRUE(engine
                  .AppendRows("cities", {{Value(9001), Value("SD"),
                                          Value("CA")},
                                         {Value(10001), Value("NY"),
                                          Value("NY")}})
                  .ok());
  auto text =
      engine.ExplainAnalyze("SELECT zip, city, state FROM cities WHERE "
                            "zip = 9001")
          .ValueOrDie();
  EXPECT_NE(text.find("CleanSelect [rule=phi fd] [adaptive] rows=3 "
                      "delta rows checked: 2"),
            std::string::npos)
      << text;
  // The rows are settled exactly once: a second run reports none pending.
  auto again =
      engine.ExplainAnalyze("SELECT zip, city, state FROM cities WHERE "
                            "zip = 9001")
          .ValueOrDie();
  EXPECT_EQ(again.find("delta rows checked"), std::string::npos) << again;
}

TEST(ExplainTest, ExplainAnalyzeCountsTheRowsQueryReturns) {
  // ExplainAnalyze only counts the result rows; its root line reports the
  // count a materializing Query returns, and so does a CountingSink.
  Database db = MakeEmpDeptDb();
  DaisyEngine engine(&db, ConstraintSet(), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  const std::string sql =
      "SELECT emp.name, dept.dept_name FROM emp, dept "
      "WHERE emp.dept_id = dept.id";
  const std::string text = engine.ExplainAnalyze(sql).ValueOrDie();
  const QueryReport report = engine.Query(sql).ValueOrDie();
  CountingSink sink;
  ASSERT_TRUE(engine.Query(sql, QueryLimits{}, &sink).ok());
  ASSERT_EQ(report.output.result.num_rows(), 3u);
  EXPECT_EQ(sink.rows(), 3u);
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "Project [emp.name, dept.dept_name] rows=3")
      << text;
}

TEST(ExplainTest, CleanJoinGolden) {
  Database db = MakeEmpDeptDb();
  ConstraintSet rules;
  EXPECT_TRUE(rules
                  .AddFromText("rho: FD dept_id -> name", "emp",
                               db.GetTable("emp").ValueOrDie()->schema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  auto text = engine.Explain(
                        "SELECT emp.name, dept.dept_name FROM emp, dept "
                        "WHERE emp.dept_id = dept.id")
                  .ValueOrDie();
  if (engine.options().optimizer) {
    // rho involves the join key (dept_id), so deferral is barred and the
    // cleanσ stays in the chain below the join.
    EXPECT_EQ(text,
              "Project [emp.name, dept.dept_name]\n"
              "  CleanJoin [emp.dept_id = dept.id] [build=right]"
              " est_rows=3 est_cost=13\n"
              "    CleanSelect [rule=rho fd] [adaptive]"
              " est_rows=3 est_cost=9\n"
              "      Scan [emp] est_rows=3 est_cost=3\n"
              "    Scan [dept] est_rows=2 est_cost=2\n");
  } else {
    EXPECT_EQ(text,
              "Project [emp.name, dept.dept_name]\n"
              "  CleanJoin [emp.dept_id = dept.id] [build=right]\n"
              "    CleanSelect [rule=rho fd] [adaptive]\n"
              "      Scan [emp]\n"
              "    Scan [dept]\n");
  }
}

TEST(ExplainTest, OptimizerDefersCleaningAboveSelectiveJoinGolden) {
  // tau (name -> salary) touches neither emp's join key nor any filter or
  // sibling-rule column, and the dept filter makes the join selective: the
  // cost model moves tau's cleanσ above the join, where it cleans only the
  // distinct rows emp contributes to the join survivors.
  Database db;
  Table emp("emp", Schema({{"name", ValueType::kString},
                           {"dept_id", ValueType::kInt},
                           {"salary", ValueType::kDouble}}));
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(emp.AppendRow({Value(i < 2 ? "dup" : "e" + std::to_string(i)),
                               Value(i % 6),
                               Value(100.0 * (i + 1))})
                    .ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(emp)).ok());
  Table dept("dept", Schema({{"id", ValueType::kInt},
                             {"dept_name", ValueType::kString}}));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        dept.AppendRow({Value(i), Value(i == 0 ? "eng" : "d" + std::to_string(i))})
            .ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(dept)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules
                  .AddFromText("tau: FD name -> salary", "emp",
                               db.GetTable("emp").ValueOrDie()->schema())
                  .ok());
  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  const std::string sql =
      "SELECT emp.name, emp.salary, dept.dept_name FROM emp, dept "
      "WHERE emp.dept_id = dept.id AND dept.dept_name = 'eng'";
  auto text = engine.Explain(sql).ValueOrDie();
  if (engine.options().optimizer) {
    const size_t deferred_pos =
        text.find("CleanSelect [rule=tau fd] [adaptive] [deferred]");
    const size_t join_pos = text.find("CleanJoin [emp.dept_id = dept.id]");
    ASSERT_NE(deferred_pos, std::string::npos) << text;
    ASSERT_NE(join_pos, std::string::npos) << text;
    // Deferred cleanσ sits above the join in the rendered tree.
    EXPECT_LT(deferred_pos, join_pos) << text;
    EXPECT_NE(text.find("est_rows="), std::string::npos) << text;
  } else {
    const size_t chain_pos = text.find("CleanSelect [rule=tau fd] [adaptive]");
    const size_t join_pos = text.find("CleanJoin [emp.dept_id = dept.id]");
    ASSERT_NE(chain_pos, std::string::npos) << text;
    ASSERT_NE(join_pos, std::string::npos) << text;
    EXPECT_GT(chain_pos, join_pos) << text;
    EXPECT_EQ(text.find("[deferred]"), std::string::npos) << text;
  }
  // The deferred placement is output-exact and still repairs the dirty
  // group it touches.
  auto report = engine.Query(sql).ValueOrDie();
  EXPECT_EQ(report.rules_applied, 1u);
  if (engine.options().optimizer) {
    EXPECT_EQ(report.rules_deferred, 1u);
  } else {
    EXPECT_EQ(report.rules_deferred, 0u);
  }
}

TEST(ExplainTest, StaticallyPrunedRuleStillAccumulatesCoverage) {
  // The node is dropped from the rendered plan only: execution keeps the
  // per-query prune-and-mark bookkeeping of the pre-plan engine loop, so
  // coverage accrues with the rows each query actually touches.
  Database db = MakeCitiesDb();
  DaisyEngine engine(&db, MakeCityRules(), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  auto partial =
      engine.Query("SELECT zip, city, state FROM cities WHERE zip = 9001")
          .ValueOrDie();
  EXPECT_EQ(partial.rules_applied, 2u);
  EXPECT_EQ(partial.rules_pruned, 1u);
  EXPECT_FALSE(engine.RuleFullyChecked("psi").ValueOrDie());
  (void)engine.Query("SELECT zip, city, state FROM cities").ValueOrDie();
  EXPECT_TRUE(engine.RuleFullyChecked("psi").ValueOrDie());
}

TEST(ExplainTest, ExplainedQueryStillExecutesIdentically) {
  // Explain() must not mutate state: the subsequent Query sees the same
  // report it would have seen without the Explain call.
  Database db = MakeCitiesDb();
  DaisyEngine engine(&db, MakeCityRules(), DaisyOptions{});
  ASSERT_TRUE(engine.Prepare().ok());
  (void)engine.Explain("SELECT zip, city, state FROM cities WHERE zip = 9001")
      .ValueOrDie();
  EXPECT_EQ(db.GetTable("cities").ValueOrDie()->CountProbabilisticCells(),
            0u);
  auto report =
      engine.Query("SELECT zip, city, state FROM cities WHERE zip = 9001")
          .ValueOrDie();
  // phi cleans the 9001 group; psi is counted as applied+pruned exactly
  // like the runtime statistics fast path used to report it.
  EXPECT_EQ(report.rules_applied, 2u);
  EXPECT_EQ(report.rules_pruned, 1u);
  EXPECT_GT(report.errors_fixed, 0u);
}

}  // namespace
}  // namespace daisy
