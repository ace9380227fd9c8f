// Optimizer test suite: unit tests for the cost-based optimizer's
// primitives (exactness gate, dpsize enumeration, cleaning-cost pricing,
// cardinality estimation), the nested-loop oracle differential, and the
// plan-equivalence differential.
//
// The differential is the optimizer's correctness contract: across >= 100
// seeds, a seed-driven generator produces multi-table schemas, join chains,
// FD/DC cleaning rules, and interleaved append/delete/query sequences, and
// two full DaisyEngines — optimizer on vs. off — replay the same sequence.
// Query outputs must be bit-identical at every step (the optimizer never
// changes what a query returns); counters and the underlying repaired
// tables must be identical until the first cleanσ deferral (which
// intentionally cleans fewer rows — the join survivors instead of the full
// qualifying set) and must reconverge exactly after CleanAllRemaining.
//
// The oracle differential holds every plan shape to a nested-loop
// reference join that applies every predicate: seeded scenarios from the
// same generator plus cartesian, residual and self-join shapes, run through
// the planner with the optimizer explicitly on and off. It and the unit
// tests of the pure optimizer functions are env-independent. Under the CI
// ablation leg (DAISY_OPTIMIZER=0) both engines of the plan-equivalence
// differential run the FROM-order plan, so that leg compares the
// FROM-order plan with itself; the oracle differential still covers it.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clean/cost_model.h"
#include "clean/daisy_engine.h"
#include "clean/statistics.h"
#include "common/rng.h"
#include "plan/cardinality.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "query/eval.h"
#include "query/executor.h"
#include "query/parser.h"
#include "storage/database.h"

namespace daisy {
namespace {

SplitWhere::JoinPred Pred(size_t lt, size_t lc, size_t rt, size_t rc) {
  SplitWhere::JoinPred p;
  p.left_table = lt;
  p.left_col = lc;
  p.right_table = rt;
  p.right_col = rc;
  return p;
}

// ------------------------------------------------------- exactness gate --

TEST(JoinReorderExactTest, ChainAndStarWalkedInFromOrderPass) {
  EXPECT_TRUE(JoinReorderExact(2, {Pred(0, 1, 1, 0)}));
  EXPECT_TRUE(JoinReorderExact(3, {Pred(0, 1, 1, 0), Pred(1, 1, 2, 0)}));
  // Star rooted at table 0: each later table binds via one edge to 0.
  EXPECT_TRUE(JoinReorderExact(3, {Pred(0, 0, 1, 0), Pred(0, 1, 2, 0)}));
  // Predicate vector order does not matter; the walk checks all of them.
  EXPECT_TRUE(JoinReorderExact(3, {Pred(1, 1, 2, 0), Pred(0, 1, 1, 0)}));
}

TEST(JoinReorderExactTest, WrongEdgeCountFails) {
  EXPECT_FALSE(JoinReorderExact(3, {Pred(0, 0, 1, 0)}));
  EXPECT_FALSE(JoinReorderExact(
      3, {Pred(0, 0, 1, 0), Pred(1, 0, 2, 0), Pred(0, 0, 2, 0)}));
  EXPECT_FALSE(JoinReorderExact(1, {}));
}

TEST(JoinReorderExactTest, CartesianStepFails) {
  // FROM order 0,1,2 but no predicate reaches table 1 from {0}: the naive
  // executor would take a cartesian step there.
  EXPECT_FALSE(JoinReorderExact(3, {Pred(1, 0, 2, 0), Pred(0, 0, 2, 1)}));
}

TEST(JoinReorderExactTest, DoublyBoundStepFails) {
  // Two predicates bind table 1 to the prefix: no one-predicate DP join
  // covers the step (the FROM-order tree applies the second as a
  // residual).
  EXPECT_FALSE(JoinReorderExact(3, {Pred(0, 0, 1, 0), Pred(0, 1, 1, 1)}));
}

TEST(JoinReorderExactTest, SelfPredicateFails) {
  EXPECT_FALSE(JoinReorderExact(2, {Pred(0, 0, 0, 1)}));
}

TEST(JoinReorderExactTest, BeyondTableCapFails) {
  const size_t n = kMaxOptimizerTables + 1;
  std::vector<SplitWhere::JoinPred> chain;
  for (size_t i = 0; i + 1 < n; ++i) chain.push_back(Pred(i, 0, i + 1, 0));
  EXPECT_FALSE(JoinReorderExact(n, chain));
  chain.pop_back();
  EXPECT_TRUE(JoinReorderExact(n - 1, chain));
}

// ---------------------------------------------------- dpsize enumeration --

Table OneColTable(const std::string& name, const std::string& col,
                  size_t rows, int64_t modulo) {
  Table t(name, Schema({{col, ValueType::kInt}}));
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(static_cast<int64_t>(i) % modulo)}).ok());
  }
  return t;
}

TEST(EnumerateJoinOrderTest, PicksBushyTreeThatJoinsSmallSidesFirst) {
  // A(100 rows, x: ndv 50) ⋈ B(50 rows, x/y: ndv 50) ⋈ C(4 rows, y: ndv 4).
  // Left-deep (A⋈B)⋈C costs 516; the bushy A⋈(B⋈C) costs 324 because the
  // tiny B⋈C intermediate (4 rows) flows into the top join.
  Table a = OneColTable("a", "x", 100, 50);
  Table b("b", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}));
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(b.AppendRow({Value(i), Value(i)}).ok());
  }
  Table c = OneColTable("c", "y", 4, 4);
  CardinalityEstimator est({&a, &b, &c});
  const std::vector<SplitWhere::JoinPred> joins = {Pred(0, 0, 1, 0),
                                                   Pred(1, 1, 2, 0)};
  std::unique_ptr<JoinTree> jt =
      EnumerateJoinOrder(est, joins, {100.0, 50.0, 4.0});
  ASSERT_NE(jt, nullptr);
  EXPECT_EQ(jt->mask, 0b111u);
  EXPECT_EQ(jt->from, -1);
  EXPECT_NEAR(jt->est_rows, 8.0, 1e-9);
  EXPECT_NEAR(jt->est_cost, 324.0, 1e-9);
  // Canonical split: left owns the lowest table.
  ASSERT_NE(jt->left, nullptr);
  ASSERT_NE(jt->right, nullptr);
  EXPECT_EQ(jt->left->mask, 0b001u);
  EXPECT_EQ(jt->left->from, 0);
  EXPECT_EQ(jt->right->mask, 0b110u);
  EXPECT_NEAR(jt->right->est_rows, 4.0, 1e-9);
  // Build side = smaller estimated input: the 4-row B⋈C result.
  EXPECT_FALSE(jt->build_left);
  EXPECT_EQ(jt->pred_idx, 0u);  // A connects through x = B.x
}

TEST(EnumerateJoinOrderTest, ReturnsNullOutsideExactRegime) {
  Table a = OneColTable("a", "x", 10, 5);
  Table b = OneColTable("b", "x", 10, 5);
  Table c = OneColTable("c", "x", 10, 5);
  CardinalityEstimator est({&a, &b, &c});
  // Only one edge for three tables: a cartesian step, no reorder.
  EXPECT_EQ(EnumerateJoinOrder(est, {Pred(0, 0, 1, 0)}, {10.0, 10.0, 10.0}),
            nullptr);
}

// ------------------------------------------------------ cleaning pricing --

TEST(CleaningUnitCostTest, PrefersObservedLedger) {
  CostModel cm;
  QueryCostSample sample;
  sample.dataset_size = 100;
  sample.result_size = 10;
  sample.errors = 2;
  sample.candidate_width = 2.0;
  sample.detect_ops = 40;
  cm.RecordQuery(sample);
  ASSERT_GT(cm.queries_recorded(), 0u);
  ASSERT_GT(cm.total_results(), 0u);
  const double unit = CleaningUnitCost(&cm, nullptr, 0, 100.0);
  EXPECT_DOUBLE_EQ(
      unit, cm.cumulative_cost() / static_cast<double>(cm.total_results()));
  EXPECT_GT(unit, 0.0);
}

TEST(CleaningUnitCostTest, FallsBackToStatisticsFormula) {
  FdRuleStats stats;
  stats.table_rows = 100;
  stats.num_violating_rows = 20;
  stats.avg_candidates = 3.0;
  // 1 + dirty_fraction x (1 + candidate_width) = 1 + 0.2 x 4.
  EXPECT_DOUBLE_EQ(CleaningUnitCost(nullptr, &stats, 0, 100.0), 1.8);
}

TEST(CleaningUnitCostTest, ThetaViolationsStandInForDirtyFraction) {
  // No ledger, no statistics: maintained violation count / table rows, with
  // the default candidate width of 2.
  EXPECT_DOUBLE_EQ(CleaningUnitCost(nullptr, nullptr, 50, 100.0), 2.5);
  EXPECT_DOUBLE_EQ(CleaningUnitCost(nullptr, nullptr, 500, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(CleaningUnitCost(nullptr, nullptr, 0, 0.0), 1.0);
}

TEST(ShouldDeferCleaningTest, RequiresTwoXMarginPlusConstant) {
  EXPECT_TRUE(ShouldDeferCleaning(1.0, 100.0, 10.0));
  EXPECT_FALSE(ShouldDeferCleaning(1.0, 10.0, 10.0));
  // 2x exactly is not enough: the one-invocation constant breaks the tie.
  EXPECT_FALSE(ShouldDeferCleaning(1.0, 20.0, 10.0));
  EXPECT_FALSE(ShouldDeferCleaning(1.0, 0.0, 0.0));
  // A higher unit price amortizes the constant sooner.
  EXPECT_TRUE(ShouldDeferCleaning(10.0, 21.0, 10.0));
}

// -------------------------------------------------- cardinality estimates --

std::unique_ptr<Expr> Cmp(const std::string& col, CompareOp op, Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kCmp;
  e->left = {"", col};
  e->op = op;
  e->right_val = std::move(v);
  return e;
}

std::unique_ptr<Expr> Combine(Expr::Kind kind, std::unique_ptr<Expr> a,
                              std::unique_ptr<Expr> b) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->children.push_back(std::move(a));
  e->children.push_back(std::move(b));
  return e;
}

TEST(CardinalityEstimatorTest, SelectivityFromProjectionsAndDictionaries) {
  Table t("t", Schema({{"k", ValueType::kInt},
                       {"v", ValueType::kInt},
                       {"w", ValueType::kString}}));
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(i), Value(i % 10),
                     Value("s" + std::to_string(i % 4))})
            .ok());
  }
  Table s = OneColTable("s", "k", 5, 5);
  CardinalityEstimator est({&t, &s});

  EXPECT_DOUBLE_EQ(est.TableRows(0), 100.0);
  EXPECT_EQ(est.DistinctCount(0, 1), 10u);
  EXPECT_EQ(est.DistinctCount(0, 2), 4u);

  // Numeric equality: exact rank fraction (10 of 100 rows carry v = 3;
  // coincides with 1/ndv on this uniform column).
  auto eq_v = Cmp("v", CompareOp::kEq, Value(int64_t{3}));
  EXPECT_DOUBLE_EQ(est.FilterSelectivity(0, eq_v.get()), 0.1);
  EXPECT_DOUBLE_EQ(est.FilteredRows(0, eq_v.get()), 10.0);

  // Range: exact rank fraction from the sorted projection (25 of the 100
  // values are < 25), not a min/max interpolation a dirty outlier could
  // stretch.
  auto lt_k = Cmp("k", CompareOp::kLt, Value(int64_t{25}));
  EXPECT_NEAR(est.FilterSelectivity(0, lt_k.get()), 25.0 / 100.0, 1e-9);

  // Conjunction multiplies; disjunction is inclusion-exclusion.
  auto conj = Combine(Expr::Kind::kAnd,
                      Cmp("v", CompareOp::kEq, Value(int64_t{3})),
                      Cmp("w", CompareOp::kEq, Value("s1")));
  EXPECT_NEAR(est.FilterSelectivity(0, conj.get()), 0.1 * 0.25, 1e-9);
  auto disj = Combine(Expr::Kind::kOr,
                      Cmp("v", CompareOp::kEq, Value(int64_t{3})),
                      Cmp("w", CompareOp::kEq, Value("s1")));
  EXPECT_NEAR(est.FilterSelectivity(0, disj.get()), 1.0 - 0.9 * 0.75, 1e-9);

  // Unknown columns estimate nothing rather than failing.
  auto unknown = Cmp("nope", CompareOp::kEq, Value(int64_t{1}));
  EXPECT_DOUBLE_EQ(est.FilterSelectivity(0, unknown.get()), 1.0);
  EXPECT_DOUBLE_EQ(est.FilterSelectivity(0, nullptr), 1.0);

  // Equi-join: 1 / max ndv of the two key columns.
  const SplitWhere::JoinPred p = Pred(0, 0, 1, 0);
  EXPECT_NEAR(est.JoinSelectivity(p), 1.0 / 100.0, 1e-12);
  EXPECT_NEAR(est.JoinOutputRows(100.0, 5.0, p), 5.0, 1e-9);
}

// ------------------------------------------- plan-equivalence generator --

// A chain-joined multi-table scenario: every table has the same shape
//   a (int, join key toward the previous table)
//   b (int, join key toward the next table)      t<i>.b = t<i+1>.a
//   v (int), w (string)                          filter / cleaning columns
// FD rules over {v, w} are deferral candidates; FDs touching the join key
// and overlapping sibling pairs exercise the gate's refusals; an order DC
// over (v, a) exercises the theta-costed pricing path.
struct JoinScenario {
  size_t n = 2;
  std::vector<Schema> schemas;
  std::vector<std::vector<std::vector<Value>>> base_rows;
  std::vector<int64_t> key_domain;  // domain of t<i>.b == domain of t<i+1>.a
  std::vector<int64_t> v_domain;
  std::vector<int64_t> w_domain;
  std::vector<std::vector<std::string>> rule_texts;  // per table
};

std::vector<Value> RandomJoinRow(Rng* rng, const JoinScenario& s, size_t i) {
  const int64_t a_dom = i == 0 ? 8 : s.key_domain[i - 1];
  const int64_t b_dom = s.key_domain[i];
  return {Value(rng->UniformInt(0, a_dom - 1)),
          Value(rng->UniformInt(0, b_dom - 1)),
          Value(rng->UniformInt(0, s.v_domain[i] - 1)),
          Value("s" + std::to_string(rng->UniformInt(0, s.w_domain[i] - 1)))};
}

JoinScenario MakeJoinScenario(uint64_t seed) {
  Rng rng(seed);
  JoinScenario s;
  s.n = static_cast<size_t>(rng.UniformInt(2, 4));
  for (size_t i = 0; i < s.n; ++i) {
    s.key_domain.push_back(rng.UniformInt(2, 15));
    s.v_domain.push_back(rng.UniformInt(2, 8));
    s.w_domain.push_back(rng.UniformInt(2, 5));
    s.schemas.push_back(Schema({{"a", ValueType::kInt},
                                {"b", ValueType::kInt},
                                {"v", ValueType::kInt},
                                {"w", ValueType::kString}}));
    const std::string idx = std::to_string(i);
    const double dice = rng.UniformDouble(0, 1);
    if (dice < 0.30) {
      s.rule_texts.push_back({"p" + idx + ": FD v -> w"});
    } else if (dice < 0.45) {
      // Touches the join key: the gate must keep it in the chain.
      s.rule_texts.push_back({"p" + idx + ": FD a -> v"});
    } else if (dice < 0.60) {
      // Overlapping siblings: neither may be deferred.
      s.rule_texts.push_back(
          {"p" + idx + ": FD v -> w", "q" + idx + ": FD w -> v"});
    } else if (dice < 0.72) {
      // Order DC: theta-join detection feeds the pricing fallback.
      s.rule_texts.push_back(
          {"d" + idx + ": !(t1.v < t2.v & t1.a > t2.a)"});
    } else {
      s.rule_texts.push_back({});
    }
  }
  for (size_t i = 0; i < s.n; ++i) {
    const size_t rows = static_cast<size_t>(rng.UniformInt(15, 60));
    std::vector<std::vector<Value>> table_rows;
    for (size_t r = 0; r < rows; ++r) {
      table_rows.push_back(RandomJoinRow(&rng, s, i));
    }
    s.base_rows.push_back(std::move(table_rows));
  }
  return s;
}

std::string TableName(size_t i) { return "t" + std::to_string(i); }

std::string ChainQuery(const JoinScenario& s,
                       const std::string& select = "*") {
  std::string from, where;
  for (size_t i = 0; i < s.n; ++i) {
    if (i > 0) from += ", ";
    from += TableName(i);
    if (i + 1 < s.n) {
      if (!where.empty()) where += " AND ";
      where += TableName(i) + ".b = " + TableName(i + 1) + ".a";
    }
  }
  std::string sql = "SELECT " + select + " FROM " + from;
  if (!where.empty()) sql += " WHERE " + where;
  return sql;
}

std::string RandomSpjQuery(Rng* rng, const JoinScenario& s) {
  const size_t lo =
      static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(s.n) - 1));
  const size_t hi = static_cast<size_t>(
      rng->UniformInt(static_cast<int64_t>(lo), static_cast<int64_t>(s.n) - 1));
  std::vector<size_t> order;
  for (size_t i = lo; i <= hi; ++i) order.push_back(i);
  if (order.size() > 1 && rng->Bernoulli(0.3)) {
    std::reverse(order.begin(), order.end());
  }

  std::string select;
  if (rng->Bernoulli(0.4)) {
    select = "*";
  } else {
    static const char* kCols[] = {"a", "b", "v", "w"};
    const size_t picks = static_cast<size_t>(rng->UniformInt(1, 3));
    for (size_t p = 0; p < picks; ++p) {
      const size_t t = order[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(order.size()) - 1))];
      if (p > 0) select += ", ";
      select += TableName(t) + "." + kCols[rng->UniformInt(0, 3)];
    }
  }

  std::vector<std::string> conjuncts;
  for (size_t i = lo; i < hi; ++i) {
    conjuncts.push_back(TableName(i) + ".b = " + TableName(i + 1) + ".a");
  }
  // With a small probability, drop the (single) join predicate of a
  // two-table query: the FROM-order tree takes a cartesian step, the gate
  // refuses to reorder, and both engines must agree on the fallback.
  if (conjuncts.size() == 1 && rng->Bernoulli(0.08)) conjuncts.clear();
  for (size_t i = lo; i <= hi; ++i) {
    if (!rng->Bernoulli(0.35)) continue;
    const double dice = rng->UniformDouble(0, 1);
    if (dice < 0.3) {
      conjuncts.push_back(TableName(i) + ".a = " +
                          std::to_string(rng->UniformInt(0, 7)));
    } else if (dice < 0.65) {
      const char* op = rng->Bernoulli(0.5) ? ">=" : "=";
      conjuncts.push_back(TableName(i) + ".v " + op + " " +
                          std::to_string(
                              rng->UniformInt(0, s.v_domain[i] - 1)));
    } else {
      conjuncts.push_back(
          TableName(i) + ".w = 's" +
          std::to_string(rng->UniformInt(0, s.w_domain[i] - 1)) + "'");
    }
  }
  if (rng->Bernoulli(0.5)) rng->Shuffle(&conjuncts);

  std::string from;
  for (size_t p = 0; p < order.size(); ++p) {
    if (p > 0) from += ", ";
    from += TableName(order[p]);
  }
  std::string sql = "SELECT " + select + " FROM " + from;
  for (size_t c = 0; c < conjuncts.size(); ++c) {
    sql += (c == 0 ? " WHERE " : " AND ") + conjuncts[c];
  }
  return sql;
}

struct Op {
  enum class Kind { kAppend, kDelete, kQuery } kind = Kind::kQuery;
  size_t table = 0;
  std::vector<std::vector<Value>> rows;  // kAppend
  size_t delete_count = 0;               // kDelete (victims picked live)
  std::string sql;                       // kQuery
};

std::vector<Op> MakeJoinOps(uint64_t seed, const JoinScenario& s) {
  Rng rng(seed ^ 0x0707ULL);
  std::vector<Op> ops;
  const size_t count = static_cast<size_t>(rng.UniformInt(8, 12));
  for (size_t i = 0; i < count; ++i) {
    Op op;
    const double dice = rng.UniformDouble(0, 1);
    op.table = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(s.n) - 1));
    if (dice < 0.25) {
      op.kind = Op::Kind::kAppend;
      const size_t rows = static_cast<size_t>(rng.UniformInt(1, 4));
      for (size_t r = 0; r < rows; ++r) {
        op.rows.push_back(RandomJoinRow(&rng, s, op.table));
      }
    } else if (dice < 0.35) {
      op.kind = Op::Kind::kDelete;
      op.delete_count = static_cast<size_t>(rng.UniformInt(1, 2));
    } else {
      op.kind = Op::Kind::kQuery;
      op.sql = RandomSpjQuery(&rng, s);
    }
    ops.push_back(std::move(op));
  }
  // Always end on the full chain so every table's final state is exercised
  // through the multi-way join path.
  Op last;
  last.kind = Op::Kind::kQuery;
  last.sql = ChainQuery(s);
  ops.push_back(std::move(last));
  return ops;
}

// Deterministic victim selection shared by both engines.
std::vector<RowId> PickVictims(const Table& t, size_t count, uint64_t salt) {
  std::vector<RowId> live = t.AllRowIds();
  std::vector<RowId> victims;
  if (live.empty()) return victims;
  Rng rng(salt);
  count = std::min(count, live.size());
  std::vector<size_t> idx = rng.SampleWithoutReplacement(live.size(), count);
  for (size_t i : idx) victims.push_back(live[i]);
  std::sort(victims.begin(), victims.end());
  return victims;
}

::testing::AssertionResult SameTables(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return ::testing::AssertionFailure()
           << "shape " << a.num_rows() << "x" << a.num_columns() << " vs "
           << b.num_rows() << "x" << b.num_columns();
  }
  for (RowId r = 0; r < a.num_rows(); ++r) {
    if (a.is_live(r) != b.is_live(r)) {
      return ::testing::AssertionFailure() << "liveness differs at row " << r;
    }
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (!(a.cell(r, c) == b.cell(r, c))) {
        return ::testing::AssertionFailure()
               << "cell (" << r << "," << c << ") differs: "
               << a.cell(r, c).ToString() << " vs " << b.cell(r, c).ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// --------------------------------------------------- nested-loop oracle --

// Reference join for the differentials below. Extends FROM-order prefixes
// one table at a time over each table's filtered rows (row-path evaluator),
// applies every join predicate to each extension — the earlier-FROM
// endpoint as the probe cell, the orientation every join step uses — and
// so emits tuples in lexicographic FROM-position row-id order. No hashing
// and no plan: only the semantics every join tree must reproduce.
Result<QueryOutput> OracleQuery(Database* db, const std::string& sql) {
  DAISY_ASSIGN_OR_RETURN(SelectStmt stmt, ParseQuery(sql));
  std::vector<const Table*> tables;
  for (const std::string& name : stmt.tables) {
    DAISY_ASSIGN_OR_RETURN(Table * t, db->GetTable(name));
    tables.push_back(t);
  }
  DAISY_ASSIGN_OR_RETURN(SplitWhere split, SplitWhereClause(stmt, tables));
  std::vector<std::vector<RowId>> rows;
  for (size_t i = 0; i < tables.size(); ++i) {
    DAISY_ASSIGN_OR_RETURN(
        std::vector<RowId> kept,
        FilterRows(*tables[i], split.table_filters[i].get(),
                   tables[i]->AllRowIds()));
    rows.push_back(std::move(kept));
  }
  std::vector<JoinedRow> joined;
  JoinedRow tuple(tables.size(), 0);
  std::function<void(size_t)> extend = [&](size_t t) {
    if (t == tables.size()) {
      joined.push_back(tuple);
      return;
    }
    for (RowId r : rows[t]) {
      tuple[t] = r;
      bool match = true;
      for (const SplitWhere::JoinPred& p : split.joins) {
        if (std::max(p.left_table, p.right_table) != t) continue;
        const Cell& l =
            tables[p.left_table]->cell(tuple[p.left_table], p.left_col);
        const Cell& rc =
            tables[p.right_table]->cell(tuple[p.right_table], p.right_col);
        match = p.left_table < p.right_table ? JoinCellsMayMatch(l, rc)
                                             : JoinCellsMayMatch(rc, l);
        if (!match) break;
      }
      if (match) extend(t + 1);
    }
  };
  extend(0);
  return QueryExecutor::BuildOutput(stmt, tables, std::move(joined));
}

// Runs `sql` through the cleaning-oblivious planner with the optimizer set
// explicitly on and off (so every CI leg checks both plan shapes) and
// holds both to the oracle: same lineage, same result cells. Returns the
// oracle's row count.
size_t ExpectMatchesOracle(Database* db, const std::string& sql) {
  SCOPED_TRACE(sql);
  Result<QueryOutput> want = OracleQuery(db, sql);
  EXPECT_TRUE(want.ok()) << want.status().ToString();
  if (!want.ok()) return 0;
  const SelectStmt stmt = ParseQuery(sql).ValueOrDie();
  for (bool optimizer : {true, false}) {
    Planner planner(db);
    planner.set_optimizer(optimizer);
    Result<Plan> plan = planner.PlanQuery(stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) continue;
    Result<QueryOutput> got = plan.value().Execute();
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok()) continue;
    EXPECT_EQ(got.value().lineage, want.value().lineage)
        << "optimizer=" << optimizer;
    EXPECT_TRUE(SameTables(got.value().result, want.value().result))
        << "optimizer=" << optimizer;
  }
  return want.value().result.num_rows();
}

TEST(JoinOracleTest, EveryPredicateOfAStepIsApplied) {
  // Two predicates bind b to a. x = i % 2 alone pairs each row with two
  // partners; x and y together only with itself.
  Database db;
  for (const char* name : {"a", "b"}) {
    Table t(name, Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}));
    for (int64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(t.AppendRow({Value(i % 2), Value(i)}).ok());
    }
    ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  }
  // Both plan shapes must equal the oracle, and the oracle keeps 4 rows.
  EXPECT_EQ(ExpectMatchesOracle(
                &db, "SELECT a.y, b.y FROM a, b WHERE a.x = b.x AND a.y = b.y"),
            4u);
}

TEST(JoinOracleTest, DoublyBoundStepThroughEngineMatchesOracle) {
  // The JoinReorderExactTest.DoublyBoundStepFails shape — two predicates
  // bind t1 to t0 and t2 joins by a cartesian step — through the cleaning
  // engine, with an FD rule whose repairs leave candidate sets on t0's
  // join key y.
  const std::string sql =
      "SELECT t0.y, t1.y, t2.z FROM t0, t1, t2 "
      "WHERE t0.x = t1.x AND t0.y = t1.y";
  for (bool optimizer : {true, false}) {
    SCOPED_TRACE("optimizer=" + std::to_string(optimizer));
    Database db;
    const Schema xy({{"x", ValueType::kInt}, {"y", ValueType::kInt}});
    Table t0("t0", xy);
    for (int64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(t0.AppendRow({Value(i % 2), Value(i)}).ok());
    }
    Table t1("t1", xy);
    for (int64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(t1.AppendRow({Value(i % 2), Value(i)}).ok());
    }
    Table t2("t2", Schema({{"z", ValueType::kInt}}));
    for (int64_t i = 0; i < 2; ++i) ASSERT_TRUE(t2.AppendRow({Value(i)}).ok());
    ASSERT_TRUE(db.AddTable(std::move(t0)).ok());
    ASSERT_TRUE(db.AddTable(std::move(t1)).ok());
    ASSERT_TRUE(db.AddTable(std::move(t2)).ok());
    ConstraintSet rules;
    ASSERT_TRUE(rules.AddFromText("fd: FD x -> y", "t0", xy).ok());
    DaisyOptions options;
    options.optimizer = optimizer;
    DaisyEngine engine(&db, std::move(rules), options);
    ASSERT_TRUE(engine.Prepare().ok());

    QueryReport report = engine.Query(sql).ValueOrDie();
    EXPECT_GT(db.GetTable("t0").ValueOrDie()->CountProbabilisticCells(), 0u);
    // The query cleaned t0 in its chain; the oracle reads the same cells.
    QueryOutput want = OracleQuery(&db, sql).ValueOrDie();
    EXPECT_EQ(report.output.lineage, want.lineage);
    EXPECT_TRUE(SameTables(report.output.result, want.result));
    // The second predicate really filters: dropping it admits more rows.
    QueryOutput x_only =
        OracleQuery(&db,
                    "SELECT t0.y, t1.y, t2.z FROM t0, t1, t2 "
                    "WHERE t0.x = t1.x")
            .ValueOrDie();
    EXPECT_LT(want.result.num_rows(), x_only.result.num_rows());
  }
}

TEST(JoinOracleTest, SeededScenariosMatchOracleWithOptimizerOnAndOff) {
  size_t oracle_rows = 0;
  size_t probabilistic_cells = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const JoinScenario s = MakeJoinScenario(seed);
    Database db;
    ConstraintSet rules;
    for (size_t i = 0; i < s.n; ++i) {
      Table t(TableName(i), s.schemas[i]);
      for (const auto& row : s.base_rows[i]) {
        ASSERT_TRUE(t.AppendRow(row).ok());
      }
      ASSERT_TRUE(db.AddTable(std::move(t)).ok());
      for (const std::string& text : s.rule_texts[i]) {
        ASSERT_TRUE(rules.AddFromText(text, TableName(i), s.schemas[i]).ok());
      }
    }
    // Odd seeds clean everything first, so join keys carry point and range
    // candidates (the order DC repairs t<i>.a with ranges).
    if (seed % 2 == 1) {
      DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
      ASSERT_TRUE(engine.Prepare().ok());
      ASSERT_TRUE(engine.CleanAllRemaining().ok());
    }
    for (size_t i = 0; i < s.n; ++i) {
      probabilistic_cells +=
          db.GetTable(TableName(i)).ValueOrDie()->CountProbabilisticCells();
    }

    Rng rng(seed ^ 0x0a0aULL);
    // A narrow projection keeps the widest joins over candidate cells
    // cheap to materialize three times.
    std::vector<std::string> queries = {ChainQuery(s, "t0.a, t0.v")};
    for (int q = 0; q < 6; ++q) queries.push_back(RandomSpjQuery(&rng, s));
    // Cartesian, residual (written in both orientations) and self-join
    // shapes: all outside the DP's gate.
    queries.push_back("SELECT t0.a, t1.w FROM t0, t1");
    queries.push_back("SELECT * FROM t0, t1 WHERE t0.b = t1.a AND t1.v = t0.v");
    queries.push_back("SELECT t0.v, t1.w FROM t0, t1, t0 WHERE t0.b = t1.a");
    queries.push_back("SELECT t1.a, t1.w FROM t1, t1");
    if (s.n >= 3) {
      queries.push_back(
          "SELECT t0.a, t2.w, t1.v FROM t0, t2, t1 WHERE t0.b = t1.a");
      queries.push_back(
          "SELECT t0.v, t1.w, t2.a FROM t0, t1, t2 WHERE t0.b = t1.a AND "
          "t1.b = t2.a AND t2.w = t0.w");
    }
    for (const std::string& sql : queries) {
      oracle_rows += ExpectMatchesOracle(&db, sql);
    }
  }
  // The sweep must exercise joins over candidate cells, not vacuously pass.
  EXPECT_GT(oracle_rows, 0u);
  EXPECT_GT(probabilistic_cells, 0u);
}

// ------------------------------------------- plan-equivalence differential --

struct DifferentialTally {
  size_t output_rows = 0;
  size_t deferrals = 0;
  size_t optimized_plans = 0;
};

void RunOptimizerDifferential(uint64_t seed, DifferentialTally* tally) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const JoinScenario s = MakeJoinScenario(seed);

  auto make_engine = [&](bool optimizer) {
    auto db = std::make_unique<Database>();
    ConstraintSet rules;
    for (size_t i = 0; i < s.n; ++i) {
      Table t(TableName(i), s.schemas[i]);
      for (const auto& row : s.base_rows[i]) {
        EXPECT_TRUE(t.AppendRow(row).ok());
      }
      EXPECT_TRUE(db->AddTable(std::move(t)).ok());
      for (const std::string& text : s.rule_texts[i]) {
        EXPECT_TRUE(rules.AddFromText(text, TableName(i), s.schemas[i]).ok());
      }
    }
    DaisyOptions options;
    options.mode = (seed % 2 == 0) ? DaisyOptions::Mode::kAdaptive
                                   : DaisyOptions::Mode::kIncremental;
    options.theta_partitions = 4;
    options.optimizer = optimizer;
    auto engine =
        std::make_unique<DaisyEngine>(db.get(), std::move(rules), options);
    EXPECT_TRUE(engine->Prepare().ok());
    return std::make_pair(std::move(db), std::move(engine));
  };
  auto [db_on, engine_on] = make_engine(true);
  auto [db_off, engine_off] = make_engine(false);

  // Until the first cleanσ deferral both engines march through identical
  // cleaning states; afterwards the optimizer engine has intentionally
  // cleaned less (only join survivors) and the states reconverge at the
  // CleanAllRemaining below.
  bool diverged = false;

  const std::vector<Op> ops = MakeJoinOps(seed, s);
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    const Op& op = ops[i];
    if (op.kind == Op::Kind::kAppend) {
      ASSERT_TRUE(engine_on->AppendRows(TableName(op.table), op.rows).ok());
      ASSERT_TRUE(engine_off->AppendRows(TableName(op.table), op.rows).ok());
    } else if (op.kind == Op::Kind::kDelete) {
      const Table* t = db_on->GetTable(TableName(op.table)).ValueOrDie();
      std::vector<RowId> victims = PickVictims(*t, op.delete_count, seed + i);
      if (victims.empty()) continue;
      ASSERT_TRUE(engine_on->DeleteRows(TableName(op.table), victims).ok());
      ASSERT_TRUE(engine_off->DeleteRows(TableName(op.table), victims).ok());
    } else {
      QueryReport a = engine_on->Query(op.sql).ValueOrDie();
      QueryReport b = engine_off->Query(op.sql).ValueOrDie();
      // The optimizer never changes what a query returns.
      EXPECT_TRUE(SameTables(a.output.result, b.output.result)) << op.sql;
      tally->output_rows += a.output.result.num_rows();
      tally->deferrals += a.rules_deferred;
      if (!engine_off->options().optimizer) {
        EXPECT_EQ(b.rules_deferred, 0u) << op.sql;
      }
      if (a.rules_deferred > 0 || b.rules_deferred > 0) diverged = true;
      if (!diverged) {
        EXPECT_EQ(a.errors_fixed, b.errors_fixed) << op.sql;
        EXPECT_EQ(a.extra_tuples, b.extra_tuples) << op.sql;
        EXPECT_EQ(a.rules_applied, b.rules_applied) << op.sql;
        EXPECT_EQ(a.rules_pruned, b.rules_pruned) << op.sql;
        EXPECT_EQ(a.delta_rows_checked, b.delta_rows_checked) << op.sql;
        EXPECT_EQ(a.switched_to_full, b.switched_to_full) << op.sql;
        for (size_t t = 0; t < s.n; ++t) {
          EXPECT_TRUE(
              SameTables(*db_on->GetTable(TableName(t)).ValueOrDie(),
                         *db_off->GetTable(TableName(t)).ValueOrDie()))
              << op.sql;
        }
      }
    }
  }

  // The full chain query is inside the exact regime, so the optimizer
  // engine must actually be running a costed plan: every join step renders
  // its build side, but only the DP's plans carry estimates.
  if (s.n > 1 && engine_on->options().optimizer) {
    const std::string text = engine_on->Explain(ChainQuery(s)).ValueOrDie();
    EXPECT_NE(text.find("[build="), std::string::npos) << text;
    EXPECT_NE(text.find("est_rows="), std::string::npos) << text;
    ++tally->optimized_plans;
  }

  // Deferral only delays cleaning of rows the queries never returned;
  // finishing the work wholesale must land both engines on the same bytes.
  ASSERT_TRUE(engine_on->CleanAllRemaining().ok());
  ASSERT_TRUE(engine_off->CleanAllRemaining().ok());
  for (size_t t = 0; t < s.n; ++t) {
    EXPECT_TRUE(SameTables(*db_on->GetTable(TableName(t)).ValueOrDie(),
                           *db_off->GetTable(TableName(t)).ValueOrDie()));
  }
}

TEST(OptimizerDifferential, PlanEquivalenceAcross100Seeds) {
  DifferentialTally tally;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    RunOptimizerDifferential(seed, &tally);
  }
  // The sweep must actually exercise the machinery, not vacuously pass.
  EXPECT_GT(tally.output_rows, 0u);
  ::testing::Test::RecordProperty("output_rows",
                                  static_cast<int>(tally.output_rows));
  ::testing::Test::RecordProperty("deferrals",
                                  static_cast<int>(tally.deferrals));
  ::testing::Test::RecordProperty("optimized_plans",
                                  static_cast<int>(tally.optimized_plans));
}

TEST(OptimizerDifferential, DeferredCleaningConvergesDeterministically) {
  // The explain_test deferral scenario, run as a differential: tau's
  // cleanσ moves above the selective join, the query output matches the
  // naive plan bit for bit, and CleanAllRemaining converges the tables.
  auto make_engine = [&](bool optimizer) {
    auto db = std::make_unique<Database>();
    Table emp("emp", Schema({{"name", ValueType::kString},
                             {"dept_id", ValueType::kInt},
                             {"salary", ValueType::kDouble}}));
    for (int i = 0; i < 12; ++i) {
      EXPECT_TRUE(
          emp.AppendRow({Value(i < 2 ? "dup" : "e" + std::to_string(i)),
                         Value(i % 6), Value(100.0 * (i + 1))})
              .ok());
    }
    EXPECT_TRUE(db->AddTable(std::move(emp)).ok());
    Table dept("dept", Schema({{"id", ValueType::kInt},
                               {"dept_name", ValueType::kString}}));
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(dept.AppendRow({Value(i), Value(i == 0
                                                      ? "eng"
                                                      : "d" + std::to_string(
                                                                  i))})
                      .ok());
    }
    EXPECT_TRUE(db->AddTable(std::move(dept)).ok());
    ConstraintSet rules;
    EXPECT_TRUE(rules
                    .AddFromText("tau: FD name -> salary", "emp",
                                 db->GetTable("emp").ValueOrDie()->schema())
                    .ok());
    DaisyOptions options;
    options.optimizer = optimizer;
    auto engine =
        std::make_unique<DaisyEngine>(db.get(), std::move(rules), options);
    EXPECT_TRUE(engine->Prepare().ok());
    return std::make_pair(std::move(db), std::move(engine));
  };
  auto [db_on, engine_on] = make_engine(true);
  auto [db_off, engine_off] = make_engine(false);

  const std::string sql =
      "SELECT emp.name, emp.salary, dept.dept_name FROM emp, dept "
      "WHERE emp.dept_id = dept.id AND dept.dept_name = 'eng'";
  QueryReport a = engine_on->Query(sql).ValueOrDie();
  QueryReport b = engine_off->Query(sql).ValueOrDie();
  EXPECT_TRUE(SameTables(a.output.result, b.output.result));
  EXPECT_EQ(b.rules_deferred, 0u);
  if (engine_on->options().optimizer) {
    EXPECT_EQ(a.rules_deferred, 1u);
  }
  ASSERT_TRUE(engine_on->CleanAllRemaining().ok());
  ASSERT_TRUE(engine_off->CleanAllRemaining().ok());
  EXPECT_TRUE(SameTables(*db_on->GetTable("emp").ValueOrDie(),
                         *db_off->GetTable("emp").ValueOrDie()));
  EXPECT_TRUE(SameTables(*db_on->GetTable("dept").ValueOrDie(),
                         *db_off->GetTable("dept").ValueOrDie()));
}

}  // namespace
}  // namespace daisy
