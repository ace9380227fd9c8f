// Tests for the physical plan layer: compiled-filter equivalence with the
// row-path oracle (property-style over ops, nulls and candidate cells, and
// a seeded differential over NaN, int64 beyond 2^53 and candidates written
// after compilation), batch-size invariance, planner lowering through
// QueryExecutor, the plan-time FROM width limit, and the join root's
// canonical tuple order.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cell_test_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "filter_oracle.h"
#include "plan/compiled_filter.h"
#include "plan/planner.h"
#include "query/parser.h"
#include "storage/database.h"

namespace daisy {
namespace {

// A table exercising every cell shape the filter must handle: duplicated
// ints, doubles, strings, ~10% nulls per column, plus point and range
// candidates attached to a random subset of cells.
Table MakeMessyTable(uint64_t seed, size_t rows) {
  Rng rng(seed);
  Table t("m", Schema({{"a", ValueType::kInt},
                       {"b", ValueType::kInt},
                       {"d", ValueType::kDouble},
                       {"s", ValueType::kString},
                       {"u", ValueType::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    auto maybe_null = [&](Value v) {
      return rng.Bernoulli(0.1) ? Value::Null() : v;
    };
    EXPECT_TRUE(
        t.AppendRow(
             {maybe_null(Value(rng.UniformInt(0, 20))),
              maybe_null(Value(rng.UniformInt(0, 20))),
              maybe_null(Value(rng.UniformDouble(0, 10))),
              maybe_null(Value("s" + std::to_string(rng.UniformInt(0, 9)))),
              maybe_null(Value("u" + std::to_string(rng.UniformInt(0, 9))))})
            .ok());
  }
  // Candidate-carrying cells: points and open ranges.
  for (size_t i = 0; i < rows; ++i) {
    if (rng.Bernoulli(0.15)) {
      Cell& c = t.mutable_cell(i, 0);
      testutil::AddCandidate(
          &c, {Value(rng.UniformInt(0, 20)), 0.5, 0, CandidateKind::kPoint});
      testutil::AddCandidate(
          &c, {Value(rng.UniformInt(0, 20)), 0.5, 1, CandidateKind::kPoint});
    }
    if (rng.Bernoulli(0.1)) {
      testutil::AddCandidate(
          &t.mutable_cell(i, 2),
          {Value(rng.UniformDouble(0, 10)), 1.0, 0,
           rng.Bernoulli(0.5) ? CandidateKind::kLessEq
                              : CandidateKind::kGreaterThan});
    }
    if (rng.Bernoulli(0.1)) {
      testutil::AddCandidate(
          &t.mutable_cell(i, 3),
          {Value("s" + std::to_string(rng.UniformInt(0, 9))), 1.0, 0,
           CandidateKind::kPoint});
    }
  }
  return t;
}

std::unique_ptr<Expr> ParseWhere(const std::string& condition) {
  auto stmt = ParseQuery("SELECT * FROM m WHERE " + condition).ValueOrDie();
  EXPECT_NE(stmt.where, nullptr);
  return std::move(stmt.where);
}

// The property: both entry points of the compiled filter admit exactly
// the rows the row-path oracle admits, Filter in its input's order.
::testing::AssertionResult MatchesOracle(const Table& t, const Expr& expr,
                                         const CompiledFilter& compiled,
                                         const std::vector<RowId>& input) {
  const std::vector<RowId> oracle =
      testutil::FilterRows(t, &expr, input).ValueOrDie();
  std::vector<RowId> matched;
  for (RowId r : input) {
    if (compiled.Matches(r)) matched.push_back(r);
  }
  if (matched != oracle) {
    return ::testing::AssertionFailure()
           << "Matches: " << matched.size() << " rows, oracle "
           << oracle.size() << ", predicate: " << expr.ToString();
  }
  if (compiled.Filter(input) != oracle) {
    return ::testing::AssertionFailure()
           << "Filter differs from the oracle, predicate: " << expr.ToString();
  }
  return ::testing::AssertionSuccess();
}

void ExpectEquivalent(const Table& t, const std::string& condition) {
  std::unique_ptr<Expr> expr = ParseWhere(condition);
  auto compiled = CompiledFilter::Compile(t, *expr).ValueOrDie();
  EXPECT_TRUE(MatchesOracle(t, *expr, compiled, t.AllRowIds()));
}

TEST(CompiledFilterTest, ConstantLeavesAllOpsAllTypes) {
  Table t = MakeMessyTable(7, 400);
  const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  for (const char* op : kOps) {
    // In-dictionary and absent constants, int/double cross-type, strings.
    ExpectEquivalent(t, std::string("a ") + op + " 10");
    ExpectEquivalent(t, std::string("a ") + op + " 100");
    ExpectEquivalent(t, std::string("a ") + op + " 9.5");
    ExpectEquivalent(t, std::string("d ") + op + " 5.0");
    ExpectEquivalent(t, std::string("s ") + op + " 's4'");
    ExpectEquivalent(t, std::string("s ") + op + " 'zz'");
    // Cross-type: string column vs numeric constant orders by type rank.
    ExpectEquivalent(t, std::string("s ") + op + " 3");
  }
}

TEST(CompiledFilterTest, ColumnVsColumnLeaves) {
  Table t = MakeMessyTable(11, 400);
  const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  for (const char* op : kOps) {
    ExpectEquivalent(t, std::string("a ") + op + " b");   // numeric pair
    ExpectEquivalent(t, std::string("a ") + op + " d");   // int vs double
    ExpectEquivalent(t, std::string("a ") + op + " a");   // same column
    ExpectEquivalent(t, std::string("s ") + op + " u");   // string fallback
    ExpectEquivalent(t, std::string("s ") + op + " a");   // mixed fallback
  }
}

TEST(CompiledFilterTest, AndOrTrees) {
  Table t = MakeMessyTable(13, 400);
  ExpectEquivalent(t, "a >= 5 AND a <= 15");
  ExpectEquivalent(t, "a = 3 OR s = 's7'");
  ExpectEquivalent(t, "(a < 4 OR d > 8.0) AND s != 's0'");
  ExpectEquivalent(t, "a != 2 AND (d <= 1.5 OR (s > 's5' AND b >= 10))");
}

TEST(CompiledFilterTest, ManyRandomPredicates) {
  Table t = MakeMessyTable(17, 250);
  Rng rng(23);
  const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  const char* kCols[] = {"a", "b", "d", "s", "u"};
  for (int i = 0; i < 60; ++i) {
    const char* col = kCols[rng.UniformInt(0, 4)];
    const char* op = kOps[rng.UniformInt(0, 5)];
    std::string rhs;
    switch (rng.UniformInt(0, 3)) {
      case 0:
        rhs = std::to_string(rng.UniformInt(-5, 25));
        break;
      case 1:
        rhs = std::to_string(rng.UniformDouble(-1, 11));
        break;
      case 2:
        rhs = "'s" + std::to_string(rng.UniformInt(0, 12)) + "'";
        break;
      default:
        rhs = kCols[rng.UniformInt(0, 4)];
        break;
    }
    ExpectEquivalent(t, std::string(col) + " " + op + " " + rhs);
  }
}

TEST(CompiledFilterTest, UnknownColumnFailsCompile) {
  Table t = MakeMessyTable(3, 10);
  std::unique_ptr<Expr> expr = ParseWhere("a > 1");
  expr->left.column = "ghost";
  EXPECT_FALSE(CompiledFilter::Compile(t, *expr).ok());
  std::unique_ptr<Expr> qualified = ParseWhere("a > 1");
  qualified->left.table = "other";
  EXPECT_FALSE(CompiledFilter::Compile(t, *qualified).ok());
}

// ---------------------------------------------- Seeded filter differential --
//
// Tables whose values break a naive projection: NaN (Compare calls it equal
// to every number), int64 2^53 and 2^53 + 1 (one double), infinities, -0.0,
// nulls and strings, plus point and range candidates. Candidates are
// written with SetCandidates both before and after Compile (point, range,
// and reverts to none): a compiled filter must stay exact across repairs,
// which is what lets cleanσ compile its filter once per run.

constexpr int64_t kTwo53 = int64_t{1} << 53;

struct DiffConfig {
  bool nan = true;       ///< double columns may hold NaN
  bool big_ints = true;  ///< int columns may hold |v| >= 2^53
  bool mixed = false;    ///< double columns may hold int values too
};

Value IntValue(Rng* rng, const DiffConfig& cfg) {
  static const int64_t kSmall[] = {-3, 0, 1, 2, 7};
  static const int64_t kBig[] = {kTwo53 - 1, kTwo53, kTwo53 + 1, kTwo53 + 2,
                                 -kTwo53 - 1};
  if (cfg.big_ints && rng->Bernoulli(0.5)) {
    return Value(kBig[rng->UniformInt(0, 4)]);
  }
  return Value(kSmall[rng->UniformInt(0, 4)]);
}

Value DoubleValue(Rng* rng, const DiffConfig& cfg, bool nan_column) {
  if (cfg.mixed && rng->Bernoulli(0.3)) return IntValue(rng, cfg);
  static const double kPool[] = {-1.5,
                                 -0.0,
                                 0.0,
                                 2.0,
                                 2.5,
                                 7.0,
                                 9007199254740992.0,  // 2^53
                                 std::numeric_limits<double>::infinity()};
  if (cfg.nan && nan_column && rng->Bernoulli(0.2)) {
    return Value(std::numeric_limits<double>::quiet_NaN());
  }
  return Value(kPool[rng->UniformInt(0, 7)]);
}

Value StringValue(Rng* rng) {
  static const char* kPool[] = {"", "a", "b", "s1", "zz"};
  return Value(kPool[rng->UniformInt(0, 4)]);
}

// Columns: i, j int; d, e double (NaN-bearing per seed); s, u string.
Value ColumnValue(Rng* rng, const DiffConfig& cfg, size_t col,
                  bool nan_column) {
  if (rng->Bernoulli(0.1)) return Value::Null();
  switch (col) {
    case 0:
    case 1:
      return IntValue(rng, cfg);
    case 2:
    case 3:
      return DoubleValue(rng, cfg, nan_column);
    default:
      return StringValue(rng);
  }
}

// A candidate set for a cell of `col`: empty (a revert), points, or one
// range, bounds drawn like the column's values.
std::vector<Candidate> RandomCandidates(Rng* rng, const DiffConfig& cfg,
                                        size_t col) {
  std::vector<Candidate> cands;
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return cands;
    case 1:
    case 2: {
      const int64_t n = rng->UniformInt(1, 3);
      for (int64_t k = 0; k < n; ++k) {
        cands.push_back({ColumnValue(rng, cfg, col, true), 1.0 / n,
                         static_cast<int32_t>(k), CandidateKind::kPoint});
      }
      return cands;
    }
    default: {
      static const CandidateKind kRanges[] = {
          CandidateKind::kLessThan, CandidateKind::kLessEq,
          CandidateKind::kGreaterThan, CandidateKind::kGreaterEq};
      Value bound = ColumnValue(rng, cfg, col, true);
      if (bound.is_null()) bound = Value(int64_t{2});
      cands.push_back({bound, 1.0, 0, kRanges[rng->UniformInt(0, 3)]});
      return cands;
    }
  }
}

Table MakeDiffTable(Rng* rng, const DiffConfig& cfg, size_t rows) {
  Table t("x", Schema({{"i", ValueType::kInt},
                       {"j", ValueType::kInt},
                       {"d", ValueType::kDouble},
                       {"e", ValueType::kDouble},
                       {"s", ValueType::kString},
                       {"u", ValueType::kString}}));
  // Per table, each double column holds NaN or not: both the per-cell path
  // and the rank path see NaN-free double columns.
  const bool d_nan = rng->Bernoulli(0.7);
  const bool e_nan = rng->Bernoulli(0.3);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < 6; ++c) {
      row.push_back(ColumnValue(rng, cfg, c, c == 2 ? d_nan : e_nan));
    }
    EXPECT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

// Writes a random candidate set into ~`frac` of the cells.
void WriteCandidates(Rng* rng, const DiffConfig& cfg, double frac, Table* t) {
  for (RowId r = 0; r < t->num_rows(); ++r) {
    for (size_t c = 0; c < t->num_columns(); ++c) {
      if (rng->Bernoulli(frac)) {
        t->SetCandidates(r, c,
                         MakeCandidateSet(RandomCandidates(rng, cfg, c)));
      }
    }
  }
}

// A random WHERE tree of depth <= `depth` over the table's columns:
// leaves compare a column with another column or with a constant of any
// type (NaN, 2^53 as a double, ints beyond 2^53, strings, null).
std::unique_ptr<Expr> RandomExpr(Rng* rng, const DiffConfig& cfg, int depth) {
  static const char* kCols[] = {"i", "j", "d", "e", "s", "u"};
  static const CompareOp kOps[] = {CompareOp::kEq,  CompareOp::kNeq,
                                   CompareOp::kLt,  CompareOp::kLeq,
                                   CompareOp::kGt,  CompareOp::kGeq};
  auto expr = std::make_unique<Expr>();
  if (depth > 0 && rng->Bernoulli(0.4)) {
    expr->kind = rng->Bernoulli(0.5) ? Expr::Kind::kAnd : Expr::Kind::kOr;
    const int64_t n = rng->UniformInt(2, 3);
    for (int64_t k = 0; k < n; ++k) {
      expr->children.push_back(RandomExpr(rng, cfg, depth - 1));
    }
    return expr;
  }
  expr->kind = Expr::Kind::kCmp;
  expr->left.column = kCols[rng->UniformInt(0, 5)];
  expr->op = kOps[rng->UniformInt(0, 5)];
  if (rng->Bernoulli(0.35)) {
    expr->right_is_column = true;
    expr->right_col.column = kCols[rng->UniformInt(0, 5)];
  } else {
    expr->right_val = ColumnValue(rng, cfg, rng->UniformInt(0, 5), true);
  }
  return expr;
}

// One seed: compile predicates, check them, write candidates, check the
// same compiled filters again. Every check covers Matches, Filter over the
// row ids in order, and Filter over a shuffled input.
void RunFilterDifferential(uint64_t seed, const DiffConfig& cfg) {
  Rng rng(seed);
  Table t = MakeDiffTable(&rng, cfg, 48);
  WriteCandidates(&rng, cfg, 0.1, &t);
  std::vector<std::unique_ptr<Expr>> exprs;
  std::vector<CompiledFilter> filters;
  for (int k = 0; k < 12; ++k) {
    exprs.push_back(RandomExpr(&rng, cfg, 2));
    filters.push_back(CompiledFilter::Compile(t, *exprs.back()).ValueOrDie());
  }
  std::vector<RowId> shuffled = t.AllRowIds();
  rng.Shuffle(&shuffled);
  for (int round = 0; round < 3; ++round) {
    for (size_t k = 0; k < exprs.size(); ++k) {
      EXPECT_TRUE(MatchesOracle(t, *exprs[k], filters[k], t.AllRowIds()))
          << "seed " << seed << " round " << round;
      EXPECT_TRUE(MatchesOracle(t, *exprs[k], filters[k], shuffled))
          << "seed " << seed << " round " << round << " (shuffled input)";
    }
    WriteCandidates(&rng, cfg, 0.15, &t);
  }
}

TEST(CompiledFilterDifferential, MatchesOracleAcross120Seeds) {
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    RunFilterDifferential(seed, DiffConfig{});
  }
}

TEST(CompiledFilterDifferential, NanColumnsMatchOracle) {
  DiffConfig cfg;
  cfg.big_ints = false;
  for (uint64_t seed = 1001; seed <= 1040; ++seed) {
    RunFilterDifferential(seed, cfg);
  }
}

TEST(CompiledFilterDifferential, IntsBeyondTwoTo53MatchOracle) {
  DiffConfig cfg;
  cfg.nan = false;
  for (uint64_t seed = 2001; seed <= 2040; ++seed) {
    RunFilterDifferential(seed, cfg);
  }
}

// Double columns that also hold ints, 2^53 and beyond included: Compare
// calls int 2^53 and 2^53 + 1 both equal to double 2^53, which no rank
// order reproduces.
TEST(CompiledFilterDifferential, MixedIntDoubleColumnsMatchOracle) {
  DiffConfig cfg;
  cfg.mixed = true;
  for (uint64_t seed = 3001; seed <= 3040; ++seed) {
    RunFilterDifferential(seed, cfg);
  }
  cfg.nan = false;
  for (uint64_t seed = 3041; seed <= 3080; ++seed) {
    RunFilterDifferential(seed, cfg);
  }
}

// The two divergences the differential found, pinned on fixed rows.
TEST(CompiledFilterTest, NanColumnKeepsOtherValuesExact) {
  Table t("m", Schema({{"d", ValueType::kDouble}}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {1.0, nan, 2.0, 3.0, nan, 0.5, 2.0, 4.0}) {
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  for (const char* op : kOps) {
    ExpectEquivalent(t, std::string("d ") + op + " 2.0");
    ExpectEquivalent(t, std::string("d ") + op + " 9.0");
    ExpectEquivalent(t, std::string("d ") + op + " d");
  }
  const ColumnCache::Column& col = t.columns().column(0);
  EXPECT_TRUE(col.has_nan);
  // Every NaN ranks after every number.
  EXPECT_EQ(col.ranks[0], 1u);  // 0.5 < 1.0 < 2.0 < 3.0 < 4.0 < NaN, NaN
  EXPECT_GT(col.ranks[1], col.ranks[7]);
  EXPECT_GT(col.ranks[4], col.ranks[7]);
}

TEST(CompiledFilterTest, IntsBeyondTwoTo53CompareExactly) {
  Table t("m", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  ASSERT_TRUE(t.AppendRow({Value(kTwo53), Value(kTwo53 + 1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(kTwo53 + 1), Value(kTwo53)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(kTwo53 + 1), Value(kTwo53 + 1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{3}), Value(int64_t{3})}).ok());
  const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  for (const char* op : kOps) {
    ExpectEquivalent(t, std::string("a ") + op + " b");
    // 2^53 and 2^53 + 1 both widen to this double constant.
    ExpectEquivalent(t, std::string("a ") + op + " 9007199254740992.0");
  }
}

TEST(CompiledFilterTest, MixedColumnBeyondTwoTo53CompareExactly) {
  // A double column holding ints at and beyond 2^53 beside a double 2^53:
  // six ops against an int 2^53, an int 2^53 + 1 and a double 2^53.
  Table t("m", Schema({{"x", ValueType::kDouble}}));
  ASSERT_TRUE(t.AppendRow({Value(kTwo53 + 1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(9007199254740992.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(kTwo53)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(kTwo53 + 2)}).ok());
  EXPECT_FALSE(t.columns().column(0).ranks_exact());
  const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  const char* kConstants[] = {"9007199254740992", "9007199254740993",
                              "9007199254740992.0"};
  for (const char* op : kOps) {
    for (const char* c : kConstants) {
      ExpectEquivalent(t, std::string("x ") + op + " " + c);
    }
  }
}

// ------------------------------------------------------------- Plan runs --

Database MakePlanDb(uint64_t seed) {
  Database db;
  EXPECT_TRUE(db.AddTable(MakeMessyTable(seed, 300)).ok());
  return db;
}

TEST(PlanTest, BatchSizeDoesNotChangeResults) {
  Database db = MakePlanDb(31);
  auto stmt =
      ParseQuery("SELECT a, d FROM m WHERE a > 4 AND s != 's3'").ValueOrDie();
  Planner planner(&db);
  auto reference = planner.PlanQuery(stmt).ValueOrDie();
  auto ref_out = reference.Execute().ValueOrDie();
  for (size_t batch : {1u, 7u, 64u, 100000u}) {
    auto plan = planner.PlanQuery(stmt).ValueOrDie();
    plan.set_batch_size(batch);
    auto out = plan.Execute().ValueOrDie();
    EXPECT_EQ(out.lineage, ref_out.lineage) << "batch=" << batch;
  }
}

TEST(PlanTest, ExecutorLowersThroughPlanner) {
  // The thin frontend produces the same output shape and scan accounting
  // the pre-plan executor did.
  Database db = MakePlanDb(37);
  QueryExecutor exec(&db);
  auto out = exec.Execute("SELECT a FROM m WHERE a = 5").ValueOrDie();
  EXPECT_EQ(out.rows_scanned, 300u);
  EXPECT_EQ(out.lineage.width, 1u);
  EXPECT_EQ(out.lineage.size(), out.result.num_rows());
}

TEST(PlanTest, FromWidthLimitIsEnforcedAtPlanTime) {
  // Join trees key subtrees by 64-bit FROM-position masks: 64 entries are
  // the most a statement may list, and one more is a typed error rather
  // than an out-of-range shift.
  Database db;
  std::string from;
  for (size_t i = 0; i <= kMaxFromTables; ++i) {
    const std::string name = "w" + std::to_string(i);
    Table t(name, Schema({{"k", ValueType::kInt}}));
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(i))}).ok());
    ASSERT_TRUE(db.AddTable(std::move(t)).ok());
    if (i == kMaxFromTables) break;
    from += (i == 0 ? "" : ", ") + name;
  }
  ASSERT_EQ(kMaxFromTables, 64u);
  QueryExecutor exec(&db);
  auto widest = exec.Execute("SELECT w0.k, w63.k FROM " + from);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest.value().result.num_rows(), 1u);
  EXPECT_EQ(widest.value().lineage.width, kMaxFromTables);
  EXPECT_EQ(widest.value().lineage.ids.size(), kMaxFromTables);

  auto too_wide = exec.Execute("SELECT w0.k FROM " + from + ", w64");
  ASSERT_FALSE(too_wide.ok());
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);
}

// The root sort's reference: the same tuples as per-tuple vectors, ordered
// by std::sort.
std::vector<std::vector<RowId>> VectorSorted(const JoinedRows& rows) {
  std::vector<std::vector<RowId>> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    out.emplace_back(rows[i], rows[i] + rows.width);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<RowId>> AsVectors(const JoinedRows& rows) {
  std::vector<std::vector<RowId>> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    out.emplace_back(rows[i], rows[i] + rows.width);
  }
  return out;
}

// t<i>(a, b) with small repeated keys, so joins fan out and the emission
// order of a reordered tree is far from lexicographic.
std::vector<Table> MakeSortTables(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Table> out;
  for (size_t i = 0; i < n; ++i) {
    Table t("t" + std::to_string(i),
            Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
    for (size_t r = 0; r < 12; ++r) {
      EXPECT_TRUE(t.AppendRow({Value(rng.UniformInt(0, 3)),
                               Value(rng.UniformInt(0, 3))})
                      .ok());
    }
    out.push_back(std::move(t));
  }
  return out;
}

// Join-root canonical sorts so far, by outcome.
uint64_t RootSorts(const char* order) {
  return MetricsRegistry::Global()
      .GetCounter(std::string("daisy_plan_root_sorts_total{order=\"") +
                  order + "\"}")
      ->Value();
}

TEST(PlanTest, RootSortOfCartesianStepMatchesVectorSort) {
  // FROM t0, t1 with t1 on the left: the step emits t1-major, and the
  // root sort must restore lexicographic (t0, t1) order.
  std::vector<Table> owned = MakeSortTables(5, 2);
  const std::vector<const Table*> tables = {&owned[0], &owned[1]};
  const std::vector<SplitWhere::JoinPred> joins;
  HashJoinStepNode step(PlanNode::Kind::kHashJoin, &tables, &joins,
                        /*pred_idx=*/0, /*left_mask=*/0b10,
                        /*right_mask=*/0b01, /*left_from=*/1,
                        /*right_from=*/0, /*build_left=*/false,
                        std::make_unique<ScanNode>(tables[1]),
                        std::make_unique<ScanNode>(tables[0]));
  step.set_sort_output(true);
  ExecContext ctx;
  const uint64_t sorted_before = RootSorts("sorted");
  JoinedRows out = step.ExecuteJoined(&ctx).ValueOrDie();
  EXPECT_EQ(RootSorts("sorted") - sorted_before, 1u);
  ASSERT_EQ(out.width, 2u);
  ASSERT_EQ(out.size(), 12u * 12u);
  EXPECT_NE(out[0][1], out[1][1]);  // t1 varies fastest once sorted
  EXPECT_EQ(AsVectors(out), VectorSorted(out));
}

TEST(PlanTest, RootSortOfThreeTableChainMatchesVectorSort) {
  // FROM t0, t1, t2 WHERE t0.a = t2.a AND t1.b = t2.b, joined as
  // (t0 ⋈ t2) ⋈ t1: the root probes with t1, so it emits t1-major.
  std::vector<Table> owned = MakeSortTables(9, 3);
  const std::vector<const Table*> tables = {&owned[0], &owned[1], &owned[2]};
  std::vector<SplitWhere::JoinPred> joins(2);
  joins[0] = {0, 0, 2, 0};  // t0.a = t2.a
  joins[1] = {1, 1, 2, 1};  // t1.b = t2.b
  auto inner = std::make_unique<HashJoinStepNode>(
      PlanNode::Kind::kHashJoin, &tables, &joins, /*pred_idx=*/0,
      /*left_mask=*/0b001, /*right_mask=*/0b100, /*left_from=*/0,
      /*right_from=*/2, /*build_left=*/false,
      std::make_unique<ScanNode>(tables[0]),
      std::make_unique<ScanNode>(tables[2]));
  HashJoinStepNode root(PlanNode::Kind::kHashJoin, &tables, &joins,
                        /*pred_idx=*/1, /*left_mask=*/0b101,
                        /*right_mask=*/0b010, /*left_from=*/-1,
                        /*right_from=*/1, /*build_left=*/true,
                        std::move(inner),
                        std::make_unique<ScanNode>(tables[1]));
  ExecContext ctx;
  JoinedRows unsorted = root.ExecuteJoined(&ctx).ValueOrDie();
  ASSERT_EQ(unsorted.width, 3u);
  ASSERT_GT(unsorted.size(), 50u);
  ASSERT_NE(AsVectors(unsorted), VectorSorted(unsorted));

  // The probe side is not the first FROM table: the one-pass order check
  // fails and the fallback sort runs.
  root.set_sort_output(true);
  const uint64_t sorted_before = RootSorts("sorted");
  const uint64_t kept_before = RootSorts("kept");
  JoinedRows sorted = root.ExecuteJoined(&ctx).ValueOrDie();
  EXPECT_EQ(AsVectors(sorted), VectorSorted(unsorted));
  EXPECT_EQ(RootSorts("sorted") - sorted_before, 1u);
  EXPECT_EQ(RootSorts("kept"), kept_before);
}

TEST(PlanTest, RootSortKeepsInputAlreadyInOrder) {
  // FROM t0, t1 WHERE t0.a = t1.a probed by t0 and built on t1: per-probe
  // matches come out in build row order, so the output is already
  // lexicographic and the root keeps it as is.
  std::vector<Table> owned = MakeSortTables(13, 2);
  const std::vector<const Table*> tables = {&owned[0], &owned[1]};
  std::vector<SplitWhere::JoinPred> joins(1);
  joins[0] = {0, 0, 1, 0};  // t0.a = t1.a
  HashJoinStepNode step(PlanNode::Kind::kHashJoin, &tables, &joins,
                        /*pred_idx=*/0, /*left_mask=*/0b01,
                        /*right_mask=*/0b10, /*left_from=*/0,
                        /*right_from=*/1, /*build_left=*/false,
                        std::make_unique<ScanNode>(tables[0]),
                        std::make_unique<ScanNode>(tables[1]));
  ExecContext ctx;
  JoinedRows plain = step.ExecuteJoined(&ctx).ValueOrDie();
  ASSERT_GT(plain.size(), 20u);
  ASSERT_EQ(AsVectors(plain), VectorSorted(plain));

  step.set_sort_output(true);
  const uint64_t sorted_before = RootSorts("sorted");
  const uint64_t kept_before = RootSorts("kept");
  JoinedRows kept = step.ExecuteJoined(&ctx).ValueOrDie();
  EXPECT_EQ(kept, plain);
  EXPECT_EQ(RootSorts("kept") - kept_before, 1u);
  EXPECT_EQ(RootSorts("sorted"), sorted_before);
}

}  // namespace
}  // namespace daisy
