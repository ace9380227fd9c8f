// Tests for the physical plan layer: compiled-filter equivalence with the
// row-path evaluator (property-style over ops, nulls and candidate cells),
// batch-size invariance, planner lowering through QueryExecutor, and the
// plan-time FROM width limit.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "plan/compiled_filter.h"
#include "plan/planner.h"
#include "query/eval.h"
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
      c.add_candidate({Value(rng.UniformInt(0, 20)), 0.5, 0,
                       CandidateKind::kPoint});
      c.add_candidate({Value(rng.UniformInt(0, 20)), 0.5, 1,
                       CandidateKind::kPoint});
    }
    if (rng.Bernoulli(0.1)) {
      t.mutable_cell(i, 2).add_candidate(
          {Value(rng.UniformDouble(0, 10)), 1.0, 0,
           rng.Bernoulli(0.5) ? CandidateKind::kLessEq
                              : CandidateKind::kGreaterThan});
    }
    if (rng.Bernoulli(0.1)) {
      t.mutable_cell(i, 3).add_candidate(
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

// The property: the compiled batch filter admits exactly the rows the
// row-path evaluator admits.
void ExpectEquivalent(const Table& t, const std::string& condition) {
  std::unique_ptr<Expr> expr = ParseWhere(condition);
  auto row_path = FilterRows(t, expr.get(), t.AllRowIds()).ValueOrDie();
  auto compiled = CompiledFilter::Compile(t, *expr).ValueOrDie();
  std::vector<RowId> columnar;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (compiled.Matches(r)) columnar.push_back(r);
  }
  EXPECT_EQ(columnar, row_path) << "predicate: " << condition;
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

// ------------------------------------------------------------- Plan runs --

Database MakePlanDb(uint64_t seed) {
  Database db;
  EXPECT_TRUE(db.AddTable(MakeMessyTable(seed, 300)).ok());
  return db;
}

TEST(PlanTest, ColumnarAndRowPathPlansAgree) {
  Database db = MakePlanDb(29);
  auto stmt = ParseQuery(
                  "SELECT a, s FROM m WHERE (a >= 3 AND a <= 17) OR d > 9.0")
                  .ValueOrDie();
  Planner columnar(&db);
  Planner row_path(&db);
  row_path.set_columnar_filters(false);
  auto p1 = columnar.PlanQuery(stmt).ValueOrDie();
  auto p2 = row_path.PlanQuery(stmt).ValueOrDie();
  auto o1 = p1.Execute().ValueOrDie();
  auto o2 = p2.Execute().ValueOrDie();
  ASSERT_EQ(o1.lineage, o2.lineage);
  ASSERT_EQ(o1.result.num_rows(), o2.result.num_rows());
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
  for (const JoinedRow& j : out.lineage) {
    ASSERT_EQ(j.size(), 1u);
  }
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
  EXPECT_EQ(widest.value().lineage.at(0).size(), kMaxFromTables);

  auto too_wide = exec.Execute("SELECT w0.k FROM " + from + ", w64");
  ASSERT_FALSE(too_wide.ok());
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace daisy
