// Tests for the query engine: SQL parser, probabilistic predicate
// evaluation, WHERE splitting, joins, and aggregation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "aggregate_oracle.h"
#include "cell_test_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "filter_oracle.h"
#include "query/eval.h"
#include "query/executor.h"
#include "query/parser.h"

namespace daisy {
namespace {

// ---------------------------------------------------------------- Parser --

TEST(ParserTest, SelectStarSingleTable) {
  auto stmt = ParseQuery("SELECT * FROM emp").ValueOrDie();
  ASSERT_EQ(stmt.select_list.size(), 1u);
  EXPECT_TRUE(stmt.select_list[0].star);
  EXPECT_EQ(stmt.tables, std::vector<std::string>{"emp"});
  EXPECT_EQ(stmt.where, nullptr);
  EXPECT_TRUE(stmt.group_by.empty());
}

TEST(ParserTest, ColumnsAndAliases) {
  auto stmt =
      ParseQuery("SELECT e.name AS n, salary FROM emp WHERE salary > 100")
          .ValueOrDie();
  ASSERT_EQ(stmt.select_list.size(), 2u);
  EXPECT_EQ(stmt.select_list[0].col.table, "e");
  EXPECT_EQ(stmt.select_list[0].col.column, "name");
  EXPECT_EQ(stmt.select_list[0].alias, "n");
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.where->kind, Expr::Kind::kCmp);
  EXPECT_EQ(stmt.where->op, CompareOp::kGt);
  EXPECT_EQ(stmt.where->right_val, Value(100));
}

TEST(ParserTest, AndOrPrecedence) {
  auto stmt = ParseQuery(
                  "SELECT * FROM t WHERE a = 1 AND b = 2 OR c = 3")
                  .ValueOrDie();
  // OR binds loosest: (a=1 AND b=2) OR (c=3).
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.where->kind, Expr::Kind::kOr);
  ASSERT_EQ(stmt.where->children.size(), 2u);
  EXPECT_EQ(stmt.where->children[0]->kind, Expr::Kind::kAnd);
  EXPECT_EQ(stmt.where->children[1]->kind, Expr::Kind::kCmp);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto stmt = ParseQuery(
                  "SELECT * FROM t WHERE a = 1 AND (b = 2 OR c = 3)")
                  .ValueOrDie();
  EXPECT_EQ(stmt.where->kind, Expr::Kind::kAnd);
  EXPECT_EQ(stmt.where->children[1]->kind, Expr::Kind::kOr);
}

TEST(ParserTest, AggregatesAndGroupBy) {
  auto stmt = ParseQuery(
                  "SELECT year, AVG(value) AS mean, COUNT(*) FROM aq "
                  "WHERE county = 'x' GROUP BY year")
                  .ValueOrDie();
  ASSERT_EQ(stmt.select_list.size(), 3u);
  EXPECT_EQ(stmt.select_list[1].agg, AggFunc::kAvg);
  EXPECT_EQ(stmt.select_list[1].alias, "mean");
  EXPECT_TRUE(stmt.select_list[2].star);
  EXPECT_EQ(stmt.select_list[2].agg, AggFunc::kCount);
  ASSERT_EQ(stmt.group_by.size(), 1u);
  EXPECT_EQ(stmt.group_by[0].column, "year");
  EXPECT_TRUE(stmt.has_aggregate());
}

TEST(ParserTest, JoinPredicateAndLiterals) {
  auto stmt = ParseQuery(
                  "SELECT * FROM r, s WHERE r.k = s.k AND r.x >= 2.5 "
                  "AND s.name = 'it''s'")
                  .ValueOrDie();
  EXPECT_EQ(stmt.tables.size(), 2u);
  auto conjuncts = SplitConjuncts(stmt.where.get());
  ASSERT_EQ(conjuncts.size(), 3u);
  ColumnRef l, r;
  EXPECT_TRUE(MatchJoinPredicate(*conjuncts[0], &l, &r));
  EXPECT_EQ(l.table, "r");
  EXPECT_EQ(r.table, "s");
  EXPECT_EQ(conjuncts[2]->right_val, Value("it's"));
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("SELECT FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t WHERE a >").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t WHERE a > 1 trailing").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t WHERE a = 'unterminated").ok());
  EXPECT_FALSE(ParseQuery("SELECT FOO(a) FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t GROUP BY").ok());
}

// ------------------------------------------------------------------ Eval --

Schema EmpSchema() {
  return Schema({{"dept", ValueType::kString},
                 {"salary", ValueType::kDouble}});
}

TEST(EvalTest, CellMaySatisfyPoint) {
  Cell c(Value(50.0));
  EXPECT_TRUE(CellMaySatisfy(c, CompareOp::kGeq, Value(50.0)));
  EXPECT_FALSE(CellMaySatisfy(c, CompareOp::kGt, Value(50.0)));
}

TEST(EvalTest, CellMaySatisfyCandidates) {
  Cell c(Value(50.0));
  testutil::AddCandidate(&c, {Value(50.0), 0.5, 0, CandidateKind::kPoint});
  testutil::AddCandidate(&c, {Value(90.0), 0.5, 0, CandidateKind::kPoint});
  EXPECT_TRUE(CellMaySatisfy(c, CompareOp::kGt, Value(80.0)));
  EXPECT_FALSE(CellMaySatisfy(c, CompareOp::kGt, Value(95.0)));
  EXPECT_TRUE(CellMaySatisfy(c, CompareOp::kEq, Value(90.0)));
}

TEST(EvalTest, CellMaySatisfyRanges) {
  Cell c(Value(100.0));
  testutil::AddCandidate(&c, {Value(40.0), 0.5, 0, CandidateKind::kLessEq});
  // x <= 40 can satisfy x < 10, x == 40, x <= 100.
  EXPECT_TRUE(CellMaySatisfy(c, CompareOp::kLt, Value(10.0)));
  EXPECT_TRUE(CellMaySatisfy(c, CompareOp::kEq, Value(40.0)));
  EXPECT_FALSE(CellMaySatisfy(c, CompareOp::kEq, Value(41.0)));
  EXPECT_TRUE(CellMaySatisfy(c, CompareOp::kGeq, Value(40.0)));
  EXPECT_FALSE(CellMaySatisfy(c, CompareOp::kGt, Value(40.0)));
}

TEST(EvalTest, CellsMayMatchOverlapSemantics) {
  Cell a(Value(1));
  testutil::AddCandidate(&a, {Value(1), 0.5, 0, CandidateKind::kPoint});
  testutil::AddCandidate(&a, {Value(2), 0.5, 1, CandidateKind::kPoint});
  Cell b(Value(2));
  EXPECT_TRUE(CellsMayMatch(a, CompareOp::kEq, b));  // overlap on 2
  Cell c(Value(3));
  EXPECT_FALSE(CellsMayMatch(a, CompareOp::kEq, c));
  EXPECT_TRUE(CellsMayMatch(a, CompareOp::kLt, c));
}

// The filter oracle's own semantics (tests/filter_oracle.h).
TEST(EvalTest, RowMaySatisfyTree) {
  Table t("emp", EmpSchema());
  ASSERT_TRUE(t.AppendRow({Value("eng"), Value(120.0)}).ok());
  auto stmt = ParseQuery(
                  "SELECT * FROM emp WHERE dept = 'eng' AND salary > 100")
                  .ValueOrDie();
  EXPECT_TRUE(testutil::RowMaySatisfy(t, 0, *stmt.where).ValueOrDie());
  auto stmt2 = ParseQuery(
                   "SELECT * FROM emp WHERE dept = 'hr' OR salary < 50")
                   .ValueOrDie();
  EXPECT_FALSE(testutil::RowMaySatisfy(t, 0, *stmt2.where).ValueOrDie());
}

TEST(EvalTest, UnknownColumnFails) {
  Table t("emp", EmpSchema());
  ASSERT_TRUE(t.AppendRow({Value("eng"), Value(1.0)}).ok());
  auto stmt = ParseQuery("SELECT * FROM emp WHERE nope = 1").ValueOrDie();
  EXPECT_FALSE(testutil::RowMaySatisfy(t, 0, *stmt.where).ok());
}

// -------------------------------------------------------------- Executor --

Database MakeJoinDb() {
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

TEST(ExecutorTest, SelectProjectFilter) {
  Database db = MakeJoinDb();
  QueryExecutor exec(&db);
  auto out =
      exec.Execute("SELECT name FROM emp WHERE salary >= 200").ValueOrDie();
  ASSERT_EQ(out.result.num_rows(), 2u);
  EXPECT_EQ(out.result.cell(0, 0).original(), Value("bob"));
  EXPECT_EQ(out.result.cell(1, 0).original(), Value("cat"));
  EXPECT_EQ(out.lineage.size(), 2u);
  EXPECT_EQ(out.lineage[0][0], 1u);
}

TEST(ExecutorTest, EquiJoin) {
  Database db = MakeJoinDb();
  QueryExecutor exec(&db);
  auto out = exec.Execute(
                     "SELECT emp.name, dept.dept_name FROM emp, dept "
                     "WHERE emp.dept_id = dept.id AND dept.dept_name = 'eng'")
                 .ValueOrDie();
  ASSERT_EQ(out.result.num_rows(), 2u);
  EXPECT_EQ(out.result.cell(0, 1).original(), Value("eng"));
  EXPECT_EQ(out.result.schema().column(0).name, "emp.name");
}

TEST(ExecutorTest, ProbabilisticJoinKeyOverlap) {
  Database db = MakeJoinDb();
  Table* emp = db.GetTable("emp").ValueOrDie();
  // ann's dept becomes {1 or 2}: she must now match both departments.
  testutil::AddCandidate(&emp->mutable_cell(0, 1),
                         {Value(1), 0.5, 0, CandidateKind::kPoint});
  testutil::AddCandidate(&emp->mutable_cell(0, 1),
                         {Value(2), 0.5, 1, CandidateKind::kPoint});
  QueryExecutor exec(&db);
  auto out = exec.Execute(
                     "SELECT emp.name, dept.dept_name FROM emp, dept "
                     "WHERE emp.dept_id = dept.id")
                 .ValueOrDie();
  size_t ann_matches = 0;
  for (RowId r = 0; r < out.result.num_rows(); ++r) {
    if (out.result.cell(r, 0).original() == Value("ann")) ++ann_matches;
  }
  EXPECT_EQ(ann_matches, 2u);
}

TEST(ExecutorTest, GroupByAggregates) {
  Database db = MakeJoinDb();
  QueryExecutor exec(&db);
  auto out = exec.Execute(
                     "SELECT dept_id, COUNT(*) AS n, SUM(salary) AS s, "
                     "AVG(salary) AS a, MIN(salary) AS lo, MAX(salary) AS hi "
                     "FROM emp GROUP BY dept_id")
                 .ValueOrDie();
  ASSERT_EQ(out.result.num_rows(), 2u);
  // Find dept 1.
  for (RowId r = 0; r < 2; ++r) {
    if (out.result.cell(r, 0).original() == Value(1)) {
      EXPECT_EQ(out.result.cell(r, 1).original(), Value(2));
      EXPECT_DOUBLE_EQ(out.result.cell(r, 2).original().AsDouble(), 400.0);
      EXPECT_DOUBLE_EQ(out.result.cell(r, 3).original().AsDouble(), 200.0);
      EXPECT_DOUBLE_EQ(out.result.cell(r, 4).original().AsDouble(), 100.0);
      EXPECT_DOUBLE_EQ(out.result.cell(r, 5).original().AsDouble(), 300.0);
    }
  }
}

TEST(ExecutorTest, GlobalAggregateWithoutGroupBy) {
  Database db = MakeJoinDb();
  QueryExecutor exec(&db);
  auto out = exec.Execute("SELECT COUNT(*) FROM emp").ValueOrDie();
  ASSERT_EQ(out.result.num_rows(), 1u);
  EXPECT_EQ(out.result.cell(0, 0).original(), Value(3));
}

TEST(ExecutorTest, SplitWhereClassification) {
  Database db = MakeJoinDb();
  auto stmt = ParseQuery(
                  "SELECT * FROM emp, dept WHERE emp.dept_id = dept.id AND "
                  "salary > 150 AND dept.dept_name = 'eng'")
                  .ValueOrDie();
  std::vector<const Table*> tables{db.GetTable("emp").ValueOrDie(),
                                   db.GetTable("dept").ValueOrDie()};
  auto split = SplitWhereClause(stmt, tables).ValueOrDie();
  ASSERT_EQ(split.joins.size(), 1u);
  EXPECT_EQ(split.joins[0].left_table, 0u);
  EXPECT_EQ(split.joins[0].right_table, 1u);
  ASSERT_NE(split.table_filters[0], nullptr);
  ASSERT_NE(split.table_filters[1], nullptr);
}

TEST(ExecutorTest, AmbiguousColumnRejected) {
  Database db;
  Table a("a", Schema({{"x", ValueType::kInt}}));
  Table b("b", Schema({{"x", ValueType::kInt}}));
  ASSERT_TRUE(a.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(b.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(a)).ok());
  ASSERT_TRUE(db.AddTable(std::move(b)).ok());
  QueryExecutor exec(&db);
  EXPECT_FALSE(exec.Execute("SELECT * FROM a, b WHERE x = 1").ok());
}

TEST(ExecutorTest, UnknownTableOrColumn) {
  Database db = MakeJoinDb();
  QueryExecutor exec(&db);
  EXPECT_FALSE(exec.Execute("SELECT * FROM nope").ok());
  EXPECT_FALSE(exec.Execute("SELECT nope FROM emp").ok());
  EXPECT_FALSE(exec.Execute("SELECT * FROM emp WHERE ghost = 1").ok());
}

TEST(ExecutorTest, StarExpansionQualifiesOnJoin) {
  Database db = MakeJoinDb();
  QueryExecutor exec(&db);
  auto out = exec.Execute(
                     "SELECT * FROM emp, dept WHERE emp.dept_id = dept.id")
                 .ValueOrDie();
  EXPECT_EQ(out.result.schema().num_columns(), 5u);
  EXPECT_TRUE(out.result.schema().HasColumn("emp.name"));
  EXPECT_TRUE(out.result.schema().HasColumn("dept.id"));
}

TEST(ExecutorTest, ProbabilisticCellsSurviveProjection) {
  Database db = MakeJoinDb();
  Table* emp = db.GetTable("emp").ValueOrDie();
  testutil::AddCandidate(&emp->mutable_cell(0, 2),
                         {Value(100.0), 0.5, 0, CandidateKind::kPoint});
  testutil::AddCandidate(&emp->mutable_cell(0, 2),
                         {Value(500.0), 0.5, 1, CandidateKind::kPoint});
  QueryExecutor exec(&db);
  // May-semantics: ann qualifies for salary > 400 through the candidate.
  auto out =
      exec.Execute("SELECT name, salary FROM emp WHERE salary > 400")
          .ValueOrDie();
  ASSERT_EQ(out.result.num_rows(), 1u);
  EXPECT_EQ(out.result.cell(0, 0).original(), Value("ann"));
  EXPECT_TRUE(out.result.cell(0, 1).is_probabilistic());
  EXPECT_EQ(out.result.cell(0, 1).candidates().size(), 2u);
}

// Two tables that both have `k`, so an unqualified `k` is ambiguous.
Database MakeSharedKeyDb() {
  Database db;
  Table a("a", Schema({{"k", ValueType::kInt}, {"x", ValueType::kInt}}));
  Table b("b", Schema({{"k", ValueType::kInt}, {"y", ValueType::kInt}}));
  EXPECT_TRUE(a.AppendRow({Value(1), Value(10)}).ok());
  EXPECT_TRUE(a.AppendRow({Value(2), Value(20)}).ok());
  EXPECT_TRUE(b.AppendRow({Value(1), Value(7)}).ok());
  EXPECT_TRUE(b.AppendRow({Value(2), Value(8)}).ok());
  EXPECT_TRUE(db.AddTable(std::move(a)).ok());
  EXPECT_TRUE(db.AddTable(std::move(b)).ok());
  return db;
}

TEST(ExecutorTest, AmbiguousGroupByColumnRejected) {
  Database db = MakeSharedKeyDb();
  QueryExecutor exec(&db);
  auto out = exec.Execute(
      "SELECT a.k, COUNT(*) FROM a, b WHERE a.k = b.k GROUP BY k");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(exec.Execute("SELECT a.k, COUNT(*) FROM a, b WHERE a.k = b.k "
                           "GROUP BY a.k")
                  .ok());
}

TEST(ExecutorTest, AmbiguousSelectColumnRejected) {
  Database db = MakeSharedKeyDb();
  QueryExecutor exec(&db);
  auto grouped = exec.Execute(
      "SELECT k, COUNT(*) FROM a, b WHERE a.k = b.k GROUP BY a.k");
  ASSERT_FALSE(grouped.ok());
  EXPECT_EQ(grouped.status().code(), StatusCode::kInvalidArgument);
  auto projected = exec.Execute("SELECT k FROM a, b WHERE a.k = b.k");
  ASSERT_FALSE(projected.ok());
  EXPECT_EQ(projected.status().code(), StatusCode::kInvalidArgument);
  // A column only one table has needs no qualifier.
  EXPECT_TRUE(exec.Execute("SELECT x, y FROM a, b WHERE a.k = b.k").ok());
}

TEST(ExecutorTest, PlainSelectItemMustBeGroupKey) {
  Database db = MakeSharedKeyDb();
  QueryExecutor exec(&db);
  auto out = exec.Execute("SELECT a.x FROM a GROUP BY a.k");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  auto global = exec.Execute("SELECT x, COUNT(*) FROM a");
  ASSERT_FALSE(global.ok());
  EXPECT_EQ(global.status().code(), StatusCode::kInvalidArgument);
  // The key itself, qualified or not, is fine.
  auto keyed = exec.Execute("SELECT k, COUNT(*) FROM a GROUP BY a.k");
  ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
  EXPECT_EQ(keyed.value().result.num_rows(), 2u);
}

// ------------------------------------ code-keyed GROUP BY vs Value-keyed --

// Key values that stress the equality the dictionary codes must reproduce:
// int 5 next to double 5.0, -0.0 next to int 0, nulls, NaN (equal to
// nothing), and int64 values beyond 2^53 next to their nearest double.
std::vector<Value> NumericPool() {
  const int64_t big = int64_t{1} << 53;
  return {Value(0),         Value(-0.0),     Value(1),
          Value(5),         Value(5.0),      Value(2.5),
          Value::Null(),    Value(std::nan("")), Value(big),
          Value(big + 1),   Value(static_cast<double>(big))};
}

std::vector<Value> StringPool() {
  return {Value("a"), Value("b"), Value("ab"), Value(""), Value::Null()};
}

Value Pick(Rng* rng, const std::vector<Value>& pool) {
  return pool[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
}

// A candidate set whose most-probable value differs from the original:
// a pool value, a value no original holds (so it has no dictionary code),
// a NaN, or only a range candidate (most-probable stays the original).
std::vector<Candidate> RandomCandidates(Rng* rng, bool numeric) {
  const std::vector<Value> pool = numeric ? NumericPool() : StringPool();
  const std::vector<Value> fresh =
      numeric ? std::vector<Value>{Value(777), Value(6.5), Value(std::nan(""))}
              : std::vector<Value>{Value("zz"), Value("q")};
  std::vector<Candidate> out;
  if (numeric && rng->Bernoulli(0.1)) {
    out.push_back({Value(3), 1.0, -1, CandidateKind::kLessThan});
    return out;
  }
  const int64_t n = rng->UniformInt(1, 3);
  for (int64_t i = 0; i < n; ++i) {
    Candidate c;
    c.value = rng->Bernoulli(0.3) ? Pick(rng, fresh) : Pick(rng, pool);
    c.prob = static_cast<double>(rng->UniformInt(1, 4)) / 4.0;
    c.pair_id = static_cast<int32_t>(i);
    out.push_back(std::move(c));
  }
  return out;
}

// t0(a, s, m) and t1(b, h, w), filled from the pools, and t2(z), which
// only a COUNT may read. The numeric columns are kDouble, the type that
// admits ints and doubles side by side.
std::vector<Table> MakeAggTables(Rng* rng) {
  std::vector<Table> out;
  out.emplace_back("t0", Schema({{"a", ValueType::kDouble},
                                 {"s", ValueType::kString},
                                 {"m", ValueType::kDouble}}));
  out.emplace_back("t1", Schema({{"b", ValueType::kDouble},
                                 {"h", ValueType::kString},
                                 {"w", ValueType::kDouble}}));
  for (Table& t : out) {
    const int64_t rows = rng->UniformInt(1, 24);
    for (int64_t r = 0; r < rows; ++r) {
      EXPECT_TRUE(t.AppendRow({Pick(rng, NumericPool()),
                               Pick(rng, StringPool()),
                               Pick(rng, NumericPool())})
                      .ok());
    }
  }
  out.emplace_back("t2", Schema({{"z", ValueType::kDouble}}));
  const int64_t rows = rng->UniformInt(1, 8);
  for (int64_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(out.back().AppendRow({Pick(rng, NumericPool())}).ok());
  }
  return out;
}

// Puts fresh candidate sets on (or clears) about a quarter of all cells.
void RandomizeCandidates(Rng* rng, std::vector<Table>* tables) {
  for (Table& t : *tables) {
    for (RowId r = 0; r < t.num_rows(); ++r) {
      for (size_t c = 0; c < t.num_columns(); ++c) {
        if (!rng->Bernoulli(0.25)) continue;
        const bool numeric = t.schema().column(c).type != ValueType::kString;
        t.SetCandidates(r, c,
                        MakeCandidateSet(rng->Bernoulli(0.2)
                                             ? std::vector<Candidate>{}
                                             : RandomCandidates(rng, numeric)));
      }
    }
  }
}

// SELECT over t0, t1, t2 with `keys` GROUP BY columns of t0 and t1 (0 =
// global aggregate), their key items in a shuffled order and one of every
// aggregate; t2 is read by a COUNT at most.
std::string RandomAggregateQuery(Rng* rng, size_t keys) {
  const std::vector<std::string> cols = {"t0.a", "t0.s", "t0.m",
                                         "t1.b", "t1.h", "t1.w"};
  std::vector<size_t> order = rng->SampleWithoutReplacement(cols.size(), keys);
  std::vector<std::string> items;
  for (size_t k : order) {
    if (rng->Bernoulli(0.8)) items.push_back(cols[k]);
  }
  for (const char* f : {"SUM", "AVG", "MIN", "MAX", "COUNT"}) {
    items.push_back(std::string(f) + "(" +
                    cols[static_cast<size_t>(rng->UniformInt(0, 5))] + ")");
  }
  items.push_back("COUNT(*)");
  if (rng->Bernoulli(0.3)) items.push_back("COUNT(t2.z)");
  if (rng->Bernoulli(0.3)) items.push_back("SUM(*)");
  if (rng->Bernoulli(0.3)) items.push_back("MIN(*)");
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[static_cast<size_t>(rng->UniformInt(
                                0, static_cast<int64_t>(i) - 1))]);
  }
  std::string sql = "SELECT ";
  for (size_t i = 0; i < items.size(); ++i) {
    sql += (i > 0 ? ", " : "") + items[i];
  }
  sql += " FROM t0, t1, t2";
  for (size_t i = 0; i < order.size(); ++i) {
    sql += (i == 0 ? " GROUP BY " : ", ") + cols[order[i]];
  }
  return sql;
}

// Same type and same bits (doubles by memcmp, so NaN and -0.0 count).
bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_double()) return a.is_null() || a == b;
  const double x = a.as_double_raw();
  const double y = b.as_double_raw();
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// BuildOutput against the Value-keyed oracle on one input: same group
// count, lineage, columns and cells (by SameBits). Returns the groups.
size_t ExpectMatchesValueKeyed(const std::string& sql,
                               const std::vector<const Table*>& tables,
                               const JoinedRows& joined, size_t limit) {
  SCOPED_TRACE(sql);
  SelectStmt stmt = ParseQuery(sql).ValueOrDie();
  QueryOutput got;
  TableSink got_sink(&got);
  auto got_total =
      QueryExecutor::BuildOutput(stmt, tables, joined, limit, &got_sink);
  QueryOutput want;
  TableSink want_sink(&want);
  auto want_total =
      testutil::ValueKeyedAggregate(stmt, tables, joined, limit, &want_sink);
  EXPECT_TRUE(got_total.ok()) << got_total.status().ToString();
  EXPECT_TRUE(want_total.ok());
  if (!got_total.ok() || !want_total.ok()) return 0;
  EXPECT_EQ(got_total.value(), want_total.value());
  EXPECT_EQ(got.lineage, want.lineage);
  EXPECT_EQ(got.result.num_columns(), want.result.num_columns());
  EXPECT_EQ(got.result.num_rows(), want.result.num_rows());
  if (got.result.num_columns() != want.result.num_columns() ||
      got.result.num_rows() != want.result.num_rows()) {
    return 0;
  }
  for (size_t c = 0; c < got.result.num_columns(); ++c) {
    EXPECT_EQ(got.result.schema().column(c).name,
              want.result.schema().column(c).name);
    EXPECT_EQ(got.result.schema().column(c).type,
              want.result.schema().column(c).type);
  }
  for (RowId r = 0; r < got.result.num_rows(); ++r) {
    for (size_t c = 0; c < got.result.num_columns(); ++c) {
      const Value& g = got.result.cell(r, c).original();
      const Value& w = want.result.cell(r, c).original();
      EXPECT_TRUE(SameBits(g, w)) << "row " << r << " col " << c << ": "
                                  << g.ToString() << " vs " << w.ToString();
    }
  }
  return got.result.num_rows();
}

TEST(AggregateDifferentialTest, CodeKeyedMatchesValueKeyedOracle) {
  // Tuples come in runs of 1-5 that repeat one t0, t1 pair; within a run
  // the t2 position, which at most a COUNT reads, sometimes changes.
  size_t compared_groups = 0;
  size_t run_tuples = 0;
  size_t nan_key_run_tuples = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    std::vector<Table> owned = MakeAggTables(&rng);
    const std::vector<const Table*> tables = {&owned[0], &owned[1], &owned[2]};
    auto pick_row = [&](size_t t) {
      return static_cast<RowId>(rng.UniformInt(
          0, static_cast<int64_t>(owned[t].num_rows()) - 1));
    };
    for (int round = 0; round < 4; ++round) {
      // Candidate writes before and after the column caches are built:
      // the executor must read patched `probs` bits too.
      if (round > 0 || rng.Bernoulli(0.5)) RandomizeCandidates(&rng, &owned);
      const size_t keys = static_cast<size_t>(rng.UniformInt(0, 3));
      const std::string sql = RandomAggregateQuery(&rng, keys);
      const BoundOutput bound =
          BindOutput(ParseQuery(sql).ValueOrDie(), tables).ValueOrDie();
      JoinedRows joined;
      joined.width = 3;
      const size_t tuples = static_cast<size_t>(rng.UniformInt(0, 200));
      while (joined.size() < tuples) {
        const RowId r0 = pick_row(0);
        const RowId r1 = pick_row(1);
        RowId r2 = pick_row(2);
        const int64_t repeat = rng.UniformInt(1, 5);
        for (int64_t k = 0; k < repeat; ++k) {
          if (k > 0 && rng.Bernoulli(0.3)) r2 = pick_row(2);
          joined.ids.insert(joined.ids.end(), {r0, r1, r2});
          if (k == 0) continue;
          ++run_tuples;
          for (const BoundColumn& g : bound.group_cols) {
            const RowId r = g.table == 0 ? r0 : r1;
            if (tables[g.table]->cell(r, g.col).MostProbable().is_nan()) {
              ++nan_key_run_tuples;
              break;
            }
          }
        }
      }
      const size_t limit =
          rng.Bernoulli(0.3) ? static_cast<size_t>(rng.UniformInt(1, 5)) : 0;
      SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                   std::to_string(round));
      compared_groups += ExpectMatchesValueKeyed(sql, tables, joined, limit);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(compared_groups, 2000u);
  EXPECT_GT(run_tuples, 10000u);
  EXPECT_GT(nan_key_run_tuples, 100u);
}

TEST(AggregateDifferentialTest, RunsMatchValueKeyedOracle) {
  // Hand-picked runs: a NaN key repeated (each occurrence its own group),
  // SUM and AVG over a -0.0 followed by nulls and strings, MIN and MAX over
  // a run of nulls then a number, COUNT(*) and COUNT(col) counting nulls.
  Table t0("t0", Schema({{"a", ValueType::kDouble},
                         {"s", ValueType::kString},
                         {"m", ValueType::kDouble}}));
  ASSERT_TRUE(t0.AppendRow({Value(std::nan("")), Value("a"), Value(-0.0)}).ok());
  ASSERT_TRUE(t0.AppendRow({Value(1.0), Value::Null(), Value(-0.0)}).ok());
  ASSERT_TRUE(t0.AppendRow({Value(1), Value("b"), Value::Null()}).ok());
  ASSERT_TRUE(t0.AppendRow({Value(2.0), Value::Null(), Value(2.5)}).ok());
  ASSERT_TRUE(t0.AppendRow({Value(3.0), Value("c"), Value(1)}).ok());
  Table t1("t1", Schema({{"b", ValueType::kDouble}, {"h", ValueType::kString}}));
  ASSERT_TRUE(t1.AppendRow({Value::Null(), Value::Null()}).ok());
  ASSERT_TRUE(t1.AppendRow({Value(5), Value("x")}).ok());
  Table t2("t2", Schema({{"z", ValueType::kDouble}}));
  for (int64_t i = 0; i < 3; ++i) ASSERT_TRUE(t2.AppendRow({Value(i)}).ok());
  // Row 3's key reads NaN through a candidate set, row 4's a value no
  // original holds.
  t0.SetCandidates(3, 0,
                   MakeCandidateSet({{Value(std::nan("")), 1.0, 0,
                                      CandidateKind::kPoint}}));
  t0.SetCandidates(4, 0,
                   MakeCandidateSet({{Value(7.0), 1.0, 0,
                                      CandidateKind::kPoint}}));
  const std::vector<const Table*> tables = {&t0, &t1, &t2};
  JoinedRows joined;
  joined.width = 3;
  for (const std::vector<RowId>& tuple : std::vector<std::vector<RowId>>{
           {0, 0, 0}, {0, 0, 1}, {0, 0, 1},  // NaN key, t2 varies
           {1, 0, 0}, {1, 0, 1}, {2, 0, 2}, {2, 0, 2},  // -0.0, then null
           {2, 1, 0}, {2, 1, 0}, {1, 1, 1},  // MAX(t1.b): nulls, then 5
           {3, 0, 0}, {3, 0, 0},             // NaN by candidate
           {4, 1, 0}, {4, 1, 2},             // key by candidate
           {0, 1, 2}}) {
    joined.ids.insert(joined.ids.end(), tuple.begin(), tuple.end());
  }
  const std::vector<std::string> queries = {
      "SELECT t0.a, SUM(t0.m), AVG(t0.m), SUM(t0.s), AVG(t0.s), MIN(t1.b), "
      "MAX(t1.b), MIN(t0.m), MAX(t0.s), COUNT(*), COUNT(t1.h), COUNT(t2.z) "
      "FROM t0, t1, t2 GROUP BY t0.a",
      "SELECT SUM(t0.m), MIN(t1.b), MAX(t1.b), COUNT(t0.s), COUNT(*) "
      "FROM t0, t1, t2",
      "SELECT t1.h, t0.a, SUM(t1.b), MIN(t0.s), COUNT(*) FROM t0, t1, t2 "
      "GROUP BY t0.a, t1.h"};
  for (const std::string& sql : queries) {
    EXPECT_GT(ExpectMatchesValueKeyed(sql, tables, joined, 0), 0u);
  }
  // The six tuples of t0 rows 0 and 3 have NaN keys, a group each; rows 1
  // and 2 share key 1. Every tuple of rows 0, 3 and 4 resolves its key
  // through a Value lookup, row 4's second one inside a run.
  Counter* cells = MetricsRegistry::Global().GetCounter(
      "daisy_plan_agg_value_keyed_cells_total");
  const uint64_t before = cells->Value();
  QueryOutput out;
  TableSink sink(&out);
  ASSERT_TRUE(QueryExecutor::BuildOutput(
                  ParseQuery("SELECT t0.a, COUNT(*) FROM t0, t1, t2 "
                             "GROUP BY t0.a")
                      .ValueOrDie(),
                  tables, joined, 0, &sink)
                  .ok());
  EXPECT_EQ(out.result.num_rows(), 8u);
  EXPECT_EQ(cells->Value() - before, 8u);
}

TEST(AggregateDifferentialTest, ValueKeyedCellsCounted) {
  // Group cells with candidates or a NaN resolve through a Value lookup;
  // clean cells read their dictionary code.
  Database db;
  Table t("t", Schema({{"g", ValueType::kDouble}, {"v", ValueType::kInt}}));
  for (double g : {1.0, 2.0, std::nan(""), 1.0, 2.0}) {
    ASSERT_TRUE(t.AppendRow({Value(g), Value(1)}).ok());
  }
  t.SetCandidates(
      1, 0,
      MakeCandidateSet({{Value(1.0), 0.6, 0, CandidateKind::kPoint},
                        {Value(2.0), 0.4, 1, CandidateKind::kPoint}}));
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  Counter* cells = MetricsRegistry::Global().GetCounter(
      "daisy_plan_agg_value_keyed_cells_total");
  const uint64_t before = cells->Value();
  QueryExecutor exec(&db);
  auto out = exec.Execute("SELECT g, COUNT(*) FROM t GROUP BY g").ValueOrDie();
  EXPECT_EQ(cells->Value() - before, 2u);  // row 1 (candidates), row 2 (NaN)
  // Rows 0, 1 and 3 are 1.0 (row 1 by its most-probable value); the NaN
  // is a group of its own.
  ASSERT_EQ(out.result.num_rows(), 3u);
  EXPECT_EQ(out.result.cell(0, 1).original(), Value(3));
  EXPECT_TRUE(std::isnan(out.result.cell(1, 0).original().AsDouble()));
  EXPECT_EQ(out.result.cell(2, 1).original(), Value(1));
}

}  // namespace
}  // namespace daisy
