// Plain (cleaning-oblivious) execution of SPJ + group-by statements over a
// Database. Execute() lowers the statement through the shared Planner into
// a PlanNode tree (see plan/planner.h); the Daisy engine lowers the same
// statements with cleaning operators interleaved between filter and join
// stages, so the two paths share one runtime. The WHERE-splitting and
// output-building helpers declared here are the runtime building blocks the
// plan nodes call; the offline baseline runs this executor directly over
// the pre-cleaned dataset.

#ifndef DAISY_QUERY_EXECUTOR_H_
#define DAISY_QUERY_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "query/ast.h"
#include "query/eval.h"
#include "storage/database.h"

namespace daisy {

/// Deep copy of a WHERE expression tree.
std::unique_ptr<Expr> CloneExpr(const Expr& expr);

/// The WHERE clause split by target: one (possibly null) conjunction of
/// single-table predicates per FROM table, plus cross-table equi-join
/// predicates.
struct SplitWhere {
  std::vector<std::unique_ptr<Expr>> table_filters;  ///< index = FROM position
  struct JoinPred {
    size_t left_table = 0;
    size_t left_col = 0;
    size_t right_table = 0;
    size_t right_col = 0;
  };
  std::vector<JoinPred> joins;
};

/// Classifies every top-level conjunct. Fails on predicates that span
/// multiple tables without being an equi-join (outside the paper's query
/// template).
Result<SplitWhere> SplitWhereClause(const SelectStmt& stmt,
                                    const std::vector<const Table*>& tables);

/// A column reference bound to its FROM position and schema index.
struct BoundColumn {
  size_t table = 0;
  size_t col = 0;
};

/// One output column of a bound select list.
struct BoundItem {
  bool star = false;  ///< COUNT(*) and friends: no source column
  BoundColumn src;
  AggFunc agg = AggFunc::kNone;
  /// Aggregating queries: the first GROUP BY key equal to `src`, whose
  /// value a plain (non-aggregate) item outputs.
  size_t group_key = 0;
  std::string out_name;
  ValueType out_type = ValueType::kString;
};

/// A statement's output shape bound against its FROM tables.
struct BoundOutput {
  std::vector<BoundItem> items;  ///< `*` expanded
  std::vector<Column> columns;   ///< output schema, one per item
  bool aggregating = false;      ///< has an aggregate or a GROUP BY
  std::vector<BoundColumn> group_cols;
};

/// Binds the select list and the GROUP BY list with the WHERE clause's
/// column resolver: an unqualified column two FROM tables have is
/// ambiguous (InvalidArgument) in every clause. An aggregating query whose
/// plain select item is not a GROUP BY key is rejected (InvalidArgument).
Result<BoundOutput> BindOutput(const SelectStmt& stmt,
                               const std::vector<const Table*>& tables);

/// Joined intermediate tuples, stored flat: tuple i is the `width` row ids
/// ids[i * width, (i + 1) * width), one per FROM table. An operator's whole
/// output is one allocation, not one per tuple.
struct JoinedRows {
  size_t width = 0;
  std::vector<RowId> ids;

  size_t size() const { return width == 0 ? 0 : ids.size() / width; }
  const RowId* operator[](size_t i) const { return ids.data() + i * width; }
  RowId* operator[](size_t i) { return ids.data() + i * width; }
  /// Keeps the first `n` tuples.
  void Truncate(size_t n) {
    if (n < size()) ids.resize(n * width);
  }
  bool operator==(const JoinedRows& o) const {
    return width == o.width && ids == o.ids;
  }
};

/// Receives a query's output. BuildOutput calls Begin once with the output
/// columns and the number of rows that follow, then one Add call per row in
/// output order, then Finish. A cut query reaches no sink call at all.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void Begin(const std::vector<Column>& columns, size_t rows) = 0;
  /// A projected row: one cell per output column, candidates included.
  virtual void AddCells(const Cell* const* cells) = 0;
  /// An aggregate row: one value per output column.
  virtual void AddValues(const Value* values) = 0;
  /// The SPJ tuples the rows came from (before aggregation).
  virtual void Finish(JoinedRows lineage) = 0;
};

/// A fully materialized query result.
struct QueryOutput {
  Table result;  ///< schema named per select list; cells keep candidates
  JoinedRows lineage;       ///< SPJ rows before aggregation
  size_t rows_scanned = 0;  ///< cost accounting
};

/// The in-process sink: materializes the rows into `out->result` (cells
/// keep their candidate sets) and keeps the lineage.
class TableSink : public ResultSink {
 public:
  explicit TableSink(QueryOutput* out) : out_(out) {}
  void Begin(const std::vector<Column>& columns, size_t rows) override;
  void AddCells(const Cell* const* cells) override;
  void AddValues(const Value* values) override;
  void Finish(JoinedRows lineage) override;

 private:
  QueryOutput* out_;
};

/// Keeps nothing but the number of rows delivered: for callers that want
/// only an execution's side effects and statistics (EXPLAIN ANALYZE).
class CountingSink : public ResultSink {
 public:
  void Begin(const std::vector<Column>&, size_t) override {}
  void AddCells(const Cell* const*) override { ++rows_; }
  void AddValues(const Value*) override { ++rows_; }
  void Finish(JoinedRows) override {}
  size_t rows() const { return rows_; }

 private:
  size_t rows_ = 0;
};

/// Executes a statement end-to-end without cleaning.
class QueryExecutor {
 public:
  explicit QueryExecutor(Database* db) : db_(db) {}

  Result<QueryOutput> Execute(const SelectStmt& stmt);
  Result<QueryOutput> Execute(const std::string& sql);

  /// Deterministic text rendering of the cleaning-oblivious plan for `sql`
  /// (not executed: no cardinality counters).
  Result<std::string> Explain(const std::string& sql);

  /// Binds the select list once and emits the projected / aggregated
  /// output of `joined` into `sink`: at most `row_limit` rows (0 = all).
  /// Returns the row count of the unlimited output. Exposed so the
  /// cleaning engine can finish a query after its own SPJ phase.
  ///
  /// GROUP BY keys each group column by its ColumnCache dictionary code
  /// (one code tuple per joined tuple; see storage/column_cache.h), which
  /// groups exactly as Value equality does. Groups come out in first-
  /// appearance order, and a group's key values are the most-probable
  /// values of its first tuple.
  static Result<size_t> BuildOutput(const SelectStmt& stmt,
                                    const std::vector<const Table*>& tables,
                                    JoinedRows joined, size_t row_limit,
                                    ResultSink* sink);

 private:
  Database* db_;
};

}  // namespace daisy

#endif  // DAISY_QUERY_EXECUTOR_H_
