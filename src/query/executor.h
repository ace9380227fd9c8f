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

/// One joined intermediate tuple: a row id per FROM table.
using JoinedRow = std::vector<RowId>;

/// A fully materialized query result.
struct QueryOutput {
  Table result;  ///< schema named per select list; cells keep candidates
  std::vector<std::string> table_names;          ///< FROM order
  std::vector<JoinedRow> lineage;                ///< SPJ rows before aggregation
  size_t rows_scanned = 0;                       ///< cost accounting
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

  /// Builds the projected / aggregated output from joined rows. Exposed so
  /// the cleaning engine can finish a query after its own SPJ phase.
  static Result<QueryOutput> BuildOutput(
      const SelectStmt& stmt, const std::vector<const Table*>& tables,
      std::vector<JoinedRow> joined);

 private:
  Database* db_;
};

}  // namespace daisy

#endif  // DAISY_QUERY_EXECUTOR_H_
