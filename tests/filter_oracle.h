// Reference implementation CompiledFilter is checked against: the
// row-at-a-time WHERE evaluator, which resolves every leaf's column per row
// and asks the cell tests of query/eval (CellMaySatisfy / CellsMayMatch)
// directly, with no column cache, ranks or double projections.

#ifndef DAISY_TESTS_FILTER_ORACLE_H_
#define DAISY_TESTS_FILTER_ORACLE_H_

#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "query/eval.h"
#include "storage/table.h"

namespace daisy {
namespace testutil {

inline Result<size_t> ResolveLeafColumn(const Table& table,
                                        const ColumnRef& ref) {
  if (!ref.table.empty() && ref.table != table.name()) {
    return Status::NotFound("column " + ref.ToString() +
                            " does not belong to table " + table.name());
  }
  return table.schema().ColumnIndex(ref.column);
}

/// Evaluates a WHERE expression over one row of `table`. Every column leaf
/// must resolve in the table's schema (the qualifier, if present, must be
/// the table's name). kAnd = all children may hold; kOr = any.
inline Result<bool> RowMaySatisfy(const Table& table, RowId row,
                                  const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kCmp: {
      DAISY_ASSIGN_OR_RETURN(size_t left_col,
                             ResolveLeafColumn(table, expr.left));
      if (expr.right_is_column) {
        DAISY_ASSIGN_OR_RETURN(size_t right_col,
                               ResolveLeafColumn(table, expr.right_col));
        return CellsMayMatch(table.cell(row, left_col), expr.op,
                             table.cell(row, right_col));
      }
      return CellMaySatisfy(table.cell(row, left_col), expr.op,
                            expr.right_val);
    }
    case Expr::Kind::kAnd: {
      for (const auto& child : expr.children) {
        DAISY_ASSIGN_OR_RETURN(bool ok, RowMaySatisfy(table, row, *child));
        if (!ok) return false;
      }
      return true;
    }
    case Expr::Kind::kOr: {
      for (const auto& child : expr.children) {
        DAISY_ASSIGN_OR_RETURN(bool ok, RowMaySatisfy(table, row, *child));
        if (ok) return true;
      }
      return false;
    }
  }
  return Status::Internal("unreachable expr kind");
}

/// Filters `input` rows of `table` by `expr` (null expr keeps everything),
/// in input order.
inline Result<std::vector<RowId>> FilterRows(const Table& table,
                                             const Expr* expr,
                                             const std::vector<RowId>& input) {
  if (expr == nullptr) return input;
  std::vector<RowId> out;
  out.reserve(input.size());
  for (RowId r : input) {
    DAISY_ASSIGN_OR_RETURN(bool ok, RowMaySatisfy(table, r, *expr));
    if (ok) out.push_back(r);
  }
  return out;
}

}  // namespace testutil
}  // namespace daisy

#endif  // DAISY_TESTS_FILTER_ORACLE_H_
