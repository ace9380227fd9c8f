// The one filter evaluator: the plan's Filter, cleanσ's filter of
// relaxation extras and every re-filter of repaired rows run here.
//
// A CompiledFilter keeps the AND/OR tree of a single-table WHERE subtree
// and compiles each comparison leaf onto the table's ColumnCache as a
// CompiledCompare (constraints/compiled_compare.h), the flat-array form of
// EvalCompare the theta-join detector evaluates DC atoms with. A leaf is
// exact on original values; cells that carry repair candidates take the
// CellMaySatisfy/CellsMayMatch path via the cache's probabilistic mask
// (Column::probs). Every repair goes through Table::SetCandidates, which
// flips that bit in place, so a filter compiled before a cleanσ step stays
// valid across its repairs. An append or a mutable_cell edit needs a fresh
// compile.

#ifndef DAISY_PLAN_COMPILED_FILTER_H_
#define DAISY_PLAN_COMPILED_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "constraints/compiled_compare.h"
#include "query/ast.h"
#include "storage/table.h"

namespace daisy {

class CompiledFilter {
 public:
  /// Compiles `expr` against `table`'s column cache. Fails for an unknown
  /// or foreign-qualified column. `table` must outlive the filter.
  static Result<CompiledFilter> Compile(const Table& table, const Expr& expr);

  /// The rows of `rows` that may satisfy the predicate, in input order
  /// (filtered in place: pass an rvalue to reuse its buffer). Counts
  /// rows.size() in daisy_plan_filter_rows_evaluated_total.
  std::vector<RowId> Filter(std::vector<RowId> rows) const;

  /// True iff row `r` may satisfy the predicate (Filter's test, uncounted).
  bool Matches(RowId r) const;

 private:
  struct Node {
    Expr::Kind ekind = Expr::Kind::kCmp;
    std::vector<Node> children;  ///< kAnd / kOr
    CompiledCompare cmp;         ///< kCmp
    const uint8_t* lprob = nullptr;  ///< probabilistic masks; rprob is
    const uint8_t* rprob = nullptr;  ///< null for a constant
  };

  CompiledFilter() = default;

  Result<Node> CompileNode(const Expr& expr);
  Result<size_t> ResolveColumn(const ColumnRef& ref) const;
  bool EvalNode(const Node& node, RowId r) const;
  bool EvalLeaf(const Node& node, RowId r) const;

  const Table* table_ = nullptr;
  Node root_;
};

/// The qualifying rows after the cells of `changed` were repaired, given
/// `qualifying`, the rows that qualified before: a row outside `changed`
/// qualifies as it did, only the live rows of `changed` are filtered again
/// (a repair can narrow a range candidate, so one may drop out). A null
/// `filter` keeps every live row. Inputs and result ascending, unique.
std::vector<RowId> RefilterChanged(const Table& table,
                                   const CompiledFilter* filter,
                                   const std::vector<RowId>& qualifying,
                                   const std::vector<RowId>& changed);

}  // namespace daisy

#endif  // DAISY_PLAN_COMPILED_FILTER_H_
