// The one filter evaluator: the plan's Filter, cleanσ's filter of
// relaxation extras and every re-filter of repaired rows run here.
//
// A CompiledFilter lowers a single-table WHERE subtree onto the typed
// projections of the table's ColumnCache so the per-row hot loop avoids
// std::variant dispatch:
//
//  * column-vs-constant leaves binary-search the constant once into the
//    column's sorted distinct values (the rank interval Compare calls
//    equal to it) and compare dense ranks — exact for every value type;
//    EvalCompare's null semantics are re-applied through the null mask.
//  * column-vs-same-column leaves compare ranks directly (one dictionary).
//  * cross-column leaves on numeric-only columns compare the flat double
//    projections: rounding is monotone, so a strict order is exact, and a
//    tie at or beyond 2^53 (two int64s may share a double) re-checks the
//    cells. Anything involving strings keeps a per-row cell fallback.
//  * a column holding a NaN, or a NaN constant, evaluates per cell:
//    Compare calls a NaN equal to every number, which no order reproduces.
//    So does a column mixing doubles with ints at or beyond 2^53, where
//    Compare calls two distinct ints equal to one double
//    (ColumnCache::Column::ranks_exact).
//
// Cells that carry repair candidates take the exact CellMaySatisfy/
// CellsMayMatch path via the cache's probabilistic mask (Column::probs).
// Every repair goes through Table::SetCandidates, which flips that bit in
// place, so a filter compiled before a cleanσ step stays valid across its
// repairs. An append or a mutable_cell edit needs a fresh compile.

#ifndef DAISY_PLAN_COMPILED_FILTER_H_
#define DAISY_PLAN_COMPILED_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "storage/column_cache.h"
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
  enum class LeafKind {
    kConstRank,   ///< col op non-null constant, via dense ranks
    kConstNull,   ///< col op null constant, via null mask only
    kSameColRank, ///< col op same col, via ranks
    kNumericCols, ///< col op other numeric-only col, via double projections
    kRowFallback, ///< per-cell evaluation (strings across columns,
                  ///< a column without ranks_exact())
  };

  struct Node {
    Expr::Kind ekind = Expr::Kind::kCmp;
    std::vector<Node> children;  ///< kAnd / kOr

    // kCmp:
    LeafKind lkind = LeafKind::kRowFallback;
    CompareOp op = CompareOp::kEq;
    size_t left_col = 0;
    size_t right_col = 0;
    bool right_is_column = false;
    Value rhs_val;                     ///< constant leaves + fallbacks
    /// kConstRank: ranks [eq_lo, eq_hi) hold the values Compare calls
    /// equal to the constant (several int64s may round to one double).
    uint32_t eq_lo = 0;
    uint32_t eq_hi = 0;
    bool null_result = false;          ///< leaf value when the cell is null
    const std::vector<uint32_t>* lranks = nullptr;
    const std::vector<uint32_t>* rranks = nullptr;
    const std::vector<double>* lnum = nullptr;
    const std::vector<double>* rnum = nullptr;
    const std::vector<uint8_t>* lnulls = nullptr;
    const std::vector<uint8_t>* rnulls = nullptr;
    const std::vector<uint8_t>* lprob = nullptr;  ///< probabilistic mask
    const std::vector<uint8_t>* rprob = nullptr;
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
