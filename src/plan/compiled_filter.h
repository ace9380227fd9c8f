// Batch predicate compilation for the plan layer's Filter operator.
//
// A CompiledFilter lowers a single-table WHERE subtree onto the typed
// projections of the table's ColumnCache so the per-row hot loop avoids
// std::variant dispatch:
//
//  * column-vs-constant leaves binary-search the constant once into the
//    column's sorted distinct values and then compare dense Compare ranks —
//    exact for every value type (strings, int64 beyond double precision);
//    EvalCompare's null semantics are precomputed into a per-leaf constant
//    and re-applied through the null mask.
//  * column-vs-same-column leaves compare ranks directly (one dictionary).
//  * cross-column leaves on numeric-only columns compare the flat double
//    projections (matching Value semantics for |v| < 2^53, the same caveat
//    the theta-join detector documents); anything involving strings keeps a
//    per-row cell fallback.
//
// Cells that carry repair candidates cannot be answered from the projected
// originals, so those rows fall back to the exact CellMaySatisfy/
// CellsMayMatch path via the cache's per-column probabilistic mask
// (ColumnCache::Column::probs, refreshed by the same version-counter
// rebuild as the arrays). The compiled references are valid for one
// execution: the plan runtime fully drains a Filter before any downstream
// cleaning operator mutates the table.

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
  /// Compiles `expr` against `table`'s column cache. Fails with the same
  /// resolution errors the row-at-a-time evaluator (RowMaySatisfy) reports
  /// for unknown or foreign-qualified columns. `table` must outlive the filter; the
  /// compiled arrays stay valid until the next table mutation.
  static Result<CompiledFilter> Compile(const Table& table, const Expr& expr);

  /// True iff row `r` may satisfy the predicate — bit-identical to
  /// RowMaySatisfy on a successfully compiled expression.
  bool Matches(RowId r) const;

 private:
  enum class LeafKind {
    kConstRank,   ///< col op non-null constant, via dense ranks
    kConstNull,   ///< col op null constant, via null mask only
    kSameColRank, ///< col op same col, via ranks
    kNumericCols, ///< col op other numeric-only col, via double projections
    kRowFallback, ///< per-cell evaluation (strings across columns)
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
    uint32_t bound_rank = 0;           ///< kConstRank
    bool bound_in_dict = false;        ///< kConstRank: constant exists
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

}  // namespace daisy

#endif  // DAISY_PLAN_COMPILED_FILTER_H_
