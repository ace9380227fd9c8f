#include "plan/compiled_filter.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/metrics.h"
#include "query/eval.h"

namespace daisy {

namespace {

// Rows handed to a compiled filter for evaluation, counted per Filter call.
Counter* RowsEvaluated() {
  static Counter* const rows = MetricsRegistry::Global().GetCounter(
      "daisy_plan_filter_rows_evaluated_total",
      "Rows a compiled filter evaluated");
  return rows;
}

}  // namespace

Result<size_t> CompiledFilter::ResolveColumn(const ColumnRef& ref) const {
  if (!ref.table.empty() && ref.table != table_->name()) {
    return Status::NotFound("column " + ref.ToString() +
                            " does not belong to table " + table_->name());
  }
  return table_->schema().ColumnIndex(ref.column);
}

Result<CompiledFilter::Node> CompiledFilter::CompileNode(const Expr& expr) {
  Node node;
  node.ekind = expr.kind;
  if (expr.kind != Expr::Kind::kCmp) {
    node.children.reserve(expr.children.size());
    for (const auto& child : expr.children) {
      DAISY_ASSIGN_OR_RETURN(Node c, CompileNode(*child));
      node.children.push_back(std::move(c));
    }
    return node;
  }

  node.op = expr.op;
  DAISY_ASSIGN_OR_RETURN(node.left_col, ResolveColumn(expr.left));
  ColumnCache& cache = table_->columns();
  const ColumnCache::Column& left = cache.column(node.left_col);
  node.lranks = &left.ranks;
  node.lnum = &left.num;
  node.lnulls = &left.nulls;
  node.lprob = &left.probs;

  if (!expr.right_is_column) {
    node.rhs_val = expr.right_val;
    if (node.rhs_val.is_null()) {
      node.lkind = LeafKind::kConstNull;
      return node;
    }
    if (!left.ranks_exact() || node.rhs_val.is_nan()) {
      node.lkind = LeafKind::kRowFallback;
      return node;
    }
    node.lkind = LeafKind::kConstRank;
    const std::vector<Value>& sorted = left.sorted_distinct;
    const auto eq = std::equal_range(
        sorted.begin(), sorted.end(), node.rhs_val,
        [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
    node.eq_lo = static_cast<uint32_t>(eq.first - sorted.begin());
    node.eq_hi = static_cast<uint32_t>(eq.second - sorted.begin());
    node.null_result = NullCompare(true, false, node.op);
    return node;
  }

  node.right_is_column = true;
  DAISY_ASSIGN_OR_RETURN(node.right_col, ResolveColumn(expr.right_col));
  const ColumnCache::Column& right = cache.column(node.right_col);
  node.rranks = &right.ranks;
  node.rnum = &right.num;
  node.rnulls = &right.nulls;
  node.rprob = &right.probs;
  if (!left.ranks_exact() || !right.ranks_exact()) {
    node.lkind = LeafKind::kRowFallback;
  } else if (node.left_col == node.right_col) {
    node.lkind = LeafKind::kSameColRank;
  } else if (left.numeric_only && right.numeric_only) {
    node.lkind = LeafKind::kNumericCols;
  } else {
    // Cross-column comparison with strings involved: ranks come from
    // different dictionaries and are not comparable — mirror the theta-join
    // detector's row fallback.
    node.lkind = LeafKind::kRowFallback;
  }
  return node;
}

Result<CompiledFilter> CompiledFilter::Compile(const Table& table,
                                               const Expr& expr) {
  CompiledFilter filter;
  filter.table_ = &table;
  DAISY_ASSIGN_OR_RETURN(filter.root_, filter.CompileNode(expr));
  return filter;
}

bool CompiledFilter::EvalLeaf(const Node& node, RowId r) const {
  switch (node.lkind) {
    case LeafKind::kConstNull: {
      if ((*node.lprob)[r]) {
        return CellMaySatisfy(table_->cell(r, node.left_col), node.op,
                              node.rhs_val);
      }
      return NullCompare((*node.lnulls)[r] != 0, true, node.op);
    }
    case LeafKind::kConstRank: {
      if ((*node.lprob)[r]) {
        return CellMaySatisfy(table_->cell(r, node.left_col), node.op,
                              node.rhs_val);
      }
      if ((*node.lnulls)[r]) return node.null_result;
      const uint32_t rank = (*node.lranks)[r];
      switch (node.op) {
        case CompareOp::kEq:
          return rank >= node.eq_lo && rank < node.eq_hi;
        case CompareOp::kNeq:
          return rank < node.eq_lo || rank >= node.eq_hi;
        case CompareOp::kLt:
          return rank < node.eq_lo;
        case CompareOp::kLeq:
          return rank < node.eq_hi;
        case CompareOp::kGt:
          return rank >= node.eq_hi;
        case CompareOp::kGeq:
          return rank >= node.eq_lo;
      }
      return false;
    }
    case LeafKind::kSameColRank:
    case LeafKind::kNumericCols: {
      if ((*node.lprob)[r] || (*node.rprob)[r]) {
        return CellsMayMatch(table_->cell(r, node.left_col), node.op,
                             table_->cell(r, node.right_col));
      }
      const bool ln = (*node.lnulls)[r] != 0;
      const bool rn = (*node.rnulls)[r] != 0;
      if (ln || rn) return NullCompare(ln, rn, node.op);
      if (node.lkind == LeafKind::kSameColRank) {
        return CompareRanks((*node.lranks)[r], node.op, (*node.rranks)[r]);
      }
      // Rounding to double is monotone, so a strict order of the doubles
      // is the exact order, and equal doubles below 2^53 hold equal
      // values. A tie beyond that may be two distinct int64s.
      const double l = (*node.lnum)[r];
      const double rv = (*node.rnum)[r];
      if (l < rv || l > rv || std::fabs(l) < 0x1p53) {
        return CompareDoubles(l, node.op, rv);
      }
      return CellsMayMatch(table_->cell(r, node.left_col), node.op,
                           table_->cell(r, node.right_col));
    }
    case LeafKind::kRowFallback: {
      const Cell& lhs = table_->cell(r, node.left_col);
      if (node.right_is_column) {
        return CellsMayMatch(lhs, node.op, table_->cell(r, node.right_col));
      }
      return CellMaySatisfy(lhs, node.op, node.rhs_val);
    }
  }
  return false;
}

bool CompiledFilter::EvalNode(const Node& node, RowId r) const {
  switch (node.ekind) {
    case Expr::Kind::kCmp:
      return EvalLeaf(node, r);
    case Expr::Kind::kAnd:
      for (const Node& child : node.children) {
        if (!EvalNode(child, r)) return false;
      }
      return true;
    case Expr::Kind::kOr:
      for (const Node& child : node.children) {
        if (EvalNode(child, r)) return true;
      }
      return false;
  }
  return false;
}

std::vector<RowId> CompiledFilter::Filter(std::vector<RowId> rows) const {
  RowsEvaluated()->Increment(rows.size());
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [this](RowId r) { return !EvalNode(root_, r); }),
             rows.end());
  return rows;
}

bool CompiledFilter::Matches(RowId r) const { return EvalNode(root_, r); }

std::vector<RowId> RefilterChanged(const Table& table,
                                   const CompiledFilter* filter,
                                   const std::vector<RowId>& qualifying,
                                   const std::vector<RowId>& changed) {
  std::vector<RowId> requalified;
  requalified.reserve(changed.size());
  for (RowId r : changed) {
    if (table.is_live(r)) requalified.push_back(r);
  }
  if (filter != nullptr) requalified = filter->Filter(std::move(requalified));
  std::vector<RowId> kept;
  kept.reserve(qualifying.size());
  std::set_difference(qualifying.begin(), qualifying.end(), changed.begin(),
                      changed.end(), std::back_inserter(kept));
  std::vector<RowId> out;
  out.reserve(kept.size() + requalified.size());
  std::merge(kept.begin(), kept.end(), requalified.begin(), requalified.end(),
             std::back_inserter(out));
  return out;
}

}  // namespace daisy
