#include "plan/compiled_filter.h"

#include <algorithm>
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

  DAISY_ASSIGN_OR_RETURN(const size_t left, ResolveColumn(expr.left));
  ColumnCache& cache = table_->columns();
  node.lprob = cache.column(left).probs.data();
  if (!expr.right_is_column) {
    node.cmp =
        CompiledCompare::Constant(*table_, left, expr.op, expr.right_val);
    return node;
  }
  DAISY_ASSIGN_OR_RETURN(const size_t right, ResolveColumn(expr.right_col));
  node.rprob = cache.column(right).probs.data();
  node.cmp = CompiledCompare::Columns(*table_, left, expr.op, right);
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
  const CompiledCompare& cmp = node.cmp;
  if (node.lprob[r] || (node.rprob != nullptr && node.rprob[r])) {
    const Cell& lhs = table_->cell(r, cmp.left_column());
    if (cmp.right_is_column()) {
      return CellsMayMatch(lhs, cmp.op(), table_->cell(r, cmp.right_column()));
    }
    return CellMaySatisfy(lhs, cmp.op(), cmp.constant());
  }
  return cmp.Eval(r, r);
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
