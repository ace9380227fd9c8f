#include "query/eval.h"

namespace daisy {

namespace {

// Tests whether a single candidate (point or range) can satisfy `x op rhs`.
bool CandidateMaySatisfy(const Candidate& c, CompareOp op, const Value& rhs) {
  switch (c.kind) {
    case CandidateKind::kPoint:
      return EvalCompare(c.value, op, rhs);
    case CandidateKind::kLessThan:
    case CandidateKind::kLessEq: {
      // Candidate domain: x < bound (or <=). Intersect with `x op rhs`.
      const bool closed = c.kind == CandidateKind::kLessEq;
      switch (op) {
        case CompareOp::kLt:
        case CompareOp::kLeq:
        case CompareOp::kNeq:
          return true;  // arbitrarily small values exist in the domain
        case CompareOp::kEq:
          return closed ? rhs <= c.value : rhs < c.value;
        case CompareOp::kGt:
          return closed ? c.value > rhs : c.value > rhs;  // exists x in (rhs, bound]
        case CompareOp::kGeq:
          return closed ? c.value >= rhs : c.value > rhs;
      }
      return true;
    }
    case CandidateKind::kGreaterThan:
    case CandidateKind::kGreaterEq: {
      const bool closed = c.kind == CandidateKind::kGreaterEq;
      switch (op) {
        case CompareOp::kGt:
        case CompareOp::kGeq:
        case CompareOp::kNeq:
          return true;
        case CompareOp::kEq:
          return closed ? rhs >= c.value : rhs > c.value;
        case CompareOp::kLt:
          return closed ? c.value < rhs : c.value < rhs;
        case CompareOp::kLeq:
          return closed ? c.value <= rhs : c.value < rhs;
      }
      return true;
    }
  }
  return false;
}

// `v` is one of cell.PossibleValues(), without materializing the vector.
bool IsPossibleValue(const Cell& cell, const Value& v) {
  if (!cell.is_probabilistic()) return cell.original() == v;
  bool any_point = false;
  for (const Candidate& c : cell.candidates()) {
    if (c.kind != CandidateKind::kPoint) continue;
    if (c.value == v) return true;
    any_point = true;
  }
  return !any_point && cell.original() == v;
}

}  // namespace

bool CellMaySatisfy(const Cell& cell, CompareOp op, const Value& rhs) {
  if (!cell.is_probabilistic()) {
    return EvalCompare(cell.original(), op, rhs);
  }
  for (const Candidate& c : cell.candidates()) {
    if (CandidateMaySatisfy(c, op, rhs)) return true;
  }
  return false;
}

bool CellsMayMatch(const Cell& a, CompareOp op, const Cell& b) {
  // Enumerate b's possibilities; ranges in b are handled by flipping the
  // comparison so that CandidateMaySatisfy sees them on the left.
  if (!b.is_probabilistic()) {
    return CellMaySatisfy(a, op, b.original());
  }
  for (const Candidate& cb : b.candidates()) {
    if (cb.kind == CandidateKind::kPoint) {
      if (CellMaySatisfy(a, op, cb.value)) return true;
      continue;
    }
    // Range candidate on the right: test each possibility of `a` against it
    // with the flipped operator (x op y  <=>  y FlipOp(op) x).
    if (!a.is_probabilistic()) {
      if (CandidateMaySatisfy(cb, FlipOp(op), a.original())) return true;
      continue;
    }
    for (const Candidate& ca : a.candidates()) {
      if (ca.kind == CandidateKind::kPoint) {
        if (CandidateMaySatisfy(cb, FlipOp(op), ca.value)) return true;
        continue;
      }
      // Range vs range: unbounded sides make any pair of half-planes with
      // compatible direction intersect; conservatively admit unless both
      // are bounded away from each other under equality.
      if (op == CompareOp::kEq) {
        const bool a_low = ca.kind == CandidateKind::kLessThan ||
                           ca.kind == CandidateKind::kLessEq;
        const bool b_low = cb.kind == CandidateKind::kLessThan ||
                           cb.kind == CandidateKind::kLessEq;
        if (a_low == b_low) return true;  // same direction: overlap
        const Value& lo = a_low ? cb.value : ca.value;   // x >= lo side
        const Value& hi = a_low ? ca.value : cb.value;   // x <= hi side
        if (lo <= hi) return true;
      } else {
        return true;  // order comparisons across open ranges always possible
      }
    }
  }
  return false;
}

bool JoinCellsMayMatch(const Cell& probe, const Cell& build) {
  if (!build.is_probabilistic()) {
    return IsPossibleValue(probe, build.original());
  }
  bool has_range = false;
  for (const Candidate& c : build.candidates()) {
    if (c.kind != CandidateKind::kPoint) {
      has_range = true;
      continue;
    }
    if (IsPossibleValue(probe, c.value)) return true;
  }
  return has_range && CellsMayMatch(probe, CompareOp::kEq, build);
}

namespace {

Result<size_t> ResolveLeafColumn(const Table& table, const ColumnRef& ref) {
  if (!ref.table.empty() && ref.table != table.name()) {
    return Status::NotFound("column " + ref.ToString() +
                            " does not belong to table " + table.name());
  }
  return table.schema().ColumnIndex(ref.column);
}

}  // namespace

Result<bool> RowMaySatisfy(const Table& table, RowId row, const Expr& expr) {
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

Result<std::vector<RowId>> FilterRows(const Table& table, const Expr* expr,
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

void CollectExprColumns(const Expr& expr, const Table& table,
                        std::vector<size_t>* cols) {
  switch (expr.kind) {
    case Expr::Kind::kCmp: {
      auto add = [&](const ColumnRef& ref) {
        if (!ref.table.empty() && ref.table != table.name()) return;
        auto idx = table.schema().ColumnIndex(ref.column);
        if (idx.ok()) cols->push_back(idx.value());
      };
      add(expr.left);
      if (expr.right_is_column) add(expr.right_col);
      break;
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      for (const auto& child : expr.children) {
        CollectExprColumns(*child, table, cols);
      }
      break;
  }
}

std::vector<const Expr*> SplitConjuncts(const Expr* expr) {
  std::vector<const Expr*> out;
  if (expr == nullptr) return out;
  if (expr->kind == Expr::Kind::kAnd) {
    for (const auto& child : expr->children) {
      for (const Expr* leaf : SplitConjuncts(child.get())) out.push_back(leaf);
    }
  } else {
    out.push_back(expr);
  }
  return out;
}

bool ExprRefersOnlyTo(const Expr& expr, const std::string& table_name,
                      const Schema& schema) {
  switch (expr.kind) {
    case Expr::Kind::kCmp: {
      auto leaf_ok = [&](const ColumnRef& ref) {
        if (!ref.table.empty() && ref.table != table_name) return false;
        return schema.HasColumn(ref.column);
      };
      if (!leaf_ok(expr.left)) return false;
      if (expr.right_is_column && !leaf_ok(expr.right_col)) return false;
      return true;
    }
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      for (const auto& child : expr.children) {
        if (!ExprRefersOnlyTo(*child, table_name, schema)) return false;
      }
      return true;
  }
  return false;
}

bool MatchJoinPredicate(const Expr& expr, ColumnRef* left, ColumnRef* right) {
  if (expr.kind != Expr::Kind::kCmp || !expr.right_is_column) return false;
  if (expr.op != CompareOp::kEq) return false;
  if (expr.left.table.empty() || expr.right_col.table.empty()) return false;
  if (expr.left.table == expr.right_col.table) return false;
  *left = expr.left;
  *right = expr.right_col;
  return true;
}

}  // namespace daisy
