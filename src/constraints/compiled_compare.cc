#include "constraints/compiled_compare.h"

#include <algorithm>
#include <vector>

namespace daisy {

namespace {

// An order op's coordinates may tie where the values differ.
CompareOp NonStrict(CompareOp op) {
  if (op == CompareOp::kLt) return CompareOp::kLeq;
  if (op == CompareOp::kGt) return CompareOp::kGeq;
  return op;
}

}  // namespace

CompiledCompare CompiledCompare::Constant(const Table& table, size_t column,
                                          CompareOp op,
                                          const Value& constant) {
  CompiledCompare c;
  c.table_ = &table;
  c.op_ = op;
  c.left_col_ = column;
  c.constant_ = constant;
  c.constant_coord_ = ColumnCache::NumericCoord(constant);
  const ColumnCache::Column& left = table.columns().column(column);
  c.lnulls_ = left.nulls.data();
  c.lranks_ = left.ranks.data();
  c.check_nulls_ = left.has_nulls;
  if (constant.is_null()) {
    c.kind_ = Kind::kConstNull;
  } else if (left.ranks_exact() && !constant.is_nan()) {
    c.kind_ = Kind::kConstRank;
    const std::vector<Value>& sorted = left.sorted_distinct;
    const auto eq = std::equal_range(
        sorted.begin(), sorted.end(), constant,
        [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
    c.eq_lo_ = static_cast<uint32_t>(eq.first - sorted.begin());
    c.eq_hi_ = static_cast<uint32_t>(eq.second - sorted.begin());
    c.null_result_ = NullCompare(true, false, op);
  }
  c.SetCoordUse(left, nullptr);
  return c;
}

CompiledCompare CompiledCompare::Columns(const Table& table, size_t left,
                                         CompareOp op, size_t right) {
  CompiledCompare c;
  c.table_ = &table;
  c.op_ = op;
  c.left_col_ = left;
  c.right_col_ = right;
  c.right_is_column_ = true;
  ColumnCache& cache = table.columns();
  const ColumnCache::Column& lcol = cache.column(left);
  const ColumnCache::Column& rcol = cache.column(right);
  c.lnum_ = lcol.num.data();
  c.rnum_ = rcol.num.data();
  c.lranks_ = lcol.ranks.data();
  c.rranks_ = rcol.ranks.data();
  c.lnulls_ = lcol.nulls.data();
  c.rnulls_ = rcol.nulls.data();
  c.check_nulls_ = lcol.has_nulls || rcol.has_nulls;
  if (left == right && lcol.ranks_exact()) {
    c.kind_ = Kind::kSameColRank;
  } else if (lcol.numeric_only && rcol.numeric_only) {
    c.kind_ = Kind::kNumericCols;
    c.exact_doubles_ = !lcol.has_nan && !rcol.has_nan &&
                       !lcol.has_wide_int && !rcol.has_wide_int;
  }
  c.SetCoordUse(lcol, &rcol);
  return c;
}

void CompiledCompare::SetCoordUse(const ColumnCache::Column& left,
                                  const ColumnCache::Column* right) {
  coord_op_ = op_;
  if (op_ == CompareOp::kEq) {
    coord_use_ = CoordUse::kEquality;
    return;
  }
  coord_use_ = CoordUse::kNone;
  if (op_ == CompareOp::kNeq) return;
  const bool numeric =
      left.numeric_only && !left.has_nan &&
      (right != nullptr ? right->numeric_only && !right->has_nan
                        : constant_.is_numeric() && !constant_.is_nan());
  if (!numeric) return;
  coord_use_ = CoordUse::kOrder;
  const bool wide =
      left.has_wide_int || (right != nullptr
                                ? right->has_wide_int
                                : ColumnCache::IsWideInt(constant_));
  if (wide) coord_op_ = NonStrict(op_);
}

bool CompiledCompare::EvalCells(RowId l, RowId r) const {
  const Value& lhs = table_->cell(l, left_col_).original();
  return EvalCompare(lhs, op_,
                     right_is_column_ ? table_->cell(r, right_col_).original()
                                      : constant_);
}

}  // namespace daisy
