// One comparison — `col op constant` or `col op col` — compiled onto a
// table's ColumnCache. It is the one flat-array form of EvalCompare in the
// tree: the plan layer's CompiledFilter evaluates every WHERE leaf with it
// and the theta-join detector every DC atom, so null, NaN, string and
// wide-int semantics cannot diverge between queries and detection.
//
// Eval(l, r) answers EvalCompare on the original values of row `l` of the
// left column and row `r` of the right one (a constant ignores `r`). The
// compile step picks, from the cache's column facts, a representation
// that is exact:
//
//  * col op null constant: the null mask alone.
//  * col op constant, on a column whose ranks_exact() holds: the constant
//    is binary-searched once into the sorted distinct values, giving the
//    rank interval Compare calls equal to it.
//  * col op the same col, ranks_exact(): dense ranks of one dictionary.
//  * col op col, both numeric-only: the double projections. Rounding is
//    monotone, so a strict order of the doubles is the exact order, and a
//    tie below 2^53 holds equal values. A NaN (Compare calls it equal to
//    every number, Equals to none) or a tie at or beyond 2^53 (two int64s
//    may share a double) re-checks the cells.
//  * anything else — strings across two columns, a NaN constant, a
//    constant on a column holding a NaN or doubles beside ints at or
//    beyond 2^53 — evaluates EvalCompare per cell.
//
// The same compile step decides whether the comparison may be bounded by
// the min/max of the sides' 1-D coordinates (ColumnCache::Column::num,
// ColumnCache::NumericCoord of a constant), which is what partition
// pruning and Estimate_Errors read:
//
//  * == may: Equals-equal values share one coordinate.
//  * an order op may when both sides are numeric-only and NaN-free; a
//    strict op is loosened to its non-strict form where a side holds ints
//    at or beyond 2^53, whose doubles may tie.
//  * any other comparison restricts nothing.
//
// The arrays are read through pointers taken at compile time: recompile
// after an append or an original-value edit. Candidate writes
// (Table::SetCandidates) move nothing.

#ifndef DAISY_CONSTRAINTS_COMPILED_COMPARE_H_
#define DAISY_CONSTRAINTS_COMPILED_COMPARE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/value.h"
#include "constraints/predicate.h"
#include "storage/column_cache.h"
#include "storage/table.h"

// Eval runs a few times per candidate pair of the theta-join — billions
// of times per scan — and must not pay a call. GCC's cost model leaves it
// out of line without the hint.
#if defined(__GNUC__) || defined(__clang__)
#define DAISY_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define DAISY_ALWAYS_INLINE inline
#endif

namespace daisy {

class CompiledCompare {
 public:
  /// How the sides' coordinate ranges may bound the comparison.
  enum class CoordUse {
    kNone,      ///< restricts nothing
    kEquality,  ///< == on coordinates (equal values share one)
    kOrder,     ///< coord_op() on numeric coordinates
  };

  CompiledCompare() = default;

  /// `column op constant` over `table`, which must outlive the result.
  static CompiledCompare Constant(const Table& table, size_t column,
                                  CompareOp op, const Value& constant);

  /// `left op right`, two columns (possibly one) of `table`.
  static CompiledCompare Columns(const Table& table, size_t left, CompareOp op,
                                 size_t right);

  /// EvalCompare(left cell of row `l`, op, right cell of row `r` or the
  /// constant), on original values.
  DAISY_ALWAYS_INLINE bool Eval(RowId l, RowId r) const;

  CompareOp op() const { return op_; }
  size_t left_column() const { return left_col_; }
  size_t right_column() const { return right_col_; }
  bool right_is_column() const { return right_is_column_; }
  const Value& constant() const { return constant_; }

  CoordUse coord_use() const { return coord_use_; }
  /// The op to test on coordinate ranges (op(), loosened where needed).
  CompareOp coord_op() const { return coord_op_; }
  /// The constant's coordinate (ColumnCache::NumericCoord).
  double constant_coord() const { return constant_coord_; }

 private:
  enum class Kind {
    kConstNull,    ///< col op null constant, via the null mask
    kConstRank,    ///< col op constant, via the equal-rank interval
    kSameColRank,  ///< col op same col, via ranks
    kNumericCols,  ///< col op numeric-only col, via double projections
    kRowFallback,  ///< EvalCompare per cell
  };

  // EvalCompare's null branch over null flags: null equals only null;
  // order comparisons against null never hold.
  static bool NullCompare(bool lnull, bool rnull, CompareOp op) {
    switch (op) {
      case CompareOp::kEq:
        return lnull && rnull;
      case CompareOp::kNeq:
        return lnull != rnull;
      default:
        return false;
    }
  }

  template <typename T>
  static bool CompareFlat(T a, CompareOp op, T b) {
    switch (op) {
      case CompareOp::kEq:
        return a == b;
      case CompareOp::kNeq:
        return a != b;
      case CompareOp::kLt:
        return a < b;
      case CompareOp::kLeq:
        return a <= b;
      case CompareOp::kGt:
        return a > b;
      case CompareOp::kGeq:
        return a >= b;
    }
    return false;
  }

  void SetCoordUse(const ColumnCache::Column& left,
                   const ColumnCache::Column* right);
  bool EvalCells(RowId l, RowId r) const;

  // Hot fields first: Eval reads these.
  Kind kind_ = Kind::kRowFallback;
  CompareOp op_ = CompareOp::kEq;
  /// False when no operand column holds a null: the mask loads are skipped.
  bool check_nulls_ = true;
  /// kNumericCols: neither column holds a NaN or an int at or beyond
  /// 2^53, so the doubles decide every pair.
  bool exact_doubles_ = false;
  bool null_result_ = false;  ///< kConstRank: the answer for a null cell
  /// kConstRank: ranks [eq_lo_, eq_hi_) hold the values Compare calls
  /// equal to the constant (several int64s may round to one double).
  uint32_t eq_lo_ = 0;
  uint32_t eq_hi_ = 0;
  const double* lnum_ = nullptr;
  const double* rnum_ = nullptr;
  const uint32_t* lranks_ = nullptr;
  const uint32_t* rranks_ = nullptr;
  const uint8_t* lnulls_ = nullptr;
  const uint8_t* rnulls_ = nullptr;

  const Table* table_ = nullptr;
  size_t left_col_ = 0;
  size_t right_col_ = 0;
  bool right_is_column_ = false;
  Value constant_;
  double constant_coord_ = 0.0;
  CoordUse coord_use_ = CoordUse::kNone;
  CompareOp coord_op_ = CompareOp::kEq;
};

DAISY_ALWAYS_INLINE bool CompiledCompare::Eval(RowId l, RowId r) const {
  switch (kind_) {
    case Kind::kConstNull:
      return NullCompare(lnulls_[l] != 0, true, op_);
    case Kind::kConstRank: {
      if (check_nulls_ && lnulls_[l] != 0) return null_result_;
      const uint32_t rank = lranks_[l];
      switch (op_) {
        case CompareOp::kEq:
          return rank >= eq_lo_ && rank < eq_hi_;
        case CompareOp::kNeq:
          return rank < eq_lo_ || rank >= eq_hi_;
        case CompareOp::kLt:
          return rank < eq_lo_;
        case CompareOp::kLeq:
          return rank < eq_hi_;
        case CompareOp::kGt:
          return rank >= eq_hi_;
        case CompareOp::kGeq:
          return rank >= eq_lo_;
      }
      return false;
    }
    case Kind::kSameColRank:
    case Kind::kNumericCols: {
      if (check_nulls_) {
        const bool ln = lnulls_[l] != 0;
        const bool rn = rnulls_[r] != 0;
        if (ln || rn) return NullCompare(ln, rn, op_);
      }
      if (kind_ == Kind::kSameColRank) {
        return CompareFlat(lranks_[l], op_, rranks_[r]);
      }
      const double x = lnum_[l];
      const double y = rnum_[r];
      if (exact_doubles_ || x < y || x > y ||
          (x == y && std::fabs(x) < 0x1p53)) {
        return CompareFlat(x, op_, y);
      }
      return EvalCells(l, r);
    }
    case Kind::kRowFallback:
      return EvalCells(l, r);
  }
  return false;
}

}  // namespace daisy

#endif  // DAISY_CONSTRAINTS_COMPILED_COMPARE_H_
