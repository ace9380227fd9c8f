// Comparison operators and predicate atoms of denial constraints.

#ifndef DAISY_CONSTRAINTS_PREDICATE_H_
#define DAISY_CONSTRAINTS_PREDICATE_H_

#include <string>

#include "common/status.h"
#include "common/value.h"

namespace daisy {

/// Binary comparison operators allowed in DC atoms and WHERE clauses.
enum class CompareOp {
  kEq,
  kNeq,
  kLt,
  kLeq,
  kGt,
  kGeq,
};

/// "==", "!=", "<", "<=", ">", ">=".
const char* CompareOpToString(CompareOp op);

/// Parses an operator token. Accepts "=", "==", "!=", "<>", "<", "<=", ">",
/// ">=".
Result<CompareOp> ParseCompareOp(const std::string& token);

/// The logical negation: == -> !=, < -> >=, etc. Used when inverting violated
/// atoms during holistic DC repair.
CompareOp NegateOp(CompareOp op);

/// Mirrors the operator across the comparison: a < b <=> b > a.
CompareOp FlipOp(CompareOp op);

/// Evaluates `a op b` under Value ordering semantics. Comparisons against
/// null are false except `null == null` and `x != null` (x non-null).
/// CompiledCompare (constraints/compiled_compare.h) is its flat-array form.
bool EvalCompare(const Value& a, CompareOp op, const Value& b);

/// One atom p_i of a DC: `t<L>.col <op> t<R>.col` or `t<L>.col <op> const`.
/// Tuple indices are 0-based (t1 -> 0). Column indices are resolved against
/// the table schema when the constraint is bound.
struct PredicateAtom {
  int left_tuple = 0;
  size_t left_column = 0;
  std::string left_column_name;

  CompareOp op = CompareOp::kEq;

  bool right_is_constant = false;
  int right_tuple = 0;
  size_t right_column = 0;
  std::string right_column_name;
  Value constant;

  /// "t1.zip == t2.zip" / "t1.salary > 100".
  std::string ToString() const;

  bool operator==(const PredicateAtom& other) const;
};

}  // namespace daisy

#endif  // DAISY_CONSTRAINTS_PREDICATE_H_
