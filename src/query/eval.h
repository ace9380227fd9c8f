// Probabilistic predicate evaluation over cells, and WHERE-tree helpers.
//
// Query operators over the gradually-probabilistic dataset use *possible*
// semantics: a tuple qualifies iff at least one candidate value of each
// touched cell can satisfy the condition (Section 4: "query operators
// output a tuple iff at least one candidate value qualifies"). Conjunctions
// evaluate cell-wise, matching the attribute-level uncertainty model. A
// WHERE tree over a table's rows is evaluated by plan/compiled_filter.h,
// which calls the cell tests below for candidate-carrying cells; the joins
// call them for join keys.

#ifndef DAISY_QUERY_EVAL_H_
#define DAISY_QUERY_EVAL_H_

#include <string>
#include <vector>

#include "query/ast.h"
#include "storage/table.h"

namespace daisy {

/// Can some possible value of `cell` satisfy `value_of(cell) op rhs`?
/// Range candidates are tested by half-plane intersection.
bool CellMaySatisfy(const Cell& cell, CompareOp op, const Value& rhs);

/// Can some pair of possible values (va from `a`, vb from `b`) satisfy
/// `va op vb`? Equality reduces to candidate-set overlap — the paper's
/// probabilistic join-key semantics.
bool CellsMayMatch(const Cell& a, CompareOp op, const Cell& b);

/// The equi-join match every join step applies, between the cell of the
/// predicate's earlier-FROM endpoint (`probe`) and its later-FROM endpoint
/// (`build`). Orientation matters: some point key of the build cell — its
/// value when certain, each point candidate when probabilistic — must be
/// one of the probe cell's PossibleValues(), or the build cell carries a
/// range candidate and CellsMayMatch admits the pair. A hash join indexes
/// the point-key half of this test.
bool JoinCellsMayMatch(const Cell& probe, const Cell& build);

/// Flattens top-level ANDs of a WHERE tree into conjuncts.
std::vector<const Expr*> SplitConjuncts(const Expr* expr);

/// Appends the indices of `table`'s columns referenced by `expr` leaves
/// (unqualified or qualified with the table's name; unresolvable leaves are
/// skipped). The planner's column sets and rule-overlap checks read it.
void CollectExprColumns(const Expr& expr, const Table& table,
                        std::vector<size_t>* cols);

/// True if every column leaf of `expr` resolves against `table_name` /
/// `schema` (unqualified columns match if the schema has them).
bool ExprRefersOnlyTo(const Expr& expr, const std::string& table_name,
                      const Schema& schema);

/// If `expr` is an equi-join conjunct `a.x == b.y` across two different
/// qualified tables, extracts the two references. Returns false otherwise.
bool MatchJoinPredicate(const Expr& expr, ColumnRef* left, ColumnRef* right);

}  // namespace daisy

#endif  // DAISY_QUERY_EVAL_H_
