// Reference implementation FdRelaxIndex::Relax is checked against: the
// scan form of Algorithm 1, which folds the growing answer's lhs keys and
// rhs values into sets and re-scans every unvisited tuple per iteration.

#ifndef DAISY_TESTS_RELAX_ORACLE_H_
#define DAISY_TESTS_RELAX_ORACLE_H_

#include <unordered_set>
#include <vector>

#include "constraints/denial_constraint.h"
#include "detect/group_by.h"
#include "relax/relaxation.h"
#include "storage/table.h"

namespace daisy {
namespace testutil {

/// Algorithm 1. Requires dc.IsFd(). `answer` holds the (dirty) query-result
/// row ids; `universe` the rows the relaxation may draw from (pass
/// table.AllRowIds() for whole-table scope).
inline RelaxResult RelaxFdResult(const Table& table,
                                 const DenialConstraint& dc,
                                 const std::vector<RowId>& answer,
                                 const std::vector<RowId>& universe) {
  const FdView& fd = dc.fd();
  RelaxResult out;

  // Value sets of the (growing) relaxed answer.
  std::unordered_set<GroupKey, GroupKeyHash, GroupKeyEq> lhs_keys;
  std::unordered_set<Value, ValueHash> rhs_vals;
  std::vector<bool> in_answer(table.num_rows(), false);
  for (RowId r : answer) in_answer[r] = true;

  // Frontier: rows whose lhs/rhs values have not been folded in yet.
  std::vector<RowId> frontier = answer;
  // unvisited = universe - answer (Algorithm 1 line 2).
  std::vector<RowId> unvisited;
  unvisited.reserve(universe.size());
  for (RowId r : universe) {
    if (!in_answer[r]) unvisited.push_back(r);
  }

  while (!frontier.empty()) {
    bool grew = false;
    for (RowId r : frontier) {
      if (lhs_keys.insert(MakeGroupKey(table, r, fd.lhs)).second) grew = true;
      if (rhs_vals.insert(table.cell(r, fd.rhs).original()).second) {
        grew = true;
      }
    }
    frontier.clear();
    if (!grew && out.iterations > 0) break;
    ++out.iterations;

    // One pass over the remaining unvisited tuples: pick up rows matching
    // the answer's lhs values (line 6) or rhs values (line 8).
    std::vector<RowId> still_unvisited;
    still_unvisited.reserve(unvisited.size());
    for (RowId r : unvisited) {
      ++out.tuples_scanned;
      const bool lhs_match = lhs_keys.count(MakeGroupKey(table, r, fd.lhs)) > 0;
      const bool rhs_match =
          !lhs_match && rhs_vals.count(table.cell(r, fd.rhs).original()) > 0;
      if (lhs_match || rhs_match) {
        frontier.push_back(r);
        out.extra.push_back(r);
      } else {
        still_unvisited.push_back(r);
      }
    }
    unvisited.swap(still_unvisited);
  }
  return out;
}

/// Convenience overload over the whole table.
inline RelaxResult RelaxFdResult(const Table& table,
                                 const DenialConstraint& dc,
                                 const std::vector<RowId>& answer) {
  return RelaxFdResult(table, dc, answer, table.AllRowIds());
}

}  // namespace testutil
}  // namespace daisy

#endif  // DAISY_TESTS_RELAX_ORACLE_H_
