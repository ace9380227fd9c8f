// Reference implementation FdDeltaDetector::Relax is checked against: the
// scan form of Algorithm 1, which folds the growing answer's lhs keys and
// rhs values into sets and re-scans every unvisited tuple per iteration.
// Also the analytical relaxation estimates of Lemmas 2 and 3, which the
// tests hold the scan form to.

#ifndef DAISY_TESTS_RELAX_ORACLE_H_
#define DAISY_TESTS_RELAX_ORACLE_H_

#include <cmath>
#include <limits>
#include <unordered_set>
#include <vector>

#include "constraints/denial_constraint.h"
#include "detect/fd_delta.h"
#include "detect/group_by.h"
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

/// Lemma 2: probability that a relaxed answer of size `relaxed_size`,
/// drawn from a dataset of `n` tuples containing `num_vio` violating
/// tuples, contains at least one violation:
///   Pr(>=1) = 1 - C(n - #vio, |AR|) / C(n, |AR|).
/// Computed in log space; exact within double precision.
inline double ProbAtLeastOneViolation(size_t n, size_t num_vio,
                                      size_t relaxed_size) {
  if (relaxed_size == 0 || num_vio == 0) return 0.0;
  if (relaxed_size > n) relaxed_size = n;
  if (num_vio >= n) return 1.0;
  // log C(n, k) via lgamma; -inf for invalid k.
  auto log_choose = [](size_t n, size_t k) {
    if (k > n) return -std::numeric_limits<double>::infinity();
    return std::lgamma(static_cast<double>(n) + 1.0) -
           std::lgamma(static_cast<double>(k) + 1.0) -
           std::lgamma(static_cast<double>(n - k) + 1.0);
  };
  // Pr(0 violations) = C(n - vio, |AR|) / C(n, |AR|)  (hypergeometric).
  const double log_p0 =
      log_choose(n - num_vio, relaxed_size) - log_choose(n, relaxed_size);
  if (!std::isfinite(log_p0)) return 1.0;  // C(n-vio, |AR|) = 0
  return 1.0 - std::exp(log_p0);
}

/// One attribute's frequency evidence for Lemma 3: the total dataset
/// frequency and query-result frequency of each distinct value appearing in
/// the result.
struct AttributeFrequencies {
  /// D_ij: dataset-wide frequency of result value j of attribute i.
  std::vector<size_t> dataset_freq;
  /// Dq_ij: in-result frequency of the same value.
  std::vector<size_t> result_freq;
};

/// Lemma 3: upper bound of the relaxed-result growth per iteration,
///   R = sum_i ( sum_j D_ij - sum_j Dq_ij ).
inline size_t RelaxedResultUpperBound(
    const std::vector<AttributeFrequencies>& attrs) {
  size_t total = 0;
  for (const AttributeFrequencies& attr : attrs) {
    size_t dataset_sum = 0;
    size_t result_sum = 0;
    for (size_t f : attr.dataset_freq) dataset_sum += f;
    for (size_t f : attr.result_freq) result_sum += f;
    if (dataset_sum > result_sum) total += dataset_sum - result_sum;
  }
  return total;
}

}  // namespace testutil
}  // namespace daisy

#endif  // DAISY_TESTS_RELAX_ORACLE_H_
