// Reference implementations the detectors are checked against, one copy
// each. They trade speed for obviousness: grouping and FD detection hash a
// Value tuple per row (Cell::original()), and general denial constraints
// run DenialConstraint::ViolatedBy over every ordered pair of live rows.

#ifndef DAISY_TESTS_DETECT_ORACLE_H_
#define DAISY_TESTS_DETECT_ORACLE_H_

#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "constraints/denial_constraint.h"
#include "detect/fd_detector.h"
#include "detect/group_by.h"
#include "detect/theta_join.h"
#include "storage/table.h"

namespace daisy {
namespace testutil {

/// Row-at-a-time GroupRowsBy: the same grouping, keyed by MakeGroupKey.
inline GroupMap GroupRowsByRowPath(const Table& table,
                                   const std::vector<size_t>& columns,
                                   const std::vector<RowId>& rows) {
  GroupMap groups;
  groups.reserve(rows.size());
  for (RowId r : rows) {
    groups[MakeGroupKey(table, r, columns)].push_back(r);
  }
  return groups;
}

/// Row-at-a-time DetectFdViolations: the same groups in the same
/// canonical order (SortFdGroups / SortFdRhsHistogram).
inline std::vector<FdGroup> DetectFdViolationsRowPath(
    const Table& table, const DenialConstraint& dc,
    const std::vector<RowId>& rows, bool include_clean = false) {
  const FdView& fd = dc.fd();
  GroupMap groups = GroupRowsByRowPath(table, fd.lhs, rows);
  std::vector<FdGroup> out;
  out.reserve(groups.size());
  for (auto& [key, members] : groups) {
    std::unordered_map<Value, size_t, ValueHash> hist;
    for (RowId r : members) {
      hist[table.cell(r, fd.rhs).original()] += 1;
    }
    if (hist.size() <= 1 && !include_clean) continue;
    FdGroup group;
    group.lhs_key = key;
    group.rows = std::move(members);
    group.rhs_histogram.assign(hist.begin(), hist.end());
    SortFdRhsHistogram(&group.rhs_histogram);
    out.push_back(std::move(group));
  }
  SortFdGroups(&out);
  return out;
}

using PairSet = std::set<std::pair<RowId, RowId>>;

/// Every oriented violating pair (t1, t2) of live rows, by brute force.
inline PairSet BruteForce(const Table& t, const DenialConstraint& dc) {
  PairSet out;
  for (RowId a = 0; a < t.num_rows(); ++a) {
    if (!t.is_live(a)) continue;
    for (RowId b = 0; b < t.num_rows(); ++b) {
      if (a == b || !t.is_live(b)) continue;
      if (dc.ViolatedBy(t, a, b)) out.insert({a, b});
    }
  }
  return out;
}

inline PairSet AsSet(const std::vector<ViolationPair>& v) {
  PairSet out;
  for (const ViolationPair& p : v) out.insert({p.t1, p.t2});
  return out;
}

}  // namespace testutil
}  // namespace daisy

#endif  // DAISY_TESTS_DETECT_ORACLE_H_
