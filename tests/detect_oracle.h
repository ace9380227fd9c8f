// Reference implementations the detectors are checked against, one copy
// each. They trade speed for obviousness: grouping and FD detection hash a
// Value tuple per row (Cell::original()) of the rows handed in, and general
// denial constraints run ViolatedBy — EvalCompare per atom on the cells'
// original values — over every ordered pair of live rows.

#ifndef DAISY_TESTS_DETECT_ORACLE_H_
#define DAISY_TESTS_DETECT_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "constraints/denial_constraint.h"
#include "detect/fd_delta.h"
#include "detect/group_by.h"
#include "detect/theta_join.h"
#include "relax_oracle.h"
#include "storage/table.h"

namespace daisy {
namespace testutil {

using GroupMap =
    std::unordered_map<GroupKey, std::vector<RowId>, GroupKeyHash, GroupKeyEq>;

/// Groups `rows` of `table` by the original values of `columns`, keyed by
/// MakeGroupKey; members keep the order of `rows`.
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

/// FD detection among `rows`: the groups of `rows` on the lhs with >1
/// distinct rhs (all groups when `include_clean`), in the canonical order
/// (SortFdGroups / SortFdRhsHistogram) FdDeltaDetector::ViolatingGroups
/// lists them in.
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

/// Group lists equal element for element. A listed NaN matches a listed
/// NaN: both name a value that equals no other (Value::Equals), so Equals
/// would call every list holding one unequal to itself.
inline bool SameFdGroups(const std::vector<FdGroup>& a,
                         const std::vector<FdGroup>& b) {
  auto same_value = [](const Value& x, const Value& y) {
    return x.Equals(y) || (x.is_nan() && y.is_nan());
  };
  auto same_entry = [&](const std::pair<Value, size_t>& x,
                        const std::pair<Value, size_t>& y) {
    return same_value(x.first, y.first) && x.second == y.second;
  };
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!std::equal(a[i].lhs_key.begin(), a[i].lhs_key.end(),
                    b[i].lhs_key.begin(), b[i].lhs_key.end(), same_value) ||
        a[i].rows != b[i].rows ||
        !std::equal(a[i].rhs_histogram.begin(), a[i].rhs_histogram.end(),
                    b[i].rhs_histogram.begin(), b[i].rhs_histogram.end(),
                    same_entry)) {
      return false;
    }
  }
  return true;
}

/// Count of rows that participate in some violating group of `dc` over the
/// whole table — the paper's #vio statistic.
inline size_t CountFdViolatingRows(const Table& table,
                                   const DenialConstraint& dc) {
  size_t count = 0;
  for (const FdGroup& g : DetectFdViolationsRowPath(table, dc,
                                                    table.AllRowIds())) {
    count += g.total();
  }
  return count;
}

/// From-scratch FdDeltaDetector::stats(): ε, violating groups and p of
/// `dc` over the live rows, counted off DetectFdViolationsRowPath.
inline FdRuleStats FdStatsFromScratch(const Table& table,
                                      const DenialConstraint& dc) {
  FdRuleStats stats;
  stats.table_rows = table.num_live_rows();
  size_t candidate_sum = 0;
  for (const FdGroup& g :
       DetectFdViolationsRowPath(table, dc, table.AllRowIds())) {
    ++stats.num_violating_groups;
    stats.num_violating_rows += g.total();
    candidate_sum += g.rhs_histogram.size();
  }
  if (stats.num_violating_groups > 0) {
    stats.avg_candidates = static_cast<double>(candidate_sum) /
                           static_cast<double>(stats.num_violating_groups);
  }
  return stats;
}

/// Checks a delta-maintained FdDeltaDetector against a fresh one and the
/// from-scratch oracles: every group (clean ones included) against the
/// fresh detector and DetectFdViolationsRowPath; stats() against
/// FdStatsFromScratch; RowsTouchDirty of every live row against the lhs
/// keys and rhs values of the from-scratch violating groups; Relax on a
/// `seed`-drawn answer against the fresh detector, bit for bit, with and
/// without a drawn checked mask; and the unfiltered closure's extras
/// against RelaxFdResult over the live rows.
inline ::testing::AssertionResult MatchesFreshFdIndex(
    const FdDeltaDetector& maintained, const Table& table,
    const DenialConstraint& dc, uint64_t seed) {
  const FdDeltaDetector fresh(&table, &dc);
  const std::vector<FdGroup> groups = maintained.ViolatingGroups(true);
  if (!SameFdGroups(groups, fresh.ViolatingGroups(true)) ||
      !SameFdGroups(groups, DetectFdViolationsRowPath(
                                table, dc, table.AllRowIds(), true))) {
    return ::testing::AssertionFailure() << "maintained groups diverge";
  }
  const FdRuleStats m = maintained.stats();
  const FdRuleStats f = FdStatsFromScratch(table, dc);
  if (m.table_rows != f.table_rows ||
      m.num_violating_rows != f.num_violating_rows ||
      m.num_violating_groups != f.num_violating_groups ||
      m.avg_candidates != f.avg_candidates) {
    return ::testing::AssertionFailure()
           << "maintained stats diverge: rows " << m.num_violating_rows
           << " vs " << f.num_violating_rows << ", groups "
           << m.num_violating_groups << " vs " << f.num_violating_groups;
  }

  std::unordered_set<GroupKey, GroupKeyHash, GroupKeyEq> dirty_keys;
  std::unordered_set<Value, ValueHash> dirty_vals;
  for (const FdGroup& g : groups) {
    if (!g.violating()) continue;
    dirty_keys.insert(g.lhs_key);
    for (const auto& [value, count] : g.rhs_histogram) dirty_vals.insert(value);
  }
  const FdView& fd = dc.fd();
  for (RowId r : table.AllRowIds()) {
    const bool dirty = dirty_keys.count(MakeGroupKey(table, r, fd.lhs)) > 0 ||
                       dirty_vals.count(table.cell(r, fd.rhs).original()) > 0;
    if (maintained.RowsTouchDirty({r}) != dirty) {
      return ::testing::AssertionFailure()
             << "RowsTouchDirty({" << r << "}) diverges";
    }
  }

  Rng rng(seed);
  std::vector<RowId> answer;
  for (RowId r : table.AllRowIds()) {
    if (rng.Bernoulli(0.1)) answer.push_back(r);
  }
  std::vector<bool> checked(table.num_rows());
  for (size_t r = 0; r < checked.size(); ++r) checked[r] = rng.Bernoulli(0.3);
  const std::vector<bool>* masks[] = {nullptr, &checked};
  for (const std::vector<bool>* mask : masks) {
    const RelaxResult a = maintained.Relax(answer, mask);
    const RelaxResult b = fresh.Relax(answer, mask);
    if (a.extra != b.extra || a.iterations != b.iterations ||
        a.tuples_scanned != b.tuples_scanned) {
      return ::testing::AssertionFailure()
             << "Relax diverges from a fresh build (checked mask "
             << (mask != nullptr) << ")";
    }
  }
  std::vector<RowId> extra = maintained.Relax(answer).extra;
  std::vector<RowId> scanned = RelaxFdResult(table, dc, answer).extra;
  std::sort(extra.begin(), extra.end());
  std::sort(scanned.begin(), scanned.end());
  if (extra != scanned) {
    return ::testing::AssertionFailure()
           << "Relax extras diverge from the scan form of Algorithm 1";
  }
  return ::testing::AssertionSuccess();
}

/// Which atoms of `dc` rows (a, b) of `table` satisfy, by position: each
/// atom is EvalCompare on the cells' original values (a binds t1, b t2).
inline std::vector<bool> SatisfiedAtoms(const DenialConstraint& dc,
                                        const Table& table, RowId a,
                                        RowId b) {
  auto operand = [&](int tuple, size_t column) -> const Value& {
    return table.cell(tuple == 0 ? a : b, column).original();
  };
  std::vector<bool> out;
  out.reserve(dc.atoms().size());
  for (const PredicateAtom& atom : dc.atoms()) {
    const Value& rhs = atom.right_is_constant
                           ? atom.constant
                           : operand(atom.right_tuple, atom.right_column);
    out.push_back(
        EvalCompare(operand(atom.left_tuple, atom.left_column), atom.op, rhs));
  }
  return out;
}

/// True if rows (a, b) jointly satisfy every atom, i.e. violate `dc`. A
/// pairwise constraint is never violated by a row paired with itself; for
/// single-tuple constraints pass a == b.
inline bool ViolatedBy(const DenialConstraint& dc, const Table& table, RowId a,
                       RowId b) {
  if (dc.num_tuples() == 2 && a == b) return false;
  const std::vector<bool> sat = SatisfiedAtoms(dc, table, a, b);
  return std::all_of(sat.begin(), sat.end(), [](bool s) { return s; });
}

using PairSet = std::set<std::pair<RowId, RowId>>;

/// Every oriented violating pair (t1, t2) of live rows, by brute force.
inline PairSet BruteForce(const Table& t, const DenialConstraint& dc) {
  PairSet out;
  for (RowId a = 0; a < t.num_rows(); ++a) {
    if (!t.is_live(a)) continue;
    for (RowId b = 0; b < t.num_rows(); ++b) {
      if (a == b || !t.is_live(b)) continue;
      if (ViolatedBy(dc, t, a, b)) out.insert({a, b});
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
