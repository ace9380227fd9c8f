#include "plan/optimizer.h"

#include <algorithm>
#include <limits>

#include "clean/cost_model.h"
#include "clean/statistics.h"

namespace daisy {

bool JoinReorderExact(size_t num_tables,
                      const std::vector<SplitWhere::JoinPred>& joins) {
  if (num_tables < 2 || num_tables > kMaxOptimizerTables) return false;
  if (joins.size() != num_tables - 1) return false;
  for (const SplitWhere::JoinPred& p : joins) {
    if (p.left_table >= num_tables || p.right_table >= num_tables ||
        p.left_table == p.right_table) {
      return false;
    }
  }
  // Replay the FROM-order binding walk: each new FROM table must be
  // reached by exactly one predicate into the already-bound prefix (zero
  // means a cartesian step, two+ a residual — neither is a one-predicate
  // join the DP can price).
  uint64_t bound = 1;
  for (size_t t = 1; t < num_tables; ++t) {
    size_t cross = 0;
    for (const SplitWhere::JoinPred& p : joins) {
      const bool connects =
          (p.left_table == t && ((bound >> p.right_table) & 1u) != 0) ||
          (p.right_table == t && ((bound >> p.left_table) & 1u) != 0);
      if (connects) ++cross;
    }
    if (cross != 1) return false;
    bound |= uint64_t{1} << t;
  }
  // n-1 edges + a connected walk covering all tables => spanning tree.
  return true;
}

std::unique_ptr<JoinTree> EnumerateJoinOrder(
    const CardinalityEstimator& est,
    const std::vector<SplitWhere::JoinPred>& joins,
    const std::vector<double>& leaf_rows) {
  const size_t n = leaf_rows.size();
  if (!JoinReorderExact(n, joins)) return nullptr;

  struct Entry {
    double rows = 0.0;
    double cost = std::numeric_limits<double>::infinity();
    uint64_t left = 0;   // child masks; 0/0 for leaves
    uint64_t right = 0;
    size_t pred = 0;
    bool build_left = false;
    int from = -1;
    bool valid = false;
  };
  const uint64_t full = (uint64_t{1} << n) - 1;
  std::vector<Entry> best(full + 1);
  for (size_t i = 0; i < n; ++i) {
    Entry& e = best[uint64_t{1} << i];
    e.rows = leaf_rows[i];
    e.cost = leaf_rows[i];  // chain production (scan/filter/cleanσ drain)
    e.from = static_cast<int>(i);
    e.valid = true;
  }

  // dpsize: masks ascend, so every proper submask is already solved when
  // its supersets are considered.
  for (uint64_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // leaves are seeded
    Entry& target = best[mask];
    const uint64_t low_bit = mask & ~(mask - 1);
    for (uint64_t sub = (mask - 1) & mask; sub != 0;
         sub = (sub - 1) & mask) {
      // Canonical split: the left half owns the lowest table, so each
      // unordered partition is scored once.
      if ((sub & low_bit) == 0) continue;
      const uint64_t rest = mask ^ sub;
      const Entry& l = best[sub];
      const Entry& r = best[rest];
      if (!l.valid || !r.valid) continue;
      // The two halves must be connected by exactly one predicate (the
      // spanning-tree gate guarantees never more than one).
      size_t pred_idx = joins.size();
      size_t cross = 0;
      for (size_t j = 0; j < joins.size(); ++j) {
        const SplitWhere::JoinPred& p = joins[j];
        const bool lr = ((sub >> p.left_table) & 1u) != 0 &&
                        ((rest >> p.right_table) & 1u) != 0;
        const bool rl = ((rest >> p.left_table) & 1u) != 0 &&
                        ((sub >> p.right_table) & 1u) != 0;
        if (lr || rl) {
          pred_idx = j;
          ++cross;
        }
      }
      if (cross != 1) continue;
      const double out = est.JoinOutputRows(l.rows, r.rows, joins[pred_idx]);
      const double cost = l.cost + r.cost + l.rows + r.rows + out;
      if (cost < target.cost) {
        target.rows = out;
        target.cost = cost;
        target.left = sub;
        target.right = rest;
        target.pred = pred_idx;
        // The build side is NOT a cost choice: possible-candidate matching
        // is orientation-dependent (a build cell's range candidates go to a
        // linear side list; a probe cell's range candidates fall back to
        // its original value), and the FROM-order chain always hashes the
        // predicate endpoint with the later FROM position. Keeping that
        // orientation is what makes any join order bit-identical.
        const SplitWhere::JoinPred& jp = joins[pred_idx];
        const size_t hash_end = std::max(jp.left_table, jp.right_table);
        target.build_left = ((sub >> hash_end) & 1u) != 0;
        target.from = -1;
        target.valid = true;
      }
    }
  }
  if (!best[full].valid) return nullptr;

  // Materialize the winning tree out of the DP table.
  struct Builder {
    const std::vector<Entry>& best;
    std::unique_ptr<JoinTree> operator()(uint64_t mask) const {
      const Entry& e = best[mask];
      auto node = std::make_unique<JoinTree>();
      node->mask = mask;
      node->est_rows = e.rows;
      node->est_cost = e.cost;
      node->from = e.from;
      if (e.from < 0) {
        node->pred_idx = e.pred;
        node->build_left = e.build_left;
        node->left = (*this)(e.left);
        node->right = (*this)(e.right);
      }
      return node;
    }
  };
  return Builder{best}(full);
}

double CleaningUnitCost(const CostModel* cost, const FdRuleStats* rstats,
                        size_t maintained_violations, double table_rows) {
  if (cost != nullptr && cost->queries_recorded() > 0 &&
      cost->total_results() > 0) {
    return cost->cumulative_cost() /
           static_cast<double>(cost->total_results());
  }
  double dirty = 0.0;
  double width = 2.0;
  if (rstats != nullptr) {
    if (rstats->table_rows > 0) {
      dirty = static_cast<double>(rstats->num_violating_rows) /
              static_cast<double>(rstats->table_rows);
    }
    width = std::max(1.0, rstats->avg_candidates);
  } else if (table_rows > 0.0) {
    dirty = std::min(
        1.0, static_cast<double>(maintained_violations) / table_rows);
  }
  return 1.0 + dirty * (1.0 + width);
}

bool ShouldDeferCleaning(double unit_cost, double est_chain_rows,
                         double est_join_rows) {
  // A one-invocation constant keeps rules off the deferred path when both
  // estimates are tiny, and the 2x margin absorbs estimation noise.
  return 2.0 * unit_cost * est_join_rows + 1.0 <
         unit_cost * est_chain_rows;
}

}  // namespace daisy
