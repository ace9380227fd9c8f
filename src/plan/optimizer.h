// Cost-based plan optimization (join ordering + cleaning-operator
// placement) for the SPJ core.
//
// The optimizer sits between Planner lowering and execution and makes two
// decisions from the CardinalityEstimator's statistics:
//
//  1. Join order — dpsize dynamic programming over the FROM set produces
//     the cheapest *binary* join tree (bushy allowed). The hash build side
//     of every join is NOT cost-chosen: possible-candidate matching is
//     orientation-dependent (range candidates are handled on the build
//     side only), so each join hashes the side holding the predicate's
//     later-FROM endpoint, as the FROM-order chain does. Reordering is
//     only attempted when `JoinReorderExact` proves the predicates form a
//     spanning tree the FROM order walks connectedly, the shape the DP's
//     one-predicate joins assume. Every join tree — the DP's or the
//     FROM-order chain the Planner builds otherwise — applies each
//     predicate exactly once, so all yield the same tuple set, and the
//     root's canonical row-id sort (HashJoinStepNode::set_sort_output)
//     makes the bytes identical too.
//
//  2. cleanσ placement — a rule's CleanSelect can run before the join (the
//     paper's default: clean the qualifying rows of its table) or after it
//     (clean only the distinct rows the table contributes to the join
//     survivors). `ShouldDeferCleaning` prices both placements with the
//     CostModel ledger's observed per-result cleaning cost and defers when
//     a selective join makes the post-join set meaningfully cheaper. The
//     *exactness* gate for deferral (rule attributes disjoint from the
//     table's filter, join-key, and sibling-rule columns) lives in the
//     Planner, which owns the column bookkeeping.
//
// Everything here is pure computation over estimates — no table state is
// touched, so planning stays safe under the engine's shared reader lock.

#ifndef DAISY_PLAN_OPTIMIZER_H_
#define DAISY_PLAN_OPTIMIZER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "plan/cardinality.h"
#include "query/executor.h"

namespace daisy {

class CostModel;
struct FdRuleStats;

/// Upper bound on FROM tables the DP enumerator handles (2^n state table;
/// the paper's workloads top out at 4-5 tables). Queries beyond it keep
/// the FROM-order join tree.
constexpr size_t kMaxOptimizerTables = 12;

/// One node of a binary join tree over FROM positions: the optimizer's
/// choice, or the Planner's FROM-order chain. Leaves carry a FROM index;
/// internal nodes carry the step predicate connecting their two subtrees
/// plus the build side (the subtree holding the predicate's later-FROM
/// endpoint — see above). In the DP's trees the step predicate is the only
/// connecting one; the FROM-order chain may also take cartesian steps and
/// leave residual predicates to HashJoinStepNode.
struct JoinTree {
  uint64_t mask = 0;        ///< FROM tables covered by this subtree
  double est_rows = 0.0;    ///< estimated output cardinality (<0: uncosted)
  double est_cost = 0.0;    ///< cumulative cost (children + own work)
  int from = -1;            ///< leaf: FROM index; -1 for internal nodes
  size_t pred_idx = 0;      ///< internal: index into joins; size() = cartesian
  bool build_left = false;  ///< internal: hash build side
  std::unique_ptr<JoinTree> left;
  std::unique_ptr<JoinTree> right;
};

/// True when the DP may reorder the join: exactly n-1 predicates, none
/// within a single table, forming a spanning tree that the FROM order
/// walks connectedly with exactly one predicate binding each new table.
/// The gate exists because the DP assumes exactly one cross predicate per
/// join (its cost formula and JoinTree nodes carry one) — in a spanning
/// tree two disjoint connected subsets share at most one edge, which is
/// what lets it insist on that. Outside the gate the FROM-order tree still
/// applies every predicate: extra connecting predicates as residuals,
/// disconnected steps as cartesian products.
bool JoinReorderExact(size_t num_tables,
                      const std::vector<SplitWhere::JoinPred>& joins);

/// dpsize join enumeration: bottom-up over subset sizes, keeping the
/// cheapest tree per connected table subset. Cost of a join is the
/// children's cumulative cost plus |left| + |right| + |out| (hash build,
/// probe, emit); leaves cost their own estimated row production. Returns
/// null when `JoinReorderExact` fails. `leaf_rows[i]` is the estimated
/// chain output (post-filter) of FROM table i. Deterministic: ties keep
/// the first candidate in subset-enumeration order.
std::unique_ptr<JoinTree> EnumerateJoinOrder(
    const CardinalityEstimator& est,
    const std::vector<SplitWhere::JoinPred>& joins,
    const std::vector<double>& leaf_rows);

/// Estimated cleaning cost per input row for one rule. Prefers the
/// CostModel ledger (observed cumulative cost over observed result rows —
/// the adaptive switch's own signal); before any sample is recorded it
/// falls back to the statistics formula 1 + dirty_fraction x (1 +
/// candidate_width) over an FD rule's FdDeltaDetector::stats(), with the
/// rule's maintained theta-violation count standing in for the dirty
/// fraction when `rstats` is null (general DCs).
double CleaningUnitCost(const CostModel* cost, const FdRuleStats* rstats,
                        size_t maintained_violations, double table_rows);

/// Placement decision: defer the rule's cleanσ above the join iff pricing
/// the post-join input (est_join_rows, the distinct survivors the table
/// contributes) beats the pre-join input (est_chain_rows) by a 2x margin
/// — the margin plus a one-invocation constant absorbs estimation noise
/// so near-break-even rules keep the paper's default placement.
bool ShouldDeferCleaning(double unit_cost, double est_chain_rows,
                         double est_join_rows);

}  // namespace daisy

#endif  // DAISY_PLAN_OPTIMIZER_H_
