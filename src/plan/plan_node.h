// The physical operator tree (Section 6: cleaning operators are query-plan
// operators).
//
// A plan is a tree of PlanNodes. Single-table subtrees — Scan, Filter,
// CleanSelect (cleanσ) — pull *row-id batches* through a Volcano-style
// Open/NextBatch protocol instead of materializing full row vectors at
// every step; pipeline breakers (CleanSelect must see the whole qualifying
// set to relax it, HashJoin must see complete sides) drain their child and
// re-emit batches. A binary tree of HashJoin steps (clean⋈ in a
// cleaning-augmented plan), Project and Aggregate sit above the per-table
// chains.
//
// Every node records cardinality counters during execution; Explain
// renderers read them to annotate the plan text.

#ifndef DAISY_PLAN_PLAN_NODE_H_
#define DAISY_PLAN_PLAN_NODE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "clean/clean_operators.h"
#include "clean/cost_model.h"
#include "detect/fd_delta.h"
#include "plan/compiled_filter.h"
#include "query/ast.h"
#include "query/executor.h"
#include "storage/table.h"

namespace daisy {

/// One unit of row flow between single-table operators.
using RowIdBatch = std::vector<RowId>;

/// Cleaning counters accumulated across the cleanσ steps of one execution
/// (DaisyEngine's QueryReport derives from it).
struct CleaningExecStats {
  size_t extra_tuples = 0;       ///< Σ |E(Q)| over applied rules
  size_t errors_fixed = 0;       ///< tuples repaired during this query
  size_t tuples_scanned = 0;     ///< relaxation scan volume
  size_t detect_ops = 0;         ///< violation-check comparisons
  size_t rules_applied = 0;      ///< cleaning operators injected
  size_t rules_pruned = 0;       ///< skipped via statistics/checked state
  size_t rules_deferred = 0;     ///< cleanσ placed above the join (optimizer)
  size_t delta_rows_checked = 0; ///< ingested rows settled by this query
  bool switched_to_full = false; ///< cost model fired this query
  bool used_dc_full_clean = false;
  double min_estimated_accuracy = 1.0;
};

/// How an execution ended. Everything except kComplete means the plan was
/// cut at a batch or per-rule boundary: the output may be truncated (row
/// limit) or empty (timeout/cancel), and any cleaning already performed is
/// a valid monotone prefix of the uncut execution — coverage never
/// corrupts (see docs/architecture.md, resource governance).
enum class QueryTermination : uint8_t {
  kComplete = 0,
  kRowLimit,   ///< output truncated; cleaning still ran to completion
  kTimeout,    ///< deadline exceeded; cut mid-plan
  kCancelled,  ///< cooperative cancel observed; cut mid-plan
};

const char* QueryTerminationToString(QueryTermination t);

/// Resource limits for one execution (see DaisyEngine::QueryLimits, which
/// is an alias — the engine converts wall-clock timeout to a deadline at
/// Execute entry).
struct ExecLimits {
  /// Wall-clock budget in milliseconds; negative = unlimited. 0 expires at
  /// the first boundary check (useful to test the cut machinery).
  int64_t timeout_ms = -1;
  /// Maximum result rows; 0 = unlimited. Only truncates the output — the
  /// cleaning an uncut query would perform still completes.
  size_t row_limit = 0;
  /// Caller-owned cooperative cancel flag; checked (relaxed) at every
  /// boundary. Null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Test hook: deterministically cancel at the Nth serial boundary check
  /// (1-based; 0 = off). The monotone-prefix differential sweeps this to
  /// cut a query at every boundary without racing wall clocks.
  uint64_t trip_after_checks = 0;
};

class PlanNode;

/// Per-execution state threaded through the operator tree.
struct ExecContext {
  size_t batch_size = 1024;
  size_t rows_scanned = 0;  ///< Σ base-table rows opened by Scan nodes
  CleaningExecStats cleaning;

  // Resource governance (filled in by Plan::Execute from ExecLimits).
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  size_t row_limit = 0;
  const std::atomic<bool>* cancel = nullptr;
  uint64_t trip_after_checks = 0;
  uint64_t checks = 0;  ///< serial boundary checks performed so far
  QueryTermination termination = QueryTermination::kComplete;
  std::string cut_node;  ///< label of the node whose boundary check tripped

  /// The cooperative cancellation point, called by every operator at batch
  /// and per-rule boundaries. OK while the query may continue; on a
  /// tripped deadline/cancel it records the termination kind and the
  /// cutting node, marks the node's stats for EXPLAIN ANALYZE, and
  /// returns kTimeout/kCancelled — the operator propagates the error and
  /// Plan::Execute converts it into a partial QueryReport. Every call
  /// happens *between* units of work, so the state left behind is always
  /// a completed prefix.
  Status CheckResources(PlanNode* node);
};

/// Base of every physical operator.
class PlanNode {
 public:
  enum class Kind {
    kScan,
    kFilter,
    kCleanSelect,
    kHashJoin,
    kCleanJoin,
    kProject,
    kAggregate,
  };

  /// Cardinality/cost counters filled in during execution.
  struct NodeStats {
    size_t rows_in = 0;
    size_t rows_out = 0;
    size_t batches = 0;
    size_t delta_rows_checked = 0;  ///< CleanSelect: ingested rows settled
    bool pruned = false;            ///< CleanSelect skipped cleaning
    bool switched_to_full = false;  ///< cost model fired at this node
    /// Set when a resource check cut the plan at this node (rendered by
    /// EXPLAIN ANALYZE as "cut=timeout" etc.).
    QueryTermination cut = QueryTermination::kComplete;
    /// Wall time stamped at batch boundaries, inclusive of children (a
    /// parent's Open drains or opens its child inside its own stamp).
    /// Rendered by the `trace:` section of ExplainAnalyze; never by the
    /// default Explain renderer, whose output is pinned by goldens.
    uint64_t open_us = 0;  ///< Σ wall time inside Open/ExecuteJoined/Output
    uint64_t next_us = 0;  ///< Σ wall time inside NextBatch calls
  };

  explicit PlanNode(Kind kind) : kind_(kind) {}
  virtual ~PlanNode() = default;

  Kind kind() const { return kind_; }
  const std::vector<std::unique_ptr<PlanNode>>& children() const {
    return children_;
  }
  NodeStats& stats() { return stats_; }
  const NodeStats& stats() const { return stats_; }

  /// Static description, e.g. "Filter [emp: salary > 100] [columnar]".
  virtual std::string Label() const = 0;

  /// Nodes the plan text omits (children are rendered in their place).
  virtual bool HiddenInExplain() const { return false; }

  /// True when executing this node in the current state performs no
  /// cleaning-state mutation. Non-cleaning operators are trivially
  /// quiescent; cleanσ nodes (chain or deferred) ask their operator.
  virtual bool NodeCleaningQuiescent() const { return true; }

  /// Optimizer estimates (negative = not annotated; only plans produced by
  /// the cost-based optimizer carry them). Rendered by EXPLAIN as
  /// "est_rows=N est_cost=N".
  void set_estimates(double est_rows, double est_cost) {
    est_rows_ = est_rows;
    est_cost_ = est_cost;
  }
  double est_rows() const { return est_rows_; }
  double est_cost() const { return est_cost_; }

  /// Resets the counters of this subtree before a (re-)execution.
  void ResetStatsRecursive();

 protected:
  Kind kind_;
  std::vector<std::unique_ptr<PlanNode>> children_;
  NodeStats stats_;
  double est_rows_ = -1.0;
  double est_cost_ = -1.0;
};

/// A single-table operator producing row-id batches.
class RowSetNode : public PlanNode {
 public:
  using PlanNode::PlanNode;

  virtual Status Open(ExecContext* ctx) = 0;
  /// Fills `out` with the next batch. Returns false at end of stream; a
  /// returned batch may be empty (a fully filtered input batch).
  virtual Result<bool> NextBatch(ExecContext* ctx, RowIdBatch* out) = 0;

  /// Open + pull-to-end convenience for pipeline breakers.
  Result<std::vector<RowId>> Drain(ExecContext* ctx);
};

/// Full-table scan emitting row ids in batches. Open pins the table's
/// ingest snapshot: the scan only ever visits row ids below the pinned
/// bound, so rows appended after the query opened are invisible to it.
class ScanNode : public RowSetNode {
 public:
  explicit ScanNode(const Table* table);

  std::string Label() const override;
  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, RowIdBatch* out) override;

 private:
  const Table* table_;
  RowId pos_ = 0;
  RowId end_ = 0;  ///< snapshot row bound pinned at Open
};

/// Predicate filter over its child's batches. Compiles the expression
/// against the table's ColumnCache typed arrays at every Open (the label's
/// ` [columnar]` tag names that evaluator) and hands each batch to
/// CompiledFilter::Filter, the one filter entry point.
class FilterNode : public RowSetNode {
 public:
  FilterNode(const Table* table, const Expr* expr,
             std::unique_ptr<PlanNode> child);

  std::string Label() const override;
  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, RowIdBatch* out) override;

 private:
  const Table* table_;
  const Expr* expr_;  ///< owned by the Plan (SplitWhere)
  std::unique_ptr<CompiledFilter> compiled_;  ///< rebuilt per execution
  RowSetNode* child_rows_;
};

/// The one cleanσ step both plan placements run: the per-rule resource
/// boundary, the persistent CleanSelect operator (relax → detect → repair →
/// update), the fold of its counters into the execution and the node, the
/// cost-model sample and — when armed — the adaptive switch to full
/// cleaning (Section 5.2.3). CleanSelectNode runs it in a table's chain,
/// CleanJoinedNode above the join.
class CleanSelectStep {
 public:
  CleanSelectStep(Table* table, const DenialConstraint* dc, CleanSelect* op,
                  CostModel* cost, const FdDeltaDetector* fd,
                  const Expr* filter, CleaningOptions options, bool adaptive);

  /// "CleanSelect [rule=<name> fd|dc]", plus " [adaptive]" when armed.
  std::string Label() const;

  /// Cleans `*rows` (ascending) on behalf of `node` (its resource checks
  /// and stats). On success `*rows` holds the operator's corrected
  /// qualifying rows; `node->stats().switched_to_full` reports that the
  /// adaptive switch cleaned the whole table, after which the rows the
  /// sweep repaired are re-filtered (chain placement only). `deferred`
  /// counts the run in rules_deferred and skips that re-filter. The
  /// table's filter is compiled once per run and serves both the
  /// operator and the re-filter.
  Status Run(ExecContext* ctx, PlanNode* node, bool deferred,
             std::vector<RowId>* rows);

  /// True when Run() in the current state performs no cleaning-state
  /// mutation (see CleanSelect::quiescent) — the engine's shared read path
  /// requires it of every cleanσ in the plan.
  bool quiescent() const { return op_->quiescent(); }

 private:
  Table* table_;
  const DenialConstraint* dc_;
  CleanSelect* op_;
  CostModel* cost_;
  const FdDeltaDetector* fd_;  ///< FD rules: ε / groups / p; else null
  const Expr* filter_;  ///< the table's predicate; nullable
  CleaningOptions options_;
  bool adaptive_;
};

/// cleanσ in a table's chain: drains the child's qualifying rows, runs the
/// cleanσ step over them (which re-filters the rows a switch to full
/// cleaning repaired), then re-emits the corrected row set in batches.
class CleanSelectNode : public RowSetNode {
 public:
  CleanSelectNode(CleanSelectStep step, std::unique_ptr<PlanNode> child);

  std::string Label() const override;
  Status Open(ExecContext* ctx) override;
  Result<bool> NextBatch(ExecContext* ctx, RowIdBatch* out) override;

  /// Plan-time statistics pruning: the rule's precomputed statistics show
  /// zero violating rows, so this node's runtime fast path can never do
  /// repair work. Execution is unchanged (the operator still runs its
  /// prune-and-mark bookkeeping exactly like the pre-plan engine loop);
  /// the node is only dropped from the rendered plan.
  void set_statically_pruned(bool v) { statically_pruned_ = v; }
  bool HiddenInExplain() const override { return statically_pruned_; }

  bool NodeCleaningQuiescent() const override { return step_.quiescent(); }

 private:
  CleanSelectStep step_;
  bool statically_pruned_ = false;
  RowSetNode* child_rows_;
  std::vector<RowId> rows_;
  size_t pos_ = 0;
};

/// Base of every operator producing fully joined rows (one flat JoinedRows
/// buffer, each tuple indexed by FROM position). OutputNode consumes whichever concrete
/// subtree the planner assembled — a binary HashJoinStepNode tree, or a
/// deferred cleanσ (CleanJoinedNode) stacked above one.
class JoinSourceNode : public PlanNode {
 public:
  using PlanNode::PlanNode;
  virtual Result<JoinedRows> ExecuteJoined(ExecContext* ctx) = 0;
};

/// One binary join of a plan's join tree, and the only join operator:
/// every multi-table plan lowers to a tree of them (kCleanJoin labels the
/// same runtime when the sides were cleaned — Lemma 5: no further
/// violation checks are needed over clean inputs). Each side is either a
/// single-table chain (RowSetNode, FROM index recorded) or another
/// joined-row source.
///
/// The step predicate (`pred_idx` into `joins`; `joins->size()` for a
/// cartesian step) is hashed: possible-candidate point hashing plus a
/// range-candidate side list. Every other predicate whose endpoints are
/// split across the two sides is a residual, checked on each emitted pair.
/// All of them match by JoinCellsMayMatch with the later-FROM endpoint as
/// the build cell, so the build side is the subtree holding the step
/// predicate's later-FROM endpoint.
///
/// Build tuples are indexed in lexicographic order (a leaf chain's row ids
/// ascend; a join subtree is sorted once), and every hash bucket holds
/// ascending, distinct build indices. A clean probe cell, with no range
/// rows on the build side, emits straight from its bucket. A probabilistic
/// probe cell's finished match list (buckets merged and deduplicated,
/// range rows applied, ascending) is built once per shared CandidateSet per
/// step and reused by every probe cell pointing at that set — except for a
/// range-only set, whose match falls back to the cell's original and is
/// built per probe. daisy_plan_join_probe_lists_total{source=computed|
/// reused} counts both outcomes.
///
/// Per-probe matches are emitted sorted by build tuple, and a cartesian
/// step emits left-major in child order: over the FROM-order left-deep
/// chain that is lexicographic order by FROM-position row-id tuple. The
/// root of any other tree sorts its output into that order, so every join
/// order produces the same bytes; output already in that order (checked
/// in one pass) is kept as is.
class HashJoinStepNode : public JoinSourceNode {
 public:
  HashJoinStepNode(Kind kind, const std::vector<const Table*>* tables,
                   const std::vector<SplitWhere::JoinPred>* joins,
                   size_t pred_idx, uint64_t left_mask, uint64_t right_mask,
                   int left_from, int right_from, bool build_left,
                   std::unique_ptr<PlanNode> left,
                   std::unique_ptr<PlanNode> right);

  std::string Label() const override;
  Result<JoinedRows> ExecuteJoined(ExecContext* ctx) override;

  /// Arm on the tree root: canonically sort the joined output.
  void set_sort_output(bool v) { sort_output_ = v; }

 private:
  /// Drains one side into joined rows (leaf chains wrap their row ids at
  /// their FROM position; join children pass through).
  Result<JoinedRows> SideRows(ExecContext* ctx, size_t side);

  /// The hashed step: every (left, right) pair matching the step predicate
  /// and all residuals, in per-probe build-tuple order. Takes the sides by
  /// value: the build side is sorted into tuple order in place.
  JoinedRows HashMatch(JoinedRows left, JoinedRows right) const;

  const std::vector<const Table*>* tables_;
  const SplitWhere::JoinPred* pred_;  ///< step predicate; null = cartesian
  std::vector<SplitWhere::JoinPred> residuals_;
  uint64_t left_mask_;
  uint64_t right_mask_;
  int left_from_;   ///< FROM index when the left child is a chain, else -1
  int right_from_;  ///< FROM index when the right child is a chain, else -1
  bool build_left_;
  bool sort_output_ = false;
};

/// cleanσ deferred above the join (optimizer placement): runs the same
/// cleanσ step, but over the distinct row ids its table contributes to the
/// join survivors instead of the full qualifying set — the query-driven
/// ideal when a selective join shrinks the rows the answer can possibly
/// contain. Only placed when the rule's attributes are disjoint from the
/// table's filter and join-key columns, which makes the joined row set
/// invariant under this rule's repairs: the node returns its input rows
/// unchanged and the final output reads the repaired cells.
class CleanJoinedNode : public JoinSourceNode {
 public:
  CleanJoinedNode(CleanSelectStep step, size_t table_idx,
                  std::unique_ptr<PlanNode> child);

  std::string Label() const override;
  Result<JoinedRows> ExecuteJoined(ExecContext* ctx) override;
  bool NodeCleaningQuiescent() const override { return step_.quiescent(); }

 private:
  CleanSelectStep step_;
  size_t table_idx_;
  JoinSourceNode* child_join_;
};

/// Plan root: projection or grouped aggregation into a ResultSink. Wraps
/// the shared output builder so the oblivious and cleaning-augmented plans
/// emit results identically, whichever sink receives them.
class OutputNode : public PlanNode {
 public:
  OutputNode(Kind kind, const SelectStmt* stmt,
             const std::vector<const Table*>* tables,
             std::unique_ptr<PlanNode> child);

  std::string Label() const override;
  Status ExecuteOutput(ExecContext* ctx, ResultSink* sink);

 private:
  const SelectStmt* stmt_;
  const std::vector<const Table*>* tables_;
};

/// Renders `root` as a deterministic indented tree. When `executed` is
/// true, per-node cardinality counters and runtime flags are appended.
std::string RenderPlanTree(const PlanNode& root, bool executed);

/// Renders the per-operator timing trace of an executed tree: one line per
/// visible node, `<Label> open_us=N next_us=N rows=N`, same indentation
/// and node order as RenderPlanTree. Values are wall-clock and thus
/// nondeterministic — callers (the `trace:` section of ExplainAnalyze)
/// must not pin them in goldens.
std::string RenderPlanTrace(const PlanNode& root);

/// RAII batch-boundary stamp: accumulates the enclosing scope's wall time
/// into a NodeStats timing field with one steady-clock read at each end.
class NodeStatsTimer {
 public:
  explicit NodeStatsTimer(uint64_t* acc)
      : acc_(acc), start_(std::chrono::steady_clock::now()) {}
  ~NodeStatsTimer() {
    *acc_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  NodeStatsTimer(const NodeStatsTimer&) = delete;
  NodeStatsTimer& operator=(const NodeStatsTimer&) = delete;

 private:
  uint64_t* acc_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace daisy

#endif  // DAISY_PLAN_PLAN_NODE_H_
