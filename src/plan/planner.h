// Lowers a parsed SelectStmt into a physical PlanNode tree.
//
// The Planner is the single place where the SPJ pipeline is assembled:
// QueryExecutor::Execute lowers a cleaning-oblivious plan, DaisyEngine::
// Query passes a CleaningPlanContext and gets the cleaning-augmented plan
// of Section 6 — cleanσ nodes injected above each table's filter for every
// rule whose attributes overlap the query's, clean⋈ over the cleaned
// sides. Plan-construction decisions:
//
//  * rule overlap ((X∪Y) ∩ (P∪W) ≠ ∅) decides which rules get a
//    CleanSelect node at all;
//  * statistics pruning drops the node entirely when the rule's
//    FdDeltaDetector proves the table clean for that rule (zero violating
//    rows) — the per-query dirty-group check stays inside the operator
//    since it depends on the qualifying rows;
//  * the cost-model full-clean switch is armed on the node when the engine
//    runs in adaptive mode (the trigger itself is data-dependent).

#ifndef DAISY_PLAN_PLANNER_H_
#define DAISY_PLAN_PLANNER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "constraints/constraint_set.h"
#include "plan/plan_node.h"
#include "query/ast.h"
#include "query/executor.h"
#include "storage/database.h"

namespace daisy {

class ThetaJoinDetector;

/// Most FROM entries a statement may list: join trees key their subtrees
/// by uint64_t FROM-position masks. Longer lists are rejected at plan time
/// with InvalidArgument.
constexpr size_t kMaxFromTables = 64;

/// Deep copy of a parsed statement (the WHERE tree is owning).
SelectStmt CloneStmt(const SelectStmt& stmt);

/// Per-rule operator state the engine hands to the planner. All pointers
/// must outlive the produced plan.
struct CleaningRuleBinding {
  const DenialConstraint* dc = nullptr;
  Table* table = nullptr;
  CleanSelect* op = nullptr;
  CostModel* cost = nullptr;
  /// Optional: the rule's incremental violation index. The optimizer reads
  /// its maintained count as a dirtiness signal when the rule has no
  /// FdDeltaDetector (never synchronized at plan time — see
  /// ThetaJoinDetector::maintained_violation_count).
  const ThetaJoinDetector* theta = nullptr;
  /// FD rules: the rule's delta-maintained index, whose counters give
  /// static pruning, the optimizer's cleaning price and the cost model's
  /// ε / violating groups / p.
  const FdDeltaDetector* fd = nullptr;
};

/// Cleaning side-inputs for plan construction.
struct CleaningPlanContext {
  const ConstraintSet* constraints = nullptr;
  CleaningOptions options;
  bool adaptive = false;  ///< arm the cost-model switch on cleanσ nodes
  std::map<std::string, CleaningRuleBinding> rules;  ///< by rule name
};

/// An executable physical plan. Movable; the operator tree points into
/// heap-stable shared state, so moving the Plan is safe.
class Plan {
 public:
  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;

  /// Runs the plan, emitting the output rows into `sink` and filling
  /// per-node counters. May be executed repeatedly (counters reset each
  /// run); cleaning plans mutate the underlying tables as a side effect.
  /// Execution pins every FROM table's ingest snapshot at entry and fails
  /// with an Internal error if the (append_version, delta_generation) pair
  /// moved before the output was built — a torn scan from an ingest that
  /// bypassed the engine's writer lock is an error, never a wrong answer.
  Status Execute(ResultSink* sink);

  /// Execute() into a TableSink: the materialized QueryOutput.
  Result<QueryOutput> Execute();

  /// Σ base-table rows the last Execute() opened (cost accounting).
  size_t rows_scanned() const { return rows_scanned_; }

  /// Deterministic indented plan tree. After Execute(), per-node
  /// cardinality counters and runtime flags are included.
  std::string Explain() const;

  /// Explain() plus, after an Execute(), an appended `trace:` section with
  /// per-operator wall time and row counts (one line per visible node:
  /// `<Label> open_us=N next_us=N rows=N`). The trace values are
  /// wall-clock — nondeterministic — so this never feeds Explain goldens;
  /// it is the ExplainAnalyze rendering. Identical to Explain() while the
  /// plan has not executed.
  std::string ExplainWithTrace() const;

  /// Cleaning counters of the last Execute() (zeroes for oblivious plans).
  const CleaningExecStats& cleaning_stats() const { return cleaning_; }

  bool executed() const { return executed_; }
  PlanNode* root() { return root_.get(); }

  /// Row-id batch granularity of the Scan/Filter pipeline.
  void set_batch_size(size_t n) { batch_size_ = n == 0 ? 1 : n; }

  /// Resource limits (deadline, row limit, cancel flag) applied to the
  /// next Execute(); the wall-clock timeout becomes a deadline at Execute
  /// entry. A cut execution (timeout/cancel) is NOT an error: Execute
  /// emits no output (not even the sink's Begin) and termination() reports
  /// the cut, while the cleaning already performed stays — a valid
  /// monotone prefix.
  void set_limits(const ExecLimits& limits) { limits_ = limits; }

  /// How the last Execute() ended, where it was cut, and how many serial
  /// boundary checks ran (the trip_after_checks sweep domain).
  QueryTermination termination() const { return termination_; }
  const std::string& cut_node() const { return cut_node_; }
  uint64_t resource_checks() const { return resource_checks_; }

  /// True when every cleanσ node of this plan is quiescent (see
  /// CleanSelect::quiescent): executing the plan performs no cleaning-state
  /// mutation, so the engine may serve it under its shared reader lock.
  /// Trivially true for cleaning-oblivious plans.
  bool CleaningQuiescent() const;

 private:
  friend class Planner;

  /// Bound inputs the operator tree points into; heap-allocated so the
  /// Plan object itself can move.
  struct State {
    SelectStmt stmt;
    std::vector<Table*> tables;
    std::vector<const Table*> const_tables;
    SplitWhere split;
  };

  Plan() = default;

  std::unique_ptr<State> state_;
  std::unique_ptr<PlanNode> root_;
  CleaningExecStats cleaning_;
  size_t rows_scanned_ = 0;
  bool executed_ = false;
  size_t batch_size_ = 1024;
  ExecLimits limits_;
  QueryTermination termination_ = QueryTermination::kComplete;
  std::string cut_node_;
  uint64_t resource_checks_ = 0;
};

/// The one parser of the CI ablation switch DAISY_OPTIMIZER: "0"/"false"
/// store false in `*enabled`, "1"/"true" store true. Any other value is
/// rejected with a structured-log warning naming the variable and the bad
/// value, and `*enabled` keeps its setting. Returns whether the variable is
/// set (well-formed or not).
bool ApplyOptimizerEnv(bool* enabled);

/// Stateless plan builder over a database catalog.
class Planner {
 public:
  /// Defaults the optimizer from DAISY_OPTIMIZER (ApplyOptimizerEnv) so
  /// bare consumers (QueryExecutor) honor the ablation env directly.
  explicit Planner(Database* db);
  /// Takes the optimizer setting as given, without reading the env; the
  /// Daisy engine passes DaisyOptions::optimizer, which already had it
  /// applied. Cost-based optimization (join reordering + cleanσ
  /// placement, see plan/optimizer.h); off keeps the FROM-order left-deep
  /// join tree.
  Planner(Database* db, bool optimizer) : db_(db), optimizer_(optimizer) {}

  /// Cleaning-oblivious plan (plain SPJ + group-by).
  Result<Plan> PlanQuery(const SelectStmt& stmt);

  /// Cleaning-augmented plan; `clean` may be null (same as the overload
  /// above) and must outlive the plan otherwise. Binds the WHERE clause,
  /// the select list and GROUP BY (BindOutput), so a statement that cannot
  /// bind fails here, before any cleaning runs.
  Result<Plan> PlanQuery(const SelectStmt& stmt,
                         const CleaningPlanContext* clean);

  bool optimizer() const { return optimizer_; }

 private:
  Database* db_;
  bool optimizer_ = true;
};

}  // namespace daisy

#endif  // DAISY_PLAN_PLANNER_H_
