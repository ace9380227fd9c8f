#include "plan/planner.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/logger.h"
#include "detect/theta_join.h"
#include "plan/cardinality.h"
#include "plan/optimizer.h"
#include "query/eval.h"

namespace daisy {

SelectStmt CloneStmt(const SelectStmt& stmt) {
  SelectStmt out;
  out.select_list = stmt.select_list;
  out.tables = stmt.tables;
  out.group_by = stmt.group_by;
  if (stmt.where != nullptr) out.where = CloneExpr(*stmt.where);
  return out;
}

namespace {

// The attributes of `table` the query touches (select list, WHERE leaves,
// join keys, group-by) — the P∪W set the rule-overlap check runs against.
std::vector<size_t> QueryColumnsForTable(const SelectStmt& stmt,
                                         const Table& table,
                                         const SplitWhere& split,
                                         size_t table_idx) {
  std::vector<size_t> cols;
  for (const SelectItem& item : stmt.select_list) {
    if (item.star) {
      for (size_t c = 0; c < table.schema().num_columns(); ++c) {
        cols.push_back(c);
      }
      continue;
    }
    if (!item.col.table.empty() && item.col.table != table.name()) continue;
    auto idx = table.schema().ColumnIndex(item.col.column);
    if (idx.ok()) cols.push_back(idx.value());
  }
  if (stmt.where != nullptr) CollectExprColumns(*stmt.where, table, &cols);
  for (const SplitWhere::JoinPred& p : split.joins) {
    if (p.left_table == table_idx) cols.push_back(p.left_col);
    if (p.right_table == table_idx) cols.push_back(p.right_col);
  }
  for (const ColumnRef& ref : stmt.group_by) {
    if (!ref.table.empty() && ref.table != table.name()) continue;
    auto idx = table.schema().ColumnIndex(ref.column);
    if (idx.ok()) cols.push_back(idx.value());
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

}  // namespace

Status Plan::Execute(ResultSink* sink) {
  ExecContext ctx;
  ctx.batch_size = batch_size_;
  ctx.row_limit = limits_.row_limit;
  ctx.cancel = limits_.cancel;
  ctx.trip_after_checks = limits_.trip_after_checks;
  if (limits_.timeout_ms >= 0) {
    ctx.has_deadline = true;
    ctx.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(limits_.timeout_ms);
  }
  // Pin every FROM table's ingest state; verified after the run. Cleaning
  // side effects repair cells in place and never append or delete rows, so
  // a moved pair can only mean an ingest raced this execution.
  std::vector<TableSnapshot> pinned;
  pinned.reserve(state_->const_tables.size());
  for (const Table* t : state_->const_tables) pinned.push_back(t->Snapshot());
  root_->ResetStatsRecursive();
  auto* output = static_cast<OutputNode*>(root_.get());
  const Status run = output->ExecuteOutput(&ctx, sink);
  termination_ = ctx.termination;
  cut_node_ = ctx.cut_node;
  resource_checks_ = ctx.checks;
  // A governance cut (deadline/cancel) surfaces as kTimeout/kCancelled from
  // the node that tripped. It is not a failure: every rule evaluation that
  // ran to completion before the cut already left valid cleaning state (a
  // monotone prefix of the full execution), so we report an empty output
  // with the termination recorded instead of propagating the error. The
  // output node checks resources before it emits its first row, so a cut
  // execution never reached the sink.
  const bool cut = run.code() == StatusCode::kTimeout ||
                   run.code() == StatusCode::kCancelled;
  if (!run.ok() && !cut) return run;
  for (size_t i = 0; i < state_->const_tables.size(); ++i) {
    const TableSnapshot now = state_->const_tables[i]->Snapshot();
    if (now.append_version != pinned[i].append_version ||
        now.delta_generation != pinned[i].delta_generation) {
      return Status::Internal(
          "table '" + state_->const_tables[i]->name() +
          "' was ingested into while a query executed over it — ingest "
          "must serialize behind the engine's writer lock");
    }
  }
  rows_scanned_ = ctx.rows_scanned;
  cleaning_ = ctx.cleaning;
  executed_ = true;
  return Status::OK();
}

Result<QueryOutput> Plan::Execute() {
  QueryOutput out;
  TableSink sink(&out);
  DAISY_RETURN_IF_ERROR(Execute(&sink));
  out.rows_scanned = rows_scanned_;
  return out;
}

std::string Plan::Explain() const { return RenderPlanTree(*root_, executed_); }

std::string Plan::ExplainWithTrace() const {
  std::string out = Explain();
  if (!executed_) return out;
  out += "trace:\n";
  out += RenderPlanTrace(*root_);
  return out;
}

namespace {

bool SubtreeQuiescent(const PlanNode& node) {
  if (!node.NodeCleaningQuiescent()) return false;
  for (const auto& child : node.children()) {
    if (!SubtreeQuiescent(*child)) return false;
  }
  return true;
}

}  // namespace

bool Plan::CleaningQuiescent() const { return SubtreeQuiescent(*root_); }

namespace {

// One cleaning rule scheduled on a table, with the optimizer's placement
// decision. Collected before any node exists so cleanσ placement can be
// decided from estimates alone.
struct RuleSlot {
  const DenialConstraint* dc = nullptr;
  const CleaningRuleBinding* binding = nullptr;
  std::optional<FdRuleStats> rstats;  ///< FD rules only
  bool statically_pruned = false;
  bool deferred = false;    ///< run above the join instead of in the chain
  double unit_cost = 0.0;   ///< per-row cleaning price (optimizer path)
};

// Sorted-vector intersection test (involved_columns() is sorted; locked
// column sets are sorted before the call).
bool SortedIntersects(const std::vector<size_t>& a,
                      const std::vector<size_t>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

// The FROM-order left-deep chain as a JoinTree: the plan of every
// multi-table query the DP does not reorder (optimizer off, or outside the
// exactness gate). Step t joins the prefix {0..t-1} with table t on the
// first predicate connecting them, or takes a cartesian step when none
// does; HashJoinStepNode applies the other connecting predicates as
// residuals. The new table holds the later-FROM endpoint of every such
// predicate, so it is always the build side. Not costed: estimates stay
// negative, so EXPLAIN renders none.
std::unique_ptr<JoinTree> FromOrderJoinTree(
    size_t n, const std::vector<SplitWhere::JoinPred>& joins) {
  auto leaf = [](size_t i) {
    auto t = std::make_unique<JoinTree>();
    t->mask = uint64_t{1} << i;
    t->from = static_cast<int>(i);
    return t;
  };
  std::unique_ptr<JoinTree> tree = leaf(0);
  for (size_t t = 1; t < n; ++t) {
    auto step = std::make_unique<JoinTree>();
    step->mask = tree->mask | (uint64_t{1} << t);
    step->est_rows = -1.0;
    step->est_cost = -1.0;
    step->pred_idx = joins.size();
    for (size_t j = 0; j < joins.size(); ++j) {
      if (std::max(joins[j].left_table, joins[j].right_table) == t) {
        step->pred_idx = j;
        break;
      }
    }
    step->left = std::move(tree);
    step->right = leaf(t);
    tree = std::move(step);
  }
  return tree;
}

// True when `t` is exactly the FROM-order left-deep chain: at every level
// the right child is the leaf for the highest table of the node's
// (contiguous) mask, built over. There the per-probe sorted emission of
// HashJoinStepNode already produces the canonical order, so the root's
// sort is skipped.
bool IsNaiveChain(const JoinTree& t) {
  const JoinTree* cur = &t;
  while (cur->from < 0) {
    if (cur->right == nullptr || cur->right->from < 0 || cur->build_left) {
      return false;
    }
    size_t hi = 0;
    uint64_t m = cur->mask;
    while (m >>= 1) ++hi;
    if (static_cast<size_t>(cur->right->from) != hi) return false;
    cur = cur->left.get();
  }
  return cur->mask == 1;
}

// Materializes a JoinTree as HashJoinStepNode operators, consuming
// per-table chains at the leaves.
std::unique_ptr<PlanNode> BuildJoinTreeNode(
    const JoinTree& t, PlanNode::Kind kind,
    const std::vector<const Table*>* tables,
    const std::vector<SplitWhere::JoinPred>* joins,
    std::vector<std::unique_ptr<PlanNode>>* chains) {
  if (t.from >= 0) return std::move((*chains)[t.from]);
  std::unique_ptr<PlanNode> left =
      BuildJoinTreeNode(*t.left, kind, tables, joins, chains);
  std::unique_ptr<PlanNode> right =
      BuildJoinTreeNode(*t.right, kind, tables, joins, chains);
  auto node = std::make_unique<HashJoinStepNode>(
      kind, tables, joins, t.pred_idx, t.left->mask, t.right->mask,
      t.left->from, t.right->from, t.build_left, std::move(left),
      std::move(right));
  node->set_estimates(t.est_rows, t.est_cost);
  return node;
}

}  // namespace

bool ApplyOptimizerEnv(bool* enabled) {
  const char* v = std::getenv("DAISY_OPTIMIZER");
  if (v == nullptr) return false;
  const std::string s(v);
  if (s == "0" || s == "false") {
    *enabled = false;
  } else if (s == "1" || s == "true") {
    *enabled = true;
  } else {
    LogWarn("plan", "ignoring malformed environment override",
            {{"var", "DAISY_OPTIMIZER"},
             {"value", v},
             {"expected", "\"0\", \"1\", \"false\", or \"true\""}});
  }
  return true;
}

Planner::Planner(Database* db) : db_(db) { ApplyOptimizerEnv(&optimizer_); }

Result<Plan> Planner::PlanQuery(const SelectStmt& stmt) {
  return PlanQuery(stmt, nullptr);
}

Result<Plan> Planner::PlanQuery(const SelectStmt& stmt,
                                const CleaningPlanContext* clean) {
  if (stmt.tables.size() > kMaxFromTables) {
    return Status::InvalidArgument(
        "FROM lists " + std::to_string(stmt.tables.size()) +
        " tables; at most " + std::to_string(kMaxFromTables) +
        " are supported");
  }
  auto state = std::make_unique<Plan::State>();
  state->stmt = CloneStmt(stmt);
  for (const std::string& name : state->stmt.tables) {
    DAISY_ASSIGN_OR_RETURN(Table * t, db_->GetTable(name));
    state->tables.push_back(t);
    state->const_tables.push_back(t);
  }
  if (state->tables.empty()) {
    return Status::InvalidArgument("no FROM tables");
  }
  DAISY_ASSIGN_OR_RETURN(state->split,
                         SplitWhereClause(state->stmt, state->const_tables));
  // Bind the select list and GROUP BY now: a statement that cannot produce
  // output must fail before any cleanσ repairs a cell on its behalf.
  DAISY_RETURN_IF_ERROR(
      BindOutput(state->stmt, state->const_tables).status());
  const size_t n = state->tables.size();

  // Collect the per-table cleaning work up front (Overlapping order — the
  // order the chain applies them) so placement can be decided before any
  // node exists.
  std::vector<std::vector<RuleSlot>> table_rules(n);
  if (clean != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      Table* table = state->tables[i];
      const std::vector<size_t> query_cols =
          QueryColumnsForTable(state->stmt, *table, state->split, i);
      const std::vector<const DenialConstraint*> overlapping =
          clean->constraints->Overlapping(table->name(), query_cols);
      for (const DenialConstraint* dc : overlapping) {
        auto it = clean->rules.find(dc->name());
        if (it == clean->rules.end()) {
          return Status::Internal("no operator state for rule '" + dc->name() +
                                  "'");
        }
        RuleSlot slot;
        slot.dc = dc;
        slot.binding = &it->second;
        if (slot.binding->fd != nullptr) {
          slot.rstats = slot.binding->fd->stats();
        }
        // The FD index proves the table clean for this rule: the node's
        // runtime fast path can never do repair work, so the rendered
        // plan drops it. Execution keeps the per-query prune-and-mark
        // bookkeeping of the pre-plan engine loop.
        slot.statically_pruned =
            slot.rstats && slot.rstats->num_violating_rows == 0;
        table_rules[i].push_back(slot);
      }
    }
  }

  // Cost-based optimization (plan/optimizer.h): join order by dpsize DP
  // and cleanσ placement by the cost model, both only inside the
  // exactness gate. Duplicate FROM entries (self-joins) keep the FROM-order
  // tree — cleanσ deferral assumes one chain per physical table.
  std::unique_ptr<JoinTree> jt;
  std::vector<double> scan_rows(n, 0.0);
  std::vector<double> leaf_rows(n, 0.0);
  double root_rows = 0.0;
  if (optimizer_ && n > 1) {
    bool distinct = true;
    for (size_t i = 0; i < n && distinct; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (state->tables[i] == state->tables[j]) {
          distinct = false;
          break;
        }
      }
    }
    if (distinct) {
      CardinalityEstimator est(state->const_tables);
      for (size_t i = 0; i < n; ++i) {
        scan_rows[i] = est.TableRows(i);
        leaf_rows[i] =
            est.FilteredRows(i, state->split.table_filters[i].get());
      }
      jt = EnumerateJoinOrder(est, state->split.joins, leaf_rows);
      if (jt != nullptr) {
        root_rows = jt->est_rows;
        for (size_t i = 0; i < n; ++i) {
          if (table_rules[i].empty()) continue;
          // Columns a deferred rule must not touch: the table's filter
          // and join-key columns (repairs there would change which rows
          // qualify or match) plus every sibling rule's columns (repairs
          // there would change what a rule running at a different point
          // of the pipeline observes).
          std::vector<size_t> locked;
          const Expr* filter = state->split.table_filters[i].get();
          if (filter != nullptr) {
            CollectExprColumns(*filter, *state->tables[i], &locked);
          }
          for (const SplitWhere::JoinPred& p : state->split.joins) {
            if (p.left_table == i) locked.push_back(p.left_col);
            if (p.right_table == i) locked.push_back(p.right_col);
          }
          std::sort(locked.begin(), locked.end());
          locked.erase(std::unique(locked.begin(), locked.end()),
                       locked.end());
          for (size_t k = 0; k < table_rules[i].size(); ++k) {
            RuleSlot& slot = table_rules[i][k];
            slot.unit_cost = CleaningUnitCost(
                slot.binding->cost, slot.rstats ? &*slot.rstats : nullptr,
                slot.binding->theta != nullptr
                    ? slot.binding->theta->maintained_violation_count()
                    : 0,
                scan_rows[i]);
            if (slot.statically_pruned) continue;  // zero-cost in chain
            if (SortedIntersects(slot.dc->involved_columns(), locked)) {
              continue;
            }
            bool sibling_overlap = false;
            for (size_t m = 0; m < table_rules[i].size(); ++m) {
              if (m == k) continue;
              if (SortedIntersects(slot.dc->involved_columns(),
                                   table_rules[i][m].dc->involved_columns())) {
                sibling_overlap = true;
                break;
              }
            }
            if (sibling_overlap) continue;
            // The distinct rows this table contributes to the join
            // survivors can't exceed either its own chain output or the
            // join's total output.
            const double after = std::min(leaf_rows[i], root_rows);
            slot.deferred =
                ShouldDeferCleaning(slot.unit_cost, leaf_rows[i], after);
          }
        }
      }
    }
  }

  // The cleanσ step of one scheduled rule, whichever placement runs it.
  auto make_step = [&](const RuleSlot& slot, size_t i) {
    return CleanSelectStep(slot.binding->table, slot.dc, slot.binding->op,
                           slot.binding->cost, slot.binding->fd,
                           state->split.table_filters[i].get(),
                           clean->options, clean->adaptive);
  };

  // Per-table chain: Scan → Filter → cleanσ per in-chain rule.
  std::vector<std::unique_ptr<PlanNode>> chains;
  chains.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Table* table = state->tables[i];
    const Expr* filter = state->split.table_filters[i].get();
    std::unique_ptr<PlanNode> node = std::make_unique<ScanNode>(table);
    if (jt != nullptr) node->set_estimates(scan_rows[i], scan_rows[i]);
    if (filter != nullptr) {
      node = std::make_unique<FilterNode>(table, filter, std::move(node));
      if (jt != nullptr) node->set_estimates(leaf_rows[i], scan_rows[i]);
    }
    for (const RuleSlot& slot : table_rules[i]) {
      if (slot.deferred) continue;
      auto clean_node = std::make_unique<CleanSelectNode>(make_step(slot, i),
                                                          std::move(node));
      if (slot.statically_pruned) clean_node->set_statically_pruned(true);
      if (jt != nullptr) {
        clean_node->set_estimates(leaf_rows[i],
                                  slot.unit_cost * leaf_rows[i]);
      }
      node = std::move(clean_node);
    }
    chains.push_back(std::move(node));
  }

  std::unique_ptr<PlanNode> child;
  if (chains.size() == 1) {
    child = std::move(chains[0]);
  } else {
    const PlanNode::Kind join_kind = clean != nullptr
                                         ? PlanNode::Kind::kCleanJoin
                                         : PlanNode::Kind::kHashJoin;
    if (jt == nullptr) jt = FromOrderJoinTree(n, state->split.joins);
    child = BuildJoinTreeNode(*jt, join_kind, &state->const_tables,
                              &state->split.joins, &chains);
    // A reordered tree's root canonically sorts its output so any join
    // order reproduces the FROM-order chain's bytes.
    static_cast<HashJoinStepNode*>(child.get())
        ->set_sort_output(!IsNaiveChain(*jt));
    // Deferred cleanσ above the join (DP plans only), per-table rule order
    // preserved (the placement gate makes deferred rules commute with
    // everything, so the stacking order is cosmetic).
    for (size_t i = 0; i < n; ++i) {
      for (const RuleSlot& slot : table_rules[i]) {
        if (!slot.deferred) continue;
        const double after = std::min(leaf_rows[i], root_rows);
        auto deferred_node = std::make_unique<CleanJoinedNode>(
            make_step(slot, i), i, std::move(child));
        deferred_node->set_estimates(after, slot.unit_cost * after);
        child = std::move(deferred_node);
      }
    }
  }
  const bool aggregating =
      state->stmt.has_aggregate() || !state->stmt.group_by.empty();
  Plan plan;
  plan.root_ = std::make_unique<OutputNode>(
      aggregating ? PlanNode::Kind::kAggregate : PlanNode::Kind::kProject,
      &state->stmt, &state->const_tables, std::move(child));
  plan.state_ = std::move(state);
  return plan;
}

}  // namespace daisy
