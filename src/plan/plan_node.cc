#include "plan/plan_node.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "query/eval.h"

namespace daisy {

const char* QueryTerminationToString(QueryTermination t) {
  switch (t) {
    case QueryTermination::kComplete:
      return "complete";
    case QueryTermination::kRowLimit:
      return "row-limit";
    case QueryTermination::kTimeout:
      return "timeout";
    case QueryTermination::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Status ExecContext::CheckResources(PlanNode* node) {
  ++checks;
  QueryTermination trip = QueryTermination::kComplete;
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    trip = QueryTermination::kCancelled;
  } else if (trip_after_checks != 0 && checks >= trip_after_checks) {
    trip = QueryTermination::kCancelled;
  } else if (has_deadline &&
             std::chrono::steady_clock::now() >= deadline) {
    trip = QueryTermination::kTimeout;
  }
  if (trip == QueryTermination::kComplete) return Status::OK();
  termination = trip;
  cut_node = node->Label();
  node->stats().cut = trip;
  if (trip == QueryTermination::kTimeout) {
    return Status::Timeout("query deadline exceeded at " + cut_node);
  }
  return Status::Cancelled("query cancelled at " + cut_node);
}

void PlanNode::ResetStatsRecursive() {
  stats_ = NodeStats{};
  for (const auto& child : children_) child->ResetStatsRecursive();
}

Result<std::vector<RowId>> RowSetNode::Drain(ExecContext* ctx) {
  DAISY_RETURN_IF_ERROR(Open(ctx));
  std::vector<RowId> out;
  RowIdBatch batch;
  while (true) {
    DAISY_ASSIGN_OR_RETURN(bool more, NextBatch(ctx, &batch));
    if (!more) break;
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

// ------------------------------------------------------------------ Scan --

ScanNode::ScanNode(const Table* table)
    : RowSetNode(Kind::kScan), table_(table) {}

std::string ScanNode::Label() const {
  return "Scan [" + table_->name() + "]";
}

Status ScanNode::Open(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  pos_ = 0;
  // Snapshot pin: rows appended after this point (there are none while the
  // engine's lock protocol holds; Plan::Execute trips otherwise) stay
  // invisible for the whole execution instead of appearing mid-scan.
  end_ = table_->Snapshot().num_rows;
  ctx->rows_scanned += table_->num_live_rows();
  return Status::OK();
}

Result<bool> ScanNode::NextBatch(ExecContext* ctx, RowIdBatch* out) {
  NodeStatsTimer timer(&stats_.next_us);
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
  const size_t n = end_;
  if (pos_ >= n) return false;
  out->clear();
  out->reserve(std::min(ctx->batch_size, n - pos_));
  // Tombstoned rows are invisible to every operator above the scan.
  while (pos_ < n && out->size() < ctx->batch_size) {
    if (table_->is_live(pos_)) out->push_back(pos_);
    ++pos_;
  }
  stats_.rows_out += out->size();
  ++stats_.batches;
  return true;
}

// ---------------------------------------------------------------- Filter --

FilterNode::FilterNode(const Table* table, const Expr* expr, bool columnar,
                       std::unique_ptr<PlanNode> child)
    : RowSetNode(Kind::kFilter),
      table_(table),
      expr_(expr),
      columnar_(columnar) {
  child_rows_ = static_cast<RowSetNode*>(child.get());
  children_.push_back(std::move(child));
}

std::string FilterNode::Label() const {
  return "Filter [" + table_->name() + ": " + expr_->ToString() + "] " +
         (columnar_ ? "[columnar]" : "[row-path]");
}

Status FilterNode::Open(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  DAISY_RETURN_IF_ERROR(child_rows_->Open(ctx));
  compiled_.reset();
  parallel_ = false;
  parallel_rows_.clear();
  parallel_pos_ = 0;
  if (columnar_) {
    DAISY_ASSIGN_OR_RETURN(CompiledFilter compiled,
                           CompiledFilter::Compile(*table_, *expr_));
    compiled_ = std::make_unique<CompiledFilter>(std::move(compiled));
  }
  // Minimum-work gate: below two morsels the thread create/join overhead
  // exceeds the scan itself, so small tables keep the serial pull.
  if (compiled_ != nullptr && ctx->worker_threads > 1 &&
      children_[0]->kind() == Kind::kScan &&
      table_->Snapshot().num_rows >= 2 * kMorselRows) {
    DAISY_RETURN_IF_ERROR(ParallelScan(ctx));
    parallel_ = true;
  }
  return Status::OK();
}

Status FilterNode::ParallelScan(ExecContext* ctx) {
  // The child Scan was Opened (snapshot pinned, rows_scanned accounted)
  // but is not pulled: the morsel pool scans the same pinned range
  // directly against the compiled filter. The row-path evaluator is not
  // parallelized (Result plumbing per row); it keeps the serial pull.
  const size_t n = table_->Snapshot().num_rows;
  const size_t morsels = (n + kMorselRows - 1) / kMorselRows;
  std::vector<std::vector<RowId>> matches(morsels);
  std::vector<size_t> live_in_morsel(morsels, 0);
  std::atomic<size_t> next{0};
  std::atomic<bool> interrupted{false};
  auto work = [&]() {
    while (true) {
      const size_t m = next.fetch_add(1, std::memory_order_relaxed);
      if (m >= morsels) break;
      // Per-morsel cancellation probe (read-only, so safe off-thread); the
      // serial CheckResources below records the cut after the pool joins.
      if (interrupted.load(std::memory_order_relaxed) ||
          ctx->InterruptRequested()) {
        interrupted.store(true, std::memory_order_relaxed);
        break;
      }
      const RowId lo = m * kMorselRows;
      const RowId hi = std::min<RowId>(n, lo + kMorselRows);
      std::vector<RowId>& out = matches[m];
      for (RowId r = lo; r < hi; ++r) {
        if (!table_->is_live(r)) continue;
        ++live_in_morsel[m];
        if (compiled_->Matches(r)) out.push_back(r);
      }
    }
  };
  const size_t workers =
      std::min(ctx->worker_threads, std::max<size_t>(1, morsels));
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t t = 0; t < workers; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  if (interrupted.load(std::memory_order_relaxed)) {
    // The same condition the workers observed still holds (cancel flags
    // stay set, deadlines stay expired), so this records the cut here and
    // returns the typed error; the partial morsel results are discarded.
    DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
  }

  // Deterministic merge: morsel order == ascending row order == the exact
  // stream the serial pull produces.
  size_t total_live = 0, total_matches = 0;
  for (size_t m = 0; m < morsels; ++m) {
    total_live += live_in_morsel[m];
    total_matches += matches[m].size();
  }
  parallel_rows_.reserve(total_matches);
  for (std::vector<RowId>& m : matches) {
    parallel_rows_.insert(parallel_rows_.end(), m.begin(), m.end());
  }
  // The bypassed Scan still reports what it (logically) produced; this
  // node's own counters accrue as the materialized stream is served.
  NodeStats& scan_stats = children_[0]->stats();
  scan_stats.rows_out = total_live;
  scan_stats.batches = morsels;
  stats_.rows_in = total_live;
  return Status::OK();
}

Result<bool> FilterNode::NextBatch(ExecContext* ctx, RowIdBatch* out) {
  NodeStatsTimer timer(&stats_.next_us);
  if (parallel_) {
    DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
    if (parallel_pos_ >= parallel_rows_.size()) return false;
    const size_t count =
        std::min(ctx->batch_size, parallel_rows_.size() - parallel_pos_);
    out->assign(parallel_rows_.begin() + parallel_pos_,
                parallel_rows_.begin() + parallel_pos_ + count);
    parallel_pos_ += count;
    stats_.rows_out += count;
    ++stats_.batches;
    return true;
  }
  RowIdBatch in;
  DAISY_ASSIGN_OR_RETURN(bool more, child_rows_->NextBatch(ctx, &in));
  if (!more) return false;
  stats_.rows_in += in.size();
  out->clear();
  if (compiled_ != nullptr) {
    for (RowId r : in) {
      if (compiled_->Matches(r)) out->push_back(r);
    }
  } else {
    for (RowId r : in) {
      DAISY_ASSIGN_OR_RETURN(bool ok, RowMaySatisfy(*table_, r, *expr_));
      if (ok) out->push_back(r);
    }
  }
  stats_.rows_out += out->size();
  ++stats_.batches;
  return true;
}

// ----------------------------------------------------------- CleanSelect --

CleanSelectNode::CleanSelectNode(Table* table, const DenialConstraint* dc,
                                 CleanSelect* op, CostModel* cost,
                                 const FdRuleStats* rule_stats,
                                 const Expr* filter, CleaningOptions options,
                                 bool adaptive,
                                 std::unique_ptr<PlanNode> child)
    : RowSetNode(Kind::kCleanSelect),
      table_(table),
      dc_(dc),
      op_(op),
      cost_(cost),
      rule_stats_(rule_stats),
      filter_(filter),
      options_(options),
      adaptive_(adaptive) {
  child_rows_ = static_cast<RowSetNode*>(child.get());
  children_.push_back(std::move(child));
}

std::string CleanSelectNode::Label() const {
  return "CleanSelect [rule=" + dc_->name() + (dc_->IsFd() ? " fd" : " dc") +
         "]" + (adaptive_ ? " [adaptive]" : "");
}

Status CleanSelectNode::Open(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  rows_.clear();
  pos_ = 0;
  DAISY_ASSIGN_OR_RETURN(std::vector<RowId> rows, child_rows_->Drain(ctx));
  stats_.rows_in = rows.size();

  // Per-rule boundary: a rule's Run is all-or-nothing, so cutting here —
  // after the child drained but before this rule cleaned — leaves the
  // cleaning state exactly the prefix of rules below this node.
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
  DAISY_ASSIGN_OR_RETURN(CleanSelectResult cres,
                         op_->Run(filter_, rows, options_));
  rows = cres.final_rows;

  CleaningExecStats& cs = ctx->cleaning;
  ++cs.rules_applied;
  if (cres.pruned) {
    ++cs.rules_pruned;
    stats_.pruned = true;
  }
  cs.extra_tuples += cres.extra_tuples;
  cs.errors_fixed += cres.errors_fixed;
  cs.tuples_scanned += cres.tuples_scanned;
  cs.detect_ops += cres.detect_ops;
  cs.delta_rows_checked += cres.delta_rows_checked;
  stats_.delta_rows_checked = cres.delta_rows_checked;
  cs.used_dc_full_clean |= cres.used_full_clean;
  cs.min_estimated_accuracy =
      std::min(cs.min_estimated_accuracy, cres.estimated_accuracy);

  // Cost-model bookkeeping and the adaptive switch (Section 5.2.3). Pruned
  // invocations did no relaxation/repair work and accrue no incremental
  // cost. The planner armed `adaptive_` at construction; the trigger itself
  // is inherently data-dependent.
  const double width =
      rule_stats_ != nullptr ? rule_stats_->avg_candidates : 2.0;
  if (!cres.pruned) {
    QueryCostSample sample;
    sample.dataset_size = table_->num_live_rows();
    sample.result_size = rows.size();
    sample.extra_size = cres.extra_tuples;
    sample.errors = cres.errors_fixed;
    sample.detect_ops = cres.detect_ops;
    sample.candidate_width = width;
    cost_->RecordQuery(sample);
  }
  if (adaptive_ && !op_->fully_checked()) {
    const size_t epsilon = rule_stats_ != nullptr
                               ? rule_stats_->num_violating_rows
                               : table_->num_live_rows() / 10;
    const size_t groups = rule_stats_ != nullptr
                              ? rule_stats_->num_violating_groups
                              : std::max<size_t>(1, epsilon / 10);
    if (cost_->ShouldSwitchToFull(table_->num_live_rows(), groups, epsilon,
                                  width)) {
      // The full-clean sweep is another all-or-nothing unit; re-check the
      // budget before committing to it.
      DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
      DAISY_ASSIGN_OR_RETURN(CleanSelectResult fres,
                             op_->CleanRemaining(options_));
      cs.switched_to_full = true;
      stats_.switched_to_full = true;
      cs.errors_fixed += fres.errors_fixed;
      // Recompute the qualifying rows over the now-clean table.
      DAISY_ASSIGN_OR_RETURN(rows,
                             FilterRows(*table_, filter_, table_->AllRowIds()));
    }
  }
  rows_ = std::move(rows);
  return Status::OK();
}

Result<bool> CleanSelectNode::NextBatch(ExecContext* ctx, RowIdBatch* out) {
  NodeStatsTimer timer(&stats_.next_us);
  if (pos_ >= rows_.size()) return false;
  const size_t count = std::min(ctx->batch_size, rows_.size() - pos_);
  out->assign(rows_.begin() + pos_, rows_.begin() + pos_ + count);
  pos_ += count;
  stats_.rows_out += count;
  ++stats_.batches;
  return true;
}

// ---------------------------------------------------------- HashJoinStep --

namespace {

std::string JoinPredText(const std::vector<const Table*>& tables,
                         const SplitWhere::JoinPred& p) {
  return tables[p.left_table]->name() + "." +
         tables[p.left_table]->schema().column(p.left_col).name + " = " +
         tables[p.right_table]->name() + "." +
         tables[p.right_table]->schema().column(p.right_col).name;
}

// `row` with the FROM positions in `side_mask` taken from `side_row`.
JoinedRow MergeSide(JoinedRow row, const JoinedRow& side_row,
                    uint64_t side_mask) {
  for (size_t t = 0; t < row.size(); ++t) {
    if (((side_mask >> t) & 1u) != 0) row[t] = side_row[t];
  }
  return row;
}

}  // namespace

HashJoinStepNode::HashJoinStepNode(
    Kind kind, const std::vector<const Table*>* tables,
    const std::vector<SplitWhere::JoinPred>* joins, size_t pred_idx,
    uint64_t left_mask, uint64_t right_mask, int left_from, int right_from,
    bool build_left, std::unique_ptr<PlanNode> left,
    std::unique_ptr<PlanNode> right)
    : JoinSourceNode(kind),
      tables_(tables),
      pred_(pred_idx < joins->size() ? &(*joins)[pred_idx] : nullptr),
      left_mask_(left_mask),
      right_mask_(right_mask),
      left_from_(left_from),
      right_from_(right_from),
      build_left_(build_left) {
  // Residuals: every other predicate with one endpoint on each side.
  for (size_t j = 0; j < joins->size(); ++j) {
    const SplitWhere::JoinPred& p = (*joins)[j];
    const uint64_t ends =
        (uint64_t{1} << p.left_table) | (uint64_t{1} << p.right_table);
    if (j != pred_idx && (ends & left_mask) != 0 && (ends & right_mask) != 0) {
      residuals_.push_back(p);
    }
  }
  children_.push_back(std::move(left));
  children_.push_back(std::move(right));
}

std::string HashJoinStepNode::Label() const {
  std::string out = kind_ == Kind::kCleanJoin ? "CleanJoin [" : "HashJoin [";
  if (pred_ == nullptr) return out + "cartesian]";
  out += JoinPredText(*tables_, *pred_) + "] [build=" +
         (build_left_ ? "left" : "right") + "]";
  for (size_t i = 0; i < residuals_.size(); ++i) {
    out += i == 0 ? " [residual=" : ", ";
    out += JoinPredText(*tables_, residuals_[i]);
  }
  if (!residuals_.empty()) out += "]";
  return out;
}

Result<std::vector<JoinedRow>> HashJoinStepNode::SideRows(ExecContext* ctx,
                                                          size_t side) {
  PlanNode* child = children_[side].get();
  const int from = side == 0 ? left_from_ : right_from_;
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
  if (from >= 0) {
    auto* rows_child = static_cast<RowSetNode*>(child);
    DAISY_ASSIGN_OR_RETURN(std::vector<RowId> rows, rows_child->Drain(ctx));
    std::vector<JoinedRow> out;
    out.reserve(rows.size());
    for (RowId r : rows) {
      JoinedRow j(tables_->size(), 0);
      j[static_cast<size_t>(from)] = r;
      out.push_back(std::move(j));
    }
    return out;
  }
  return static_cast<JoinSourceNode*>(child)->ExecuteJoined(ctx);
}

Result<std::vector<JoinedRow>> HashJoinStepNode::ExecuteJoined(
    ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  DAISY_ASSIGN_OR_RETURN(std::vector<JoinedRow> left, SideRows(ctx, 0));
  DAISY_ASSIGN_OR_RETURN(std::vector<JoinedRow> right, SideRows(ctx, 1));
  stats_.rows_in += left.size() + right.size();
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));

  std::vector<JoinedRow> out;
  if (pred_ == nullptr) {
    // Cartesian step (no predicate connects the sides, so no residuals
    // either): left-major in child order.
    out.reserve(left.size() * right.size());
    for (const JoinedRow& l : left) {
      for (const JoinedRow& r : right) {
        out.push_back(MergeSide(l, r, right_mask_));
      }
    }
  } else {
    out = HashMatch(left, right);
  }

  // Canonical order at the tree root: lexicographic by FROM-position
  // row-id tuple, the FROM-order chain's emission order. The planner skips
  // it when the tree IS that chain (IsNaiveChain).
  if (sort_output_) std::sort(out.begin(), out.end());
  stats_.rows_out = out.size();
  ++stats_.batches;
  return out;
}

std::vector<JoinedRow> HashJoinStepNode::HashMatch(
    const std::vector<JoinedRow>& left,
    const std::vector<JoinedRow>& right) const {
  // Resolve which end of the step predicate lives in which subtree, then
  // pick the build side.
  const bool pred_left_in_left = ((left_mask_ >> pred_->left_table) & 1u) != 0;
  const size_t l_tab =
      pred_left_in_left ? pred_->left_table : pred_->right_table;
  const size_t l_col = pred_left_in_left ? pred_->left_col : pred_->right_col;
  const size_t r_tab =
      pred_left_in_left ? pred_->right_table : pred_->left_table;
  const size_t r_col = pred_left_in_left ? pred_->right_col : pred_->left_col;

  const std::vector<JoinedRow>& build = build_left_ ? left : right;
  const std::vector<JoinedRow>& probe = build_left_ ? right : left;
  const size_t bt = build_left_ ? l_tab : r_tab;
  const size_t bc = build_left_ ? l_col : r_col;
  const size_t pt = build_left_ ? r_tab : l_tab;
  const size_t pc = build_left_ ? r_col : l_col;
  const uint64_t build_mask = build_left_ ? left_mask_ : right_mask_;
  const Table& btab = *(*tables_)[bt];
  const Table& ptab = *(*tables_)[pt];

  // Every residual holds for a (probe, build) tuple pair, each matched
  // with its later-FROM endpoint as the build cell.
  auto residuals_hold = [&](const JoinedRow& prow, const JoinedRow& brow) {
    auto cell = [&](size_t t, size_t c) -> const Cell& {
      const RowId r = ((build_mask >> t) & 1u) != 0 ? brow[t] : prow[t];
      return (*tables_)[t]->cell(r, c);
    };
    for (const SplitWhere::JoinPred& p : residuals_) {
      const bool left_first = p.left_table < p.right_table;
      const Cell& earlier = left_first ? cell(p.left_table, p.left_col)
                                       : cell(p.right_table, p.right_col);
      const Cell& later = left_first ? cell(p.right_table, p.right_col)
                                     : cell(p.left_table, p.left_col);
      if (!JoinCellsMayMatch(earlier, later)) return false;
    }
    return true;
  };

  // Build: the point keys of a build row's join cell (see
  // JoinCellsMayMatch) hash its tuple index; rows whose cell carries range
  // candidates also go to a linear-probe side list. Keyed by build-side
  // tuple index so each build tuple pairs with each probe tuple at most
  // once.
  std::unordered_map<Value, std::vector<size_t>, ValueHash> hash;
  std::vector<size_t> range_rows;
  hash.reserve(build.size());
  for (size_t i = 0; i < build.size(); ++i) {
    const Cell& cell = btab.cell(build[i][bt], bc);
    bool has_range = false;
    if (cell.is_probabilistic()) {
      for (const Candidate& c : cell.candidates()) {
        if (c.kind != CandidateKind::kPoint) {
          has_range = true;
          continue;
        }
        hash[c.value].push_back(i);
      }
    } else {
      hash[cell.original()].push_back(i);
    }
    if (has_range) range_rows.push_back(i);
  }

  std::vector<JoinedRow> out;
  std::vector<size_t> matched;
  for (const JoinedRow& prow : probe) {
    const Cell& pcell = ptab.cell(prow[pt], pc);
    matched.clear();
    for (const Value& v : pcell.PossibleValues()) {
      auto it = hash.find(v);
      if (it == hash.end()) continue;
      matched.insert(matched.end(), it->second.begin(), it->second.end());
    }
    std::sort(matched.begin(), matched.end());
    matched.erase(std::unique(matched.begin(), matched.end()), matched.end());
    // Range rows append to the tail; membership checks must stay within
    // the sorted hash-match prefix.
    const size_t sorted_end = matched.size();
    for (size_t i : range_rows) {
      if (std::binary_search(matched.begin(), matched.begin() + sorted_end,
                             i)) {
        continue;
      }
      if (JoinCellsMayMatch(pcell, btab.cell(build[i][bt], bc))) {
        matched.push_back(i);
      }
    }
    // Per-probe emission sorted by build tuple: when the build child is a
    // leaf this is its row-id order, which is what makes the FROM-order
    // chain emit lexicographically without a root sort.
    std::sort(matched.begin(), matched.end(),
              [&build](size_t a, size_t b) { return build[a] < build[b]; });
    for (size_t i : matched) {
      if (!residuals_.empty() && !residuals_hold(prow, build[i])) continue;
      out.push_back(MergeSide(prow, build[i], build_mask));
    }
  }
  return out;
}

// ----------------------------------------------------------- CleanJoined --

CleanJoinedNode::CleanJoinedNode(Table* table, size_t table_idx,
                                 const DenialConstraint* dc, CleanSelect* op,
                                 CostModel* cost,
                                 const FdRuleStats* rule_stats,
                                 const Expr* filter, CleaningOptions options,
                                 bool adaptive,
                                 std::unique_ptr<PlanNode> child)
    : JoinSourceNode(Kind::kCleanSelect),
      table_(table),
      table_idx_(table_idx),
      dc_(dc),
      op_(op),
      cost_(cost),
      rule_stats_(rule_stats),
      filter_(filter),
      options_(options),
      adaptive_(adaptive) {
  child_join_ = static_cast<JoinSourceNode*>(child.get());
  children_.push_back(std::move(child));
}

std::string CleanJoinedNode::Label() const {
  return "CleanSelect [rule=" + dc_->name() + (dc_->IsFd() ? " fd" : " dc") +
         "]" + (adaptive_ ? " [adaptive]" : "") + " [deferred]";
}

Result<std::vector<JoinedRow>> CleanJoinedNode::ExecuteJoined(
    ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  DAISY_ASSIGN_OR_RETURN(std::vector<JoinedRow> joined,
                         child_join_->ExecuteJoined(ctx));
  stats_.rows_in = joined.size();

  // The distinct rows this table contributes to the join survivors — the
  // only rows of it whose cells the answer can possibly read. A selective
  // join below makes this set (much) smaller than the full qualifying set
  // the in-chain placement would clean.
  std::vector<RowId> rows;
  rows.reserve(joined.size());
  for (const JoinedRow& j : joined) rows.push_back(j[table_idx_]);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

  // Same per-rule boundary + bookkeeping as the in-chain CleanSelectNode.
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
  DAISY_ASSIGN_OR_RETURN(CleanSelectResult cres,
                         op_->Run(filter_, rows, options_));

  CleaningExecStats& cs = ctx->cleaning;
  ++cs.rules_applied;
  ++cs.rules_deferred;
  if (cres.pruned) {
    ++cs.rules_pruned;
    stats_.pruned = true;
  }
  cs.extra_tuples += cres.extra_tuples;
  cs.errors_fixed += cres.errors_fixed;
  cs.tuples_scanned += cres.tuples_scanned;
  cs.detect_ops += cres.detect_ops;
  cs.delta_rows_checked += cres.delta_rows_checked;
  stats_.delta_rows_checked = cres.delta_rows_checked;
  cs.used_dc_full_clean |= cres.used_full_clean;
  cs.min_estimated_accuracy =
      std::min(cs.min_estimated_accuracy, cres.estimated_accuracy);

  const double width =
      rule_stats_ != nullptr ? rule_stats_->avg_candidates : 2.0;
  if (!cres.pruned) {
    QueryCostSample sample;
    sample.dataset_size = table_->num_live_rows();
    sample.result_size = cres.final_rows.size();
    sample.extra_size = cres.extra_tuples;
    sample.errors = cres.errors_fixed;
    sample.detect_ops = cres.detect_ops;
    sample.candidate_width = width;
    cost_->RecordQuery(sample);
  }
  if (adaptive_ && !op_->fully_checked()) {
    const size_t epsilon = rule_stats_ != nullptr
                               ? rule_stats_->num_violating_rows
                               : table_->num_live_rows() / 10;
    const size_t groups = rule_stats_ != nullptr
                              ? rule_stats_->num_violating_groups
                              : std::max<size_t>(1, epsilon / 10);
    if (cost_->ShouldSwitchToFull(table_->num_live_rows(), groups, epsilon,
                                  width)) {
      DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
      DAISY_ASSIGN_OR_RETURN(CleanSelectResult fres,
                             op_->CleanRemaining(options_));
      cs.switched_to_full = true;
      stats_.switched_to_full = true;
      cs.errors_fixed += fres.errors_fixed;
      // No qualifying-row recompute here: the deferral gate guarantees the
      // rule's repairs touch no filter or join-key column, so the joined
      // row set is invariant under the full clean (optimizer.cc,
      // DeferralIsExact).
    }
  }

  // The joined rows pass through unchanged — the placement gate makes them
  // invariant under this rule's repairs; the output builder above reads
  // the repaired cells.
  stats_.rows_out = joined.size();
  ++stats_.batches;
  return joined;
}

// ---------------------------------------------------------------- Output --

OutputNode::OutputNode(Kind kind, const SelectStmt* stmt,
                       const std::vector<const Table*>* tables,
                       std::unique_ptr<PlanNode> child)
    : PlanNode(kind), stmt_(stmt), tables_(tables) {
  children_.push_back(std::move(child));
}

std::string OutputNode::Label() const {
  std::ostringstream oss;
  oss << (kind_ == Kind::kAggregate ? "Aggregate [select=[" : "Project [");
  for (size_t i = 0; i < stmt_->select_list.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << stmt_->select_list[i].ToString();
  }
  if (kind_ == Kind::kAggregate) {
    oss << "]";
    if (!stmt_->group_by.empty()) {
      oss << " group_by=[";
      for (size_t i = 0; i < stmt_->group_by.size(); ++i) {
        if (i > 0) oss << ", ";
        oss << stmt_->group_by[i].ToString();
      }
      oss << "]";
    }
  }
  oss << "]";
  return oss.str();
}

Result<QueryOutput> OutputNode::ExecuteOutput(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  // The row limit only truncates what the client receives. Cleaning (and,
  // for projections, the SPJ pipeline past the limit) still completes —
  // CleanSelect children clean their whole qualifying set at Open — so a
  // row-limited query leaves exactly the state of its unlimited twin.
  auto mark_row_limit = [&] {
    if (ctx->termination == QueryTermination::kComplete) {
      ctx->termination = QueryTermination::kRowLimit;
      ctx->cut_node = Label();
      stats_.cut = QueryTermination::kRowLimit;
    }
  };
  std::vector<JoinedRow> joined;
  PlanNode* child = children_[0].get();
  const size_t limit = kind_ == Kind::kProject ? ctx->row_limit : 0;
  if (auto* join_child = dynamic_cast<JoinSourceNode*>(child)) {
    DAISY_ASSIGN_OR_RETURN(joined, join_child->ExecuteJoined(ctx));
    if (limit != 0 && joined.size() > limit) {
      joined.resize(limit);
      mark_row_limit();
    }
  } else {
    auto* rows_child = static_cast<RowSetNode*>(child);
    DAISY_RETURN_IF_ERROR(rows_child->Open(ctx));
    std::vector<RowId> rows;
    RowIdBatch batch;
    bool truncated = false;
    while (true) {
      DAISY_ASSIGN_OR_RETURN(bool more, rows_child->NextBatch(ctx, &batch));
      if (!more) break;
      rows.insert(rows.end(), batch.begin(), batch.end());
      if (limit != 0 && rows.size() > limit) {
        truncated = true;
        break;
      }
    }
    if (truncated) {
      rows.resize(limit);
      mark_row_limit();
    }
    joined.reserve(rows.size());
    for (RowId r : rows) joined.push_back(JoinedRow{r});
  }
  stats_.rows_in = joined.size();
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
  DAISY_ASSIGN_OR_RETURN(
      QueryOutput out,
      QueryExecutor::BuildOutput(*stmt_, *tables_, std::move(joined)));
  if (kind_ == Kind::kAggregate && ctx->row_limit != 0 &&
      out.result.num_rows() > ctx->row_limit) {
    // Aggregates only know their output cardinality after grouping;
    // rebuild the result with the first `row_limit` groups (cells keep
    // their candidate sets).
    Table head(out.result.name(), out.result.schema());
    head.Reserve(ctx->row_limit);
    for (RowId r = 0; r < ctx->row_limit; ++r) {
      head.AppendRowUnchecked(out.result.row(r));
    }
    out.result = std::move(head);
    mark_row_limit();
  }
  stats_.rows_out = out.result.num_rows();
  ++stats_.batches;
  return out;
}

// --------------------------------------------------------------- Explain --

namespace {

void RenderNode(const PlanNode& node, size_t depth, bool executed,
                std::ostringstream* oss) {
  if (node.HiddenInExplain()) {
    for (const auto& child : node.children()) {
      RenderNode(*child, depth, executed, oss);
    }
    return;
  }
  for (size_t i = 0; i < depth; ++i) *oss << "  ";
  *oss << node.Label();
  if (node.est_rows() >= 0.0) {
    *oss << " est_rows=" << static_cast<long long>(std::llround(node.est_rows()))
         << " est_cost="
         << static_cast<long long>(std::llround(node.est_cost()));
  }
  if (executed) {
    *oss << " rows=" << node.stats().rows_out;
    if (node.stats().delta_rows_checked > 0) {
      *oss << " delta rows checked: " << node.stats().delta_rows_checked;
    }
    if (node.stats().pruned) *oss << " pruned";
    if (node.stats().switched_to_full) *oss << " switched-to-full";
    if (node.stats().cut != QueryTermination::kComplete) {
      *oss << " cut=" << QueryTerminationToString(node.stats().cut);
    }
  }
  *oss << "\n";
  for (const auto& child : node.children()) {
    RenderNode(*child, depth + 1, executed, oss);
  }
}

void RenderTraceNode(const PlanNode& node, size_t depth,
                     std::ostringstream* oss) {
  if (node.HiddenInExplain()) {
    for (const auto& child : node.children()) {
      RenderTraceNode(*child, depth, oss);
    }
    return;
  }
  for (size_t i = 0; i < depth; ++i) *oss << "  ";
  *oss << node.Label() << " open_us=" << node.stats().open_us
       << " next_us=" << node.stats().next_us
       << " rows=" << node.stats().rows_out << "\n";
  for (const auto& child : node.children()) {
    RenderTraceNode(*child, depth + 1, oss);
  }
}

}  // namespace

std::string RenderPlanTree(const PlanNode& root, bool executed) {
  std::ostringstream oss;
  RenderNode(root, 0, executed, &oss);
  return oss.str();
}

std::string RenderPlanTrace(const PlanNode& root) {
  std::ostringstream oss;
  RenderTraceNode(root, 0, &oss);
  return oss.str();
}

}  // namespace daisy
