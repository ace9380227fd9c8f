#include "plan/plan_node.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/metrics.h"
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

FilterNode::FilterNode(const Table* table, const Expr* expr,
                       std::unique_ptr<PlanNode> child)
    : RowSetNode(Kind::kFilter), table_(table), expr_(expr) {
  child_rows_ = static_cast<RowSetNode*>(child.get());
  children_.push_back(std::move(child));
}

std::string FilterNode::Label() const {
  return "Filter [" + table_->name() + ": " + expr_->ToString() +
         "] [columnar]";
}

Status FilterNode::Open(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  DAISY_RETURN_IF_ERROR(child_rows_->Open(ctx));
  DAISY_ASSIGN_OR_RETURN(CompiledFilter compiled,
                         CompiledFilter::Compile(*table_, *expr_));
  compiled_ = std::make_unique<CompiledFilter>(std::move(compiled));
  return Status::OK();
}

Result<bool> FilterNode::NextBatch(ExecContext* ctx, RowIdBatch* out) {
  NodeStatsTimer timer(&stats_.next_us);
  RowIdBatch in;
  DAISY_ASSIGN_OR_RETURN(bool more, child_rows_->NextBatch(ctx, &in));
  if (!more) return false;
  stats_.rows_in += in.size();
  *out = compiled_->Filter(std::move(in));
  stats_.rows_out += out->size();
  ++stats_.batches;
  return true;
}

// ----------------------------------------------------------- CleanSelect --

namespace {

// Rows a switch sweep handed to repair.
Counter* RowsSwept() {
  static Counter* const swept = MetricsRegistry::Global().GetCounter(
      "daisy_clean_rows_swept_total",
      "Rows a cost-model switch sweep handed to repair");
  return swept;
}

}  // namespace

CleanSelectStep::CleanSelectStep(Table* table, const DenialConstraint* dc,
                                 CleanSelect* op, CostModel* cost,
                                 const FdDeltaDetector* fd,
                                 const Expr* filter, CleaningOptions options,
                                 bool adaptive)
    : table_(table),
      dc_(dc),
      op_(op),
      cost_(cost),
      fd_(fd),
      filter_(filter),
      options_(options),
      adaptive_(adaptive) {}

std::string CleanSelectStep::Label() const {
  return "CleanSelect [rule=" + dc_->name() + (dc_->IsFd() ? " fd" : " dc") +
         "]" + (adaptive_ ? " [adaptive]" : "");
}

Status CleanSelectStep::Run(ExecContext* ctx, PlanNode* node, bool deferred,
                            std::vector<RowId>* rows) {
  // Per-rule boundary: a rule's Run is all-or-nothing, so cutting here —
  // after the input drained but before this rule cleaned — leaves the
  // cleaning state exactly the prefix of rules that ran before this one.
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(node));
  // Compiled once for the whole run: the repairs below only flip the
  // cache's probs bits, which the compiled filter reads in place.
  std::optional<CompiledFilter> compiled;
  if (filter_ != nullptr) {
    DAISY_ASSIGN_OR_RETURN(CompiledFilter f,
                           CompiledFilter::Compile(*table_, *filter_));
    compiled.emplace(std::move(f));
  }
  const CompiledFilter* filter = compiled ? &*compiled : nullptr;
  DAISY_ASSIGN_OR_RETURN(CleanSelectResult cres,
                         op_->Run(filter, *rows, options_));
  *rows = std::move(cres.final_rows);

  CleaningExecStats& cs = ctx->cleaning;
  PlanNode::NodeStats& stats = node->stats();
  ++cs.rules_applied;
  if (deferred) ++cs.rules_deferred;
  if (cres.pruned) {
    ++cs.rules_pruned;
    stats.pruned = true;
  }
  cs.extra_tuples += cres.extra_tuples;
  cs.errors_fixed += cres.errors_fixed;
  cs.tuples_scanned += cres.tuples_scanned;
  cs.detect_ops += cres.detect_ops;
  cs.delta_rows_checked += cres.delta_rows_checked;
  stats.delta_rows_checked = cres.delta_rows_checked;
  cs.used_dc_full_clean |= cres.used_full_clean;
  cs.min_estimated_accuracy =
      std::min(cs.min_estimated_accuracy, cres.estimated_accuracy);

  // Cost-model bookkeeping and the adaptive switch (Section 5.2.3). Pruned
  // invocations did no relaxation/repair work and accrue no incremental
  // cost. The planner armed `adaptive_` at construction; the trigger itself
  // is inherently data-dependent.
  // FD rules read ε / violating groups / p off the rule's detector; DC
  // rules fall back to fixed guesses.
  FdRuleStats rule_stats;
  if (fd_ != nullptr) {
    rule_stats = fd_->stats();
  } else {
    rule_stats.num_violating_rows = table_->num_live_rows() / 10;
    rule_stats.num_violating_groups =
        std::max<size_t>(1, rule_stats.num_violating_rows / 10);
    rule_stats.avg_candidates = 2.0;
  }
  const double width = rule_stats.avg_candidates;
  if (!cres.pruned) {
    QueryCostSample sample;
    sample.dataset_size = table_->num_live_rows();
    sample.result_size = rows->size();
    sample.extra_size = cres.extra_tuples;
    sample.errors = cres.errors_fixed;
    sample.detect_ops = cres.detect_ops;
    sample.candidate_width = width;
    cost_->RecordQuery(sample);
  }
  if (!adaptive_ || op_->fully_checked()) return Status::OK();
  if (!cost_->ShouldSwitchToFull(table_->num_live_rows(),
                                 rule_stats.num_violating_groups,
                                 rule_stats.num_violating_rows, width)) {
    return Status::OK();
  }
  // The full-clean sweep is another all-or-nothing unit; re-check the
  // budget before committing to it.
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(node));
  DAISY_ASSIGN_OR_RETURN(CleanSelectResult fres, op_->CleanRemaining());
  cs.switched_to_full = true;
  stats.switched_to_full = true;
  cs.errors_fixed += fres.errors_fixed;
  RowsSwept()->Increment(fres.swept_rows.size());
  // The deferred placement's joined rows are invariant under the sweep
  // (see CleanJoinedNode); the chain placement's qualifying set is not.
  if (deferred) return Status::OK();
  *rows = RefilterChanged(*table_, filter, *rows, fres.swept_rows);
  return Status::OK();
}

CleanSelectNode::CleanSelectNode(CleanSelectStep step,
                                 std::unique_ptr<PlanNode> child)
    : RowSetNode(Kind::kCleanSelect), step_(step) {
  child_rows_ = static_cast<RowSetNode*>(child.get());
  children_.push_back(std::move(child));
}

std::string CleanSelectNode::Label() const { return step_.Label(); }

Status CleanSelectNode::Open(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  rows_.clear();
  pos_ = 0;
  DAISY_ASSIGN_OR_RETURN(std::vector<RowId> rows, child_rows_->Drain(ctx));
  stats_.rows_in = rows.size();
  DAISY_RETURN_IF_ERROR(step_.Run(ctx, this, /*deferred=*/false, &rows));
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

// The FROM positions set in `mask`, ascending.
std::vector<size_t> MaskPositions(uint64_t mask, size_t width) {
  std::vector<size_t> out;
  for (size_t t = 0; t < width; ++t) {
    if (((mask >> t) & 1u) != 0) out.push_back(t);
  }
  return out;
}

// Appends `row` to `out` with the FROM positions in `side` taken from
// `side_row`.
void AppendMerged(const RowId* row, const RowId* side_row,
                  const std::vector<size_t>& side, JoinedRows* out) {
  const size_t at = out->ids.size();
  out->ids.insert(out->ids.end(), row, row + out->width);
  for (size_t t : side) out->ids[at + t] = side_row[t];
}

bool TupleLess(const RowId* a, const RowId* b, size_t width) {
  return std::lexicographical_compare(a, a + width, b, b + width);
}

// Root sorts by outcome: input already in canonical order (kept as is)
// or permuted into it.
Counter* RootSorts(bool kept) {
  static Counter* const kept_sorts = MetricsRegistry::Global().GetCounter(
      "daisy_plan_root_sorts_total{order=\"kept\"}",
      "Join-root canonical sorts, by whether the input was already in order");
  static Counter* const sorted_sorts = MetricsRegistry::Global().GetCounter(
      "daisy_plan_root_sorts_total{order=\"sorted\"}");
  return kept ? kept_sorts : sorted_sorts;
}

// Probe match lists by source: built (on a candidate set's first probe in
// a step, on every probe of a range-only set, and on every clean probe
// while the build side has range rows) or reused from an earlier probe
// cell sharing the candidate set.
Counter* ProbeLists(bool reused) {
  static Counter* const computed = MetricsRegistry::Global().GetCounter(
      "daisy_plan_join_probe_lists_total{source=\"computed\"}",
      "Join probe match lists, by whether built or reused from an earlier "
      "probe cell sharing the candidate set");
  static Counter* const reused_lists = MetricsRegistry::Global().GetCounter(
      "daisy_plan_join_probe_lists_total{source=\"reused\"}");
  return reused ? reused_lists : computed;
}

// Sorts the tuples lexicographically and returns whether they already were
// in order. One O(n) pass first: input already in order (equal tuples are
// identical bytes) is the sort's result as is. Otherwise a permutation of
// tuple indices is sorted, then applied, so the result is exactly the order
// a sort over per-tuple vectors gives.
bool SortTuples(JoinedRows* rows) {
  const size_t w = rows->width;
  const size_t n = rows->size();
  size_t i = 1;
  while (i < n && !TupleLess((*rows)[i], (*rows)[i - 1], w)) ++i;
  if (i >= n) return true;
  std::vector<size_t> perm(n);
  for (size_t k = 0; k < n; ++k) perm[k] = k;
  std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    return TupleLess((*rows)[a], (*rows)[b], w);
  });
  std::vector<RowId> sorted;
  sorted.reserve(rows->ids.size());
  for (size_t k : perm) {
    const RowId* t = (*rows)[k];
    sorted.insert(sorted.end(), t, t + w);
  }
  rows->ids = std::move(sorted);
  return false;
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

Result<JoinedRows> HashJoinStepNode::SideRows(ExecContext* ctx,
                                              size_t side) {
  PlanNode* child = children_[side].get();
  const int from = side == 0 ? left_from_ : right_from_;
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
  if (from >= 0) {
    auto* rows_child = static_cast<RowSetNode*>(child);
    DAISY_ASSIGN_OR_RETURN(std::vector<RowId> rows, rows_child->Drain(ctx));
    JoinedRows out;
    out.width = tables_->size();
    out.ids.assign(rows.size() * out.width, 0);
    for (size_t i = 0; i < rows.size(); ++i) {
      out[i][static_cast<size_t>(from)] = rows[i];
    }
    return out;
  }
  return static_cast<JoinSourceNode*>(child)->ExecuteJoined(ctx);
}

Result<JoinedRows> HashJoinStepNode::ExecuteJoined(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  DAISY_ASSIGN_OR_RETURN(JoinedRows left, SideRows(ctx, 0));
  DAISY_ASSIGN_OR_RETURN(JoinedRows right, SideRows(ctx, 1));
  stats_.rows_in += left.size() + right.size();
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));

  JoinedRows out;
  if (pred_ == nullptr) {
    // Cartesian step (no predicate connects the sides, so no residuals
    // either): left-major in child order.
    out.width = tables_->size();
    out.ids.reserve(left.size() * right.size() * out.width);
    const std::vector<size_t> right_pos =
        MaskPositions(right_mask_, out.width);
    for (size_t l = 0; l < left.size(); ++l) {
      for (size_t r = 0; r < right.size(); ++r) {
        AppendMerged(left[l], right[r], right_pos, &out);
      }
    }
  } else {
    out = HashMatch(std::move(left), std::move(right));
  }

  // Canonical order at the tree root: lexicographic by FROM-position
  // row-id tuple, the FROM-order chain's emission order. The planner skips
  // it when the tree IS that chain (IsNaiveChain).
  if (sort_output_) RootSorts(SortTuples(&out))->Increment();
  stats_.rows_out = out.size();
  ++stats_.batches;
  return out;
}

JoinedRows HashJoinStepNode::HashMatch(JoinedRows left,
                                       JoinedRows right) const {
  // Resolve which end of the step predicate lives in which subtree, then
  // pick the build side.
  const bool pred_left_in_left = ((left_mask_ >> pred_->left_table) & 1u) != 0;
  const size_t l_tab =
      pred_left_in_left ? pred_->left_table : pred_->right_table;
  const size_t l_col = pred_left_in_left ? pred_->left_col : pred_->right_col;
  const size_t r_tab =
      pred_left_in_left ? pred_->right_table : pred_->left_table;
  const size_t r_col = pred_left_in_left ? pred_->right_col : pred_->left_col;

  JoinedRows& build = build_left_ ? left : right;
  const JoinedRows& probe = build_left_ ? right : left;
  const size_t width = tables_->size();
  const size_t bt = build_left_ ? l_tab : r_tab;
  const size_t bc = build_left_ ? l_col : r_col;
  const size_t pt = build_left_ ? r_tab : l_tab;
  const size_t pc = build_left_ ? r_col : l_col;
  const uint64_t build_mask = build_left_ ? left_mask_ : right_mask_;
  const Table& btab = *(*tables_)[bt];
  const Table& ptab = *(*tables_)[pt];

  // Build tuples in lexicographic order, so ascending build index is
  // ascending build tuple: a leaf chain's row ids already ascend, a join
  // subtree's tuples are sorted here once.
  const bool build_was_sorted = SortTuples(&build);
  assert(build_was_sorted || (build_left_ ? left_from_ : right_from_) < 0);
  (void)build_was_sorted;

  // Every residual holds for a (probe, build) tuple pair, each matched
  // with its later-FROM endpoint as the build cell.
  auto residuals_hold = [&](const RowId* prow, const RowId* brow) {
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
  // candidates also go to a linear-probe side list. Indices arrive in
  // ascending order, and an index equal to its bucket's last (two
  // Equals-equal points of one cell) is not pushed again, so every bucket
  // is ascending and duplicate-free.
  std::unordered_map<Value, std::vector<size_t>, ValueHash> hash;
  std::vector<size_t> range_rows;
  hash.reserve(build.size());
  auto push = [&](const Value& key, size_t i) {
    std::vector<size_t>& bucket = hash[key];
    if (bucket.empty() || bucket.back() != i) bucket.push_back(i);
  };
  for (size_t i = 0; i < build.size(); ++i) {
    const Cell& cell = btab.cell(build[i][bt], bc);
    bool has_range = false;
    if (cell.is_probabilistic()) {
      for (const Candidate& c : cell.candidates()) {
        if (c.kind != CandidateKind::kPoint) {
          has_range = true;
          continue;
        }
        push(c.value, i);
      }
    } else {
      push(cell.original(), i);
    }
    if (has_range) range_rows.push_back(i);
  }
  static const std::vector<size_t> kNoMatch;
  auto bucket_of = [&](const Value& key) -> const std::vector<size_t>& {
    auto it = hash.find(key);
    return it == hash.end() ? kNoMatch : it->second;
  };

  // A probe cell's finished match list into `matched`: the buckets of its
  // possible values (Cell::PossibleValues, read in place: its point
  // candidates, else its original), deduplicated, plus the range rows
  // JoinCellsMayMatch admits, ascending by build index.
  std::vector<size_t> matched;
  auto compute = [&](const Cell& pcell) {
    matched.clear();
    size_t buckets = 0;
    auto add = [&](const Value& key) {
      const std::vector<size_t>& bucket = bucket_of(key);
      if (bucket.empty()) return;
      matched.insert(matched.end(), bucket.begin(), bucket.end());
      ++buckets;
    };
    bool any_point = false;
    for (const Candidate& c : pcell.candidates()) {
      if (c.kind != CandidateKind::kPoint) continue;
      any_point = true;
      add(c.value);
    }
    if (!any_point) add(pcell.original());
    // One bucket is ascending and duplicate-free already.
    if (buckets > 1) {
      std::sort(matched.begin(), matched.end());
      matched.erase(std::unique(matched.begin(), matched.end()),
                    matched.end());
    }
    // Range rows append to the tail; membership checks stay within the
    // sorted hash-match prefix, and one merge orders the whole list.
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
    std::inplace_merge(matched.begin(), matched.begin() + sorted_end,
                       matched.end());
  };

  // A candidate set's list depends on the set alone when it holds a point
  // candidate; a range-only set falls back to the cell's original, so its
  // list is built per probe. Lists live back to back in `memo_ids`.
  std::unordered_map<const CandidateSet*, std::pair<size_t, size_t>> memo;
  std::vector<size_t> memo_ids;
  uint64_t computed = 0;
  uint64_t reused = 0;

  JoinedRows out;
  out.width = width;
  const std::vector<size_t> build_pos = MaskPositions(build_mask, width);
  // Emission in ascending build index, which is build tuple order: when the
  // build child is a leaf this is its row-id order, which is what makes the
  // FROM-order chain emit lexicographically without a root sort.
  auto emit = [&](const RowId* prow, const size_t* first, const size_t* last) {
    for (; first != last; ++first) {
      if (!residuals_.empty() && !residuals_hold(prow, build[*first])) continue;
      AppendMerged(prow, build[*first], build_pos, &out);
    }
  };
  for (size_t p = 0; p < probe.size(); ++p) {
    const RowId* prow = probe[p];
    const Cell& pcell = ptab.cell(prow[pt], pc);
    const CandidateSet* set = pcell.candidate_set().get();
    if (set == nullptr && range_rows.empty()) {
      const std::vector<size_t>& bucket = bucket_of(pcell.original());
      emit(prow, bucket.data(), bucket.data() + bucket.size());
      continue;
    }
    if (set == nullptr || set->most_probable() == nullptr) {
      ++computed;
      compute(pcell);
      emit(prow, matched.data(), matched.data() + matched.size());
      continue;
    }
    auto [it, added] = memo.try_emplace(set);
    if (added) {
      ++computed;
      compute(pcell);
      it->second = {memo_ids.size(), memo_ids.size() + matched.size()};
      memo_ids.insert(memo_ids.end(), matched.begin(), matched.end());
    } else {
      ++reused;
    }
    emit(prow, memo_ids.data() + it->second.first,
         memo_ids.data() + it->second.second);
  }
  if (computed > 0) ProbeLists(false)->Increment(computed);
  if (reused > 0) ProbeLists(true)->Increment(reused);
  return out;
}

// ----------------------------------------------------------- CleanJoined --

CleanJoinedNode::CleanJoinedNode(CleanSelectStep step, size_t table_idx,
                                 std::unique_ptr<PlanNode> child)
    : JoinSourceNode(Kind::kCleanSelect), step_(step), table_idx_(table_idx) {
  child_join_ = static_cast<JoinSourceNode*>(child.get());
  children_.push_back(std::move(child));
}

std::string CleanJoinedNode::Label() const {
  return step_.Label() + " [deferred]";
}

Result<JoinedRows> CleanJoinedNode::ExecuteJoined(ExecContext* ctx) {
  NodeStatsTimer timer(&stats_.open_us);
  DAISY_ASSIGN_OR_RETURN(JoinedRows joined, child_join_->ExecuteJoined(ctx));
  stats_.rows_in = joined.size();

  // The distinct rows this table contributes to the join survivors — the
  // only rows of it whose cells the answer can possibly read. A selective
  // join below makes this set (much) smaller than the full qualifying set
  // the in-chain placement would clean.
  std::vector<RowId> rows;
  rows.reserve(joined.size());
  for (size_t i = 0; i < joined.size(); ++i) {
    rows.push_back(joined[i][table_idx_]);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  DAISY_RETURN_IF_ERROR(step_.Run(ctx, this, /*deferred=*/true, &rows));

  // The joined rows pass through unchanged, also after a switch to full
  // cleaning: the planner's deferral gate guarantees the rule's repairs
  // touch no filter or join-key column, so the joined row set is invariant
  // under them. The output builder above reads the repaired cells.
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

Status OutputNode::ExecuteOutput(ExecContext* ctx, ResultSink* sink) {
  NodeStatsTimer timer(&stats_.open_us);
  // The row limit only truncates what the client receives. Cleaning (and,
  // for projections, the SPJ pipeline past the limit) still completes —
  // CleanSelect children clean their whole qualifying set at Open — so a
  // row-limited query leaves exactly the state of its unlimited twin.
  JoinedRows joined;
  PlanNode* child = children_[0].get();
  const size_t limit = ctx->row_limit;
  if (auto* join_child = dynamic_cast<JoinSourceNode*>(child)) {
    DAISY_ASSIGN_OR_RETURN(joined, join_child->ExecuteJoined(ctx));
  } else {
    // A single-table projection stops pulling one row past the limit.
    const size_t pull_limit = kind_ == Kind::kProject ? limit : 0;
    auto* rows_child = static_cast<RowSetNode*>(child);
    DAISY_RETURN_IF_ERROR(rows_child->Open(ctx));
    joined.width = 1;
    RowIdBatch batch;
    while (pull_limit == 0 || joined.ids.size() <= pull_limit) {
      DAISY_ASSIGN_OR_RETURN(bool more, rows_child->NextBatch(ctx, &batch));
      if (!more) break;
      joined.ids.insert(joined.ids.end(), batch.begin(), batch.end());
    }
  }
  stats_.rows_in = joined.size();
  DAISY_RETURN_IF_ERROR(ctx->CheckResources(this));
  DAISY_ASSIGN_OR_RETURN(
      size_t total,
      QueryExecutor::BuildOutput(*stmt_, *tables_, std::move(joined), limit,
                                 sink));
  if (limit != 0 && total > limit) {
    if (ctx->termination == QueryTermination::kComplete) {
      ctx->termination = QueryTermination::kRowLimit;
      ctx->cut_node = Label();
      stats_.cut = QueryTermination::kRowLimit;
    }
    total = limit;
  }
  stats_.rows_out = total;
  ++stats_.batches;
  return Status::OK();
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
