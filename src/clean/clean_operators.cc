#include "clean/clean_operators.h"

#include <algorithm>
#include <iterator>

#include "plan/compiled_filter.h"
#include "repair/dc_repair.h"
#include "repair/fd_repair.h"

namespace daisy {

namespace {

// The distinct endpoints of `violations`, ascending: the rows a DC repair
// of them changes.
std::vector<RowId> Endpoints(const std::vector<ViolationPair>& violations) {
  std::vector<RowId> rows;
  rows.reserve(2 * violations.size());
  for (const ViolationPair& v : violations) {
    rows.push_back(v.t1);
    rows.push_back(v.t2);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

}  // namespace

CleanSelect::CleanSelect(Table* table, const DenialConstraint* dc,
                         ProvenanceStore* provenance, const FdDeltaDetector* fd,
                         ThetaJoinDetector* theta)
    : table_(table),
      dc_(dc),
      provenance_(provenance),
      fd_(fd),
      theta_(theta) {
  if (theta_ != nullptr) return;  // a general DC's coverage is its detector's
  checked_.assign(table_->num_rows(), false);
  for (RowId r = 0; r < checked_.size(); ++r) {
    if (!table_->is_live(r)) {
      checked_[r] = true;
      ++checked_count_;
    }
  }
}

void CleanSelect::MarkChecked(const std::vector<RowId>& rows) {
  for (RowId r : rows) {
    if (!checked_[r]) {
      checked_[r] = true;
      ++checked_count_;
    }
  }
}

void CleanSelect::SyncRowCount() {
  if (theta_ != nullptr) {
    theta_->Refresh();
  } else if (checked_.size() < table_->num_rows()) {
    checked_.resize(table_->num_rows(), false);
  }
}

CleanSelectPersistState CleanSelect::ExportPersistState() {
  SyncRowCount();
  const Coverage c = coverage();
  CleanSelectPersistState state;
  state.checked.assign(c.bits.begin(), c.bits.end());
  state.pending_rows = pending_rows_;
  state.pending_deltas = pending_deltas_;
  return state;
}

Status CleanSelect::ImportPersistState(const CleanSelectPersistState& state) {
  if (state.checked.size() != table_->num_rows()) {
    return Status::InvalidArgument(
        "cleanσ state for " + dc_->name() + " covers " +
        std::to_string(state.checked.size()) + " rows, table " +
        table_->name() + " has " + std::to_string(table_->num_rows()));
  }
  if (theta_ != nullptr) {
    // The bitmap was written from the detector's bits, imported already.
    const std::vector<bool>& bits = theta_->checked_rows();
    if (!std::equal(state.checked.begin(), state.checked.end(), bits.begin(),
                    bits.end(),
                    [](uint8_t byte, bool bit) { return (byte != 0) == bit; })) {
      return Status::InvalidArgument("cleanσ state for " + dc_->name() +
                                     " disagrees with its detector's "
                                     "coverage");
    }
  } else {
    checked_.assign(state.checked.begin(), state.checked.end());
    checked_count_ = static_cast<size_t>(
        std::count(checked_.begin(), checked_.end(), true));
  }
  pending_rows_ = state.pending_rows;
  pending_deltas_ = state.pending_deltas;
  return Status::OK();
}

void CleanSelect::ApplyDelta(const TableDelta& delta,
                             const std::vector<RowId>& stale_rows) {
  for (RowId r : delta.deleted) {
    // A pending arrival deleted before any query settled it is nothing.
    auto pending = std::find(pending_rows_.begin(), pending_rows_.end(), r);
    if (pending != pending_rows_.end()) pending_rows_.erase(pending);
  }
  for (RowId r : delta.appended) {
    if (table_->is_live(r)) pending_rows_.push_back(r);
  }
  if (theta_ != nullptr) {
    // The detector syncs appends and deletes on its next entry.
    if (!delta.empty()) pending_deltas_.push_back(delta);
    return;
  }
  SyncRowCount();
  MarkChecked(delta.deleted);  // a tombstone needs no cleaning
  for (RowId r : stale_rows) {
    // Earlier fixes of these rows may be incomplete against the new data
    // (e.g. an appended conflict for an already-repaired tuple): uncover
    // them so the next touching query re-runs relax -> detect -> repair.
    if (r < checked_.size() && checked_[r] && table_->is_live(r)) {
      checked_[r] = false;
      --checked_count_;
    }
  }
}

Status CleanSelect::DrainPendingDeltas(CleanSelectResult* out,
                                       std::vector<ViolationPair>* drained) {
  // Nothing pending: return without touching any member — concurrent
  // quiescent readers run this from the engine's shared path, so even a
  // clear() of an already-empty vector would be a racy write.
  if (pending_deltas_.empty() && pending_rows_.empty()) return Status::OK();
  for (const TableDelta& delta : pending_deltas_) {
    std::vector<ViolationPair> violations = theta_->DetectDelta(delta);
    out->detect_ops += theta_->pairs_checked();
    DAISY_ASSIGN_OR_RETURN(
        RepairStats stats,
        RepairDcViolations(table_, *dc_, violations, provenance_));
    out->errors_fixed += stats.tuples_repaired;
    drained->insert(drained->end(), violations.begin(), violations.end());
  }
  pending_deltas_.clear();
  out->delta_rows_checked += pending_rows_.size();
  pending_rows_.clear();
  return Status::OK();
}

void CleanSelect::JoinConflictExtras(
    const CompiledFilter* filter, const std::vector<ViolationPair>& violations,
    CleanSelectResult* out) {
  if (violations.empty()) return;
  const std::vector<RowId> endpoints = Endpoints(violations);
  std::vector<RowId>& rows = out->final_rows;
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  std::vector<RowId> outside;
  std::set_difference(endpoints.begin(), endpoints.end(), rows.begin(),
                      rows.end(), std::back_inserter(outside));
  out->extra_tuples += outside.size();
  // Every endpoint is re-filtered, the ones inside the result too: a
  // repair can tighten a range candidate the result row qualified by.
  rows = RefilterChanged(*table_, filter, rows, endpoints);
}

double CleanSelect::checked_fraction() const {
  const Coverage c = coverage();
  return c.bits.empty() ? 1.0
                        : static_cast<double>(c.count) /
                              static_cast<double>(c.bits.size());
}

Result<CleanSelectResult> CleanSelect::Run(
    const CompiledFilter* filter, const std::vector<RowId>& dirty_result,
    const CleaningOptions& options) {
  SyncRowCount();
  if (dc_->IsFd()) return RunFd(filter, dirty_result);
  return RunDc(filter, dirty_result, options);
}

Result<CleanSelectResult> CleanSelect::RunFd(
    const CompiledFilter* filter, const std::vector<RowId>& dirty_result) {
  if (fd_ == nullptr) {
    return Status::Internal("CleanSelect for an FD needs its FdDeltaDetector");
  }
  CleanSelectResult out;
  out.final_rows = dirty_result;
  // The group statistics were delta-maintained at ingest; this query is the
  // first to consult them, which settles the pending delta accounting.
  // (Guarded clear: quiescent readers must not write the empty vector.)
  out.delta_rows_checked = pending_rows_.size();
  if (!pending_rows_.empty()) pending_rows_.clear();

  // Fast path 1: the whole result was already checked by this rule — its
  // cells are final (Lemma 1) and the probabilistic filter semantics of the
  // enclosing query already admit candidate qualifiers.
  bool all_checked = true;
  for (RowId r : dirty_result) {
    if (!checked_[r]) {
      all_checked = false;
      break;
    }
  }
  if (all_checked && !dirty_result.empty()) {
    out.pruned = true;
    return out;
  }

  // Fast path 2: statistics pruning — the result touches no dirty group.
  if (!fd_->RowsTouchDirty(dirty_result)) {
    out.pruned = true;
    MarkChecked(dirty_result);
    return out;
  }

  // (a) relax: correlated tuples via Algorithm 1, expanded only from the
  // unchecked rows of violating groups.
  RelaxResult relaxed = fd_->Relax(dirty_result, &checked_);
  out.extra_tuples = relaxed.extra.size();
  out.relax_iterations = relaxed.iterations;
  out.tuples_scanned = relaxed.tuples_scanned;

  // (b) detect + fix within the relaxed scope. Its checked rows already
  // hold their fixes (see CleanRemaining), so only the rest are repaired.
  std::vector<RowId> scope = dirty_result;
  scope.insert(scope.end(), relaxed.extra.begin(), relaxed.extra.end());
  std::vector<RowId> unchecked;
  for (RowId r : scope) {
    if (!checked_[r]) unchecked.push_back(r);
  }
  out.errors_fixed =
      RepairFdViolations(table_, *fd_, unchecked, provenance_).tuples_repaired;
  out.detect_ops = scope.size();

  // (c) the in-place update already happened through the provenance store;
  // recompute the qualifying set: extras whose candidates may satisfy the
  // filter now belong to the corrected result (Example 3).
  const std::vector<RowId> qualifying_extras =
      filter == nullptr ? std::move(relaxed.extra)
                        : filter->Filter(std::move(relaxed.extra));
  out.final_rows.insert(out.final_rows.end(), qualifying_extras.begin(),
                        qualifying_extras.end());
  std::sort(out.final_rows.begin(), out.final_rows.end());
  out.final_rows.erase(
      std::unique(out.final_rows.begin(), out.final_rows.end()),
      out.final_rows.end());

  MarkChecked(scope);
  return out;
}

Result<CleanSelectResult> CleanSelect::RunDc(
    const CompiledFilter* filter, const std::vector<RowId>& dirty_result,
    const CleaningOptions& options) {
  if (theta_ == nullptr) {
    return Status::Internal("CleanSelect for a general DC needs a detector");
  }
  CleanSelectResult out;
  out.final_rows = dirty_result;

  // Pay for the ingested rows first: new x old + new x new pairs, at
  // O(delta) instead of the full matrix. The drained violations feed the
  // same extra-tuples join as query-detected ones — a conflicting arrival
  // whose repair now satisfies the filter belongs to THIS query's result,
  // not the next one's.
  std::vector<ViolationPair> violations;
  DAISY_RETURN_IF_ERROR(DrainPendingDeltas(&out, &violations));

  if (theta_->FullyChecked()) {
    // "Pruned" means this invocation skipped cleaning entirely — a drain
    // that settled ingested rows did real detection/repair work.
    out.pruned = out.delta_rows_checked == 0;
    JoinConflictExtras(filter, violations, &out);
    return out;
  }

  out.estimated_accuracy = theta_->EstimateAccuracy(dirty_result);
  std::vector<ViolationPair> detected;
  if (out.estimated_accuracy < options.accuracy_threshold) {
    // Algorithm 2: predicted accuracy below threshold — clean everything.
    detected = theta_->DetectAll();
    out.used_full_clean = true;
  } else {
    std::vector<RowId> sorted_result = dirty_result;
    std::sort(sorted_result.begin(), sorted_result.end());
    detected = theta_->DetectIncremental(sorted_result);
  }
  out.detect_ops += theta_->pairs_checked();

  DAISY_ASSIGN_OR_RETURN(
      RepairStats stats,
      RepairDcViolations(table_, *dc_, detected, provenance_));
  out.errors_fixed += stats.tuples_repaired;

  violations.insert(violations.end(), detected.begin(), detected.end());
  JoinConflictExtras(filter, violations, &out);
  return out;
}

Result<CleanSelectResult> CleanSelect::CleanRemaining() {
  SyncRowCount();
  CleanSelectResult out;
  if (dc_->IsFd()) {
    if (fd_ == nullptr) {
      return Status::Internal(
          "CleanSelect for an FD needs its FdDeltaDetector");
    }
    out.delta_rows_checked = pending_rows_.size();
    pending_rows_.clear();
    // Repair every tuple of a violating group not repaired yet: by the
    // checked => recorded invariant those are among the unchecked rows.
    std::vector<RowId> unchecked;
    for (RowId r = 0; r < checked_.size(); ++r) {
      if (!checked_[r] && table_->is_live(r)) unchecked.push_back(r);
    }
    out.errors_fixed = RepairFdViolations(table_, *fd_, unchecked, provenance_)
                           .tuples_repaired;
    out.detect_ops = table_->num_live_rows();
    MarkChecked(unchecked);
    out.swept_rows = std::move(unchecked);
    return out;
  }
  // Delta batches first: DetectAll skips checked-row pairs, so the new x
  // old cross pairs must be paid through DetectDelta before full coverage
  // is declared. No result set here: the caller re-filters the swept rows
  // instead of an extra-tuples join.
  std::vector<ViolationPair> drained;
  DAISY_RETURN_IF_ERROR(DrainPendingDeltas(&out, &drained));
  std::vector<ViolationPair> violations = theta_->DetectAll();
  out.detect_ops += theta_->pairs_checked();
  DAISY_ASSIGN_OR_RETURN(
      RepairStats stats,
      RepairDcViolations(table_, *dc_, violations, provenance_));
  out.errors_fixed += stats.tuples_repaired;
  out.used_full_clean = true;
  violations.insert(violations.end(), drained.begin(), drained.end());
  out.swept_rows = Endpoints(violations);
  return out;
}

}  // namespace daisy
