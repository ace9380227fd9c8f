#include "detect/theta_join.h"

#include <algorithm>
#include <limits>

namespace daisy {

namespace detail {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool RangeFeasible(double lmin, double lmax, CompareOp op, double rmin,
                   double rmax) {
  switch (op) {
    case CompareOp::kLt:
      return lmin < rmax;
    case CompareOp::kLeq:
      return lmin <= rmax;
    case CompareOp::kGt:
      return lmax > rmin;
    case CompareOp::kGeq:
      return lmax >= rmin;
    case CompareOp::kEq:
      return lmin <= rmax && rmin <= lmax;
    case CompareOp::kNeq:
      // Infeasible only when both ranges are the same single point: every
      // draw is then equal. Any wider range on either side offers a
      // distinct value.
      return lmin != lmax || rmin != rmax || lmin != rmin;
  }
  return true;
}

}  // namespace detail

using detail::kInf;
using detail::RangeFeasible;

ThetaJoinDetector::ThetaJoinDetector(const Table* table,
                                     const DenialConstraint* dc,
                                     size_t partitions)
    : table_(table),
      dc_(dc),
      requested_partitions_(std::max<size_t>(1, partitions)) {
  // Primary partition attribute: the first cross-tuple order-comparison atom;
  // falls back to the first atom's left column.
  sort_column_ = dc_->atoms().empty() ? 0 : dc_->atoms()[0].left_column;
  for (const PredicateAtom& a : dc_->atoms()) {
    if (!a.right_is_constant && a.left_tuple != a.right_tuple &&
        (a.op == CompareOp::kLt || a.op == CompareOp::kLeq ||
         a.op == CompareOp::kGt || a.op == CompareOp::kGeq)) {
      sort_column_ = a.left_column;
      break;
    }
  }
  BuildPartitions();
  ResetCoverage();
}

void ThetaJoinDetector::ResetCoverage() {
  checked_.assign(table_->num_rows(), false);
  checked_count_ = 0;
  for (RowId r = 0; r < checked_.size(); ++r) {
    if (!table_->is_live(r)) MarkRowChecked(r);
  }
  deleted_log_pos_ = table_->deleted_rows_log().size();
  // Nothing is checked, so a plain DetectAll covers every pair — no
  // appended rows owe a separate integration pass.
  integrated_rows_ = table_->num_rows();
  maintained_.clear();
  retractions_ = 0;
}

ThetaJoinDetector::Staleness ThetaJoinDetector::Probe() const {
  ColumnCache& cache = table_->columns();
  const std::vector<size_t>& cols = dc_->involved_columns();
  Staleness stale;
  // Content change: the values an involved column exposes differ from the
  // ones the current partitions/coverage were computed on. A new cache
  // identity (the table was reassigned wholesale) counts — generations of
  // different cache instances are not comparable.
  stale.content_changed =
      cols_.size() != cols.size() || cache.id() != cache_id_;
  // Storage move: a rebuild reallocated the arrays the compiled atoms
  // point into, even if it reproduced identical content (the usual
  // candidate-only repair path). Pointers must be refreshed either way.
  stale.storage_moved = stale.content_changed;
  if (!stale.content_changed) {
    for (size_t i = 0; i < cols.size(); ++i) {
      const ColumnCache::Column& col = cache.column(cols[i]);
      if (col.generation != col_generations_[i]) stale.content_changed = true;
      if (col.num.data() != col_data_[i]) stale.storage_moved = true;
    }
  }
  stale.appended = checked_.size() < table_->num_rows();
  stale.deleted = deleted_log_pos_ < table_->deleted_rows_log().size();
  return stale;
}

void ThetaJoinDetector::EnsureFresh() {
  const Staleness stale = Probe();
  if (stale.content_changed) {
    // Rows checked against the old values are not checked against the
    // new; estimates and the maintained set are stale too.
    BuildPartitions();
    range_vio_valid_ = false;
    ResetCoverage();
    return;
  }
  // Ingest deltas keep the coverage: appended rows join as unchecked,
  // deleted rows become trivially checked and their pairs are pruned.
  if (stale.appended) checked_.resize(table_->num_rows(), false);
  if (stale.deleted) {
    const std::vector<RowId>& dlog = table_->deleted_rows_log();
    for (size_t i = deleted_log_pos_; i < dlog.size(); ++i) {
      if (dlog[i] < checked_.size()) MarkRowChecked(dlog[i]);
    }
    deleted_log_pos_ = dlog.size();
    auto dead = [&](const ViolationPair& p) {
      return !table_->is_live(p.t1) || !table_->is_live(p.t2);
    };
    const size_t before = maintained_.size();
    maintained_.erase(
        std::remove_if(maintained_.begin(), maintained_.end(), dead),
        maintained_.end());
    retractions_ += before - maintained_.size();
  }
  if (stale.appended || stale.deleted) {
    BuildPartitions();
    range_vio_valid_ = false;
  } else if (stale.storage_moved) {
    BuildPartitions();
  }
}

void ThetaJoinDetector::MergeIntoMaintained(
    std::vector<ViolationPair>::const_iterator first,
    std::vector<ViolationPair>::const_iterator last) {
  // maintained_ is kept sorted, so only the new pairs need sorting before
  // an in-place merge. Each pair is found once (the pass that finds it
  // marks an endpoint checked), so the merge needs no unique pass.
  const size_t old_size = maintained_.size();
  maintained_.insert(maintained_.end(), first, last);
  std::sort(maintained_.begin() + old_size, maintained_.end());
  std::inplace_merge(maintained_.begin(), maintained_.begin() + old_size,
                     maintained_.end());
}

const std::vector<ViolationPair>& ThetaJoinDetector::maintained_violations() {
  EnsureFresh();
  return maintained_;
}

size_t ThetaJoinDetector::ConsumeRetractions() {
  EnsureFresh();
  const size_t count = retractions_;
  retractions_ = 0;
  return count;
}

ThetaPersistState ThetaJoinDetector::ExportState() {
  EnsureFresh();
  ThetaPersistState state;
  state.checked.reserve(checked_.size());
  for (bool b : checked_) state.checked.push_back(b ? 1 : 0);
  state.integrated_rows = integrated_rows_;
  state.deleted_log_pos = deleted_log_pos_;
  state.retractions = retractions_;
  state.maintained = maintained_;
  return state;
}

Status ThetaJoinDetector::ImportState(const ThetaPersistState& state) {
  // Partitions / compiled atoms first: after this the detector is fresh
  // against the restored table, with a blank coverage we overwrite below.
  EnsureFresh();
  if (state.checked.size() != table_->num_rows()) {
    return Status::InvalidArgument(
        "theta state for " + dc_->name() + " covers " +
        std::to_string(state.checked.size()) + " rows, table " +
        table_->name() + " has " + std::to_string(table_->num_rows()));
  }
  if (state.integrated_rows > table_->num_rows() ||
      state.deleted_log_pos != table_->deleted_rows_log().size()) {
    return Status::InvalidArgument("theta state for " + dc_->name() +
                                   " does not match the table's ingest log");
  }
  for (const ViolationPair& p : state.maintained) {
    if (p.t1 >= table_->num_rows() || p.t2 >= table_->num_rows()) {
      return Status::InvalidArgument("theta state for " + dc_->name() +
                                     " names an out-of-range violation row");
    }
  }
  checked_.assign(state.checked.size(), false);
  checked_count_ = 0;
  for (RowId r = 0; r < state.checked.size(); ++r) {
    if (state.checked[r] != 0) MarkRowChecked(r);
  }
  integrated_rows_ = state.integrated_rows;
  deleted_log_pos_ = state.deleted_log_pos;
  retractions_ = state.retractions;
  maintained_ = state.maintained;
  range_vio_valid_ = false;
  return Status::OK();
}

void ThetaJoinDetector::BuildPartitions() {
  ColumnCache& cache = table_->columns();
  const std::vector<size_t>& cols = dc_->involved_columns();
  cache_id_ = cache.id();
  cols_.clear();
  col_generations_.clear();
  col_data_.clear();
  for (size_t c : cols) {
    const ColumnCache::Column& col = cache.column(c);
    cols_.push_back(&col);
    col_generations_.push_back(col.generation);
    col_data_.push_back(col.num.data());
  }
  auto slot = [&](size_t col) {
    return static_cast<size_t>(
        std::lower_bound(cols.begin(), cols.end(), col) - cols.begin());
  };
  sort_slot_ = slot(sort_column_);

  // The cache's sorted index uses exactly this detector's historical order:
  // numeric projection ascending, row id as tiebreak. Tombstoned rows are
  // filtered out here so no scan ever visits them.
  const std::vector<RowId>& all_sorted = cache.column(sort_column_).sorted_rows;
  sorted_.clear();
  sorted_.reserve(table_->num_live_rows());
  for (RowId r : all_sorted) {
    if (table_->is_live(r)) sorted_.push_back(r);
  }

  const size_t n = sorted_.size();
  const size_t p = std::min(requested_partitions_, std::max<size_t>(1, n));
  boundaries_.clear();
  boundaries_.reserve(p);
  for (size_t i = 0; i < p; ++i) {
    PartitionStats part;
    part.begin = i * n / p;
    part.end = (i + 1) * n / p;
    part.min_val.assign(cols.size(), kInf);
    part.max_val.assign(cols.size(), -kInf);
    for (size_t s = part.begin; s < part.end; ++s) {
      const RowId r = sorted_[s];
      for (size_t c = 0; c < cols.size(); ++c) {
        const double v = cols_[c]->num[r];
        part.min_val[c] = std::min(part.min_val[c], v);
        part.max_val[c] = std::max(part.max_val[c], v);
      }
    }
    boundaries_.push_back(std::move(part));
  }
  range_index_built_ = false;

  atoms_.clear();
  atoms_.reserve(dc_->atoms().size());
  for (const PredicateAtom& a : dc_->atoms()) {
    BoundAtom atom;
    atom.left_tuple = a.left_tuple;
    atom.left_slot = slot(a.left_column);
    if (a.right_is_constant) {
      atom.cmp = CompiledCompare::Constant(*table_, a.left_column, a.op,
                                           a.constant);
      atom.right_tuple = a.left_tuple;
    } else {
      atom.cmp = CompiledCompare::Columns(*table_, a.left_column, a.op,
                                          a.right_column);
      atom.right_tuple = a.right_tuple;
      atom.right_slot = slot(a.right_column);
    }
    atoms_.push_back(std::move(atom));
  }
}

// Fused unordered-pair evaluation: both tuple orientations in a single
// pass over the compiled atoms, sharing the per-row operand loads. Callers
// guarantee a != b (the scan loops never produce the diagonal): a row is
// never paired with itself, so that case is not re-checked here.
std::pair<bool, bool> ThetaJoinDetector::CheckBoth(RowId a, RowId b) const {
  const RowId fwd_rows[2] = {a, b};  // branch-free tuple binding
  const RowId rev_rows[2] = {b, a};
  bool fwd = true;
  for (const BoundAtom& atom : atoms_) {
    if (!atom.cmp.Eval(fwd_rows[atom.left_tuple],
                       fwd_rows[atom.right_tuple])) {
      fwd = false;
      break;
    }
  }
  bool rev = true;
  for (const BoundAtom& atom : atoms_) {
    if (!atom.cmp.Eval(rev_rows[atom.left_tuple],
                       rev_rows[atom.right_tuple])) {
      rev = false;
      break;
    }
  }
  return {fwd, rev};
}

// Only atoms whose comparison the coordinates may bound take part (see
// CompiledCompare::coord_use); the rest restrict nothing.
bool ThetaJoinDetector::OrientationFeasible(
    const PartitionStats& t1_part, const PartitionStats& t2_part) const {
  for (const BoundAtom& a : atoms_) {
    if (a.cmp.coord_use() == CompiledCompare::CoordUse::kNone) continue;
    const PartitionStats& lp = a.left_tuple == 0 ? t1_part : t2_part;
    double rmin, rmax;
    if (a.cmp.right_is_column()) {
      const PartitionStats& rp = a.right_tuple == 0 ? t1_part : t2_part;
      rmin = rp.min_val[a.right_slot];
      rmax = rp.max_val[a.right_slot];
    } else {
      rmin = rmax = a.cmp.constant_coord();
    }
    if (!RangeFeasible(lp.min_val[a.left_slot], lp.max_val[a.left_slot],
                       a.cmp.coord_op(), rmin, rmax)) {
      return false;
    }
  }
  return true;
}

bool ThetaJoinDetector::PairFeasible(const PartitionStats& a,
                                     const PartitionStats& b) const {
  return OrientationFeasible(a, b) || OrientationFeasible(b, a);
}

std::vector<ViolationPair> ThetaJoinDetector::DetectAll() {
  EnsureFresh();
  pairs_checked_ = 0;
  // Stray appends first (rows added through the plain Table API with no
  // DetectDelta call) owe their pairs with the rows below them, checked
  // ones included; then every row still unchecked meets every other one.
  std::vector<ViolationPair> out = DrainAppends(checked_.size());
  Integrate(0, checked_.size(), &out);
  return out;
}

std::vector<ViolationPair> ThetaJoinDetector::DetectIncremental(
    const std::vector<RowId>& result_rows) {
  EnsureFresh();
  pairs_checked_ = 0;
  // Stray appends integrate first (see DetectAll): after this, result rows
  // from the new range are checked and take the fast skip below.
  std::vector<ViolationPair> out = DrainAppends(checked_.size());
  if (result_rows.empty()) return out;
  const size_t first_found = out.size();

  // Boundary statistics of the query answer, playing the role of one side of
  // the partial matrix.
  const size_t num_slots = cols_.size();
  PartitionStats answer;
  answer.min_val.assign(num_slots, kInf);
  answer.max_val.assign(num_slots, -kInf);
  for (RowId r : result_rows) {
    for (size_t c = 0; c < num_slots; ++c) {
      const double v = cols_[c]->num[r];
      answer.min_val[c] = std::min(answer.min_val[c], v);
      answer.max_val[c] = std::max(answer.max_val[c], v);
    }
  }

  // Hot-loop invariants: result rows already checked never produce new
  // pairs, so drop them once instead of testing checked_[r] per pair.
  std::vector<RowId> active;
  active.reserve(result_rows.size());
  for (RowId r : result_rows) {
    if (!checked_[r]) active.push_back(r);
  }

  for (const PartitionStats& part : boundaries_) {
    if (pruning_enabled_ && !PairFeasible(answer, part)) continue;
    for (size_t s = part.begin; s < part.end; ++s) {
      const RowId u = sorted_[s];
      if (checked_[u]) continue;
      // When both endpoints are in the (sorted) result set the unordered
      // pair {u, r} comes up twice — once per endpoint playing `u`. Keep
      // only the visit where the larger id plays `u`, i.e. pair `u` only
      // with the result prefix below it (`active` is sorted ascending).
      auto last = active.end();
      if (std::binary_search(result_rows.begin(), result_rows.end(), u)) {
        last = std::lower_bound(active.begin(), active.end(), u);
      }
      pairs_checked_ += static_cast<size_t>(last - active.begin());
      for (auto it = active.begin(); it != last; ++it) {
        const RowId r = *it;
        const auto [fwd, rev] = CheckBoth(r, u);
        if (fwd) out.push_back({r, u});
        if (rev) out.push_back({u, r});
      }
    }
  }
  for (RowId r : result_rows) MarkRowChecked(r);
  MergeIntoMaintained(out.begin() + first_found, out.end());
  return out;
}

std::vector<ViolationPair> ThetaJoinDetector::DetectDelta(
    const TableDelta& delta) {
  EnsureFresh();
  pairs_checked_ = 0;
  const RowId end = delta.appended.empty() ? integrated_rows_
                                           : delta.appended.back() + 1;
  return DrainAppends(end);
}

std::vector<ViolationPair> ThetaJoinDetector::DrainAppends(RowId end) {
  std::vector<ViolationPair> out;
  end = std::min<RowId>(end, checked_.size());
  if (integrated_rows_ >= end) return out;
  // Rows at or above `end` arrived later and owe their own pass (this
  // keeps multi-batch drains exactly-once when called per delta, in order).
  const RowId lo = integrated_rows_;
  integrated_rows_ = end;
  Integrate(lo, end, &out);
  return out;
}

void ThetaJoinDetector::Integrate(RowId lo, RowId end,
                                  std::vector<ViolationPair>* out) {
  // The rows to integrate already sit in the partitions (sorted_ holds
  // live rows only), so the scan uses pairwise partition pruning (a
  // whole-batch bounds box would span the domain and prune nothing): only
  // cells where one side holds such rows and the boundary ranges stay
  // feasible are visited, giving the O(delta x n/p) partial theta-join.
  const size_t p = boundaries_.size();
  std::vector<std::vector<RowId>> new_in(p);
  for (size_t i = 0; i < p; ++i) {
    for (size_t s = boundaries_[i].begin; s < boundaries_[i].end; ++s) {
      const RowId u = sorted_[s];
      if (u >= lo && u < end && !checked_[u]) new_in[i].push_back(u);
    }
  }

  const size_t first_found = out->size();
  auto check = [&](RowId a, RowId b) {
    ++pairs_checked_;
    const auto [fwd, rev] = CheckBoth(a, b);
    if (fwd) out->push_back({a, b});
    if (rev) out->push_back({b, a});
  };
  // new x preexisting: every row of `part` below lo, checked or not — this
  // is what restores the coverage invariant an append broke. Rows at or
  // above lo outside this pass are checked already or arrive later.
  auto against_old = [&](RowId a, const PartitionStats& part) {
    if (lo == 0) return;
    for (size_t s = part.begin; s < part.end; ++s) {
      if (sorted_[s] < lo) check(a, sorted_[s]);
    }
  };

  for (size_t i = 0; i < p; ++i) {
    for (size_t j = i; j < p; ++j) {
      if (new_in[i].empty() && new_in[j].empty()) continue;
      if (pruning_enabled_ && !PairFeasible(boundaries_[i], boundaries_[j])) {
        continue;
      }
      for (RowId a : new_in[i]) against_old(a, boundaries_[j]);
      if (j == i) {
        // new x new inside the partition: each unordered pair once.
        for (size_t x = 0; x < new_in[i].size(); ++x) {
          for (size_t y = x + 1; y < new_in[i].size(); ++y) {
            check(new_in[i][x], new_in[i][y]);
          }
        }
      } else {
        for (RowId b : new_in[j]) against_old(b, boundaries_[i]);
        for (RowId a : new_in[i]) {
          for (RowId b : new_in[j]) check(a, b);
        }
      }
    }
  }
  for (const std::vector<RowId>& rows : new_in) {
    for (RowId r : rows) MarkRowChecked(r);
  }
  MergeIntoMaintained(out->begin() + first_found, out->end());
}

void ThetaJoinDetector::BuildRangeIndex() {
  for (PartitionStats& part : boundaries_) {
    part.sorted_vals.assign(cols_.size(), {});
    for (size_t c = 0; c < cols_.size(); ++c) {
      std::vector<double>& vals = part.sorted_vals[c];
      vals.reserve(part.end - part.begin);
      for (size_t s = part.begin; s < part.end; ++s) {
        vals.push_back(cols_[c]->num[sorted_[s]]);
      }
      std::sort(vals.begin(), vals.end(), ColumnCache::NumLess);
    }
  }
  range_index_built_ = true;
}

const std::vector<double>& ThetaJoinDetector::EstimateErrors() {
  EnsureFresh();
  if (range_vio_valid_) return range_vio_;
  if (!range_index_built_) BuildRangeIndex();
  const size_t p = boundaries_.size();
  range_vio_.assign(p, 0.0);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < p; ++j) {
      if (i == j) continue;  // diagonal handled through Support()
      // Oriented estimate: partition i binds t1, partition j binds t2 (the
      // loop visits both orders).
      if (!OrientationFeasible(boundaries_[i], boundaries_[j])) continue;
      const double rows_i = static_cast<double>(boundaries_[i].end -
                                                boundaries_[i].begin);
      const double rows_j = static_cast<double>(boundaries_[j].end -
                                                boundaries_[j].begin);
      // Conflicts lie in the overlap of the boundary ranges of each order
      // atom (the paper's range_vio); atoms whose ranges are disjoint in
      // the satisfying direction restrict nothing, so only overlapping
      // atoms bound the estimate.
      double estimate = std::min(rows_i, rows_j);
      for (const BoundAtom& a : atoms_) {
        if (a.cmp.coord_use() != CompiledCompare::CoordUse::kOrder ||
            !a.cmp.right_is_column() || a.left_tuple == a.right_tuple) {
          continue;
        }
        const PartitionStats& lp =
            a.left_tuple == 0 ? boundaries_[i] : boundaries_[j];
        const PartitionStats& rp =
            a.right_tuple == 0 ? boundaries_[i] : boundaries_[j];
        const size_t ls = a.left_slot;
        const size_t rs = a.right_slot;
        const double lo = std::max(lp.min_val[ls], rp.min_val[rs]);
        const double hi = std::min(lp.max_val[ls], rp.max_val[rs]);
        if (lo > hi) continue;  // non-restrictive: feasibility already held
        const double ci = static_cast<double>(
            CountRowsInRange(lp, ls, lo, hi));
        const double cj = static_cast<double>(
            CountRowsInRange(rp, rs, lo, hi));
        estimate = std::min(estimate, std::min(ci, cj));
      }
      range_vio_[i] += estimate;
    }
  }
  range_vio_valid_ = true;
  return range_vio_;
}

size_t ThetaJoinDetector::CountRowsInRange(const PartitionStats& part,
                                           size_t slot, double lo,
                                           double hi) const {
  const std::vector<double>& vals = part.sorted_vals[slot];
  auto first =
      std::lower_bound(vals.begin(), vals.end(), lo, ColumnCache::NumLess);
  auto last = std::upper_bound(first, vals.end(), hi, ColumnCache::NumLess);
  return static_cast<size_t>(last - first);
}

double ThetaJoinDetector::EstimateAccuracy(
    const std::vector<RowId>& result_rows) {
  if (result_rows.empty()) return 1.0;
  EstimateErrors();
  const double* sort_num = cols_[sort_slot_]->num.data();
  double lo = kInf, hi = -kInf;
  for (RowId r : result_rows) {
    const double v = sort_num[r];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  double errors = 0.0;
  for (size_t i = 0; i < boundaries_.size(); ++i) {
    const PartitionStats& part = boundaries_[i];
    if (part.begin == part.end) continue;
    const double pmin = sort_num[sorted_[part.begin]];
    const double pmax = sort_num[sorted_[part.end - 1]];
    if (pmax < lo || pmin > hi) continue;
    // Charge the answer only with the slice of the partition's estimated
    // conflicts that its range actually covers.
    double fraction = 1.0;
    if (pmax > pmin) {
      const double cover = std::min(hi, pmax) - std::max(lo, pmin);
      fraction = std::max(0.0, std::min(1.0, cover / (pmax - pmin)));
    }
    errors += range_vio_[i] * fraction;
  }
  // Note: Algorithm 2 line 6 computes errors/(|qa|+errors) and the paper
  // narrates the result as "accuracy". We return the complementary clean
  // fraction so that *higher is cleaner*; callers trigger full cleaning when
  // this drops below the threshold (matching the Fig. 10 narrative).
  const double dirtiness =
      errors / (static_cast<double>(result_rows.size()) + errors);
  return 1.0 - dirtiness;
}

double ThetaJoinDetector::Support() const {
  const size_t p = boundaries_.size();
  if (p == 0) return 1.0;
  // A partition is covered once all its rows were cross-checked.
  std::vector<bool> covered(p, true);
  for (size_t i = 0; i < p; ++i) {
    for (size_t s = boundaries_[i].begin; s < boundaries_[i].end; ++s) {
      if (!checked_[sorted_[s]]) {
        covered[i] = false;
        break;
      }
    }
  }
  size_t done = 0, total = 0;
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = i; j < p; ++j) {
      ++total;
      if (covered[i] && covered[j]) ++done;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(done) / static_cast<double>(total);
}

bool ThetaJoinDetector::FullyChecked() {
  EnsureFresh();
  return checked_count_ == checked_.size();
}

bool ThetaJoinDetector::QuiescentForReaders() const {
  // Any staleness EnsureFresh would act on means a writer pass is owed, so
  // the reader path must not be taken. column() is a pure read here as
  // long as writers left the cache fresh (the engine's RefreshDerivedState
  // guarantee).
  return !Probe().any() && checked_count_ == checked_.size();
}

}  // namespace daisy
