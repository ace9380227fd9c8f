// General DC violation detection via a partitioned cartesian-product matrix
// (Okcan & Riedewald-style theta-join [25]), with the paper's two pruning
// levels and incremental ("partial theta-join") checking:
//
//  * the sorted domain of the primary inequality attribute is split into
//    p partitions; a matrix cell (i, j) is the cross product of partitions
//    i and j;
//  * cells whose boundary ranges cannot satisfy the atoms in either tuple
//    orientation are pruned (partition pruning), counting only the atoms
//    whose comparison the ranges may bound (see below);
//  * the symmetric lower triangle is never checked;
//  * rows already cross-checked are skipped, so query i only pays for
//    (result_i x unseen) comparisons (Section 5.2.2);
//  * partition-boundary overlaps give the violation estimates of
//    Algorithm 2 (Estimate_Errors), driving the accuracy-based decision to
//    fall back to full cleaning.
//
// Two pair loops do all the checking. One integration kernel checks a set
// of unchecked rows against the rows below them and against each other,
// over the upper-triangle cells that hold such a row; it serves both the
// full clean (DetectAll: integrate every unchecked row) and ingest
// (DetectDelta: integrate the appended rows). DetectIncremental is the
// query-scoped scan: the answer's unchecked rows against every unchecked
// row, pruned by the answer's bounding box.
//
// Execution is columnar: partitions, pruning statistics, and pair checks
// all read the table's ColumnCache flat arrays instead of dispatching on
// Value variants per cell. Each DC atom is compiled once per partition
// build into a CompiledCompare (constraints/compiled_compare.h), the same
// comparison the plan layer's WHERE leaves use. Its Eval is exact against
// EvalCompare on nulls, NaN, strings and int64 beyond 2^53 (falling back
// to the cells where the flat arrays are not), and its compile step also
// decides which atoms the partitions' coordinate ranges may bound, for
// both partition pruning and Estimate_Errors: == always, an order op on
// numeric NaN-free columns (strict ops loosened beside wide ints), any
// other atom never.
//
// The cache's content generations are checked on every public entry: a
// repair that edits an original value invalidates the affected column
// projection, rebuilds the partitions, and resets the checked-row coverage
// (the old coverage was computed on different data); candidate-only repairs
// keep both.
//
// Ingest deltas are cheaper than content changes: appended rows extend the
// coverage vector as unchecked and only the partitions are rebuilt (from
// the incrementally-maintained cache sorted index — no re-sort); deleted
// rows are dropped from the partitions, marked trivially checked, and
// pruned from the maintained violation set. Appended rows are integrated
// in arrival order — exactly new x preexisting + new x new pairs — either
// explicitly through DetectDelta(delta) (the engine's ingest path, which
// wants the found violations for repair) or automatically at the start of
// the next DetectAll/DetectIncremental (rows appended through the plain
// Table API must not silently lose new-vs-checked-row coverage). Either
// way each cross pair is checked exactly once and the maintained set stays
// identical to a from-scratch DetectAll.
//
// The coverage bits are the rule's only coverage record: cleanσ reads a
// general DC's checked rows from here (see clean/clean_operators.h).

#ifndef DAISY_DETECT_THETA_JOIN_H_
#define DAISY_DETECT_THETA_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "constraints/compiled_compare.h"
#include "constraints/denial_constraint.h"
#include "storage/column_cache.h"
#include "storage/table.h"

namespace daisy {

/// A violating pair in tuple orientation: `t1` binds the DC's t1, `t2` its
/// t2. For single-tuple constraints t1 == t2.
struct ViolationPair {
  RowId t1;
  RowId t2;
  bool operator==(const ViolationPair& other) const {
    return t1 == other.t1 && t2 == other.t2;
  }
  bool operator<(const ViolationPair& other) const {
    if (t1 != other.t1) return t1 < other.t1;
    return t2 < other.t2;
  }
};

namespace detail {

/// Conservative feasibility of `[lmin,lmax] op [rmin,rmax]`: can *some*
/// pair of values drawn from the two ranges satisfy the comparison?
/// Exposed for unit tests.
bool RangeFeasible(double lmin, double lmax, CompareOp op, double rmin,
                   double rmax);

}  // namespace detail

/// The persistable slice of a ThetaJoinDetector: the coverage and the
/// maintained violation set — the state whose loss would force a restarted
/// engine to pay a full O(n²) re-detection. Partitions, compiled atoms and
/// estimate caches are re-derived from the table on import.
struct ThetaPersistState {
  std::vector<uint8_t> checked;  ///< one byte per row, 1 = cross-checked
  uint64_t integrated_rows = 0;
  uint64_t deleted_log_pos = 0;
  uint64_t retractions = 0;
  std::vector<ViolationPair> maintained;
};

/// Stateful detector bound to one table + one (non-FD) denial constraint.
/// The state tracks which rows have been cross-checked so far, making
/// repeated calls incremental exactly as in the paper.
class ThetaJoinDetector {
 public:
  /// `partitions` is the paper's p (number of ranges the sorted domain is
  /// split into). The table and constraint must outlive the detector.
  ThetaJoinDetector(const Table* table, const DenialConstraint* dc,
                    size_t partitions = 16);

  /// Integrates every unchecked row: checks each pair with an unchecked
  /// endpoint (both tuple orientations) with partition pruning. Marks every
  /// row checked.
  std::vector<ViolationPair> DetectAll();

  /// Partial theta-join: checks `result_rows` (sorted ascending, distinct)
  /// against every row not yet mutually checked, then marks `result_rows`
  /// as checked. Violations entirely inside the unseen part are
  /// intentionally not detected.
  std::vector<ViolationPair> DetectIncremental(
      const std::vector<RowId>& result_rows);

  /// Delta detection: integrates every live appended row up to the end of
  /// this batch (earlier un-integrated arrivals first, in order), checking
  /// each against every preexisting row (checked or not) and against each
  /// other — exactly new x old + new x new pairs — then marks them
  /// checked, restoring the "checked means cross-checked against every
  /// row" invariant the appends broke. Returns the new violations (both
  /// orientations, like DetectAll) and folds them into
  /// maintained_violations(). Already-integrated or deleted batch rows
  /// are skipped, so re-feeding a delta is a no-op.
  std::vector<ViolationPair> DetectDelta(const TableDelta& delta);

  /// The violation set maintained across DetectAll / DetectIncremental /
  /// DetectDelta calls, sorted by (t1, t2): every violating pair whose
  /// endpoints are both covered (pairs touching deleted rows are pruned).
  /// After full coverage it equals a from-scratch DetectAll, bit for bit.
  const std::vector<ViolationPair>& maintained_violations();

  /// Size of the maintained set *without* syncing retractions first — a
  /// pure read for plan-time cardinality estimation (the estimator runs
  /// under the engine's shared lock, where a sync's mutation would race
  /// other readers). May overcount by pairs whose deletion has not been
  /// folded in yet; writers sync before unlocking, so the slack is
  /// bounded by the current writer section.
  size_t maintained_violation_count() const { return maintained_.size(); }

  /// Number of pairs deletions pruned from the maintained set since the
  /// last call (syncs first). The engine uses a non-zero result as the
  /// signal that repairs derived from the retracted evidence must be
  /// re-derived from the surviving maintained_violations().
  size_t ConsumeRetractions();

  /// Algorithm 2, Estimate_Errors: per-partition estimated violation counts
  /// derived from boundary-range overlaps. Index = partition id.
  const std::vector<double>& EstimateErrors();

  /// Estimated accuracy of a query answer: 1 - errors/(|qa| + errors) where
  /// `errors` sums the estimates of the partitions the answer overlaps
  /// (Algorithm 2 lines 4-6). Returns 1 for an empty answer.
  double EstimateAccuracy(const std::vector<RowId>& result_rows);

  /// Fraction of upper-triangle partition cells already fully checked
  /// (Algorithm 2 line 7).
  double Support() const;

  /// True once every live row is marked checked (syncs with pending table
  /// deltas first, so freshly appended rows count as unchecked).
  bool FullyChecked();

  /// Syncs the detector with the table/cache state (the EnsureFresh pass
  /// every public entry runs). The engine's writer sections call this
  /// before releasing the exclusive lock so shared-path readers find the
  /// detector fresh and never mutate it.
  void Refresh() { EnsureFresh(); }

  /// Non-mutating probe for the engine's shared read path: true when the
  /// detector is fresh (no column rebuild, append, or delete pending) AND
  /// every row is checked — i.e. any Detect*/FullyChecked call in the
  /// current state would be a pure read. Conservatively false whenever a
  /// writer pass would have work to do.
  bool QuiescentForReaders() const;

  /// Row id -> cross-checked, and the number of set bits. Pure reads: the
  /// vector covers the rows as of the last sync, so rows appended since
  /// are missing from it (callers compare its size with the table's).
  const std::vector<bool>& checked_rows() const { return checked_; }
  size_t checked_count() const { return checked_count_; }

  // Instrumentation (reset by each Detect* call).
  size_t pairs_checked() const { return pairs_checked_; }

  /// Turns partition pruning on or off: the ablation switch tests and
  /// benches use to compare pruned and unpruned detection. The engine
  /// always prunes.
  void set_pruning_enabled(bool enabled) { pruning_enabled_ = enabled; }

  /// Captures the coverage state for a snapshot (syncs with the table
  /// first, so pending deltas are folded in before the copy).
  ThetaPersistState ExportState();

  /// Restores a previously exported coverage state onto a detector freshly
  /// constructed over the snapshotted table. The partitions and compiled
  /// atoms are rebuilt from the live table; only the coverage, the
  /// integration watermarks, and the maintained violation set are
  /// installed. Fails if the state does not match the table's dimensions.
  Status ImportState(const ThetaPersistState& state);

 private:
  struct PartitionStats {
    size_t begin = 0;  ///< range [begin, end) into sorted_
    size_t end = 0;
    // Per involved-column slot: min/max of the numeric projection.
    std::vector<double> min_val;
    std::vector<double> max_val;
    // Per involved-column slot: the partition's projections, sorted —
    // Estimate_Errors range counts binary-search these (built lazily).
    std::vector<std::vector<double>> sorted_vals;
  };

  /// One DC atom: its comparison compiled on the column cache and the
  /// tuples and involved-column slots it binds (a constant binds the left
  /// tuple twice).
  struct BoundAtom {
    CompiledCompare cmp;
    int left_tuple = 0;
    int right_tuple = 0;
    size_t left_slot = 0;
    size_t right_slot = 0;
  };

  /// What EnsureFresh would do in the current table state: one const probe
  /// shared by the writer pass and the readers' QuiescentForReaders.
  struct Staleness {
    bool content_changed = false;  ///< involved values moved: reset
    bool storage_moved = false;    ///< arrays reallocated: re-point
    bool appended = false;
    bool deleted = false;
    bool any() const {
      return content_changed || storage_moved || appended || deleted;
    }
  };
  Staleness Probe() const;
  void EnsureFresh();
  /// Coverage reset shared by the constructor and the content-change path:
  /// everything unchecked except tombstones, delete log consumed, no rows
  /// owing an integration pass, maintained set empty.
  void ResetCoverage();
  /// Every checked_ write goes through here so checked_count_ stays exact
  /// (QuiescentForReaders answers full coverage in O(1) on the read path).
  void MarkRowChecked(RowId r) {
    if (!checked_[r]) {
      checked_[r] = true;
      ++checked_count_;
    }
  }
  void MergeIntoMaintained(std::vector<ViolationPair>::const_iterator first,
                           std::vector<ViolationPair>::const_iterator last);
  /// Integrates appended rows [integrated_rows_, end) and advances the
  /// watermark — the DetectDelta core, shared with the auto-drain
  /// DetectAll/DetectIncremental run first.
  std::vector<ViolationPair> DrainAppends(RowId end);
  /// The integration kernel: checks every unchecked live row of [lo, end)
  /// against every live row below `lo` and against each other, per cell in
  /// sorted order (new x new pairs once, x before y), then marks those rows
  /// checked and merges the found pairs, appended to `out`, into
  /// maintained_. Adds to pairs_checked_.
  void Integrate(RowId lo, RowId end, std::vector<ViolationPair>* out);
  void BuildPartitions();
  void BuildRangeIndex();
  bool PairFeasible(const PartitionStats& a, const PartitionStats& b) const;
  bool OrientationFeasible(const PartitionStats& t1_part,
                           const PartitionStats& t2_part) const;
  std::pair<bool, bool> CheckBoth(RowId a, RowId b) const;
  size_t CountRowsInRange(const PartitionStats& p, size_t slot, double lo,
                          double hi) const;

  const Table* table_;
  const DenialConstraint* dc_;
  size_t requested_partitions_;
  bool pruning_enabled_ = true;

  size_t sort_column_ = 0;             ///< primary inequality attribute
  size_t sort_slot_ = 0;               ///< its slot in involved_columns()
  std::vector<RowId> sorted_;          ///< live rows, sorted by sort_column_
  std::vector<PartitionStats> boundaries_;
  std::vector<bool> checked_;          ///< row id -> cross-checked?
  size_t checked_count_ = 0;           ///< number of true bits in checked_
  /// Violations among covered rows, sorted by (t1, t2); see
  /// maintained_violations().
  std::vector<ViolationPair> maintained_;
  /// Pairs deletions pruned from maintained_ since ConsumeRetractions.
  size_t retractions_ = 0;
  /// Prefix of the table's deleted-rows log already folded into the state.
  size_t deleted_log_pos_ = 0;
  /// Rows below this id are integrated: cross-checked against the checked
  /// set (or known-unchecked). Rows at or above arrived later and still
  /// owe their new x old pass.
  RowId integrated_rows_ = 0;

  // Flat-array state, rebuilt whenever an involved column's storage or
  // content moves (see EnsureFresh). cols_ is indexed by involved-column
  // slot; col_data_ snapshots the array addresses the compiled atoms
  // point into.
  uint64_t cache_id_ = 0;
  std::vector<const ColumnCache::Column*> cols_;
  std::vector<uint64_t> col_generations_;
  std::vector<const double*> col_data_;
  std::vector<BoundAtom> atoms_;
  bool range_index_built_ = false;

  std::vector<double> range_vio_;      ///< Estimate_Errors cache
  bool range_vio_valid_ = false;

  size_t pairs_checked_ = 0;
};

}  // namespace daisy

#endif  // DAISY_DETECT_THETA_JOIN_H_
