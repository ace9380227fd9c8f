// The cleaning operators woven into the query plan (Definitions 1-3).
//
// CleanSelect (cleanσ) takes a select operator's dirty result, relaxes it
// (Algorithm 1 for FDs; partial theta-join for general DCs), detects and
// repairs violations in the relaxed scope, updates the table in place, and
// returns the corrected qualifying row set — which may now include tuples
// whose candidate values qualify (Example 3).
//
// CleanJoin (clean⋈) cleans each join side's qualifying part with
// CleanSelect and relies on Lemma 5: the updated join over the cleaned
// parts needs no further violation checks.

#ifndef DAISY_CLEAN_CLEAN_OPERATORS_H_
#define DAISY_CLEAN_CLEAN_OPERATORS_H_

#include <vector>

#include "constraints/denial_constraint.h"
#include "detect/fd_delta.h"
#include "detect/theta_join.h"
#include "repair/provenance.h"
#include "storage/table.h"

namespace daisy {

class CompiledFilter;

/// Knobs shared by the cleaning operators.
struct CleaningOptions {
  /// Estimated-accuracy threshold below which a DC query falls back to full
  /// cleaning (Algorithm 2 / Fig. 10).
  double accuracy_threshold = 0.5;
};

/// Counters reported by one cleanσ invocation.
struct CleanSelectResult {
  std::vector<RowId> final_rows;   ///< corrected qualifying rows
  size_t extra_tuples = 0;         ///< |E(Q)|: relaxation extras
  size_t errors_fixed = 0;         ///< ε_i: tuples repaired
  size_t relax_iterations = 0;
  size_t detect_ops = 0;           ///< comparisons performed
  size_t tuples_scanned = 0;       ///< unseen tuples visited by relaxation
  /// Ingested rows this invocation accounted for: DC rules pay the
  /// DetectDelta pass here, FD rules consult the delta-maintained group
  /// statistics. Surfaced by EXPLAIN as "delta rows checked: N".
  size_t delta_rows_checked = 0;
  double estimated_accuracy = 1.0; ///< DC path only
  bool used_full_clean = false;    ///< DC accuracy fallback fired
  bool pruned = false;             ///< statistics pruning skipped cleaning
  /// CleanRemaining only: the rows its sweep handed to repair, the only
  /// rows whose cells it may have changed — for an FD the unchecked live
  /// rows, for a general DC the endpoints of the violations it repaired.
  /// Ascending and unique.
  std::vector<RowId> swept_rows;
};

/// The persistable slice of one CleanSelect: everything that accrues across
/// queries and cannot be re-derived from the table alone. Snapshotted by
/// the persistence layer; the rule's FdDeltaDetector is excluded (its
/// delta-maintained state is bit-identical to a fresh build).
struct CleanSelectPersistState {
  std::vector<uint8_t> checked;        ///< one byte per row, 1 = checked
  std::vector<RowId> pending_rows;     ///< ingested, not yet settled
  std::vector<TableDelta> pending_deltas;  ///< DC rules: queued batches
};

/// cleanσ bound to one table and one rule. The per-rule checked bookkeeping
/// persists across queries (Section 4.3: "Daisy maintains information about
/// the already checked tuples by each rule"). It is kept once: here for an
/// FD rule, in the rule's ThetaJoinDetector for a general DC, whose
/// coverage bits every accessor below reads.
class CleanSelect {
 public:
  /// FD rules pass the rule's FdDeltaDetector (relaxation and dirty-group
  /// pruning read it) and a null `theta`; general DCs pass a persistent
  /// ThetaJoinDetector and a null `fd`. `table`, `dc`, `provenance`, `fd`,
  /// `theta` must outlive the operator.
  CleanSelect(Table* table, const DenialConstraint* dc,
              ProvenanceStore* provenance, const FdDeltaDetector* fd,
              ThetaJoinDetector* theta);

  /// Runs relax -> detect -> repair -> update for a select result.
  /// `filter` is the query's compiled predicate on this table (null keeps
  /// every row); it is re-applied to relaxation extras to admit new
  /// probabilistic qualifiers.
  Result<CleanSelectResult> Run(const CompiledFilter* filter,
                                const std::vector<RowId>& dirty_result,
                                const CleaningOptions& options);

  /// Cleans everything not yet checked (the cost-model switch target) and
  /// reports the rows it may have changed in `swept_rows`. An FD rule
  /// sweeps only its unchecked live rows: a checked row of a violating
  /// group already holds the rule's record (every path that checks a row
  /// repairs it or proves its group clean, and ingest drops a row's record
  /// and un-checks it together), so RepairFdViolations would skip it.
  Result<CleanSelectResult> CleanRemaining();

  /// Folds one ingest batch into the per-rule bookkeeping: appended rows
  /// join as unchecked, deleted rows become trivially checked, and
  /// `stale_rows` (live members of violating FD groups whose membership
  /// the batch changed — see FdDeltaDetector::ApplyDelta) lose their
  /// checked status so the next touching query re-repairs them against the
  /// new data. DC rules queue the delta for a DetectDelta pass on the next
  /// Run instead (their detector tracks appends and deletes itself; FD
  /// rules read the detector the caller already patched).
  void ApplyDelta(const TableDelta& delta,
                  const std::vector<RowId>& stale_rows);

  /// Fraction of rows already checked by this rule.
  double checked_fraction() const;
  /// True once this rule has checked row `r` (dead rows are checked).
  bool checked(RowId r) const {
    const Coverage c = coverage();
    return r < c.bits.size() && c.bits[r];
  }
  bool fully_checked() const {
    const Coverage c = coverage();
    return c.count == c.bits.size() && c.bits.size() == table_->num_rows();
  }

  /// True when a Run() in the current state cannot mutate anything — no
  /// ingest work pending and every row checked (for a general DC: the
  /// detector fresh and fully covered). The engine's shared read path
  /// requires every cleanσ of a plan to be quiescent; Run() then takes its
  /// pruned fast paths, which are pure reads.
  bool quiescent() const {
    if (!pending_deltas_.empty() || !pending_rows_.empty()) return false;
    return theta_ != nullptr ? theta_->QuiescentForReaders() : fully_checked();
  }

  /// Captures the cross-query bookkeeping for a snapshot (see
  /// CleanSelectPersistState). Syncs the row count first so the bitmap
  /// covers every physical row; a DC rule's bitmap is its detector's.
  CleanSelectPersistState ExportPersistState();

  /// Restores a previously exported state onto a freshly prepared operator
  /// whose table already holds the snapshotted rows. Fails if the bitmap
  /// does not match the table's physical row count, or, for a DC rule
  /// (whose detector state must be imported first), the detector's bits.
  Status ImportPersistState(const CleanSelectPersistState& state);

 private:
  /// The rule's one coverage record: checked_, or a general DC's detector's.
  struct Coverage {
    const std::vector<bool>& bits;
    size_t count;
  };
  Coverage coverage() const {
    return theta_ != nullptr
               ? Coverage{theta_->checked_rows(), theta_->checked_count()}
               : Coverage{checked_, checked_count_};
  }

  Result<CleanSelectResult> RunFd(const CompiledFilter* filter,
                                  const std::vector<RowId>& dirty_result);
  Result<CleanSelectResult> RunDc(const CompiledFilter* filter,
                                  const std::vector<RowId>& dirty_result,
                                  const CleaningOptions& options);
  void MarkChecked(const std::vector<RowId>& rows);
  /// Syncs the coverage with the table: rows appended directly on it (no
  /// delta) join as unchecked. A DC rule refreshes its detector.
  void SyncRowCount();
  /// DC path: runs DetectDelta + repair for every queued ingest batch,
  /// appending the detected violations to `drained` so the caller can
  /// apply the Example-3 extra-tuples join to them too.
  Status DrainPendingDeltas(CleanSelectResult* out,
                            std::vector<ViolationPair>* drained);
  /// Re-filters the endpoints of the repaired `violations` (RefilterChanged):
  /// conflicting tuples outside the current result whose candidate values
  /// may now satisfy the filter join the corrected result (Example 3), and
  /// a result row whose repair tightened it out of the filter leaves.
  void JoinConflictExtras(const CompiledFilter* filter,
                          const std::vector<ViolationPair>& violations,
                          CleanSelectResult* out);

  Table* table_;
  const DenialConstraint* dc_;
  ProvenanceStore* provenance_;
  const FdDeltaDetector* fd_;
  ThetaJoinDetector* theta_;
  /// FD rules only: row id -> checked, and the number of set bits.
  std::vector<bool> checked_;
  size_t checked_count_ = 0;
  /// DC rules: ingest batches not yet delta-detected (drained in order).
  std::vector<TableDelta> pending_deltas_;
  /// Rows ingested since the last Run and still live (EXPLAIN accounting;
  /// a row appended and deleted between queries settles as nothing).
  std::vector<RowId> pending_rows_;
};

}  // namespace daisy

#endif  // DAISY_CLEAN_CLEAN_OPERATORS_H_
