// Delta-maintained FD state: the one per-rule index an FD rule keeps (the
// BigDansing group-by detection primitive kept warm across ingest batches).
//
// Where DetectFdViolations re-groups the whole relation per call, an
// FdDeltaDetector holds the lhs-group membership with per-group rhs
// histograms, the rhs -> rows buckets, and the dirty-rhs reference counts,
// and folds each TableDelta in with O(|delta|) map updates. Every answer
// an FD rule needs reads this one structure:
//  * ViolatingGroups() reproduces DetectFdViolations over the live rows;
//  * Relax() runs Algorithm 1's transitive closure through the lhs groups
//    and rhs buckets;
//  * RowsTouchDirty() is the per-query dirty-group pruning test and
//    stats() the planner's ε / violating groups / p (Section 5.2.3), so
//    pruning reflects post-ingest reality — including re-engaging after a
//    delete removes a rule's last violation.
//
// ApplyDelta also reports which live rows' repair state the batch made
// stale — members of touched groups that violate now (earlier repairs are
// incomplete against the new data) or violated before (a delete resolved
// the group; the survivors' fixes must be retracted). Per-rule checked
// bookkeeping uncovers them and provenance drops the rule's records (the
// caller passes them to CleanSelect::ApplyDelta /
// ProvenanceStore::DropRuleRecords).
//
// Grouping runs on original values (Value-keyed maps), which never change
// in the engine's repair model — repairs only attach candidate sets.

#ifndef DAISY_DETECT_FD_DELTA_H_
#define DAISY_DETECT_FD_DELTA_H_

#include <unordered_map>
#include <vector>

#include "constraints/denial_constraint.h"
#include "detect/fd_detector.h"
#include "detect/group_by.h"
#include "storage/table.h"

namespace daisy {

/// The outcome of relaxing a query answer under one FD.
struct RelaxResult {
  /// Correlated tuples added to the answer (disjoint from the answer).
  std::vector<RowId> extra;
  /// Number of transitive-closure iterations executed.
  size_t iterations = 0;
  /// Number of unvisited tuples scanned (the paper's O(u) relaxation cost).
  size_t tuples_scanned = 0;
};

/// The cost model's per-rule inputs, read off the maintained counters.
struct FdRuleStats {
  size_t table_rows = 0;
  size_t num_violating_rows = 0;    ///< ε: tuples in violating groups
  size_t num_violating_groups = 0;
  double avg_candidates = 1.0;      ///< p: mean distinct rhs per dirty group
};

class FdDeltaDetector {
 public:
  /// Requires dc->IsFd(). `table` and `dc` must outlive the detector.
  /// Builds the group state over the live rows immediately.
  FdDeltaDetector(const Table* table, const DenialConstraint* dc);

  /// Folds one ingest batch into the maintained state in O(|delta|).
  /// Returns the live rows whose repair state may be stale — members of
  /// every touched group that violates after the batch *or* violated
  /// before it (a delete resolving a group leaves survivors whose fixes
  /// must be retracted) — ascending and unique.
  std::vector<RowId> ApplyDelta(const TableDelta& delta);

  /// Materializes the maintained groups in the canonical detection order —
  /// identical to DetectFdViolations(table, dc, table.AllRowIds(),
  /// include_clean).
  std::vector<FdGroup> ViolatingGroups(bool include_clean = false) const;

  /// Transitive-closure relaxation (Algorithm 1) of `answer` via the lhs
  /// groups and rhs buckets: produces exactly the extras of the scan form
  /// over the live rows (tests/relax_oracle.h); tuples_scanned counts
  /// probed rows.
  ///
  /// When `checked` is non-null, expansion happens only from rows this
  /// rule has not checked yet (their fixes are complete by Lemma 1) that
  /// sit in a violating lhs group: a clean tuple's correlated groups
  /// contribute nothing to any fix, so skipping them yields the same
  /// repairs while touching only the dirty clusters (the Fig. 9
  /// statistics-pruning behaviour).
  RelaxResult Relax(const std::vector<RowId>& answer,
                    const std::vector<bool>* checked = nullptr) const;

  /// True if any of `rows` sits in a violating group or carries an rhs
  /// value observed inside one. Used to skip relaxation/cleaning entirely
  /// for clean regions.
  bool RowsTouchDirty(const std::vector<RowId>& rows) const;

  /// The current counters over the live rows; O(1).
  FdRuleStats stats() const;

 private:
  struct GroupState {
    std::vector<RowId> rows;  ///< live members, ascending
    std::unordered_map<Value, size_t, ValueHash> hist;  ///< rhs frequencies
    bool violating() const { return hist.size() > 1; }
  };
  using GroupMapState =
      std::unordered_map<GroupKey, GroupState, GroupKeyHash, GroupKeyEq>;

  void RemoveContribution(const GroupKey& key);
  void AddContribution(const GroupState& group);

  const Table* table_;
  const DenialConstraint* dc_;
  GroupMapState groups_;
  /// rhs original -> live rows carrying it, ascending.
  std::unordered_map<Value, std::vector<RowId>, ValueHash> by_rhs_;
  /// rhs value -> number of violating groups whose histogram contains it
  /// (a value stops being dirty only when the last such group does).
  std::unordered_map<Value, size_t, ValueHash> dirty_rhs_refs_;
  size_t violating_rows_ = 0;
  size_t violating_groups_ = 0;
  size_t candidate_sum_ = 0;  ///< Σ distinct rhs over violating groups
};

}  // namespace daisy

#endif  // DAISY_DETECT_FD_DELTA_H_
