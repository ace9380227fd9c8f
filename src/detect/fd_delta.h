// Delta-maintained FD state: the one per-rule index an FD rule keeps (the
// BigDansing group-by detection primitive kept warm across ingest batches).
//
// An FdDeltaDetector holds the lhs-group membership with per-group rhs
// histograms, the rhs -> rows buckets, and the dirty-rhs reference counts,
// built by one grouping pass and folded forward per TableDelta with
// O(|delta|) map updates. Every answer an FD rule needs reads this one
// structure:
//  * ViolatingGroups() lists the violating lhs groups of the live rows;
//  * GroupOf() and RhsBucket() are the two distributions of Section 4.1
//    (P(rhs | lhs) over a row's lhs group, P(lhs | rhs) over the rows
//    sharing its rhs) that repair/fd_repair.h writes as candidates;
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
// the group; the survivors' fixes must be retracted) — and which rhs
// buckets changed, whose repaired rows need their P(lhs | rhs) candidates
// re-derived (RefreshFdLhsCandidates).
//
// Grouping runs on original values (Value-keyed maps), which never change
// in the engine's repair model — repairs only attach candidate sets.

#ifndef DAISY_DETECT_FD_DELTA_H_
#define DAISY_DETECT_FD_DELTA_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "constraints/denial_constraint.h"
#include "detect/group_by.h"
#include "storage/table.h"

namespace daisy {

/// All rows sharing one lhs value combination, with the distinct rhs values
/// observed. The group violates the FD iff it has >1 distinct rhs.
struct FdGroup {
  GroupKey lhs_key;
  std::vector<RowId> rows;
  /// Distinct rhs values with their in-group frequencies (SortFdRhsHistogram
  /// order).
  std::vector<std::pair<Value, size_t>> rhs_histogram;

  bool violating() const { return rhs_histogram.size() > 1; }
  size_t total() const { return rows.size(); }
};

/// Canonical ordering of group lists, so a maintained index, a fresh one
/// and the test oracles compare bit-identically: groups by lhs key
/// (ColumnCache::RankCompare, a NaN last), then by rows (keys tie only when
/// they hold a NaN); each histogram by (count desc, value).
void SortFdGroups(std::vector<FdGroup>* groups);
void SortFdRhsHistogram(std::vector<std::pair<Value, size_t>>* hist);

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

/// What one ingest batch changed for an FD rule's repairs.
struct FdDeltaEffect {
  /// Live rows whose repair state may be stale — members of every touched
  /// group that violates after the batch *or* violated before it (a
  /// delete resolving a group leaves survivors whose fixes must be
  /// retracted) — ascending and unique.
  std::vector<RowId> stale_rows;
  /// rhs values whose bucket gained or lost a row, unique, in first-seen
  /// order.
  std::vector<Value> changed_rhs;
};

class FdDeltaDetector {
 public:
  /// One lhs group's live members (ascending) and rhs frequencies. A NaN
  /// equals no value (Value::Equals), itself included, so each NaN rhs is a
  /// distinct value of its own: `hist` keys the other values and `nan_rhs`
  /// counts the NaN ones (a NaN key could never be found again to retract).
  struct Group {
    std::vector<RowId> rows;
    std::unordered_map<Value, size_t, ValueHash> hist;
    size_t nan_rhs = 0;
    void Add(RowId r, const Value& rhs) {
      rows.push_back(r);
      if (rhs.is_nan()) {
        ++nan_rhs;
      } else {
        ++hist[rhs];
      }
    }
    size_t distinct_rhs() const { return hist.size() + nan_rhs; }
    bool violating() const { return distinct_rhs() > 1; }
    /// `hist` plus one (NaN, 1) entry per NaN rhs, unsorted.
    std::vector<std::pair<Value, size_t>> Histogram() const;
  };

  /// Requires dc->IsFd(). `table` and `dc` must outlive the detector.
  /// Builds the group state over the live rows immediately.
  FdDeltaDetector(const Table* table, const DenialConstraint* dc);

  /// Folds one ingest batch into the maintained state in O(|delta|).
  FdDeltaEffect ApplyDelta(const TableDelta& delta);

  /// Materializes the maintained groups (clean ones too when
  /// `include_clean`, which also scans the live rows for the NaN-lhs ones
  /// the index does not store) in the canonical SortFdGroups order.
  std::vector<FdGroup> ViolatingGroups(bool include_clean = false) const;

  /// Row `r`'s lhs group, or nullptr when no live row has its lhs key.
  const Group* GroupOf(RowId r) const;

  /// The live rows carrying rhs original `rhs`, ascending (empty if none).
  const std::vector<RowId>& RhsBucket(const Value& rhs) const;

  const DenialConstraint& dc() const { return *dc_; }

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
  using GroupMapState =
      std::unordered_map<GroupKey, Group, GroupKeyHash, GroupKeyEq>;

  void RemoveContribution(const GroupKey& key);
  void AddContribution(const Group& group);

  const Table* table_;
  const DenialConstraint* dc_;
  GroupMapState groups_;
  /// rhs original -> live rows carrying it, ascending. A NaN rhs equals no
  /// other row's, so it has no bucket.
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
