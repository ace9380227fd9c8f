// Query-result relaxation (Section 4, Algorithm 1).
//
// Given an SP query answer and an FD lhs -> rhs, the relaxed result
// augments the answer with all *correlated tuples*: tuples sharing an lhs
// value with the answer (candidates to take a qualifying rhs) and tuples
// sharing an rhs value (providers of candidate lhs values), iterated to
// transitive closure. For rhs-restricting filters one iteration suffices
// (Lemma 1); lhs filters may chain through clusters (Example 3).

#ifndef DAISY_RELAX_RELAXATION_H_
#define DAISY_RELAX_RELAXATION_H_

#include <unordered_map>
#include <vector>

#include <unordered_set>

#include "constraints/denial_constraint.h"
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

/// Hash index over a table's original lhs keys and rhs values for one FD.
/// Original values never change (repairs only attach candidate sets), so
/// the index is built once per rule and makes each relaxation proportional
/// to the correlated cluster instead of a full pass over the unvisited
/// tuples — the single-node counterpart of the precomputed dirty-group
/// statistics of Section 6.
class FdRelaxIndex {
 public:
  /// Indexes the live rows of `table` (tombstones are skipped).
  FdRelaxIndex(const Table& table, const FdView& fd);

  /// Folds one ingest batch in: appended live rows join their buckets (ids
  /// stay ascending within each bucket, matching a fresh build), deleted
  /// rows leave theirs. O(|delta|) bucket lookups plus the erase scans.
  void ApplyDelta(const Table& table, const FdView& fd,
                  const TableDelta& delta);

  /// Dirty-group evidence for the restricted closure: lhs keys of
  /// violating groups and rhs values observed inside them.
  struct DirtyFilter {
    /// lhs keys of violating groups: only members of these groups are
    /// repaired, so only they seed expansion.
    const std::unordered_set<GroupKey, GroupKeyHash, GroupKeyEq>* lhs_keys =
        nullptr;
    /// Rows already repaired by this rule (their fixes are complete by
    /// Lemma 1): no re-expansion needed.
    const std::vector<bool>* already_checked = nullptr;
  };

  /// Transitive-closure relaxation (Algorithm 1) via index lookups.
  /// Produces exactly the same extras as the scan-based Algorithm 1 over
  /// the whole table (tests/relax_oracle.h); tuples_scanned counts
  /// index-probed rows.
  ///
  /// When `dirty` is non-null, expansion happens only from rows that sit in
  /// a violating lhs group or carry a dirty rhs value: a clean tuple's
  /// correlated groups contribute nothing to any fix, so skipping them
  /// yields the same repairs while touching only the dirty clusters (the
  /// Fig. 9 statistics-pruning behaviour).
  RelaxResult Relax(const Table& table, const FdView& fd,
                    const std::vector<RowId>& answer,
                    const DirtyFilter* dirty = nullptr) const;

 private:
  std::unordered_map<GroupKey, std::vector<RowId>, GroupKeyHash, GroupKeyEq>
      by_lhs_;
  std::unordered_map<Value, std::vector<RowId>, ValueHash> by_rhs_;
};

}  // namespace daisy

#endif  // DAISY_RELAX_RELAXATION_H_
