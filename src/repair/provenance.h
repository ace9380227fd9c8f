// Per-cell repair provenance.
//
// Every repair is recorded as (rule, side tag, value frequencies) for the
// affected cell. Cells are rebuilt from the union of their records, which
// makes multi-rule merging commutative by construction (Lemma 4: the merged
// fix is the union of per-rule candidate/conflict sets) and lets a new rule
// arrive later and merge with previously computed fixes without recomputing
// them from scratch (Table 7 experiment).

#ifndef DAISY_REPAIR_PROVENANCE_H_
#define DAISY_REPAIR_PROVENANCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace daisy {

/// One candidate value contributed by one rule, with its observed frequency
/// (count of supporting correlated tuples).
struct CandidateSource {
  Value value;
  double count = 0;
  CandidateKind kind = CandidateKind::kPoint;
};

/// An immutable row-id set shared by the records derived from it.
using SharedRows = std::shared_ptr<const std::vector<RowId>>;

/// An immutable source list shared by the records derived from it.
using SharedSources = std::shared_ptr<const std::vector<CandidateSource>>;

/// The shared handle of `sources`.
SharedSources ShareSources(std::vector<CandidateSource> sources);

/// The outcome of repairing one cell under one rule.
struct RepairRecord {
  std::string rule;
  /// Candidate-pair tag: 0 = this cell's candidates assume the *other* FD
  /// side is clean (rhs repair), 1 = lhs repair, matching the two tuple
  /// instances of Section 4.1. General-DC range fixes use tag 0.
  int32_t pair_tag = 0;
  /// The candidate values with their frequencies. FD repair shares one
  /// list among the records of a whole lhs group (P(rhs | lhs)) or rhs
  /// bucket (P(lhs | rhs)); null means none.
  SharedSources sources;
  /// Row ids of the conflicting tuples this fix was derived from (the T_i
  /// sets in Lemma 4) — kept for inference and audits. FD repair shares one
  /// set among the records of a whole lhs group or rhs bucket; null means
  /// none were recorded.
  SharedRows conflicting_rows;

  /// The sources, empty when there are none.
  const std::vector<CandidateSource>& source_list() const;

  /// The conflicting rows, empty when none were recorded.
  const std::vector<RowId>& conflicting() const;
};

/// Records repairs per (row, column) cell of a single table and rebuilds the
/// probabilistic candidate sets from them.
class ProvenanceStore {
 public:
  ProvenanceStore() = default;

  /// Adds (or replaces, if the same rule already repaired this cell) a
  /// record, then rebuilds the cell in `table`.
  void Record(Table* table, RowId row, size_t col, RepairRecord record);

  /// Accumulates sources into the (rule, tag) record of a cell — counts for
  /// already-present (kind, value) sources add up. Used by DC repair, where
  /// successive violating pairs each contribute fixes to the same cell.
  void AppendSources(Table* table, RowId row, size_t col,
                     const std::string& rule, int32_t pair_tag,
                     const std::vector<CandidateSource>& sources,
                     const std::vector<RowId>& conflicting_rows);

  /// True if `rule` has already repaired this cell.
  bool HasRecord(RowId row, size_t col, const std::string& rule) const;

  const std::vector<RepairRecord>* RecordsFor(RowId row, size_t col) const;

  /// Merges all records of `other` into this store (records for a
  /// (cell, rule, tag) already present here are kept) and rebuilds the
  /// affected cells of `table`. Enables carrying fixes across cleaning
  /// sessions when rules arrive incrementally (Table 7).
  void MergeFrom(const ProvenanceStore& other, Table* table);

  /// Forgets every record of the given (tombstoned) rows. The dead cells
  /// themselves are left untouched — they are invisible to queries and
  /// detectors, and their storage is provenance.
  void DropRows(const std::vector<RowId>& rows);

  /// Removes `rule`'s records on every cell of `row` and rebuilds those
  /// cells. The ingest path calls this when new data invalidates the
  /// Lemma-1 completeness of the row's earlier group-based fixes — the
  /// next query touching the row recomputes them from fresh evidence
  /// (records of other rules are kept and keep contributing).
  void DropRuleRecords(Table* table, RowId row, const std::string& rule);

  /// Removes `rule`'s pair-`pair_tag` record of one cell, if any, and
  /// rebuilds the cell. The FD ingest path uses this when a repaired row's
  /// P(lhs | rhs) distribution collapses to a single value.
  void DropRecord(Table* table, RowId row, size_t col,
                  const std::string& rule, int32_t pair_tag);

  /// Removes every record `rule` contributed anywhere in the table and
  /// rebuilds the affected cells. The DC ingest path uses this when a
  /// deletion retracted violating pairs: the rule's accumulated pair
  /// evidence is not separable per pair, so its fixes are re-derived
  /// wholesale from the surviving violation set.
  void DropRule(Table* table, const std::string& rule);

  /// Number of distinct cells with at least one record.
  size_t NumRepairedCells() const { return records_.size(); }

  /// Re-derives the candidate set of a cell from all its records: union
  /// by (tag, kind, value) with counts summed across rules, then
  /// normalized over the cell. The result is independent of record
  /// insertion order. Every cell whose one record holds the same shared
  /// sources and tag gets the same shared set; a cell merging several
  /// records, or holding the only reference to its sources (a DC record
  /// grown by AppendSources), gets a set of its own.
  void RebuildCell(Table* table, RowId row, size_t col);

  using CellKey = std::pair<RowId, size_t>;

  /// Read-only view of every record, for snapshot serialization.
  const std::map<CellKey, std::vector<RepairRecord>>& records() const {
    return records_;
  }

  /// Installs records wholesale without rebuilding any cell — the
  /// recovery path's import, where the snapshot's cells already carry the
  /// candidate sets these records would rebuild.
  void RestoreRecords(std::map<CellKey, std::vector<RepairRecord>> records) {
    records_ = std::move(records);
  }

 private:
  std::map<CellKey, std::vector<RepairRecord>>::iterator PruneRuleFromEntry(
      Table* table, std::map<CellKey, std::vector<RepairRecord>>::iterator it,
      const std::string& rule);

  /// The set of a cell whose only record is recs.front(), shared through
  /// shared_sets_ when other records may hold the same sources.
  CandidateSetPtr SetOfSingleRecord(const std::vector<RepairRecord>& recs);

  std::map<CellKey, std::vector<RepairRecord>> records_;

  /// Sources object -> the set derived from it alone. An entry is live
  /// while its sources are (the weak handle tells a reused address from
  /// the original); dead entries are pruned whenever the map doubles.
  struct SharedSet {
    std::weak_ptr<const std::vector<CandidateSource>> sources;
    int32_t pair_tag = 0;
    CandidateSetPtr set;
  };
  std::unordered_map<const std::vector<CandidateSource>*, SharedSet>
      shared_sets_;
  size_t prune_shared_sets_at_ = 64;
};

}  // namespace daisy

#endif  // DAISY_REPAIR_PROVENANCE_H_
