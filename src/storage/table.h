// Row-store table over probabilistic cells.
//
// Rows have stable ids (their position; a deleted row becomes a tombstone,
// its id is never reused, matching the paper's in-place probabilistic
// updates). The original cell values survive every repair as provenance, so
// late-arriving rules can re-derive fixes from the raw data (Table 7
// experiment).
//
// Ingest is transactional and delta-aware: AppendRows/DeleteRows apply one
// batch atomically and return a TableDelta naming the affected row ids.
// Derived state reacts to three kinds of change, each at its own cost:
//
//  * SetCandidates(r, c, ...) changes only a cell's candidate set — every
//    repair the engine makes, and the snapshot decoder. It moves no
//    counter: a built column cache flips that row's `probs` bit in place,
//    so a writer section costs O(changed cells) in the cache;
//  * content_version(c) moves on every mutable_cell(r, c) access, which
//    may change an original value (the data generators' corruption of
//    fresh tables) — the ColumnCache rebuilds the column from scratch and
//    its content generation may advance, discarding detector coverage;
//  * delta_generation() moves on every append/delete batch — appends extend
//    the derived projections in O(delta) and deletes only flip the live
//    mask, so delta-aware detectors keep their coverage.

#ifndef DAISY_STORAGE_TABLE_H_
#define DAISY_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/cell.h"
#include "storage/schema.h"

namespace daisy {

class ColumnCache;

/// Stable row identifier within one table.
using RowId = size_t;

/// One tuple: a cell per schema column.
struct Row {
  std::vector<Cell> cells;
};

/// One transactional ingest batch: the rows it appended (a contiguous,
/// ascending id range) and the rows it tombstoned (ascending). Consumers
/// apply deltas in generation order to maintain derived state in O(delta).
struct TableDelta {
  uint64_t generation = 0;  ///< table delta generation after this batch
  std::vector<RowId> appended;
  std::vector<RowId> deleted;

  bool empty() const { return appended.empty() && deleted.empty(); }

  /// Writer sequence number of the DaisyEngine ingest call that applied
  /// this batch (see QueryReport::epoch). 0 when the batch was applied
  /// through the plain Table API.
  uint64_t engine_epoch = 0;
};

/// The ingest-visibility pin a query takes at open: row ids below
/// `num_rows` existed when the snapshot was taken, and the version pair
/// identifies the exact ingest state. Scans iterate only up to the pinned
/// bound, and Plan::Execute verifies the pair did not move during the run —
/// a concurrent ingest slipping past the engine's writer lock is reported
/// as an Internal error instead of silently producing a torn scan.
struct TableSnapshot {
  uint64_t append_version = 0;
  uint64_t delta_generation = 0;
  size_t num_rows = 0;  ///< physical row-id bound at pin time
};

/// A named relation with probabilistic cells.
///
/// `mutable_cell` bumps a per-column version counter so the derived
/// columnar projections (see storage/column_cache.h) rebuild only the
/// touched column. Handing out the reference counts as a mutation of the
/// column — do not stash it and write through it across reads of the
/// cache. Candidate-only writes go through SetCandidates instead.
class Table {
 public:
  Table();
  Table(std::string name, Schema schema);
  ~Table();

  // Copies and moves drop the derived column cache (it holds a pointer to
  // the source table); it is rebuilt lazily on the next columns() access.
  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  /// Physical row count, tombstones included (row ids range over it).
  size_t num_rows() const { return rows_.size(); }
  /// Rows not deleted yet — the logical relation size.
  size_t num_live_rows() const { return rows_.size() - num_dead_; }
  size_t num_columns() const { return schema_.num_columns(); }

  /// False once the row was deleted. Tombstoned cells stay readable (their
  /// storage is never reclaimed) but no query/detector visits them.
  bool is_live(RowId r) const {
    return r >= live_.size() || live_[r] != 0;
  }

  const Row& row(RowId r) const { return rows_[r]; }
  const Cell& cell(RowId r, size_t c) const { return rows_[r].cells[c]; }
  /// Write access to any part of a cell, its original value included; the
  /// column's cached projection is rebuilt on its next read.
  Cell& mutable_cell(RowId r, size_t c) {
    BumpColumn(c);
    return rows_[r].cells[c];
  }

  /// Points cell (r, c) at the shared candidate set `set`; null reverts it
  /// to its clean original value. The original stays untouched, so no
  /// counter moves: a built column cache flips that row's `probs` bit in
  /// place instead of rebuilding the column. The only write the engine
  /// makes to an existing cell.
  void SetCandidates(RowId r, size_t c, CandidateSetPtr set);

  /// In-place mutation counter of column `c`: moves on every mutable_cell
  /// access to the column, and on nothing else — candidate-only writes,
  /// appends and deletes leave it, so the derived columnar projections are
  /// patched or extended instead of rebuilt.
  uint64_t content_version(size_t c) const {
    return c < column_versions_.size() ? column_versions_[c] : 0;
  }

  /// Moves once per appended row (all append paths).
  uint64_t append_version() const { return append_version_; }

  /// Moves on every ingest batch (append or delete).
  uint64_t delta_generation() const { return delta_generation_; }

  /// Pins the current ingest state (see TableSnapshot). Queries take one
  /// per table at open so a concurrent ingest never makes rows appear (or
  /// vanish) mid-scan.
  TableSnapshot Snapshot() const {
    return {append_version_, delta_generation_, rows_.size()};
  }

  /// Every tombstoned row id, in deletion order. Grows monotonically;
  /// delta-aware consumers remember the prefix they consumed and catch up
  /// from there in O(new deletions).
  const std::vector<RowId>& deleted_rows_log() const { return deleted_log_; }

  /// Lazily-built columnar projections of this table (flat typed arrays,
  /// dictionary codes, sorted indexes). Logically const: derived data only.
  /// Safe to call from concurrent reader threads under the engine's shared
  /// lock: the first creation is mutex-guarded and the cache itself
  /// publishes built columns atomically (see storage/column_cache.h).
  ColumnCache& columns() const;

  /// Appends a tuple of deterministic values. Fails on arity mismatch or on
  /// a non-null value whose type class disagrees with the schema.
  Status AppendRow(std::vector<Value> values);

  /// Appends a pre-built (possibly probabilistic) row without type checks.
  RowId AppendRowUnchecked(Row row);

  /// Transactional batch append: every row is validated (arity + type class
  /// per column, as AppendRow) before any row is applied, so a failure
  /// leaves the table untouched. On success returns the delta describing
  /// the new contiguous id range.
  Result<TableDelta> AppendRows(std::vector<std::vector<Value>> rows);

  /// Transactional batch delete: every id must be in range, live, and
  /// distinct, or the whole batch is rejected. Rows become tombstones —
  /// ids stay stable and storage is retained as provenance. Tables managed
  /// by a DaisyEngine should be deleted from through
  /// DaisyEngine::DeleteRows, which also retracts repairs whose evidence
  /// the deletion removed; detectors self-heal coverage either way.
  Result<TableDelta> DeleteRows(std::vector<RowId> ids);

  void Reserve(size_t n) { rows_.reserve(n); }

  /// All live row ids, ascending.
  std::vector<RowId> AllRowIds() const;

  /// Number of cells that currently carry candidate sets.
  size_t CountProbabilisticCells() const;

  /// Sum of candidate-set widths over all cells — the footprint of the
  /// probabilistic version (the paper reports this as dataset growth).
  size_t TotalCandidateWidth() const;

  /// Snapshot-recovery hook: installs the ingest history of a persisted
  /// table after its rows were re-appended (AppendRowUnchecked). The ids
  /// in `deleted_log` become tombstones in log order, and the two ingest
  /// counters are set to the persisted values so post-recovery deltas
  /// continue the original numbering. Any derived column cache is dropped.
  /// Fails (leaving the table untouched) on an out-of-range or duplicate
  /// deleted id.
  Status RestorePersistedState(std::vector<RowId> deleted_log,
                               uint64_t append_version,
                               uint64_t delta_generation);

  /// Loads rows from a CSV file with the given schema. If `has_header`,
  /// the first row is skipped after validating column names.
  static Result<Table> FromCsv(const std::string& path,
                               const std::string& name, const Schema& schema,
                               bool has_header);

  /// Writes the table (most-probable values) plus a header row to CSV.
  Status ToCsv(const std::string& path) const;

  /// Debug string with up to `max_rows` rows rendered.
  std::string ToString(size_t max_rows = 20) const;

 private:
  void BumpColumn(size_t c) {
    if (column_versions_.size() <= c) column_versions_.resize(c + 1, 0);
    ++column_versions_[c];
  }
  /// Drops the derived cache: unpublishes the lock-free pointer, then
  /// destroys the cache under the creation mutex. Callers run with
  /// exclusive access to the table (assignment, restore), but the lock
  /// keeps the cache_ contract uniform and is uncontended there.
  void DropCache() const;
  void BumpAppend() {
    ++append_version_;
    ++delta_generation_;
  }

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<uint64_t> column_versions_;  ///< per-column cell mutations
  uint64_t append_version_ = 0;       ///< rows appended
  uint64_t delta_generation_ = 0;     ///< ingest batches applied
  std::vector<uint8_t> live_;         ///< tombstone mask; empty = all live
  size_t num_dead_ = 0;               ///< count of tombstoned rows
  std::vector<RowId> deleted_log_;    ///< tombstoned ids, deletion order
  /// Derived, built on demand. Guarded by cache_mu_ for creation/reset;
  /// readers reach the object lock-free through cache_ptr_ once published.
  mutable std::unique_ptr<ColumnCache> cache_ DAISY_GUARDED_BY(cache_mu_);
  /// Published pointer to cache_ for lock-free reads once created; the
  /// mutex only serializes the first (lazy) creation. Neither member is
  /// copied or moved with the table — the copy/move paths reset both.
  mutable std::atomic<ColumnCache*> cache_ptr_{nullptr};
  mutable Mutex cache_mu_;
};

}  // namespace daisy

#endif  // DAISY_STORAGE_TABLE_H_
