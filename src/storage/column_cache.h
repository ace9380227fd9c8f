// Columnar fast-path layer: per-column typed projections of a row-store
// table, rebuilt lazily when the owning table's per-column version counter
// moves, extended on appends and patched in place on candidate-only writes.
//
// Detection and statistics hot loops (theta-join pair checks, FD group-bys,
// Estimate_Errors range counting) pay per-cell std::variant dispatch when
// they read values through Table::cell(). The cache materializes, per
// column:
//
//  * `num`    — a flat double projection. Numerics widen to double; every
//               other value maps onto the stable 1-D hash coordinate
//               (Value::Hash() % 2^30) the theta-join detector partitions
//               on. Equal values share a coordinate; which comparisons
//               coordinate ranges may bound is CompiledCompare's call
//               (constraints/compiled_compare.h).
//  * `codes`  — dictionary codes in first-appearance order, consistent with
//               Value::Equals / Value::Hash (int 5 and double 5.0 share a
//               code). Group-bys hash one uint32_t per row instead of a
//               Value tuple.
//  * `ranks`  — dense ranks under Value::Compare (nulls first, numerics by
//               value, strings lexicographically), every NaN after every
//               other number. Same-column atom comparisons on rank are
//               exact for every type, including int64 values beyond double
//               precision, on columns whose ranks_exact() holds: no NaN
//               (Compare calls a NaN equal to every number) and no double
//               beside an int at or beyond 2^53 (Compare calls int 2^53
//               and 2^53 + 1 both equal to double 2^53) — no rank order
//               reproduces either.
//  * `nulls`  — null mask; EvalCompare's null semantics are re-applied on
//               top of the flat arrays by consumers.
//  * `sorted_rows`/`sorted_num` — row ids sorted by (num, row id), NaN
//               keys last, with the aligned projections, serving the
//               detector's partition sort and binary-search range counts.
//
// Invalidation protocol: Table bumps a per-column *content* version on
// every mutable_cell access, the one path that may edit an original value
// (the data generators corrupting fresh tables). On the next access the
// cache rebuilds the column and compares content against the previous
// build; `generation` advances only if the data actually changed.
// Consumers that keep derived state (partition boundaries, checked-row
// sets) key it to `generation`, so an original-value edit invalidates
// everything that depends on the column.
//
// Candidate-only writes are not content changes: every repair the engine
// makes, and the snapshot decoder, go through Table::SetCandidates, which
// moves no version and flips the row's `probs` bit of a built column in
// place (under the build mutex, only for rows the column already covers;
// Extend reads the bit of later rows from the cells). A writer section
// therefore maintains the cache in O(changed cells) and never discards
// incremental detection coverage.
//
// Appends are NOT content changes: when the table grew but the column's
// content version did not move, the projections are *extended* in O(delta)
// — new rows join num/codes/nulls/probs and the dictionary directly; the
// sorted index merges the (sorted) new tail in from the back, shifting only
// the entries that sort after its smallest key; ranks extend by
// table lookup unless the delta introduced a new distinct value (then the
// dense rank relabeling is recomputed — O(n), no value re-read). The
// content `generation` stays put, so delta-aware detectors keep their
// coverage across ingest batches. Deletes never touch the cache at all:
// the arrays keep tombstoned rows in place (row-id alignment) and
// consumers filter through Table::is_live.
//
// Concurrent-reader publication: a built column is published by storing
// its (content-version, row-count) pair into per-slot atomics; column()
// takes a lock-free fast path when the published pair still matches the
// table, and falls into a mutex-guarded build otherwise. Under the
// engine's reader/writer protocol (see clean/daisy_engine.h) writers leave
// every column fresh before releasing the exclusive lock, so shared-path
// readers only ever hit the fast path — a build never reallocates arrays
// another reader points into ("no rebuild under a reader"); the mutex only
// serializes the first lazy build of a never-touched column. Outside that
// protocol the old contract stands: build single-threaded, then share the
// arrays read-only.

#ifndef DAISY_STORAGE_COLUMN_CACHE_H_
#define DAISY_STORAGE_COLUMN_CACHE_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/value.h"
#include "storage/table.h"

namespace daisy {

class ColumnCache {
 public:
  struct Column {
    std::vector<double> num;        ///< row-ordered numeric projection
    std::vector<uint32_t> codes;    ///< row-ordered dictionary codes
    std::vector<uint32_t> ranks;    ///< row-ordered dense Compare ranks
    std::vector<uint8_t> nulls;     ///< row-ordered null mask (1 = null)
    /// Cells carrying repair candidates (1 = probabilistic). Consumers that
    /// answer from the projected originals must fall back to per-cell
    /// evaluation for these rows. Table::SetCandidates patches it in place;
    /// it is not content and never advances `generation`.
    std::vector<uint8_t> probs;
    std::vector<Value> dict;        ///< code -> first-seen value
    std::vector<Value> sorted_distinct;  ///< rank -> representative value
    std::vector<RowId> sorted_rows;      ///< rows by (num, row id)
    std::vector<double> sorted_num;      ///< num aligned with sorted_rows
    bool numeric_only = true;  ///< every non-null value is numeric
    bool has_nulls = false;    ///< some value is null
    bool has_nan = false;      ///< some value is a NaN double
    bool has_double = false;   ///< some value is a double
    bool has_wide_int = false; ///< some value is an int with |v| >= 2^53
    /// True when ranks reproduce Value::Compare: no NaN, and no mix of
    /// doubles with ints at or beyond 2^53 (Compare orders int 2^53 below
    /// int 2^53 + 1 yet calls both equal to double 2^53).
    bool ranks_exact() const {
      return !has_nan && !(has_double && has_wide_int);
    }
    /// Advances only when a rebuild changed the projection of a previously
    /// built row — appends (pure extensions, or rebuilds that merely picked
    /// up new rows) keep it, so detector coverage survives ingest batches.
    uint64_t generation = 0;
  };

  /// `table` must outlive the cache.
  explicit ColumnCache(const Table* table);

  /// Returns the projection of column `c`, rebuilding it first if the
  /// table's version counter for `c` moved since the last build. The
  /// reference stays valid until the next rebuild of the same column.
  const Column& column(size_t c);

  /// Content generation of column `c` (ensures freshness first).
  uint64_t generation(size_t c) { return column(c).generation; }

  /// Distinct-value count of column `c` (dictionary size; ensures
  /// freshness first). Counts tombstoned rows' values too — an upper
  /// bound, which is what the cardinality estimator wants.
  size_t distinct_count(size_t c) { return column(c).dict.size(); }

  /// The dictionary code of `v` in column `c` (Equals/Hash-consistent, as
  /// `codes`), or false when no cell's original value equals `v` (a NaN
  /// never does). Read-only and lock-free: call it only after column(c)
  /// made the slot fresh, and only while no writer can extend it.
  bool FindCode(size_t c, const Value& v, uint32_t* code) const {
    const auto& index = slots_[c].dict_index;
    const auto it = index.find(v);
    if (it == index.end()) return false;
    *code = it->second;
    return true;
  }

  /// Min/max of column `c` over the numeric projection. Only meaningful
  /// when every value is numeric and non-null (otherwise the hash
  /// coordinate of a string/null would pollute the range); returns false
  /// in that case and for empty columns.
  bool NumericMinMax(size_t c, double* min_out, double* max_out) {
    const Column& col = column(c);
    if (!col.numeric_only || col.has_nulls || col.sorted_num.empty()) {
      return false;
    }
    *min_out = col.sorted_num.front();
    *max_out = col.sorted_num.back();
    return true;
  }

  /// Fraction of physical rows whose numeric projection is < v (strict)
  /// or <= v (inclusive) — exact binary search over the sorted
  /// projection. A handful of corrupted outliers shifts the answer by
  /// exactly their own mass, where min/max interpolation would let one
  /// stray value stretch the assumed-uniform range arbitrarily. Returns
  /// false for non-numeric / null-bearing / empty columns.
  bool NumericRankFraction(size_t c, double v, bool inclusive,
                           double* frac) {
    const Column& col = column(c);
    if (!col.numeric_only || col.has_nulls || col.sorted_num.empty()) {
      return false;
    }
    const std::vector<double>& s = col.sorted_num;
    const auto it = inclusive ? std::upper_bound(s.begin(), s.end(), v)
                              : std::lower_bound(s.begin(), s.end(), v);
    *frac = static_cast<double>(it - s.begin()) /
            static_cast<double>(s.size());
    return true;
  }

  /// Outlier-robust distinct count: distinct values between the [frac,
  /// 1-frac] quantiles of the numeric projection, scaled by 1/(1-2*frac)
  /// (unbiased under uniform duplication) and clamped to the dictionary
  /// size. Dirty cells tend to be near-unique junk that inflates the raw
  /// dictionary — and with it any 1/ndv join-selectivity model —
  /// while the central mass keeps the keys that actually join. Falls
  /// back to the dictionary size for non-numeric columns.
  size_t TrimmedDistinctCount(size_t c, double frac);

  /// Re-freshens every *already built* column (rebuild on content change,
  /// extend on appends) and leaves never-touched columns lazy. The
  /// engine's writer sections call this before releasing the exclusive
  /// lock: stale arrays can only exist for built columns (those are the
  /// ones readers may hold pointers into), while a cold first build under
  /// a reader is safe — it is serialized by the build mutex and nobody
  /// can hold pointers into arrays that never existed.
  void RefreshBuilt();

  /// Process-unique identity of this cache instance. A consumer holding
  /// array pointers must treat a different id as a wholesale data change
  /// (the table was reassigned and its cache rebuilt from scratch —
  /// generations restart and are not comparable across instances).
  uint64_t id() const { return id_; }

  const Table& table() const { return *table_; }

  /// The shared 1-D coordinate: numerics widen to double, everything else
  /// (nulls included) maps to Value::Hash() % 2^30 — equal values collide,
  /// so equality pruning on the coordinate stays conservative-correct.
  static double NumericCoord(const Value& v);

  /// An int at or beyond 2^53, whose double may tie with another int's
  /// (what Column::has_wide_int records).
  static bool IsWideInt(const Value& v) {
    return v.is_int() && std::fabs(v.AsDouble()) >= 0x1p53;
  }

  /// Value::Compare made a total order, the one value order for sorting:
  /// every NaN after every other number, and an int against a double
  /// compared exactly. Compare calls a NaN equal to each number and widens
  /// an int beyond 2^53 to a double, neither of which is a strict weak
  /// order, so std::sort with it is undefined on such values; elsewhere
  /// (every column whose ranks_exact() holds) the two agree.
  static int RankCompare(const Value& a, const Value& b);

  /// The sorted index's key order: ascending, a NaN after every other key
  /// (a strict weak order on doubles, which `<` is not once a NaN is in).
  static bool NumLess(double a, double b) {
    return a < b || (std::isnan(b) && !std::isnan(a));
  }

 private:
  struct Slot {
    Column col;
    uint64_t built_content_version = 0;  ///< Table::content_version at build
    size_t built_rows = 0;               ///< physical rows covered
    bool built = false;
    // Incremental-extension state: the value -> code map and the code ->
    // rank relabeling of the last (re)build, so appends avoid re-deriving
    // them from the dictionary.
    std::unordered_map<Value, uint32_t, ValueHash> dict_index;
    std::vector<uint32_t> rank_of_code;
    // Freshness published for the lock-free reader fast path; stored under
    // build_mu_ after the arrays are final (release), checked with an
    // acquire load in column(). `published` is the release/acquire gate.
    std::atomic<uint64_t> published_version{0};
    std::atomic<size_t> published_rows{0};
    std::atomic<bool> published{false};
  };

  friend class Table;

  /// Table::SetCandidates's hook: sets row `r`'s `probs` bit of column `c`
  /// if the column is built and covers the row. Writers call it with
  /// exclusive access to the table, so no reader holds the arrays.
  void PatchCandidates(RowId r, size_t c, bool probabilistic);

  void Rebuild(size_t c) DAISY_REQUIRES(build_mu_);
  void Extend(size_t c) DAISY_REQUIRES(build_mu_);
  static void AssignRanks(Slot* slot);

  const Table* table_;
  /// Sized at construction, never resized. Slots are not GUARDED_BY: the
  /// vector itself is immutable after construction, each slot's arrays are
  /// written only under build_mu_ (Rebuild/Extend/PatchCandidates), and
  /// the published_* atomics are the slot's own release/acquire gate for
  /// lock-free readers.
  std::vector<Slot> slots_;
  uint64_t id_;
  Mutex build_mu_;  ///< serializes builds, patches and publication
};

}  // namespace daisy

#endif  // DAISY_STORAGE_COLUMN_CACHE_H_
