#include "storage/column_cache.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "common/metrics.h"

namespace daisy {

namespace {

std::atomic<uint64_t> g_next_cache_id{1};

// Cached rows (re)derived: n per Rebuild, the delta per Extend, 1 per
// in-place candidate patch — the cache's maintenance work, independent of
// timing.
Counter* RowsMaintained() {
  static Counter* const rows = MetricsRegistry::Global().GetCounter(
      "daisy_storage_cache_rows_maintained_total",
      "Column-cache rows (re)derived by rebuilds, extensions and patches");
  return rows;
}

}  // namespace

ColumnCache::ColumnCache(const Table* table)
    : table_(table),
      slots_(table->num_columns()),
      id_(g_next_cache_id.fetch_add(1, std::memory_order_relaxed)) {}

double ColumnCache::NumericCoord(const Value& v) {
  if (v.is_numeric()) return v.AsDouble();
  return static_cast<double>(v.Hash() % (1u << 30));
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Same type and content, doubles by bit pattern.
bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_double()) return a == b;
  return SameBits(a.as_double_raw(), b.as_double_raw());
}

// Did the rebuild change the projection of any *previously built* row?
// Appended rows extend the arrays (and may extend the dictionary) without
// counting as a content change — consumers key coverage to `generation`
// and handle row growth through their own append path, so a rebuild that
// merely picked up new rows (e.g. a candidate-only repair interleaved with
// an ingest batch) must not reset their state. codes + dict determine
// ranks/sorted_*; num/nulls are re-derivable from dict too, but comparing
// them keeps this robust to formula changes.
// num and dict compare bit for bit: NaN equals nothing, so an unchanged
// NaN cell would otherwise count as a change.
bool PrefixUnchanged(const ColumnCache::Column& prev,
                     const ColumnCache::Column& next) {
  const size_t n = prev.nulls.size();
  if (next.nulls.size() < n) return false;
  return std::equal(prev.nulls.begin(), prev.nulls.end(),
                    next.nulls.begin()) &&
         std::equal(prev.codes.begin(), prev.codes.end(),
                    next.codes.begin()) &&
         std::equal(prev.num.begin(), prev.num.end(), next.num.begin(),
                    [](double a, double b) { return SameBits(a, b); }) &&
         prev.dict.size() <= next.dict.size() &&
         std::equal(prev.dict.begin(), prev.dict.end(), next.dict.begin(),
                    [](const Value& a, const Value& b) {
                      return SameBits(a, b);
                    });
}

// The sorted index's entry order: by key (NumLess), then by row id.
bool NumThenIdLess(const std::vector<double>& num, RowId a, RowId b) {
  return ColumnCache::NumLess(num[a], num[b]) ||
         (!ColumnCache::NumLess(num[b], num[a]) && a < b);
}

// Appends one cell to every row-aligned projection and to the dictionary.
// A NaN equals nothing, so it takes a fresh code without probing the
// index: every NaN would land in one hash bucket and make a NaN-heavy
// column quadratic to build.
void AppendCell(const Cell& cell, ColumnCache::Column* col,
                std::unordered_map<Value, uint32_t, ValueHash>* dict_index) {
  const Value& v = cell.original();
  col->probs.push_back(cell.is_probabilistic() ? 1 : 0);
  col->nulls.push_back(v.is_null() ? 1 : 0);
  if (v.is_null()) col->has_nulls = true;
  if (v.is_nan()) col->has_nan = true;
  if (v.is_double()) col->has_double = true;
  if (ColumnCache::IsWideInt(v)) col->has_wide_int = true;
  if (!v.is_null() && !v.is_numeric()) col->numeric_only = false;
  col->num.push_back(ColumnCache::NumericCoord(v));
  const uint32_t next = static_cast<uint32_t>(col->dict.size());
  uint32_t code = next;
  if (!v.is_nan()) code = dict_index->emplace(v, next).first->second;
  if (code == next) col->dict.push_back(v);
  col->codes.push_back(code);
}

// An int against a non-NaN double, exactly (Compare widens the int to a
// double, so int 2^53 + 1 would tie double 2^53, which ties int 2^53).
int CompareIntDouble(int64_t i, double d) {
  if (d >= 0x1p63 || d < -0x1p63) return d > 0 ? -1 : 1;
  const double whole = std::trunc(d);
  const int64_t w = static_cast<int64_t>(whole);
  if (i != w) return i < w ? -1 : 1;
  return whole < d ? -1 : (whole > d ? 1 : 0);
}

}  // namespace

int ColumnCache::RankCompare(const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) return a.Compare(b);
  if (a.is_nan() || b.is_nan()) return int{a.is_nan()} - int{b.is_nan()};
  if (a.is_int() == b.is_int()) return a.Compare(b);
  return a.is_int() ? CompareIntDouble(a.as_int(), b.as_double_raw())
                    : -CompareIntDouble(b.as_int(), a.as_double_raw());
}

// Recomputes the dense rank relabeling (code -> rank, sorted_distinct,
// per-row ranks) from the slot's dictionary and codes, under RankCompare.
// Distinct-under-Equals values tie only when both are NaN (each NaN cell
// has its own code); ties break by code.
void ColumnCache::AssignRanks(Slot* slot) {
  Column& col = slot->col;
  std::vector<uint32_t> order(col.dict.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const int cmp = RankCompare(col.dict[a], col.dict[b]);
    if (cmp != 0) return cmp < 0;
    return a < b;
  });
  slot->rank_of_code.assign(col.dict.size(), 0);
  col.sorted_distinct.clear();
  col.sorted_distinct.reserve(order.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    slot->rank_of_code[order[i]] = i;
    col.sorted_distinct.push_back(col.dict[order[i]]);
  }
  col.ranks.clear();
  col.ranks.reserve(col.codes.size());
  for (uint32_t code : col.codes) col.ranks.push_back(slot->rank_of_code[code]);
}

void ColumnCache::Rebuild(size_t c) {
  const size_t n = table_->num_rows();
  Slot& slot = slots_[c];
  Column fresh;
  fresh.num.reserve(n);
  fresh.codes.reserve(n);
  fresh.nulls.reserve(n);
  fresh.probs.reserve(n);

  std::unordered_map<Value, uint32_t, ValueHash> dict_index;
  dict_index.reserve(n);
  for (RowId r = 0; r < n; ++r) {
    AppendCell(table_->cell(r, c), &fresh, &dict_index);
  }

  // Sorted index over the numeric projection, row id as tiebreak — the
  // order the theta-join detector partitions with.
  fresh.sorted_rows.resize(n);
  std::iota(fresh.sorted_rows.begin(), fresh.sorted_rows.end(), RowId{0});
  std::sort(fresh.sorted_rows.begin(), fresh.sorted_rows.end(),
            [&](RowId a, RowId b) { return NumThenIdLess(fresh.num, a, b); });
  fresh.sorted_num.reserve(n);
  for (RowId r : fresh.sorted_rows) fresh.sorted_num.push_back(fresh.num[r]);

  const bool unchanged = slot.built && PrefixUnchanged(slot.col, fresh);
  fresh.generation = unchanged ? slot.col.generation : slot.col.generation + 1;
  slot.col = std::move(fresh);
  slot.dict_index = std::move(dict_index);
  AssignRanks(&slot);
  slot.built = true;
  slot.built_content_version = table_->content_version(c);
  slot.built_rows = n;
  RowsMaintained()->Increment(n);
}

// Append-only extension: rows [built_rows, num_rows) join the projections
// in O(delta) (plus a block shift of the sorted-index entries ordered after
// the delta's smallest key and, only when the delta introduced a new
// distinct value, an O(n) rank relabel). The content `generation`
// deliberately stays put — the prefix the consumers' derived state was
// computed on is unchanged.
void ColumnCache::Extend(size_t c) {
  const size_t n = table_->num_rows();
  Slot& slot = slots_[c];
  Column& col = slot.col;
  const size_t old_n = slot.built_rows;
  const size_t old_dict = col.dict.size();
  for (RowId r = old_n; r < n; ++r) {
    AppendCell(table_->cell(r, c), &col, &slot.dict_index);
  }
  const bool new_distinct = col.dict.size() != old_dict;

  if (new_distinct) {
    // A fresh value can rank anywhere in the Compare order: relabel.
    AssignRanks(&slot);
  } else {
    for (RowId r = old_n; r < n; ++r) {
      col.ranks.push_back(slot.rank_of_code[col.codes[r]]);
    }
  }

  // Merge the sorted new tail into the sorted index from the back: each
  // tail row binary-searches its slot among the old entries, and the
  // entries after it shift up in one block copy. Entries ordered before the
  // tail's smallest key never move, and no step gathers through `num`.
  // Every old row id is below every tail row id, so among equal keys the
  // old entries come first: the slot is the upper bound of the key.
  std::vector<RowId> tail(n - old_n);
  std::iota(tail.begin(), tail.end(), old_n);
  std::sort(tail.begin(), tail.end(),
            [&](RowId a, RowId b) { return NumThenIdLess(col.num, a, b); });
  col.sorted_rows.resize(n);
  col.sorted_num.resize(n);
  size_t old_end = old_n;  // old entries not yet placed: [0, old_end)
  size_t out = n;          // placed entries: [out, n)
  for (size_t j = tail.size(); j > 0; --j) {
    const RowId t = tail[j - 1];
    const double key = col.num[t];
    const size_t lo = static_cast<size_t>(
        std::upper_bound(col.sorted_num.begin(),
                         col.sorted_num.begin() + old_end, key, NumLess) -
        col.sorted_num.begin());
    std::copy_backward(col.sorted_rows.begin() + lo,
                       col.sorted_rows.begin() + old_end,
                       col.sorted_rows.begin() + out);
    std::copy_backward(col.sorted_num.begin() + lo,
                       col.sorted_num.begin() + old_end,
                       col.sorted_num.begin() + out);
    out -= old_end - lo + 1;
    old_end = lo;
    col.sorted_rows[out] = t;
    col.sorted_num[out] = key;
  }

  slot.built_rows = n;
  RowsMaintained()->Increment(n - old_n);
}

void ColumnCache::PatchCandidates(RowId r, size_t c, bool probabilistic) {
  MutexLock lock(&build_mu_);
  Slot& slot = slots_[c];
  if (!slot.built || r >= slot.built_rows) return;
  slot.col.probs[r] = probabilistic ? 1 : 0;
  RowsMaintained()->Increment();
}

size_t ColumnCache::TrimmedDistinctCount(size_t c, double frac) {
  const Column& col = column(c);
  if (!col.numeric_only || col.has_nulls || col.sorted_num.empty() ||
      frac <= 0.0 || frac >= 0.5) {
    return col.dict.size();
  }
  const std::vector<double>& s = col.sorted_num;
  const size_t n = s.size();
  const size_t lo = static_cast<size_t>(frac * static_cast<double>(n));
  const size_t hi = n - lo;  // exclusive
  if (hi <= lo) return std::max<size_t>(1, col.dict.size());
  size_t distinct = 1;
  for (size_t i = lo + 1; i < hi; ++i) {
    if (s[i] != s[i - 1]) ++distinct;
  }
  const double scaled = static_cast<double>(distinct) / (1.0 - 2.0 * frac);
  const size_t est = static_cast<size_t>(scaled + 0.5);
  return std::min(col.dict.size(), std::max<size_t>(1, est));
}

void ColumnCache::RefreshBuilt() {
  for (size_t c = 0; c < slots_.size(); ++c) {
    if (slots_[c].published.load(std::memory_order_acquire)) {
      (void)column(c);
    }
  }
}

const ColumnCache::Column& ColumnCache::column(size_t c) {
  Slot& slot = slots_[c];
  // Lock-free fast path: a published slot whose (content-version, rows)
  // pair still matches the table is immutable until the next writer
  // section (writers refresh every cache before releasing the engine's
  // exclusive lock), so its arrays are readable without the build mutex.
  if (slot.published.load(std::memory_order_acquire) &&
      slot.published_version.load(std::memory_order_acquire) ==
          table_->content_version(c) &&
      slot.published_rows.load(std::memory_order_acquire) ==
          table_->num_rows()) {
    return slot.col;
  }
  MutexLock lock(&build_mu_);
  if (!slot.built ||
      slot.built_content_version != table_->content_version(c)) {
    Rebuild(c);
  } else if (slot.built_rows < table_->num_rows()) {
    Extend(c);
  }
  slot.published_version.store(slot.built_content_version,
                               std::memory_order_release);
  slot.published_rows.store(slot.built_rows, std::memory_order_release);
  slot.published.store(true, std::memory_order_release);
  return slot.col;
}

}  // namespace daisy
