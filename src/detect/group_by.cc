#include "detect/group_by.h"

namespace daisy {

GroupKey MakeGroupKey(const Table& table, RowId r,
                      const std::vector<size_t>& columns) {
  GroupKey key;
  key.reserve(columns.size());
  for (size_t c : columns) key.push_back(table.cell(r, c).original());
  return key;
}

namespace {

struct CodeKeyHash {
  size_t operator()(const std::vector<uint32_t>& key) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (uint32_t c : key) {
      h ^= static_cast<size_t>(c) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
    }
    return h;
  }
};

// Single-column grouping straight off the dictionary codes. Dense buckets
// when the dictionary is comparable to the row subset, a sparse map when a
// small subset probes a wide dictionary.
GroupMap GroupBySingleColumn(const ColumnCache::Column& col,
                             const std::vector<RowId>& rows) {
  GroupMap groups;
  if (col.dict.size() <= rows.size() * 2 + 16) {
    std::vector<std::vector<RowId>> buckets(col.dict.size());
    for (RowId r : rows) buckets[col.codes[r]].push_back(r);
    groups.reserve(rows.size());
    for (uint32_t code = 0; code < buckets.size(); ++code) {
      if (buckets[code].empty()) continue;
      groups.emplace(GroupKey{col.dict[code]}, std::move(buckets[code]));
    }
  } else {
    std::unordered_map<uint32_t, std::vector<RowId>> buckets;
    buckets.reserve(rows.size());
    for (RowId r : rows) buckets[col.codes[r]].push_back(r);
    groups.reserve(buckets.size());
    for (auto& [code, members] : buckets) {
      groups.emplace(GroupKey{col.dict[code]}, std::move(members));
    }
  }
  return groups;
}

}  // namespace

GroupMap GroupRowsBy(const Table& table, const std::vector<size_t>& columns,
                     const std::vector<RowId>& rows) {
  if (columns.empty()) {
    // No grouping columns: every row shares the empty key.
    GroupMap groups;
    if (!rows.empty()) groups.emplace(GroupKey{}, rows);
    return groups;
  }
  ColumnCache& cache = table.columns();
  if (columns.size() == 1) {
    return GroupBySingleColumn(cache.column(columns[0]), rows);
  }
  std::vector<const ColumnCache::Column*> cols;
  cols.reserve(columns.size());
  for (size_t c : columns) cols.push_back(&cache.column(c));

  std::unordered_map<std::vector<uint32_t>, std::vector<RowId>, CodeKeyHash>
      buckets;
  buckets.reserve(rows.size());
  std::vector<uint32_t> code_key(columns.size());
  for (RowId r : rows) {
    for (size_t i = 0; i < cols.size(); ++i) code_key[i] = cols[i]->codes[r];
    buckets[code_key].push_back(r);
  }
  GroupMap groups;
  groups.reserve(buckets.size());
  for (auto& [codes, members] : buckets) {
    GroupKey key;
    key.reserve(codes.size());
    for (size_t i = 0; i < codes.size(); ++i) {
      key.push_back(cols[i]->dict[codes[i]]);
    }
    groups.emplace(std::move(key), std::move(members));
  }
  return groups;
}

}  // namespace daisy
