// Hash-based grouping of table rows on column subsets — the BigDansing-style
// O(n) detection primitive for FDs.
//
// Grouping runs on the table's columnar dictionary codes: each row
// contributes one uint32_t per grouping column instead of hashing a Value
// tuple per row. Group keys in the returned map are the dictionary's
// representative values — Equals/Hash-consistent with the cell values, so
// lookups by a per-row MakeGroupKey find the row's group.

#ifndef DAISY_DETECT_GROUP_BY_H_
#define DAISY_DETECT_GROUP_BY_H_

#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "storage/column_cache.h"
#include "storage/table.h"

namespace daisy {

/// A grouping key: the tuple of values of the grouping columns.
using GroupKey = std::vector<Value>;

struct GroupKeyHash {
  size_t operator()(const GroupKey& key) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : key) {
      h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct GroupKeyEq {
  bool operator()(const GroupKey& a, const GroupKey& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
};

using GroupMap =
    std::unordered_map<GroupKey, std::vector<RowId>, GroupKeyHash, GroupKeyEq>;

/// Extracts the grouping key (original values) of row `r` on `columns`.
GroupKey MakeGroupKey(const Table& table, RowId r,
                      const std::vector<size_t>& columns);

/// Groups `rows` of `table` by the original values of `columns`, using the
/// table's columnar dictionary codes.
GroupMap GroupRowsBy(const Table& table, const std::vector<size_t>& columns,
                     const std::vector<RowId>& rows);

}  // namespace daisy

#endif  // DAISY_DETECT_GROUP_BY_H_
