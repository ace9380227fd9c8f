// Grouping keys on column subsets: the tuple of a row's original values on
// the grouping columns, with the hash and equality the FD index keys its
// maps by.

#ifndef DAISY_DETECT_GROUP_BY_H_
#define DAISY_DETECT_GROUP_BY_H_

#include <vector>

#include "common/value.h"
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

/// Extracts the grouping key (original values) of row `r` on `columns`.
GroupKey MakeGroupKey(const Table& table, RowId r,
                      const std::vector<size_t>& columns);

}  // namespace daisy

#endif  // DAISY_DETECT_GROUP_BY_H_
