#include "detect/group_by.h"

namespace daisy {

GroupKey MakeGroupKey(const Table& table, RowId r,
                      const std::vector<size_t>& columns) {
  GroupKey key;
  key.reserve(columns.size());
  for (size_t c : columns) key.push_back(table.cell(r, c).original());
  return key;
}

}  // namespace daisy
