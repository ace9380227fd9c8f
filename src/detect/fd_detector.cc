#include "detect/fd_detector.h"

#include <algorithm>
#include <cstdint>

namespace daisy {

void SortFdGroups(std::vector<FdGroup>* out) {
  // Deterministic order for tests: sort groups by key.
  std::sort(out->begin(), out->end(), [](const FdGroup& a, const FdGroup& b) {
    for (size_t i = 0; i < std::min(a.lhs_key.size(), b.lhs_key.size()); ++i) {
      const int c = a.lhs_key[i].Compare(b.lhs_key[i]);
      if (c != 0) return c < 0;
    }
    return a.lhs_key.size() < b.lhs_key.size();
  });
}

void SortFdRhsHistogram(std::vector<std::pair<Value, size_t>>* hist) {
  std::sort(hist->begin(), hist->end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first.Compare(b.first) < 0;
            });
}

std::vector<FdGroup> DetectFdViolations(const Table& table,
                                        const DenialConstraint& dc,
                                        const std::vector<RowId>& rows,
                                        bool include_clean) {
  const FdView& fd = dc.fd();
  GroupMap groups = GroupRowsBy(table, fd.lhs, rows);
  const ColumnCache::Column& rhs_col = table.columns().column(fd.rhs);
  std::vector<FdGroup> out;
  out.reserve(groups.size());
  // Scratch histogram over rhs dictionary codes, reset per group by
  // touching only the codes the group used.
  std::vector<size_t> counts(rhs_col.dict.size(), 0);
  std::vector<uint32_t> seen_codes;
  for (auto& [key, members] : groups) {
    seen_codes.clear();
    for (RowId r : members) {
      const uint32_t code = rhs_col.codes[r];
      if (counts[code]++ == 0) seen_codes.push_back(code);
    }
    const size_t distinct = seen_codes.size();
    if (distinct <= 1 && !include_clean) {
      for (uint32_t code : seen_codes) counts[code] = 0;
      continue;
    }
    FdGroup group;
    group.lhs_key = key;
    group.rhs_histogram.reserve(distinct);
    for (uint32_t code : seen_codes) {
      group.rhs_histogram.emplace_back(rhs_col.dict[code], counts[code]);
      counts[code] = 0;
    }
    group.rows = std::move(members);
    SortFdRhsHistogram(&group.rhs_histogram);
    out.push_back(std::move(group));
  }
  SortFdGroups(&out);
  return out;
}

}  // namespace daisy
