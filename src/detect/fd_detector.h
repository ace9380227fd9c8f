// FD violation detection via hash group-by (the BigDansing optimization:
// group on the FD's lhs instead of a self-join, O(n) instead of O(n^2)).

#ifndef DAISY_DETECT_FD_DETECTOR_H_
#define DAISY_DETECT_FD_DETECTOR_H_

#include <vector>

#include "constraints/denial_constraint.h"
#include "detect/group_by.h"
#include "storage/table.h"

namespace daisy {

/// All rows sharing one lhs value combination, with the distinct rhs values
/// observed. The group violates the FD iff it has >1 distinct rhs.
struct FdGroup {
  GroupKey lhs_key;
  std::vector<RowId> rows;
  /// Distinct rhs values with their in-group frequencies, descending count.
  std::vector<std::pair<Value, size_t>> rhs_histogram;

  bool violating() const { return rhs_histogram.size() > 1; }
  size_t total() const { return rows.size(); }
};

/// Detects FD violations among `rows`. Requires dc.IsFd().
/// Returns only the groups (clean groups are filtered unless
/// `include_clean`). Runs on the table's columnar dictionary codes; the
/// grouping is identical to evaluating Cell::original() per row.
std::vector<FdGroup> DetectFdViolations(const Table& table,
                                        const DenialConstraint& dc,
                                        const std::vector<RowId>& rows,
                                        bool include_clean = false);

/// Canonical ordering of detection output, shared by the from-scratch
/// detectors above and the delta-maintained FdDeltaDetector so their group
/// lists compare bit-identically: groups by lhs key (Value::Compare), each
/// histogram by (count desc, value).
void SortFdGroups(std::vector<FdGroup>* groups);
void SortFdRhsHistogram(std::vector<std::pair<Value, size_t>>* hist);

}  // namespace daisy

#endif  // DAISY_DETECT_FD_DETECTOR_H_
