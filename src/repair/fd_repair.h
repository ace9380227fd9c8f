// Probabilistic repair of FD violations (Section 4.1).
//
// For an FD lhs -> rhs and an erroneous tuple t, the candidate rhs values
// are the rhs values of the tuples sharing t's lhs (probability
// P(rhs | lhs) = in-group frequency) and the candidate lhs values are the
// lhs values of the tuples sharing t's rhs (P(lhs | rhs)). Each repaired
// tuple therefore has two instances — "lhs clean" and "rhs clean" — tagged
// by candidate-pair ids inside the attribute-level cells (Example 2).
//
// Both distributions are the live relation's, read from the rule's
// FdDeltaDetector: the lhs group and the rhs bucket it maintains. The
// index only decides the candidates; which rows to repair is the caller's
// scope, which by Lemmas 1-2 holds every correlated tuple of the rows it
// needs fixed, so the fixes equal the offline fixes over the whole dataset.

#ifndef DAISY_REPAIR_FD_REPAIR_H_
#define DAISY_REPAIR_FD_REPAIR_H_

#include <vector>

#include "detect/fd_delta.h"
#include "repair/provenance.h"
#include "storage/table.h"

namespace daisy {

/// Counters reported by a repair pass.
struct RepairStats {
  size_t violating_groups = 0;
  size_t tuples_repaired = 0;
  size_t cells_repaired = 0;
};

/// Repairs every row of `rows` that sits in a violating lhs group of `fd`'s
/// rule and holds no record of that rule yet (a repaired tuple's fixes are
/// complete by Lemma 1): a pair-tag-0 rhs record from its lhs group and a
/// pair-tag-1 record per lhs attribute whose P(lhs | rhs) over the row's
/// rhs bucket has more than one value. Histograms are in
/// SortFdRhsHistogram order and conflicting rows ascending. `fd` must index
/// `table`. `violating_groups` counts the distinct violating groups met.
RepairStats RepairFdViolations(Table* table, const FdDeltaDetector& fd,
                               const std::vector<RowId>& rows,
                               ProvenanceStore* provenance);

/// Re-derives the pair-tag-1 records of the rows `fd`'s rule has already
/// repaired whose rhs value is in `rhs_values` (buckets an ingest batch
/// changed): rewritten from the current bucket, or dropped once its
/// P(lhs | rhs) has shrunk to one value. Their pair-tag-0 records depend
/// only on their lhs group, which FdDeltaDetector::ApplyDelta reports as
/// stale when it changes.
void RefreshFdLhsCandidates(Table* table, const FdDeltaDetector& fd,
                            const std::vector<Value>& rhs_values,
                            ProvenanceStore* provenance);

}  // namespace daisy

#endif  // DAISY_REPAIR_FD_REPAIR_H_
