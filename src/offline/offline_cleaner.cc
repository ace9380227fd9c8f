#include "offline/offline_cleaner.h"

#include <vector>

#include "detect/fd_delta.h"
#include "detect/theta_join.h"
#include "repair/dc_repair.h"
#include "repair/fd_repair.h"

namespace daisy {

Result<OfflineCleanStats> OfflineCleaner::CleanAll() {
  OfflineCleanStats total;
  for (const DenialConstraint& dc : constraints_->all()) {
    DAISY_ASSIGN_OR_RETURN(OfflineCleanStats s, CleanRule(dc.name()));
    total.violating_groups += s.violating_groups;
    total.tuples_repaired += s.tuples_repaired;
    total.dataset_passes += s.dataset_passes;
    total.pairs_checked += s.pairs_checked;
  }
  return total;
}

Result<OfflineCleanStats> OfflineCleaner::CleanRule(
    const std::string& rule_name) {
  DAISY_ASSIGN_OR_RETURN(const DenialConstraint* dc,
                         constraints_->FindByName(rule_name));
  if (dc->IsFd()) return CleanFd(*dc);
  return CleanDc(*dc);
}

Result<OfflineCleanStats> OfflineCleaner::CleanFd(const DenialConstraint& dc) {
  DAISY_ASSIGN_OR_RETURN(Table * table, db_->GetTable(dc.table()));
  ProvenanceStore& prov = provenance_[dc.table()];
  OfflineCleanStats stats;
  const FdView& fd = dc.fd();

  // Detection: one group-by pass (the BigDansing optimization).
  const FdDeltaDetector index(table, &dc);
  ++stats.dataset_passes;

  // Repair: the offline engine assembles the candidate evidence with one
  // traversal per violating group — the O(ε·n) term of Section 5.2.1. The
  // traversal collects the tuples sharing an rhs value with the group (the
  // group itself included); the candidates are written for them from the
  // index, as the engine writes its own.
  for (const FdGroup& group : index.ViolatingGroups()) {
    ++stats.violating_groups;
    ++stats.dataset_passes;
    std::vector<RowId> evidence;
    for (RowId r = 0; r < table->num_rows(); ++r) {
      if (!table->is_live(r)) continue;
      const Value& rv = table->cell(r, fd.rhs).original();
      for (const auto& [rhs_value, count] : group.rhs_histogram) {
        if (rv == rhs_value) {
          evidence.push_back(r);
          break;
        }
      }
    }
    stats.tuples_repaired +=
        RepairFdViolations(table, index, evidence, &prov).tuples_repaired;
  }
  return stats;
}

Result<OfflineCleanStats> OfflineCleaner::CleanDc(const DenialConstraint& dc) {
  DAISY_ASSIGN_OR_RETURN(Table * table, db_->GetTable(dc.table()));
  ProvenanceStore& prov = provenance_[dc.table()];
  OfflineCleanStats stats;
  ThetaJoinDetector detector(table, &dc, 16);
  const std::vector<ViolationPair> violations = detector.DetectAll();
  stats.pairs_checked = detector.pairs_checked();
  ++stats.dataset_passes;
  DAISY_ASSIGN_OR_RETURN(RepairStats r,
                         RepairDcViolations(table, dc, violations, &prov));
  stats.violating_groups = r.violating_groups;
  stats.tuples_repaired = r.tuples_repaired;
  return stats;
}

}  // namespace daisy
