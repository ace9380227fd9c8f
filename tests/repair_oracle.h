// Reference for FD repair: the scope-restricted form of Section 4.1, which
// counts both candidate distributions over the rows handed in only — the
// form Lemmas 1-2 justify when the scope is a relaxed query result. The
// engine instead reads the live relation's distributions off the rule's
// FdDeltaDetector (repair/fd_repair.h); over a relaxed scope both must
// write the same records. Also a record-for-record comparator for
// ProvenanceStores.

#ifndef DAISY_TESTS_REPAIR_ORACLE_H_
#define DAISY_TESTS_REPAIR_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "constraints/denial_constraint.h"
#include "detect/fd_delta.h"
#include "detect_oracle.h"
#include "repair/fd_repair.h"
#include "repair/provenance.h"
#include "storage/table.h"

namespace daisy {
namespace testutil {

inline std::vector<CandidateSource> SortedSources(
    std::vector<std::pair<Value, size_t>> hist) {
  SortFdRhsHistogram(&hist);
  std::vector<CandidateSource> sources;
  for (const auto& [value, count] : hist) {
    sources.push_back(
        {value, static_cast<double>(count), CandidateKind::kPoint});
  }
  return sources;
}

/// Detects FD violations among `scope` and repairs the rows of its
/// violating groups that hold no record of `dc`: P(rhs | lhs) over the
/// row's group within the scope (pair tag 0), P(lhs | rhs) over the scope
/// rows sharing its rhs (pair tag 1, per lhs attribute with >1 value).
inline RepairStats RepairFdViolationsOverScope(Table* table,
                                               const DenialConstraint& dc,
                                               std::vector<RowId> scope,
                                               ProvenanceStore* provenance) {
  std::sort(scope.begin(), scope.end());
  scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
  const FdView& fd = dc.fd();
  RepairStats stats;
  GroupMap by_rhs = GroupRowsByRowPath(*table, {fd.rhs}, scope);
  for (const FdGroup& group : DetectFdViolationsRowPath(*table, dc, scope)) {
    ++stats.violating_groups;
    for (RowId r : group.rows) {
      if (provenance->HasRecord(r, fd.rhs, dc.name())) continue;
      ++stats.tuples_repaired;
      RepairRecord rec;
      rec.rule = dc.name();
      rec.pair_tag = 0;
      rec.sources = ShareSources(SortedSources(group.rhs_histogram));
      rec.conflicting_rows =
          std::make_shared<const std::vector<RowId>>(group.rows);
      provenance->Record(table, r, fd.rhs, std::move(rec));
      ++stats.cells_repaired;

      const std::vector<RowId>& same_rhs =
          by_rhs[GroupKey{table->cell(r, fd.rhs).original()}];
      for (size_t lhs_col : fd.lhs) {
        std::unordered_map<Value, size_t, ValueHash> hist;
        for (RowId o : same_rhs) hist[table->cell(o, lhs_col).original()] += 1;
        if (hist.size() <= 1) continue;
        RepairRecord lhs_rec;
        lhs_rec.rule = dc.name();
        lhs_rec.pair_tag = 1;
        lhs_rec.sources =
            ShareSources(SortedSources({hist.begin(), hist.end()}));
        lhs_rec.conflicting_rows =
            std::make_shared<const std::vector<RowId>>(same_rhs);
        provenance->Record(table, r, lhs_col, std::move(lhs_rec));
        ++stats.cells_repaired;
      }
    }
  }
  return stats;
}

/// Record-for-record equality of two stores: same cells, and per cell the
/// same records (rule, pair tag, sources in order, conflicting rows).
inline ::testing::AssertionResult SameRecords(const ProvenanceStore& a,
                                              const ProvenanceStore& b) {
  auto same_record = [](const RepairRecord& x, const RepairRecord& y) {
    if (x.rule != y.rule || x.pair_tag != y.pair_tag ||
        x.conflicting() != y.conflicting() ||
        x.source_list().size() != y.source_list().size()) {
      return false;
    }
    for (size_t i = 0; i < x.source_list().size(); ++i) {
      const CandidateSource& xs = x.source_list()[i];
      const CandidateSource& ys = y.source_list()[i];
      if (!(xs.value == ys.value) || xs.count != ys.count ||
          xs.kind != ys.kind) {
        return false;
      }
    }
    return true;
  };
  if (a.records().size() != b.records().size()) {
    return ::testing::AssertionFailure()
           << a.records().size() << " vs " << b.records().size()
           << " repaired cells";
  }
  for (auto ia = a.records().begin(), ib = b.records().begin();
       ia != a.records().end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.size() != ib->second.size()) {
      return ::testing::AssertionFailure()
             << "cell (" << ia->first.first << ", " << ia->first.second
             << ") differs in records";
    }
    for (size_t i = 0; i < ia->second.size(); ++i) {
      if (!same_record(ia->second[i], ib->second[i])) {
        return ::testing::AssertionFailure()
               << "cell (" << ia->first.first << ", " << ia->first.second
               << ") record " << i << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testutil
}  // namespace daisy

#endif  // DAISY_TESTS_REPAIR_ORACLE_H_
