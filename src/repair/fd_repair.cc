#include "repair/fd_repair.h"

#include <unordered_map>
#include <utility>

namespace daisy {

namespace {

std::vector<CandidateSource> ToSources(
    std::vector<std::pair<Value, size_t>> hist) {
  SortFdRhsHistogram(&hist);
  std::vector<CandidateSource> sources;
  sources.reserve(hist.size());
  for (auto& [value, count] : hist) {
    sources.push_back(
        {std::move(value), static_cast<double>(count), CandidateKind::kPoint});
  }
  return sources;
}

// P(lhs | rhs) of one rhs bucket: per lhs attribute, the histogram of the
// bucket's values, or no sources when the attribute is single-valued there
// (the cell stays clean).
std::vector<std::vector<CandidateSource>> LhsSources(
    const Table& table, const FdView& fd, const std::vector<RowId>& bucket) {
  std::vector<std::vector<CandidateSource>> out;
  out.reserve(fd.lhs.size());
  for (size_t lhs_col : fd.lhs) {
    std::unordered_map<Value, size_t, ValueHash> hist;
    for (RowId o : bucket) hist[table.cell(o, lhs_col).original()] += 1;
    out.push_back(hist.size() <= 1
                      ? std::vector<CandidateSource>{}
                      : ToSources({hist.begin(), hist.end()}));
  }
  return out;
}

RepairRecord MakeRecord(const DenialConstraint& dc, int32_t pair_tag,
                        const std::vector<CandidateSource>& sources,
                        const std::vector<RowId>& conflicting_rows) {
  RepairRecord rec;
  rec.rule = dc.name();
  rec.pair_tag = pair_tag;
  rec.sources = sources;
  rec.conflicting_rows = conflicting_rows;
  return rec;
}

}  // namespace

RepairStats RepairFdViolations(Table* table, const FdDeltaDetector& fd,
                               const std::vector<RowId>& rows,
                               ProvenanceStore* provenance) {
  const DenialConstraint& dc = fd.dc();
  const FdView& view = dc.fd();
  RepairStats stats;
  // Each distribution is built once per call, on the first repaired row
  // that needs it: a group's P(rhs | lhs) and an rhs value's P(lhs | rhs).
  std::unordered_map<const FdDeltaDetector::Group*,
                     std::vector<CandidateSource>>
      rhs_sources;
  std::unordered_map<Value, std::vector<std::vector<CandidateSource>>,
                     ValueHash>
      lhs_sources;
  for (RowId r : rows) {
    const FdDeltaDetector::Group* group = fd.GroupOf(r);
    if (group == nullptr || !group->violating()) continue;
    auto [rhs_it, new_group] = rhs_sources.try_emplace(group);
    if (new_group) ++stats.violating_groups;
    if (provenance->HasRecord(r, view.rhs, dc.name())) continue;
    ++stats.tuples_repaired;
    if (rhs_it->second.empty()) {
      rhs_it->second = ToSources({group->hist.begin(), group->hist.end()});
    }

    // Instance "lhs clean": rhs candidates = P(rhs | lhs) (pair tag 0).
    provenance->Record(table, r, view.rhs,
                       MakeRecord(dc, 0, rhs_it->second, group->rows));
    ++stats.cells_repaired;

    // Instance "rhs clean": per-attribute lhs candidates = P(lhs | rhs)
    // over the rows sharing r's rhs (pair tag 1).
    const Value& rhs = table->cell(r, view.rhs).original();
    const std::vector<RowId>& bucket = fd.RhsBucket(rhs);
    auto lhs_it = lhs_sources.find(rhs);
    if (lhs_it == lhs_sources.end()) {
      lhs_it =
          lhs_sources.emplace(rhs, LhsSources(*table, view, bucket)).first;
    }
    for (size_t i = 0; i < view.lhs.size(); ++i) {
      if (lhs_it->second[i].empty()) continue;
      provenance->Record(table, r, view.lhs[i],
                         MakeRecord(dc, 1, lhs_it->second[i], bucket));
      ++stats.cells_repaired;
    }
  }
  return stats;
}

void RefreshFdLhsCandidates(Table* table, const FdDeltaDetector& fd,
                            const std::vector<Value>& rhs_values,
                            ProvenanceStore* provenance) {
  const DenialConstraint& dc = fd.dc();
  const FdView& view = dc.fd();
  for (const Value& rhs : rhs_values) {
    const std::vector<RowId>& bucket = fd.RhsBucket(rhs);
    std::vector<std::vector<CandidateSource>> lhs;  // built on first use
    for (RowId r : bucket) {
      if (!provenance->HasRecord(r, view.rhs, dc.name())) continue;
      if (lhs.empty()) lhs = LhsSources(*table, view, bucket);
      for (size_t i = 0; i < view.lhs.size(); ++i) {
        if (lhs[i].empty()) {
          provenance->DropRecord(table, r, view.lhs[i], dc.name(), 1);
        } else {
          provenance->Record(table, r, view.lhs[i],
                             MakeRecord(dc, 1, lhs[i], bucket));
        }
      }
    }
  }
}

}  // namespace daisy
