#include "repair/fd_repair.h"

#include <memory>
#include <unordered_map>
#include <utility>

namespace daisy {

namespace {

SharedSources ToSources(std::vector<std::pair<Value, size_t>> hist) {
  SortFdRhsHistogram(&hist);
  std::vector<CandidateSource> sources;
  sources.reserve(hist.size());
  for (auto& [value, count] : hist) {
    sources.push_back(
        {std::move(value), static_cast<double>(count), CandidateKind::kPoint});
  }
  return ShareSources(std::move(sources));
}

// P(lhs | rhs) of one rhs bucket: per lhs attribute, the histogram of the
// bucket's values, or null when the attribute is single-valued there (the
// cell stays clean).
std::vector<SharedSources> LhsSources(const Table& table, const FdView& fd,
                                      const std::vector<RowId>& bucket) {
  std::vector<SharedSources> out;
  out.reserve(fd.lhs.size());
  for (size_t lhs_col : fd.lhs) {
    std::unordered_map<Value, size_t, ValueHash> hist;
    for (RowId o : bucket) hist[table.cell(o, lhs_col).original()] += 1;
    out.push_back(hist.size() <= 1 ? nullptr
                                   : ToSources({hist.begin(), hist.end()}));
  }
  return out;
}

RepairRecord MakeRecord(const DenialConstraint& dc, int32_t pair_tag,
                        const SharedSources& sources,
                        const SharedRows& conflicting_rows) {
  RepairRecord rec;
  rec.rule = dc.name();
  rec.pair_tag = pair_tag;
  rec.sources = sources;
  rec.conflicting_rows = conflicting_rows;
  return rec;
}

SharedRows ShareRows(const std::vector<RowId>& rows) {
  return std::make_shared<const std::vector<RowId>>(rows);
}

// A distribution with the rows it was read from, built once per call and
// shared by every record derived from it: a group's P(rhs | lhs), or an rhs
// bucket's P(lhs | rhs) per lhs attribute.
template <typename Sources>
struct Derived {
  Sources sources;
  SharedRows rows;
};
using RhsDistribution = Derived<SharedSources>;
using LhsDistribution = Derived<std::vector<SharedSources>>;

}  // namespace

RepairStats RepairFdViolations(Table* table, const FdDeltaDetector& fd,
                               const std::vector<RowId>& rows,
                               ProvenanceStore* provenance) {
  const DenialConstraint& dc = fd.dc();
  const FdView& view = dc.fd();
  RepairStats stats;
  // Each distribution is built once per call, on the first repaired row
  // that needs it: a group's P(rhs | lhs) and an rhs value's P(lhs | rhs).
  std::unordered_map<const FdDeltaDetector::Group*, RhsDistribution>
      rhs_sources;
  std::unordered_map<Value, LhsDistribution, ValueHash> lhs_sources;
  for (RowId r : rows) {
    const FdDeltaDetector::Group* group = fd.GroupOf(r);
    if (group == nullptr || !group->violating()) continue;
    auto [rhs_it, new_group] = rhs_sources.try_emplace(group);
    if (new_group) ++stats.violating_groups;
    if (provenance->HasRecord(r, view.rhs, dc.name())) continue;
    ++stats.tuples_repaired;
    RhsDistribution& rhs_dist = rhs_it->second;
    if (rhs_dist.rows == nullptr) {
      rhs_dist.sources = ToSources(group->Histogram());
      rhs_dist.rows = ShareRows(group->rows);
    }

    // Instance "lhs clean": rhs candidates = P(rhs | lhs) (pair tag 0).
    provenance->Record(table, r, view.rhs,
                       MakeRecord(dc, 0, rhs_dist.sources, rhs_dist.rows));
    ++stats.cells_repaired;

    // Instance "rhs clean": per-attribute lhs candidates = P(lhs | rhs)
    // over the rows sharing r's rhs (pair tag 1).
    const Value& rhs = table->cell(r, view.rhs).original();
    auto lhs_it = lhs_sources.find(rhs);
    if (lhs_it == lhs_sources.end()) {
      const std::vector<RowId>& bucket = fd.RhsBucket(rhs);
      lhs_it = lhs_sources
                   .emplace(rhs, LhsDistribution{
                                     LhsSources(*table, view, bucket),
                                     ShareRows(bucket)})
                   .first;
    }
    const LhsDistribution& lhs_dist = lhs_it->second;
    for (size_t i = 0; i < view.lhs.size(); ++i) {
      if (lhs_dist.sources[i] == nullptr) continue;
      provenance->Record(table, r, view.lhs[i],
                         MakeRecord(dc, 1, lhs_dist.sources[i], lhs_dist.rows));
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
    LhsDistribution lhs;  // built on first use
    for (RowId r : bucket) {
      if (!provenance->HasRecord(r, view.rhs, dc.name())) continue;
      if (lhs.rows == nullptr) {
        lhs = {LhsSources(*table, view, bucket), ShareRows(bucket)};
      }
      for (size_t i = 0; i < view.lhs.size(); ++i) {
        if (lhs.sources[i] == nullptr) {
          provenance->DropRecord(table, r, view.lhs[i], dc.name(), 1);
        } else {
          provenance->Record(table, r, view.lhs[i],
                             MakeRecord(dc, 1, lhs.sources[i], lhs.rows));
        }
      }
    }
  }
}

}  // namespace daisy
