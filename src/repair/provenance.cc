#include "repair/provenance.h"

#include <algorithm>

namespace daisy {

namespace {

bool IsRangeKind(CandidateKind kind) {
  return kind != CandidateKind::kPoint;
}

// True if bound `a` is a tighter constraint than `b` for `kind`: for the
// less-than family smaller bounds dominate, for greater-than larger ones.
bool TighterBound(CandidateKind kind, const Value& a, const Value& b) {
  switch (kind) {
    case CandidateKind::kLessThan:
    case CandidateKind::kLessEq:
      return a < b;
    case CandidateKind::kGreaterThan:
    case CandidateKind::kGreaterEq:
      return a > b;
    case CandidateKind::kPoint:
      return false;
  }
  return false;
}

// A cell's candidate set as a pure function of its records: sources
// unioned by (tag, kind, value) with counts summed across rules (ranges of
// one direction keep the tightest bound), sorted by (tag, kind, value),
// normalized over the cell. Null when the records hold no source.
CandidateSetPtr DeriveCandidates(const std::vector<RepairRecord>& records) {
  // Union sources across rules: key = (pair_tag, kind, value), counts sum.
  struct Merged {
    int32_t tag;
    CandidateKind kind;
    Value value;
    double count;
  };
  std::vector<Merged> merged;
  for (const RepairRecord& rec : records) {
    for (const CandidateSource& src : rec.source_list()) {
      bool found = false;
      for (Merged& m : merged) {
        if (m.tag != rec.pair_tag || m.kind != src.kind) continue;
        if (IsRangeKind(src.kind)) {
          m.count += src.count;
          if (TighterBound(src.kind, src.value, m.value)) m.value = src.value;
          found = true;
          break;
        }
        if (m.value == src.value) {
          m.count += src.count;
          found = true;
          break;
        }
      }
      if (!found) {
        merged.push_back({rec.pair_tag, src.kind, src.value, src.count});
      }
    }
  }
  // Deterministic order regardless of record arrival: sort by tag, kind,
  // then value.
  std::sort(merged.begin(), merged.end(), [](const Merged& a, const Merged& b) {
    if (a.tag != b.tag) return a.tag < b.tag;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.value.Compare(b.value) < 0;
  });
  std::vector<Candidate> cands;
  cands.reserve(merged.size());
  for (const Merged& m : merged) {
    Candidate c;
    c.value = m.value;
    c.prob = m.count;
    c.pair_id = m.tag;
    c.kind = m.kind;
    cands.push_back(std::move(c));
  }
  NormalizeCandidates(&cands);
  return MakeCandidateSet(std::move(cands));
}

}  // namespace

SharedSources ShareSources(std::vector<CandidateSource> sources) {
  return std::make_shared<const std::vector<CandidateSource>>(
      std::move(sources));
}

const std::vector<CandidateSource>& RepairRecord::source_list() const {
  static const std::vector<CandidateSource> kNone;
  return sources == nullptr ? kNone : *sources;
}

const std::vector<RowId>& RepairRecord::conflicting() const {
  static const std::vector<RowId> kNone;
  return conflicting_rows == nullptr ? kNone : *conflicting_rows;
}

void ProvenanceStore::Record(Table* table, RowId row, size_t col,
                             RepairRecord record) {
  std::vector<RepairRecord>& recs = records_[{row, col}];
  bool replaced = false;
  for (RepairRecord& r : recs) {
    if (r.rule == record.rule && r.pair_tag == record.pair_tag) {
      r = std::move(record);
      replaced = true;
      break;
    }
  }
  if (!replaced) recs.push_back(std::move(record));
  RebuildCell(table, row, col);
}

void ProvenanceStore::AppendSources(
    Table* table, RowId row, size_t col, const std::string& rule,
    int32_t pair_tag, const std::vector<CandidateSource>& sources,
    const std::vector<RowId>& conflicting_rows) {
  std::vector<RepairRecord>& recs = records_[{row, col}];
  RepairRecord* target = nullptr;
  for (RepairRecord& r : recs) {
    if (r.rule == rule && r.pair_tag == pair_tag) {
      target = &r;
      break;
    }
  }
  if (target == nullptr) {
    recs.push_back(RepairRecord{rule, pair_tag, {}, {}});
    target = &recs.back();
  }
  // The sources may be shared with other records: grow a copy.
  std::vector<CandidateSource> grown_sources = target->source_list();
  for (const CandidateSource& src : sources) {
    bool merged = false;
    for (CandidateSource& existing : grown_sources) {
      if (existing.kind != src.kind) continue;
      if (IsRangeKind(src.kind)) {
        // Range candidates of the same direction consolidate to the
        // tightest bound (a value satisfying the tightest satisfies all
        // contributing constraints); frequencies accumulate.
        existing.count += src.count;
        if (TighterBound(src.kind, src.value, existing.value)) {
          existing.value = src.value;
        }
        merged = true;
        break;
      }
      if (existing.value == src.value) {
        existing.count += src.count;
        merged = true;
        break;
      }
    }
    if (!merged) grown_sources.push_back(src);
  }
  target->sources = ShareSources(std::move(grown_sources));
  // The rows may be shared with other records too.
  std::vector<RowId> grown = target->conflicting();
  const size_t before = grown.size();
  for (RowId r : conflicting_rows) {
    if (std::find(grown.begin(), grown.end(), r) == grown.end()) {
      grown.push_back(r);
    }
  }
  if (grown.size() != before) {
    target->conflicting_rows =
        std::make_shared<const std::vector<RowId>>(std::move(grown));
  }
  RebuildCell(table, row, col);
}

bool ProvenanceStore::HasRecord(RowId row, size_t col,
                                const std::string& rule) const {
  auto it = records_.find({row, col});
  if (it == records_.end()) return false;
  for (const RepairRecord& r : it->second) {
    if (r.rule == rule) return true;
  }
  return false;
}

const std::vector<RepairRecord>* ProvenanceStore::RecordsFor(
    RowId row, size_t col) const {
  auto it = records_.find({row, col});
  return it == records_.end() ? nullptr : &it->second;
}

void ProvenanceStore::MergeFrom(const ProvenanceStore& other,
                                Table* table) {
  for (const auto& [cell, recs] : other.records_) {
    std::vector<RepairRecord>& mine = records_[cell];
    for (const RepairRecord& rec : recs) {
      bool present = false;
      for (const RepairRecord& existing : mine) {
        if (existing.rule == rec.rule && existing.pair_tag == rec.pair_tag) {
          present = true;
          break;
        }
      }
      if (!present) mine.push_back(rec);
    }
    RebuildCell(table, cell.first, cell.second);
  }
}

void ProvenanceStore::DropRows(const std::vector<RowId>& rows) {
  for (RowId r : rows) {
    // records_ is ordered by (row, col): erase the row's contiguous range.
    auto first = records_.lower_bound({r, 0});
    auto last = records_.lower_bound({r + 1, 0});
    records_.erase(first, last);
  }
}

// Removes `rule`'s records from one cell entry, rebuilding the cell if
// anything was removed; returns the iterator past the (possibly erased)
// entry. Shared by the rule-wide and per-row retraction paths.
std::map<ProvenanceStore::CellKey, std::vector<RepairRecord>>::iterator
ProvenanceStore::PruneRuleFromEntry(
    Table* table,
    std::map<CellKey, std::vector<RepairRecord>>::iterator it,
    const std::string& rule) {
  std::vector<RepairRecord>& recs = it->second;
  const size_t before = recs.size();
  recs.erase(std::remove_if(
                 recs.begin(), recs.end(),
                 [&](const RepairRecord& rec) { return rec.rule == rule; }),
             recs.end());
  if (recs.size() != before) {
    RebuildCell(table, it->first.first, it->first.second);
  }
  return recs.empty() ? records_.erase(it) : std::next(it);
}

void ProvenanceStore::DropRule(Table* table, const std::string& rule) {
  auto it = records_.begin();
  while (it != records_.end()) it = PruneRuleFromEntry(table, it, rule);
}

void ProvenanceStore::DropRuleRecords(Table* table, RowId row,
                                      const std::string& rule) {
  auto it = records_.lower_bound({row, 0});
  while (it != records_.end() && it->first.first == row) {
    it = PruneRuleFromEntry(table, it, rule);
  }
}

void ProvenanceStore::DropRecord(Table* table, RowId row, size_t col,
                                 const std::string& rule, int32_t pair_tag) {
  auto it = records_.find({row, col});
  if (it == records_.end()) return;
  std::vector<RepairRecord>& recs = it->second;
  const auto rec =
      std::find_if(recs.begin(), recs.end(), [&](const RepairRecord& r) {
        return r.rule == rule && r.pair_tag == pair_tag;
      });
  if (rec == recs.end()) return;
  recs.erase(rec);
  if (recs.empty()) records_.erase(it);
  RebuildCell(table, row, col);
}

void ProvenanceStore::RebuildCell(Table* table, RowId row, size_t col) {
  auto it = records_.find({row, col});
  if (it == records_.end() || it->second.empty()) {
    table->SetCandidates(row, col, nullptr);
    return;
  }
  const std::vector<RepairRecord>& recs = it->second;
  table->SetCandidates(row, col,
                       recs.size() == 1 ? SetOfSingleRecord(recs)
                                        : DeriveCandidates(recs));
}

CandidateSetPtr ProvenanceStore::SetOfSingleRecord(
    const std::vector<RepairRecord>& recs) {
  const RepairRecord& rec = recs.front();
  // Only this record holds its sources: nothing can share the set.
  if (rec.sources == nullptr || rec.sources.use_count() == 1) {
    return DeriveCandidates(recs);
  }
  SharedSet& entry = shared_sets_[rec.sources.get()];
  if (entry.sources.lock() == rec.sources && entry.pair_tag == rec.pair_tag) {
    return entry.set;
  }
  entry = {rec.sources, rec.pair_tag, DeriveCandidates(recs)};
  CandidateSetPtr set = entry.set;
  if (shared_sets_.size() >= prune_shared_sets_at_) {
    for (auto e = shared_sets_.begin(); e != shared_sets_.end();) {
      e = e->second.sources.expired() ? shared_sets_.erase(e) : std::next(e);
    }
    prune_shared_sets_at_ = std::max<size_t>(64, 2 * shared_sets_.size());
  }
  return set;
}

}  // namespace daisy
