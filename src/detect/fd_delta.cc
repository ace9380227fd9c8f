#include "detect/fd_delta.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "storage/column_cache.h"

namespace daisy {

void SortFdGroups(std::vector<FdGroup>* groups) {
  std::sort(groups->begin(), groups->end(),
            [](const FdGroup& a, const FdGroup& b) {
              const size_t n = std::min(a.lhs_key.size(), b.lhs_key.size());
              for (size_t i = 0; i < n; ++i) {
                const int c =
                    ColumnCache::RankCompare(a.lhs_key[i], b.lhs_key[i]);
                if (c != 0) return c < 0;
              }
              return a.rows < b.rows;  // one FD's keys share a length
            });
}

void SortFdRhsHistogram(std::vector<std::pair<Value, size_t>>* hist) {
  std::sort(hist->begin(), hist->end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return ColumnCache::RankCompare(a.first, b.first) < 0;
  });
}

namespace {

// A key holding a NaN equals no key, itself included: its row is a clean
// group of its own, kept out of groups_, where a delete could not find it.
bool HasNan(const GroupKey& key) {
  return std::any_of(key.begin(), key.end(),
                     [](const Value& v) { return v.is_nan(); });
}

void RemoveRhs(FdDeltaDetector::Group* g, const Value& rhs) {
  if (rhs.is_nan()) {
    --g->nan_rhs;
    return;
  }
  auto h = g->hist.find(rhs);
  if (h != g->hist.end() && --h->second == 0) g->hist.erase(h);
}

}  // namespace

std::vector<std::pair<Value, size_t>> FdDeltaDetector::Group::Histogram()
    const {
  std::vector<std::pair<Value, size_t>> out(hist.begin(), hist.end());
  out.insert(out.end(), nan_rhs,
             {Value(std::numeric_limits<double>::quiet_NaN()), 1});
  return out;
}

FdDeltaDetector::FdDeltaDetector(const Table* table,
                                 const DenialConstraint* dc)
    : table_(table), dc_(dc) {
  const FdView& fd = dc_->fd();
  const size_t n = table_->num_rows();
  groups_.reserve(n);
  by_rhs_.reserve(n);
  for (RowId r = 0; r < n; ++r) {
    if (!table_->is_live(r)) continue;
    const Value& rhs = table_->cell(r, fd.rhs).original();
    if (!rhs.is_nan()) by_rhs_[rhs].push_back(r);  // rows in id order
    GroupKey key = MakeGroupKey(*table_, r, fd.lhs);
    if (!HasNan(key)) groups_[std::move(key)].Add(r, rhs);
  }
  for (const auto& [key, g] : groups_) AddContribution(g);
}

void FdDeltaDetector::RemoveContribution(const GroupKey& key) {
  auto it = groups_.find(key);
  if (it == groups_.end() || !it->second.violating()) return;
  const Group& g = it->second;
  --violating_groups_;
  violating_rows_ -= g.rows.size();
  candidate_sum_ -= g.distinct_rhs();
  for (const auto& [value, count] : g.hist) {
    auto ref = dirty_rhs_refs_.find(value);
    if (ref != dirty_rhs_refs_.end() && --ref->second == 0) {
      dirty_rhs_refs_.erase(ref);
    }
  }
}

void FdDeltaDetector::AddContribution(const Group& group) {
  if (!group.violating()) return;
  ++violating_groups_;
  violating_rows_ += group.rows.size();
  candidate_sum_ += group.distinct_rhs();
  for (const auto& [value, count] : group.hist) ++dirty_rhs_refs_[value];
}

FdDeltaEffect FdDeltaDetector::ApplyDelta(const TableDelta& delta) {
  const FdView& fd = dc_->fd();
  FdDeltaEffect effect;
  std::unordered_set<Value, ValueHash> changed_rhs;
  auto bucket_changed = [&](const Value& rhs) {
    if (changed_rhs.insert(rhs).second) effect.changed_rhs.push_back(rhs);
  };
  // Groups whose membership this batch touches: their contribution to the
  // counters is retracted up front and re-added once the batch is folded
  // in, so every transition (clean<->violating, histogram growth) patches
  // them exactly. The map remembers whether the group was violating
  // *before* the batch — rows of a group that stops violating carry
  // repairs computed against evidence that no longer exists, so they
  // count as stale too.
  std::vector<GroupKey> touched_order;
  std::unordered_map<GroupKey, bool, GroupKeyHash, GroupKeyEq> touched;
  auto touch = [&](const GroupKey& key) {
    auto existing = groups_.find(key);
    const bool was_violating =
        existing != groups_.end() && existing->second.violating();
    if (touched.emplace(key, was_violating).second) {
      touched_order.push_back(key);
      RemoveContribution(key);
    }
  };

  for (RowId r : delta.appended) {
    if (!table_->is_live(r)) continue;
    const Value& rhs = table_->cell(r, fd.rhs).original();
    GroupKey key = MakeGroupKey(*table_, r, fd.lhs);
    // Appended ids exceed all existing: every row list stays ascending.
    if (!HasNan(key)) {
      touch(key);
      groups_[key].Add(r, rhs);
    }
    if (rhs.is_nan()) continue;  // no bucket
    by_rhs_[rhs].push_back(r);
    bucket_changed(rhs);
  }
  for (RowId r : delta.deleted) {
    GroupKey key = MakeGroupKey(*table_, r, fd.lhs);
    const Value& rhs = table_->cell(r, fd.rhs).original();
    if (!HasNan(key)) {
      auto it = groups_.find(key);
      if (it == groups_.end()) continue;
      Group& g = it->second;
      const auto pos = std::find(g.rows.begin(), g.rows.end(), r);
      if (pos == g.rows.end()) continue;  // row never tracked (stale delta)
      touch(key);  // reads counters only; g and pos stay valid
      g.rows.erase(pos);
      RemoveRhs(&g, rhs);
    }
    if (rhs.is_nan()) continue;  // no bucket
    auto bucket = by_rhs_.find(rhs);
    if (bucket != by_rhs_.end()) {
      std::vector<RowId>& rows = bucket->second;
      const auto at = std::find(rows.begin(), rows.end(), r);
      if (at != rows.end()) rows.erase(at);
      if (rows.empty()) by_rhs_.erase(bucket);
    }
    bucket_changed(rhs);
  }

  std::vector<RowId>& stale = effect.stale_rows;
  for (const GroupKey& key : touched_order) {
    auto it = groups_.find(key);
    if (it == groups_.end()) continue;
    if (it->second.rows.empty()) {
      groups_.erase(it);
      continue;
    }
    AddContribution(it->second);
    // Stale: the group violates now (members need fresh fixes against the
    // changed histogram) or violated before (a delete resolved it — the
    // survivors' probabilistic repairs must be retracted, matching what
    // cleaning the post-delete data from scratch would produce).
    if (it->second.violating() || touched[key]) {
      stale.insert(stale.end(), it->second.rows.begin(),
                   it->second.rows.end());
    }
  }
  std::sort(stale.begin(), stale.end());
  stale.erase(std::unique(stale.begin(), stale.end()), stale.end());
  return effect;
}

std::vector<FdGroup> FdDeltaDetector::ViolatingGroups(
    bool include_clean) const {
  std::vector<FdGroup> out;
  out.reserve(include_clean ? groups_.size() : violating_groups_);
  for (const auto& [key, g] : groups_) {
    if (!include_clean && !g.violating()) continue;
    FdGroup group;
    group.lhs_key = key;
    group.rows = g.rows;
    group.rhs_histogram = g.Histogram();
    SortFdRhsHistogram(&group.rhs_histogram);
    out.push_back(std::move(group));
  }
  if (include_clean) {
    const FdView& fd = dc_->fd();
    for (RowId r : table_->AllRowIds()) {
      GroupKey key = MakeGroupKey(*table_, r, fd.lhs);
      if (!HasNan(key)) continue;
      const Value& rhs = table_->cell(r, fd.rhs).original();
      out.push_back({std::move(key), {r}, {{rhs, 1}}});
    }
  }
  SortFdGroups(&out);
  return out;
}

const FdDeltaDetector::Group* FdDeltaDetector::GroupOf(RowId r) const {
  const auto it = groups_.find(MakeGroupKey(*table_, r, dc_->fd().lhs));
  return it == groups_.end() ? nullptr : &it->second;
}

const std::vector<RowId>& FdDeltaDetector::RhsBucket(const Value& rhs) const {
  static const std::vector<RowId> kEmpty;
  const auto it = by_rhs_.find(rhs);
  return it == by_rhs_.end() ? kEmpty : it->second;
}

RelaxResult FdDeltaDetector::Relax(const std::vector<RowId>& answer,
                                   const std::vector<bool>* checked) const {
  const FdView& fd = dc_->fd();
  RelaxResult out;
  std::vector<bool> in_scope(table_->num_rows(), false);
  for (RowId r : answer) in_scope[r] = true;

  std::vector<RowId> next;
  auto take = [&](const std::vector<RowId>& bucket) {
    for (RowId o : bucket) {
      ++out.tuples_scanned;
      if (!in_scope[o]) {
        in_scope[o] = true;
        out.extra.push_back(o);
        next.push_back(o);
      }
    }
  };

  std::unordered_set<GroupKey, GroupKeyHash, GroupKeyEq> seen_lhs;
  std::unordered_set<Value, ValueHash> seen_rhs;
  std::vector<RowId> frontier = answer;
  while (!frontier.empty()) {
    ++out.iterations;
    for (RowId r : frontier) {
      // With `checked`, only rows that will be repaired seed expansion.
      if (checked != nullptr && (*checked)[r]) continue;
      GroupKey key = MakeGroupKey(*table_, r, fd.lhs);
      const auto group = groups_.find(key);
      const bool tracked = group != groups_.end();
      if (checked != nullptr && !(tracked && group->second.violating())) {
        continue;
      }
      if (seen_lhs.insert(std::move(key)).second && tracked) {
        take(group->second.rows);
      }
      const Value& rhs = table_->cell(r, fd.rhs).original();
      if (seen_rhs.insert(rhs).second) take(RhsBucket(rhs));
    }
    frontier.swap(next);
    next.clear();
  }
  return out;
}

bool FdDeltaDetector::RowsTouchDirty(const std::vector<RowId>& rows) const {
  if (violating_groups_ == 0) return false;
  const FdView& fd = dc_->fd();
  for (RowId r : rows) {
    const Group* group = GroupOf(r);
    if (group != nullptr && group->violating()) return true;
    if (dirty_rhs_refs_.count(table_->cell(r, fd.rhs).original()) > 0) {
      return true;
    }
  }
  return false;
}

FdRuleStats FdDeltaDetector::stats() const {
  FdRuleStats s;
  s.table_rows = table_->num_live_rows();
  s.num_violating_rows = violating_rows_;
  s.num_violating_groups = violating_groups_;
  s.avg_candidates = violating_groups_ == 0
                         ? 1.0
                         : static_cast<double>(candidate_sum_) /
                               static_cast<double>(violating_groups_);
  return s;
}

}  // namespace daisy
