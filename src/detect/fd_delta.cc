#include "detect/fd_delta.h"

#include <algorithm>
#include <unordered_set>

namespace daisy {

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
    GroupState& g = groups_[MakeGroupKey(*table_, r, fd.lhs)];
    g.rows.push_back(r);  // ascending: rows visited in id order
    ++g.hist[rhs];
    by_rhs_[rhs].push_back(r);
  }
  for (const auto& [key, g] : groups_) AddContribution(g);
}

void FdDeltaDetector::RemoveContribution(const GroupKey& key) {
  auto it = groups_.find(key);
  if (it == groups_.end() || !it->second.violating()) return;
  const GroupState& g = it->second;
  --violating_groups_;
  violating_rows_ -= g.rows.size();
  candidate_sum_ -= g.hist.size();
  for (const auto& [value, count] : g.hist) {
    auto ref = dirty_rhs_refs_.find(value);
    if (ref != dirty_rhs_refs_.end() && --ref->second == 0) {
      dirty_rhs_refs_.erase(ref);
    }
  }
}

void FdDeltaDetector::AddContribution(const GroupState& group) {
  if (!group.violating()) return;
  ++violating_groups_;
  violating_rows_ += group.rows.size();
  candidate_sum_ += group.hist.size();
  for (const auto& [value, count] : group.hist) ++dirty_rhs_refs_[value];
}

std::vector<RowId> FdDeltaDetector::ApplyDelta(const TableDelta& delta) {
  const FdView& fd = dc_->fd();
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
    touch(key);
    GroupState& g = groups_[key];
    g.rows.push_back(r);  // appended ids exceed all existing: stays sorted
    ++g.hist[rhs];
    by_rhs_[rhs].push_back(r);
  }
  for (RowId r : delta.deleted) {
    GroupKey key = MakeGroupKey(*table_, r, fd.lhs);
    auto it = groups_.find(key);
    if (it == groups_.end()) continue;
    GroupState& g = it->second;
    const auto pos = std::find(g.rows.begin(), g.rows.end(), r);
    if (pos == g.rows.end()) continue;  // row never tracked (stale delta)
    touch(key);  // reads counters only; g and pos stay valid
    g.rows.erase(pos);
    const Value& rhs = table_->cell(r, fd.rhs).original();
    auto h = g.hist.find(rhs);
    if (h != g.hist.end() && --h->second == 0) g.hist.erase(h);
    auto bucket = by_rhs_.find(rhs);
    if (bucket != by_rhs_.end()) {
      std::vector<RowId>& rows = bucket->second;
      const auto at = std::find(rows.begin(), rows.end(), r);
      if (at != rows.end()) rows.erase(at);
      if (rows.empty()) by_rhs_.erase(bucket);
    }
  }

  std::vector<RowId> stale;
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
  return stale;
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
    group.rhs_histogram.assign(g.hist.begin(), g.hist.end());
    SortFdRhsHistogram(&group.rhs_histogram);
    out.push_back(std::move(group));
  }
  SortFdGroups(&out);
  return out;
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
      if (seen_rhs.insert(rhs).second) {
        const auto bucket = by_rhs_.find(rhs);
        if (bucket != by_rhs_.end()) take(bucket->second);
      }
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
    const auto group = groups_.find(MakeGroupKey(*table_, r, fd.lhs));
    if (group != groups_.end() && group->second.violating()) return true;
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
