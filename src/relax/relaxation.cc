#include "relax/relaxation.h"

#include <algorithm>
#include <unordered_set>

#include "detect/group_by.h"

namespace daisy {

namespace {

using KeySet = std::unordered_set<GroupKey, GroupKeyHash, GroupKeyEq>;
using ValueSet = std::unordered_set<Value, ValueHash>;

}  // namespace

FdRelaxIndex::FdRelaxIndex(const Table& table, const FdView& fd) {
  by_lhs_.reserve(table.num_rows());
  by_rhs_.reserve(table.num_rows());
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (!table.is_live(r)) continue;
    by_lhs_[MakeGroupKey(table, r, fd.lhs)].push_back(r);
    by_rhs_[table.cell(r, fd.rhs).original()].push_back(r);
  }
}

void FdRelaxIndex::ApplyDelta(const Table& table, const FdView& fd,
                              const TableDelta& delta) {
  for (RowId r : delta.appended) {
    if (!table.is_live(r)) continue;
    by_lhs_[MakeGroupKey(table, r, fd.lhs)].push_back(r);
    by_rhs_[table.cell(r, fd.rhs).original()].push_back(r);
  }
  auto drop = [](std::vector<RowId>* bucket, RowId r) {
    auto it = std::find(bucket->begin(), bucket->end(), r);
    if (it != bucket->end()) bucket->erase(it);
  };
  for (RowId r : delta.deleted) {
    auto lhs_it = by_lhs_.find(MakeGroupKey(table, r, fd.lhs));
    if (lhs_it != by_lhs_.end()) {
      drop(&lhs_it->second, r);
      if (lhs_it->second.empty()) by_lhs_.erase(lhs_it);
    }
    auto rhs_it = by_rhs_.find(table.cell(r, fd.rhs).original());
    if (rhs_it != by_rhs_.end()) {
      drop(&rhs_it->second, r);
      if (rhs_it->second.empty()) by_rhs_.erase(rhs_it);
    }
  }
}

RelaxResult FdRelaxIndex::Relax(const Table& table, const FdView& fd,
                                const std::vector<RowId>& answer,
                                const DirtyFilter* dirty) const {
  RelaxResult out;
  std::vector<bool> in_scope(table.num_rows(), false);
  for (RowId r : answer) in_scope[r] = true;

  // With a dirty filter, only rows that will be repaired (or carry dirty
  // values) seed further expansion.
  auto expandable = [&](RowId r) {
    if (dirty == nullptr) return true;
    if (dirty->already_checked != nullptr && (*dirty->already_checked)[r]) {
      return false;  // fixes already complete
    }
    if (dirty->lhs_keys == nullptr) return true;
    return dirty->lhs_keys->count(MakeGroupKey(table, r, fd.lhs)) > 0;
  };

  KeySet seen_lhs;
  ValueSet seen_rhs;
  std::vector<RowId> frontier = answer;
  while (!frontier.empty()) {
    ++out.iterations;
    std::vector<RowId> next;
    for (RowId r : frontier) {
      if (!expandable(r)) continue;
      GroupKey key = MakeGroupKey(table, r, fd.lhs);
      if (seen_lhs.insert(key).second) {
        auto it = by_lhs_.find(key);
        if (it != by_lhs_.end()) {
          for (RowId o : it->second) {
            ++out.tuples_scanned;
            if (!in_scope[o]) {
              in_scope[o] = true;
              out.extra.push_back(o);
              next.push_back(o);
            }
          }
        }
      }
      const Value& rhs = table.cell(r, fd.rhs).original();
      if (seen_rhs.insert(rhs).second) {
        auto it = by_rhs_.find(rhs);
        if (it != by_rhs_.end()) {
          for (RowId o : it->second) {
            ++out.tuples_scanned;
            if (!in_scope[o]) {
              in_scope[o] = true;
              out.extra.push_back(o);
              next.push_back(o);
            }
          }
        }
      }
    }
    frontier.swap(next);
  }
  return out;
}

}  // namespace daisy
