// The Value-keyed GROUP BY: every joined tuple builds the vector of its
// group columns' most-probable values and looks it up in a hash map under
// Value::Hash / Value::Equals. It is the reference the executor's
// code-keyed aggregation (QueryExecutor::BuildOutput) must reproduce bit
// for bit: the same groups in the same order, the same key values and the
// same aggregate values, sums added in the same tuple order.

#ifndef DAISY_TESTS_AGGREGATE_ORACLE_H_
#define DAISY_TESTS_AGGREGATE_ORACLE_H_

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "detect/group_by.h"
#include "query/executor.h"

namespace daisy {
namespace testutil {

/// The aggregating half of BuildOutput over Value keys: binds `stmt` with
/// the executor's binder, emits at most `row_limit` groups (0 = all) into
/// `sink` and returns the group count.
inline Result<size_t> ValueKeyedAggregate(
    const SelectStmt& stmt, const std::vector<const Table*>& tables,
    JoinedRows joined, size_t row_limit, ResultSink* sink) {
  DAISY_ASSIGN_OR_RETURN(BoundOutput bound, BindOutput(stmt, tables));
  if (!bound.aggregating) return Status::InvalidArgument("not aggregating");
  const std::vector<BoundItem>& items = bound.items;

  struct AggState {
    double sum = 0;
    size_t count = 0;
    Value min;
    Value max;

    void Add(const Value& v) {
      ++count;
      if (v.is_numeric()) sum += v.AsDouble();
      if (min.is_null() || v < min) min = v;
      if (max.is_null() || v > max) max = v;
    }

    Value Finish(AggFunc f, ValueType out_type) const {
      switch (f) {
        case AggFunc::kCount:
          return Value(static_cast<int64_t>(count));
        case AggFunc::kSum:
          return out_type == ValueType::kInt
                     ? Value(static_cast<int64_t>(sum))
                     : Value(sum);
        case AggFunc::kAvg:
          return count == 0 ? Value::Null()
                            : Value(sum / static_cast<double>(count));
        case AggFunc::kMin:
          return min;
        case AggFunc::kMax:
          return max;
        case AggFunc::kNone:
          return Value::Null();
      }
      return Value::Null();
    }
  };
  struct GroupAgg {
    GroupKey key;
    std::vector<AggState> states;
  };
  std::unordered_map<GroupKey, size_t, GroupKeyHash, GroupKeyEq> index;
  std::vector<GroupAgg> groups;
  for (size_t t = 0; t < joined.size(); ++t) {
    const RowId* j = joined[t];
    GroupKey key;
    for (const BoundColumn& g : bound.group_cols) {
      key.push_back(tables[g.table]->cell(j[g.table], g.col).MostProbable());
    }
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) groups.push_back({key, std::vector<AggState>(items.size())});
    GroupAgg& g = groups[it->second];
    for (size_t i = 0; i < items.size(); ++i) {
      const BoundItem& b = items[i];
      if (b.agg == AggFunc::kNone) continue;
      if (b.star) {
        g.states[i].Add(Value(static_cast<int64_t>(1)));
      } else {
        g.states[i].Add(
            tables[b.src.table]->cell(j[b.src.table], b.src.col).MostProbable());
      }
    }
  }

  const size_t n =
      row_limit == 0 ? groups.size() : std::min(groups.size(), row_limit);
  sink->Begin(bound.columns, n);
  std::vector<Value> row(items.size());
  for (size_t gi = 0; gi < n; ++gi) {
    for (size_t i = 0; i < items.size(); ++i) {
      const BoundItem& b = items[i];
      row[i] = b.agg != AggFunc::kNone
                   ? groups[gi].states[i].Finish(b.agg, b.out_type)
                   : groups[gi].key[b.group_key];
    }
    sink->AddValues(row.data());
  }
  sink->Finish(std::move(joined));
  return groups.size();
}

}  // namespace testutil
}  // namespace daisy

#endif  // DAISY_TESTS_AGGREGATE_ORACLE_H_
