#include "query/executor.h"

#include <unordered_map>

#include "detect/group_by.h"
#include "plan/planner.h"
#include "query/parser.h"

namespace daisy {

std::unique_ptr<Expr> CloneExpr(const Expr& expr) {
  auto out = std::make_unique<Expr>();
  out->kind = expr.kind;
  out->left = expr.left;
  out->op = expr.op;
  out->right_is_column = expr.right_is_column;
  out->right_col = expr.right_col;
  out->right_val = expr.right_val;
  out->children.reserve(expr.children.size());
  for (const auto& child : expr.children) {
    out->children.push_back(CloneExpr(*child));
  }
  return out;
}

Result<SplitWhere> SplitWhereClause(const SelectStmt& stmt,
                                    const std::vector<const Table*>& tables) {
  SplitWhere out;
  out.table_filters.resize(tables.size());

  auto find_table = [&](const ColumnRef& ref) -> Result<size_t> {
    if (!ref.table.empty()) {
      for (size_t i = 0; i < tables.size(); ++i) {
        if (tables[i]->name() == ref.table) return i;
      }
      return Status::NotFound("table '" + ref.table + "' not in FROM clause");
    }
    // Unqualified: unique schema match required.
    size_t found = tables.size();
    for (size_t i = 0; i < tables.size(); ++i) {
      if (tables[i]->schema().HasColumn(ref.column)) {
        if (found != tables.size()) {
          return Status::InvalidArgument("ambiguous column '" + ref.column +
                                         "'");
        }
        found = i;
      }
    }
    if (found == tables.size()) {
      return Status::NotFound("column '" + ref.column +
                              "' not found in any FROM table");
    }
    return found;
  };

  for (const Expr* conjunct : SplitConjuncts(stmt.where.get())) {
    ColumnRef jl, jr;
    if (MatchJoinPredicate(*conjunct, &jl, &jr)) {
      SplitWhere::JoinPred pred;
      DAISY_ASSIGN_OR_RETURN(pred.left_table, find_table(jl));
      DAISY_ASSIGN_OR_RETURN(pred.right_table, find_table(jr));
      DAISY_ASSIGN_OR_RETURN(
          pred.left_col, tables[pred.left_table]->schema().ColumnIndex(jl.column));
      DAISY_ASSIGN_OR_RETURN(
          pred.right_col,
          tables[pred.right_table]->schema().ColumnIndex(jr.column));
      out.joins.push_back(pred);
      continue;
    }
    // Single-table predicate (possibly an OR subtree): find its table.
    // More than one candidate owner means the reference is ambiguous.
    size_t owner = tables.size();
    size_t owners_found = 0;
    for (size_t i = 0; i < tables.size(); ++i) {
      if (ExprRefersOnlyTo(*conjunct, tables[i]->name(),
                           tables[i]->schema())) {
        owner = i;
        ++owners_found;
      }
    }
    if (owners_found > 1) {
      return Status::InvalidArgument("ambiguous predicate (qualify columns): " +
                                     conjunct->ToString());
    }
    if (owner == tables.size()) {
      return Status::NotImplemented(
          "predicate spans multiple tables and is not an equi-join: " +
          conjunct->ToString());
    }
    std::unique_ptr<Expr>& slot = out.table_filters[owner];
    if (slot == nullptr) {
      slot = CloneExpr(*conjunct);
    } else if (slot->kind == Expr::Kind::kAnd) {
      slot->children.push_back(CloneExpr(*conjunct));
    } else {
      auto conj = std::make_unique<Expr>();
      conj->kind = Expr::Kind::kAnd;
      conj->children.push_back(std::move(slot));
      conj->children.push_back(CloneExpr(*conjunct));
      slot = std::move(conj);
    }
  }
  return out;
}

namespace {

struct BoundItem {
  bool star = false;
  size_t table_idx = 0;
  size_t col_idx = 0;
  AggFunc agg = AggFunc::kNone;
  std::string out_name;
  ValueType out_type = ValueType::kString;
};

Result<std::vector<BoundItem>> BindSelectList(
    const SelectStmt& stmt, const std::vector<const Table*>& tables) {
  std::vector<BoundItem> items;
  auto resolve = [&](const ColumnRef& ref, size_t* t_idx,
                     size_t* c_idx) -> Status {
    for (size_t i = 0; i < tables.size(); ++i) {
      if (!ref.table.empty() && tables[i]->name() != ref.table) continue;
      auto idx = tables[i]->schema().ColumnIndex(ref.column);
      if (idx.ok()) {
        *t_idx = i;
        *c_idx = idx.value();
        return Status::OK();
      }
      if (!ref.table.empty()) return idx.status();
    }
    return Status::NotFound("cannot resolve select column " + ref.ToString());
  };
  for (const SelectItem& item : stmt.select_list) {
    if (item.star && item.agg == AggFunc::kNone) {
      // Expand `*` into every column of every table.
      for (size_t i = 0; i < tables.size(); ++i) {
        for (size_t c = 0; c < tables[i]->schema().num_columns(); ++c) {
          BoundItem b;
          b.table_idx = i;
          b.col_idx = c;
          b.out_name = tables.size() > 1
                           ? tables[i]->name() + "." +
                                 tables[i]->schema().column(c).name
                           : tables[i]->schema().column(c).name;
          b.out_type = tables[i]->schema().column(c).type;
          items.push_back(std::move(b));
        }
      }
      continue;
    }
    BoundItem b;
    b.agg = item.agg;
    if (item.star) {
      b.star = true;  // COUNT(*)
      b.out_name = item.alias.empty() ? "count" : item.alias;
      b.out_type = ValueType::kInt;
      items.push_back(std::move(b));
      continue;
    }
    DAISY_RETURN_IF_ERROR(resolve(item.col, &b.table_idx, &b.col_idx));
    const Column& src = tables[b.table_idx]->schema().column(b.col_idx);
    b.out_name = !item.alias.empty()
                     ? item.alias
                     : (item.agg == AggFunc::kNone
                            ? (tables.size() > 1
                                   ? tables[b.table_idx]->name() + "." + src.name
                                   : src.name)
                            : std::string(AggFuncToString(item.agg)) + "_" +
                                  src.name);
    if (item.agg == AggFunc::kNone) {
      b.out_type = src.type;
    } else if (item.agg == AggFunc::kCount) {
      b.out_type = ValueType::kInt;
    } else if (item.agg == AggFunc::kMin || item.agg == AggFunc::kMax) {
      b.out_type = src.type;
    } else {
      b.out_type = ValueType::kDouble;
    }
    items.push_back(std::move(b));
  }
  return items;
}

// Aggregation accumulator over most-probable values.
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
        return count == 0 ? Value::Null() : Value(sum / static_cast<double>(count));
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

}  // namespace

Result<QueryOutput> QueryExecutor::BuildOutput(
    const SelectStmt& stmt, const std::vector<const Table*>& tables,
    std::vector<JoinedRow> joined) {
  DAISY_ASSIGN_OR_RETURN(std::vector<BoundItem> items,
                         BindSelectList(stmt, tables));
  QueryOutput out;
  for (const Table* t : tables) out.table_names.push_back(t->name());

  std::vector<Column> out_cols;
  out_cols.reserve(items.size());
  for (const BoundItem& b : items) out_cols.push_back({b.out_name, b.out_type});

  const bool aggregating = stmt.has_aggregate() || !stmt.group_by.empty();
  if (!aggregating) {
    out.result = Table("result", Schema(std::move(out_cols)));
    out.result.Reserve(joined.size());
    for (const JoinedRow& j : joined) {
      Row row;
      row.cells.reserve(items.size());
      for (const BoundItem& b : items) {
        row.cells.push_back(tables[b.table_idx]->cell(j[b.table_idx], b.col_idx));
      }
      out.result.AppendRowUnchecked(std::move(row));
    }
    out.lineage = std::move(joined);
    return out;
  }

  // Bind group-by columns.
  std::vector<std::pair<size_t, size_t>> group_cols;  // (table, col)
  for (const ColumnRef& ref : stmt.group_by) {
    bool found = false;
    for (size_t i = 0; i < tables.size() && !found; ++i) {
      if (!ref.table.empty() && tables[i]->name() != ref.table) continue;
      auto idx = tables[i]->schema().ColumnIndex(ref.column);
      if (idx.ok()) {
        group_cols.emplace_back(i, idx.value());
        found = true;
      }
    }
    if (!found) {
      return Status::NotFound("cannot resolve group-by column " +
                              ref.ToString());
    }
  }

  struct GroupAgg {
    GroupKey key;
    std::vector<AggState> states;
  };
  std::unordered_map<GroupKey, size_t, GroupKeyHash, GroupKeyEq> index;
  std::vector<GroupAgg> groups;
  for (const JoinedRow& j : joined) {
    GroupKey key;
    key.reserve(group_cols.size());
    for (const auto& [t, c] : group_cols) {
      key.push_back(tables[t]->cell(j[t], c).MostProbable());
    }
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) {
      groups.push_back({key, std::vector<AggState>(items.size())});
    }
    GroupAgg& g = groups[it->second];
    for (size_t i = 0; i < items.size(); ++i) {
      const BoundItem& b = items[i];
      if (b.agg == AggFunc::kNone) continue;
      if (b.star) {
        g.states[i].Add(Value(static_cast<int64_t>(1)));
      } else {
        g.states[i].Add(tables[b.table_idx]->cell(j[b.table_idx], b.col_idx)
                            .MostProbable());
      }
    }
  }

  out.result = Table("result", Schema(std::move(out_cols)));
  out.result.Reserve(groups.size());
  for (const GroupAgg& g : groups) {
    Row row;
    row.cells.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      const BoundItem& b = items[i];
      if (b.agg != AggFunc::kNone) {
        row.cells.emplace_back(g.states[i].Finish(b.agg, b.out_type));
        continue;
      }
      // Non-aggregate column: must be a group-by key; take its value.
      Value v;
      for (size_t k = 0; k < group_cols.size(); ++k) {
        if (group_cols[k].first == b.table_idx &&
            group_cols[k].second == b.col_idx) {
          v = g.key[k];
          break;
        }
      }
      row.cells.emplace_back(std::move(v));
    }
    out.result.AppendRowUnchecked(std::move(row));
  }
  out.lineage = std::move(joined);
  return out;
}

Result<QueryOutput> QueryExecutor::Execute(const SelectStmt& stmt) {
  Planner planner(db_);
  DAISY_ASSIGN_OR_RETURN(Plan plan, planner.PlanQuery(stmt));
  return plan.Execute();
}

Result<QueryOutput> QueryExecutor::Execute(const std::string& sql) {
  DAISY_ASSIGN_OR_RETURN(SelectStmt stmt, ParseQuery(sql));
  return Execute(stmt);
}

Result<std::string> QueryExecutor::Explain(const std::string& sql) {
  DAISY_ASSIGN_OR_RETURN(SelectStmt stmt, ParseQuery(sql));
  Planner planner(db_);
  DAISY_ASSIGN_OR_RETURN(Plan plan, planner.PlanQuery(stmt));
  return plan.Explain();
}

}  // namespace daisy
