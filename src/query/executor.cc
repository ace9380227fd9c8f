#include "query/executor.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/metrics.h"
#include "plan/planner.h"
#include "query/parser.h"
#include "storage/column_cache.h"

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

namespace {

// The one column resolver of every clause (WHERE, select list, GROUP BY).
// A qualified reference names its FROM table; an unqualified one must
// match exactly one FROM table (InvalidArgument when ambiguous, NotFound
// when absent).
Result<BoundColumn> ResolveColumn(const ColumnRef& ref,
                                  const std::vector<const Table*>& tables) {
  if (!ref.table.empty()) {
    for (size_t i = 0; i < tables.size(); ++i) {
      if (tables[i]->name() != ref.table) continue;
      DAISY_ASSIGN_OR_RETURN(size_t col,
                             tables[i]->schema().ColumnIndex(ref.column));
      return BoundColumn{i, col};
    }
    return Status::NotFound("table '" + ref.table + "' not in FROM clause");
  }
  // Unqualified: unique schema match required.
  size_t found = tables.size();
  for (size_t i = 0; i < tables.size(); ++i) {
    if (!tables[i]->schema().HasColumn(ref.column)) continue;
    if (found != tables.size()) {
      return Status::InvalidArgument("ambiguous column '" + ref.column + "'");
    }
    found = i;
  }
  if (found == tables.size()) {
    return Status::NotFound("column '" + ref.column +
                            "' not found in any FROM table");
  }
  DAISY_ASSIGN_OR_RETURN(size_t col,
                         tables[found]->schema().ColumnIndex(ref.column));
  return BoundColumn{found, col};
}

}  // namespace

Result<SplitWhere> SplitWhereClause(const SelectStmt& stmt,
                                    const std::vector<const Table*>& tables) {
  SplitWhere out;
  out.table_filters.resize(tables.size());

  for (const Expr* conjunct : SplitConjuncts(stmt.where.get())) {
    ColumnRef jl, jr;
    if (MatchJoinPredicate(*conjunct, &jl, &jr)) {
      DAISY_ASSIGN_OR_RETURN(BoundColumn l, ResolveColumn(jl, tables));
      DAISY_ASSIGN_OR_RETURN(BoundColumn r, ResolveColumn(jr, tables));
      out.joins.push_back({l.table, l.col, r.table, r.col});
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

Result<BoundOutput> BindOutput(const SelectStmt& stmt,
                               const std::vector<const Table*>& tables) {
  BoundOutput out;
  out.aggregating = stmt.has_aggregate() || !stmt.group_by.empty();
  for (const ColumnRef& ref : stmt.group_by) {
    DAISY_ASSIGN_OR_RETURN(BoundColumn col, ResolveColumn(ref, tables));
    out.group_cols.push_back(col);
  }
  const bool qualify = tables.size() > 1;
  for (const SelectItem& item : stmt.select_list) {
    if (item.star && item.agg == AggFunc::kNone) {
      // Expand `*` into every column of every table.
      for (size_t i = 0; i < tables.size(); ++i) {
        for (size_t c = 0; c < tables[i]->schema().num_columns(); ++c) {
          BoundItem b;
          b.src = {i, c};
          const Column& src = tables[i]->schema().column(c);
          b.out_name = qualify ? tables[i]->name() + "." + src.name : src.name;
          b.out_type = src.type;
          out.items.push_back(std::move(b));
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
      out.items.push_back(std::move(b));
      continue;
    }
    DAISY_ASSIGN_OR_RETURN(b.src, ResolveColumn(item.col, tables));
    const Column& src = tables[b.src.table]->schema().column(b.src.col);
    b.out_name = !item.alias.empty()
                     ? item.alias
                     : (item.agg == AggFunc::kNone
                            ? (qualify ? tables[b.src.table]->name() + "." +
                                             src.name
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
    out.items.push_back(std::move(b));
  }
  for (BoundItem& b : out.items) {
    out.columns.push_back({b.out_name, b.out_type});
    if (!out.aggregating || b.agg != AggFunc::kNone) continue;
    // A plain item of an aggregating query outputs its group's key value.
    const auto key = std::find_if(
        out.group_cols.begin(), out.group_cols.end(),
        [&](const BoundColumn& g) {
          return g.table == b.src.table && g.col == b.src.col;
        });
    if (key == out.group_cols.end()) {
      return Status::InvalidArgument("select column '" + b.out_name +
                                     "' is neither aggregated nor a GROUP "
                                     "BY key");
    }
    b.group_key = static_cast<size_t>(key - out.group_cols.begin());
  }
  return out;
}

namespace {

// Group-key cells resolved through a Value lookup instead of the column
// cache's code array: cells carrying candidates, and NaNs.
Counter* AggValueKeyedCells() {
  static Counter* const cells = MetricsRegistry::Global().GetCounter(
      "daisy_plan_agg_value_keyed_cells_total",
      "GROUP BY key cells resolved through a Value lookup, not a cached "
      "dictionary code");
  return cells;
}

// One GROUP BY column keyed by the table's column-cache dictionary codes,
// which are Equals/Hash-consistent (int 5 and double 5.0 share one). A
// clean cell keys by its row's code. A cell carrying candidates keys by the
// code of its most-probable value, and a value no original equals gets a
// per-query overflow code past the dictionary. A NaN equals nothing, not
// even itself, so each NaN occurrence gets a fresh overflow code: every
// tuple with a NaN key forms its own group, as under Value equality.
class GroupColumnCodes {
 public:
  GroupColumnCodes(const Table* table, size_t col)
      : table_(table),
        col_(col),
        cache_(&table->columns()),
        arrays_(&table->columns().column(col)) {}

  // Sets `*nan` when the key is a NaN, whose code no other tuple shares.
  uint32_t Code(RowId r, uint64_t* value_keyed, bool* nan) {
    const double num = arrays_->num[r];
    if (arrays_->probs[r] == 0 && num == num) return arrays_->codes[r];
    ++*value_keyed;
    const Value& v = table_->cell(r, col_).MostProbable();
    uint32_t code;
    if (cache_->FindCode(col_, v, &code)) return code;
    *nan |= v.is_nan();
    const auto next =
        static_cast<uint32_t>(arrays_->dict.size() + overflow_.size());
    return overflow_.emplace(v, next).first->second;
  }

 private:
  const Table* table_;
  size_t col_;
  const ColumnCache* cache_;
  const ColumnCache::Column* arrays_;  ///< fresh for the whole query
  std::unordered_map<Value, uint32_t, ValueHash> overflow_;
};

// Hash of one tuple's group-column codes.
struct CodeTupleHash {
  size_t operator()(const std::vector<uint32_t>& key) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (uint32_t code : key) h = (h ^ code) * 0xff51afd7ed558ccdULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

// One aggregate's accumulator over most-probable values. COUNT counts every
// cell, nulls included; SUM and AVG add the numeric ones. MIN and MAX point
// at the winning cell value and copy it only at Finish.
struct AggState {
  double sum = 0;
  size_t count = 0;
  const Value* min = nullptr;
  const Value* max = nullptr;

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
        return min != nullptr ? *min : Value::Null();
      case AggFunc::kMax:
        return max != nullptr ? *max : Value::Null();
      case AggFunc::kNone:
        return Value::Null();
    }
    return Value::Null();
  }
};

}  // namespace

void TableSink::Begin(const std::vector<Column>& columns, size_t rows) {
  out_->result = Table("result", Schema(columns));
  out_->result.Reserve(rows);
}

void TableSink::AddCells(const Cell* const* cells) {
  Row row;
  row.cells.reserve(out_->result.num_columns());
  for (size_t c = 0; c < out_->result.num_columns(); ++c) {
    row.cells.push_back(*cells[c]);
  }
  out_->result.AppendRowUnchecked(std::move(row));
}

void TableSink::AddValues(const Value* values) {
  Row row;
  row.cells.reserve(out_->result.num_columns());
  for (size_t c = 0; c < out_->result.num_columns(); ++c) {
    row.cells.emplace_back(values[c]);
  }
  out_->result.AppendRowUnchecked(std::move(row));
}

void TableSink::Finish(JoinedRows lineage) {
  out_->lineage = std::move(lineage);
}

Result<size_t> QueryExecutor::BuildOutput(
    const SelectStmt& stmt, const std::vector<const Table*>& tables,
    JoinedRows joined, size_t row_limit, ResultSink* sink) {
  DAISY_ASSIGN_OR_RETURN(BoundOutput bound, BindOutput(stmt, tables));
  const std::vector<BoundItem>& items = bound.items;
  auto emitted = [row_limit](size_t total) {
    return row_limit == 0 ? total : std::min(total, row_limit);
  };

  if (!bound.aggregating) {
    const size_t total = joined.size();
    const size_t n = emitted(total);
    sink->Begin(bound.columns, n);
    std::vector<const Cell*> cells(items.size());
    for (size_t i = 0; i < n; ++i) {
      const RowId* j = joined[i];
      for (size_t k = 0; k < items.size(); ++k) {
        const BoundColumn& src = items[k].src;
        cells[k] = &tables[src.table]->cell(j[src.table], src.col);
      }
      sink->AddCells(cells.data());
    }
    joined.Truncate(n);
    sink->Finish(std::move(joined));
    return total;
  }

  // Grouping: each tuple's key is the tuple of its group columns'
  // dictionary codes; group ids follow first appearance, and each group
  // remembers its first tuple, whose most-probable values are its keys.
  std::vector<GroupColumnCodes> key_cols;
  key_cols.reserve(bound.group_cols.size());
  for (const BoundColumn& g : bound.group_cols) {
    key_cols.emplace_back(tables[g.table], g.col);
  }
  // The aggregate items, and the live FROM positions: the tables of the
  // group keys and of the non-COUNT aggregate arguments. A tuple agreeing
  // with the previous one on every live position reads the same key and
  // argument cells, so it continues the previous tuple's run: same group,
  // same argument values.
  std::vector<size_t> aggs;
  std::vector<size_t> live;
  for (const BoundColumn& g : bound.group_cols) live.push_back(g.table);
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].agg == AggFunc::kNone) continue;
    aggs.push_back(i);
    if (items[i].agg != AggFunc::kCount && !items[i].star) {
      live.push_back(items[i].src.table);
    }
  }
  std::sort(live.begin(), live.end());
  live.erase(std::unique(live.begin(), live.end()), live.end());
  static const Value kOne(int64_t{1});  // the value a `*` argument adds
  std::unordered_map<std::vector<uint32_t>, uint32_t, CodeTupleHash> index;
  std::vector<uint32_t> key(key_cols.size());
  std::vector<size_t> first_tuple;
  std::vector<AggState> states;  // group g's states: [g * aggs.size(), +)
  std::vector<const Value*> args(aggs.size());  // the run's argument values
  uint64_t value_keyed = 0;
  uint64_t run_value_keyed = 0;  // the run's value-keyed cells per tuple
  bool run_open = false;  // the previous tuple's group and args are reusable
  uint32_t g = 0;
  for (size_t t = 0; t < joined.size(); ++t) {
    const RowId* j = joined[t];
    const bool in_run =
        run_open && std::all_of(live.begin(), live.end(), [&](size_t p) {
          return j[p] == joined[t - 1][p];
        });
    if (in_run) {
      value_keyed += run_value_keyed;
      AggState* s = states.data() + g * aggs.size();
      for (size_t a = 0; a < aggs.size(); ++a, ++s) {
        ++s->count;
        const AggFunc f = items[aggs[a]].agg;
        // MIN and MAX already hold their verdict on this value; SUM and
        // AVG add it again only if numeric, as the run's first tuple did.
        if ((f == AggFunc::kSum || f == AggFunc::kAvg) &&
            args[a]->is_numeric()) {
          s->sum += args[a]->AsDouble();
        }
      }
      continue;
    }
    run_value_keyed = 0;
    bool nan = false;
    for (size_t k = 0; k < key_cols.size(); ++k) {
      key[k] = key_cols[k].Code(j[bound.group_cols[k].table],
                                &run_value_keyed, &nan);
    }
    value_keyed += run_value_keyed;
    // A NaN key is a group of its own on every occurrence: no run.
    run_open = !nan;
    const auto [it, added] =
        index.try_emplace(key, static_cast<uint32_t>(first_tuple.size()));
    g = it->second;
    if (added) {
      first_tuple.push_back(t);
      states.resize(states.size() + aggs.size());
    }
    AggState* s = states.data() + g * aggs.size();
    for (size_t a = 0; a < aggs.size(); ++a, ++s) {
      const BoundItem& b = items[aggs[a]];
      ++s->count;
      if (b.agg == AggFunc::kCount) continue;
      const Value& v =
          b.star ? kOne
                 : tables[b.src.table]->cell(j[b.src.table], b.src.col)
                       .MostProbable();
      args[a] = &v;
      if (b.agg == AggFunc::kSum || b.agg == AggFunc::kAvg) {
        if (v.is_numeric()) s->sum += v.AsDouble();
      } else if (b.agg == AggFunc::kMin) {
        if (s->min == nullptr || s->min->is_null() || v < *s->min) {
          s->min = &v;
        }
      } else if (s->max == nullptr || s->max->is_null() || v > *s->max) {
        s->max = &v;
      }
    }
  }
  if (value_keyed > 0) AggValueKeyedCells()->Increment(value_keyed);

  // Aggregates only know their output cardinality after grouping; a row
  // limit keeps the first `row_limit` groups.
  const size_t groups = first_tuple.size();
  const size_t n = emitted(groups);
  sink->Begin(bound.columns, n);
  std::vector<Value> row(items.size());
  for (size_t g = 0; g < n; ++g) {
    const AggState* s = states.data() + g * aggs.size();
    for (size_t i = 0; i < items.size(); ++i) {
      const BoundItem& b = items[i];
      if (b.agg != AggFunc::kNone) {
        row[i] = (s++)->Finish(b.agg, b.out_type);
        continue;
      }
      const BoundColumn& key_col = bound.group_cols[b.group_key];
      row[i] = tables[key_col.table]
                   ->cell(joined[first_tuple[g]][key_col.table], key_col.col)
                   .MostProbable();
    }
    sink->AddValues(row.data());
  }
  sink->Finish(std::move(joined));
  return groups;
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
