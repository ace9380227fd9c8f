#include "storage/table.h"

#include <algorithm>
#include <sstream>

#include "common/csv.h"
#include "storage/column_cache.h"

namespace daisy {

Table::Table() = default;

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

Table::~Table() = default;

Table::Table(const Table& other)
    : name_(other.name_),
      schema_(other.schema_),
      rows_(other.rows_),
      column_versions_(other.column_versions_),
      append_version_(other.append_version_),
      delta_generation_(other.delta_generation_),
      live_(other.live_),
      num_dead_(other.num_dead_),
      deleted_log_(other.deleted_log_) {}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  schema_ = other.schema_;
  rows_ = other.rows_;
  column_versions_ = other.column_versions_;
  append_version_ = other.append_version_;
  delta_generation_ = other.delta_generation_;
  live_ = other.live_;
  num_dead_ = other.num_dead_;
  deleted_log_ = other.deleted_log_;
  DropCache();  // held a pointer to *this with the old contents
  return *this;
}

void Table::DropCache() const {
  cache_ptr_.store(nullptr, std::memory_order_release);
  MutexLock lock(&cache_mu_);
  cache_.reset();
}

Table::Table(Table&& other) noexcept
    : name_(std::move(other.name_)),
      schema_(std::move(other.schema_)),
      rows_(std::move(other.rows_)),
      column_versions_(std::move(other.column_versions_)),
      append_version_(other.append_version_),
      delta_generation_(other.delta_generation_),
      live_(std::move(other.live_)),
      num_dead_(other.num_dead_),
      deleted_log_(std::move(other.deleted_log_)) {
  // other.cache_ points at `other`; never adopt it.
  other.DropCache();
}

Table& Table::operator=(Table&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  schema_ = std::move(other.schema_);
  rows_ = std::move(other.rows_);
  column_versions_ = std::move(other.column_versions_);
  append_version_ = other.append_version_;
  delta_generation_ = other.delta_generation_;
  live_ = std::move(other.live_);
  num_dead_ = other.num_dead_;
  deleted_log_ = std::move(other.deleted_log_);
  DropCache();
  other.DropCache();
  return *this;
}

ColumnCache& Table::columns() const {
  // Lock-free once created; the mutex only serializes the first lazy
  // creation so concurrent readers never race on cache_.
  ColumnCache* cached = cache_ptr_.load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  MutexLock lock(&cache_mu_);
  if (cache_ == nullptr) {
    cache_ = std::make_unique<ColumnCache>(this);
    cache_ptr_.store(cache_.get(), std::memory_order_release);
  }
  return *cache_;
}

void Table::SetCandidates(RowId r, size_t c, CandidateSetPtr set) {
  Cell& cell = rows_[r].cells[c];
  cell.set_candidates(std::move(set));
  ColumnCache* cache = cache_ptr_.load(std::memory_order_acquire);
  if (cache != nullptr) cache->PatchCandidates(r, c, cell.is_probabilistic());
}

namespace {

bool TypeCompatible(const Value& v, ValueType t) {
  if (v.is_null()) return true;
  switch (t) {
    case ValueType::kNull:
      return v.is_null();
    case ValueType::kInt:
      return v.is_int();
    case ValueType::kDouble:
      return v.is_numeric();
    case ValueType::kString:
      return v.is_string();
  }
  return false;
}

}  // namespace

Status Table::AppendRow(std::vector<Value> values) {
  if (values.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(values.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()) + " for table " + name_);
  }
  Row row;
  row.cells.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (!TypeCompatible(values[i], schema_.column(i).type)) {
      return Status::TypeMismatch(
          "value '" + values[i].ToString() + "' does not match column " +
          schema_.column(i).name + ":" +
          ValueTypeToString(schema_.column(i).type));
    }
    row.cells.emplace_back(std::move(values[i]));
  }
  rows_.push_back(std::move(row));
  BumpAppend();
  return Status::OK();
}

RowId Table::AppendRowUnchecked(Row row) {
  rows_.push_back(std::move(row));
  BumpAppend();
  return rows_.size() - 1;
}

Result<TableDelta> Table::AppendRows(std::vector<std::vector<Value>> rows) {
  // Validate the whole batch before applying any row (all-or-nothing).
  std::vector<Row> staged;
  staged.reserve(rows.size());
  for (std::vector<Value>& values : rows) {
    if (values.size() != schema_.num_columns()) {
      return Status::InvalidArgument(
          "row arity " + std::to_string(values.size()) + " != schema arity " +
          std::to_string(schema_.num_columns()) + " for table " + name_);
    }
    Row row;
    row.cells.reserve(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      if (!TypeCompatible(values[i], schema_.column(i).type)) {
        return Status::TypeMismatch(
            "value '" + values[i].ToString() + "' does not match column " +
            schema_.column(i).name + ":" +
            ValueTypeToString(schema_.column(i).type));
      }
      row.cells.emplace_back(std::move(values[i]));
    }
    staged.push_back(std::move(row));
  }
  TableDelta delta;
  delta.appended.reserve(staged.size());
  for (Row& row : staged) {
    delta.appended.push_back(rows_.size());
    rows_.push_back(std::move(row));
    ++append_version_;
  }
  ++delta_generation_;
  delta.generation = delta_generation_;
  return delta;
}

Result<TableDelta> Table::DeleteRows(std::vector<RowId> ids) {
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) {
    const RowId r = ids[i];
    if (r >= rows_.size()) {
      return Status::InvalidArgument("delete of out-of-range row " +
                                     std::to_string(r) + " in table " + name_);
    }
    if (!is_live(r)) {
      return Status::InvalidArgument("delete of already-deleted row " +
                                     std::to_string(r) + " in table " + name_);
    }
    if (i > 0 && ids[i - 1] == r) {
      return Status::InvalidArgument("duplicate row " + std::to_string(r) +
                                     " in delete batch for table " + name_);
    }
  }
  if (live_.size() < rows_.size()) live_.resize(rows_.size(), 1);
  for (RowId r : ids) {
    live_[r] = 0;
    ++num_dead_;
    deleted_log_.push_back(r);
  }
  ++delta_generation_;
  TableDelta delta;
  delta.generation = delta_generation_;
  delta.deleted = std::move(ids);
  return delta;
}

std::vector<RowId> Table::AllRowIds() const {
  std::vector<RowId> ids;
  ids.reserve(num_live_rows());
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (is_live(i)) ids.push_back(i);
  }
  return ids;
}

size_t Table::CountProbabilisticCells() const {
  size_t n = 0;
  for (RowId r = 0; r < rows_.size(); ++r) {
    if (!is_live(r)) continue;
    for (const Cell& c : rows_[r].cells) {
      if (c.is_probabilistic()) ++n;
    }
  }
  return n;
}

size_t Table::TotalCandidateWidth() const {
  size_t n = 0;
  for (RowId r = 0; r < rows_.size(); ++r) {
    if (!is_live(r)) continue;
    for (const Cell& c : rows_[r].cells) n += c.width();
  }
  return n;
}

Status Table::RestorePersistedState(std::vector<RowId> deleted_log,
                                    uint64_t append_version,
                                    uint64_t delta_generation) {
  std::vector<uint8_t> live(rows_.size(), 1);
  for (RowId r : deleted_log) {
    if (r >= rows_.size()) {
      return Status::InvalidArgument(
          "persisted tombstone " + std::to_string(r) +
          " out of range for table " + name_ + " (" +
          std::to_string(rows_.size()) + " rows)");
    }
    if (live[r] == 0) {
      return Status::InvalidArgument("persisted tombstone " +
                                     std::to_string(r) +
                                     " repeats in table " + name_);
    }
    live[r] = 0;
  }
  live_ = std::move(live);
  num_dead_ = deleted_log.size();
  deleted_log_ = std::move(deleted_log);
  append_version_ = append_version;
  delta_generation_ = delta_generation;
  DropCache();
  return Status::OK();
}

Result<Table> Table::FromCsv(const std::string& path, const std::string& name,
                             const Schema& schema, bool has_header) {
  DAISY_ASSIGN_OR_RETURN(auto rows, ReadCsvFile(path));
  Table table(name, schema);
  size_t start = 0;
  if (has_header) {
    if (rows.empty()) return Status::ParseError("empty CSV with header: " + path);
    if (rows[0].size() != schema.num_columns()) {
      return Status::ParseError("header arity mismatch in " + path);
    }
    start = 1;
  }
  table.Reserve(rows.size() - start);
  for (size_t i = start; i < rows.size(); ++i) {
    if (rows[i].size() != schema.num_columns()) {
      return Status::ParseError("row " + std::to_string(i) +
                                " arity mismatch in " + path);
    }
    std::vector<Value> values;
    values.reserve(rows[i].size());
    for (size_t c = 0; c < rows[i].size(); ++c) {
      DAISY_ASSIGN_OR_RETURN(Value v,
                             Value::Parse(rows[i][c], schema.column(c).type));
      values.push_back(std::move(v));
    }
    DAISY_RETURN_IF_ERROR(table.AppendRow(std::move(values)));
  }
  return table;
}

Status Table::ToCsv(const std::string& path) const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(rows_.size() + 1);
  std::vector<std::string> header;
  for (const Column& c : schema_.columns()) header.push_back(c.name);
  rows.push_back(std::move(header));
  for (RowId r = 0; r < rows_.size(); ++r) {
    if (!is_live(r)) continue;
    std::vector<std::string> fields;
    fields.reserve(rows_[r].cells.size());
    for (const Cell& c : rows_[r].cells) {
      fields.push_back(c.MostProbable().ToString());
    }
    rows.push_back(std::move(fields));
  }
  return WriteCsvFile(path, rows);
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream oss;
  oss << name_ << " " << schema_.ToString() << " rows=" << rows_.size();
  if (num_dead_ > 0) oss << " (" << num_dead_ << " deleted)";
  oss << "\n";
  const size_t limit = std::min(max_rows, rows_.size());
  for (size_t r = 0; r < limit; ++r) {
    oss << "  [" << r << "]";
    if (!is_live(r)) oss << " <deleted>";
    for (const Cell& c : rows_[r].cells) oss << " " << c.ToString();
    oss << "\n";
  }
  if (limit < rows_.size()) oss << "  ... (" << rows_.size() - limit
                                << " more)\n";
  return oss.str();
}

}  // namespace daisy
