#include "storage/database.h"

namespace daisy {

Status Database::AddTable(Table table) {
  const std::string name = table.name();
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  tables_.emplace(name, std::make_unique<Table>(std::move(table)));
  return Status::OK();
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table '" + name + "'");
  return it->second.get();
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table '" + name + "'");
  return const_cast<const Table*>(it->second.get());
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace daisy
