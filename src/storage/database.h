// A named catalog of tables — the "dirty dataset" a Daisy session works on.

#ifndef DAISY_STORAGE_DATABASE_H_
#define DAISY_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace daisy {

/// Owns tables by name. Tables are stored behind stable pointers so query
/// plans can hold Table* across catalog growth.
class Database {
 public:
  Database() = default;

  // Non-copyable (owns table storage); movable.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Adds a table. Fails if a table with the same name exists.
  Status AddTable(Table table);

  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }

  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace daisy

#endif  // DAISY_STORAGE_DATABASE_H_
