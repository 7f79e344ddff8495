#include "rel/catalog.h"

#include <algorithm>

namespace gea::rel {

Status Catalog::CreateTable(Table table, bool replace) {
  const std::string name = table.name();
  if (name.empty()) {
    return Status::InvalidArgument("table name must be non-empty");
  }
  if (computed_.count(name) > 0) {
    if (!replace) {
      return Status::AlreadyExists("a table already exists: " + name);
    }
    computed_.erase(name);
  }
  auto it = tables_.find(name);
  if (it != tables_.end()) {
    if (!replace) {
      return Status::AlreadyExists("a table already exists: " + name);
    }
    it->second = std::make_unique<Table>(std::move(table));
    return Status::OK();
  }
  tables_.emplace(name, std::make_unique<Table>(std::move(table)));
  return Status::OK();
}

Status Catalog::RegisterComputed(const std::string& name, TableBuilder builder,
                                 bool replace) {
  if (name.empty()) {
    return Status::InvalidArgument("table name must be non-empty");
  }
  if (builder == nullptr) {
    return Status::InvalidArgument("computed table needs a builder: " + name);
  }
  if (!replace && (tables_.count(name) > 0 || computed_.count(name) > 0)) {
    return Status::AlreadyExists("a table already exists: " + name);
  }
  tables_.erase(name);
  computed_[name] = std::move(builder);
  return Status::OK();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) > 0 || computed_.count(name) > 0;
}

bool Catalog::IsComputed(const std::string& name) const {
  return computed_.count(name) > 0;
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  if (computed_.count(name) > 0) {
    return Status::FailedPrecondition(
        "computed table has no stored copy: " + name);
  }
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return static_cast<const Table*>(it->second.get());
}

Result<Table> Catalog::MaterializeTable(const std::string& name) const {
  auto computed = computed_.find(name);
  if (computed != computed_.end()) {
    return computed->second();
  }
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return Table(*it->second);
}

Result<Table*> Catalog::GetMutableTable(const std::string& name) {
  if (computed_.count(name) > 0) {
    return Status::FailedPrecondition("computed table is read-only: " + name);
  }
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return it->second.get();
}

Status Catalog::DropTable(const std::string& name) {
  if (computed_.erase(name) > 0) {
    return Status::OK();
  }
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  tables_.erase(it);
  return Status::OK();
}

void Catalog::Initialize() {
  tables_.clear();
  computed_.clear();
}

Catalog Catalog::Clone() const {
  Catalog copy;
  for (const auto& [name, table] : tables_) {
    copy.tables_.emplace(name, std::make_unique<Table>(*table));
  }
  copy.computed_ = computed_;
  return copy;
}

uint64_t Catalog::ApproxBytes() const {
  // Coarse estimate: 16 bytes per cell covers the typed column storage
  // plus null bitmap and dictionary overhead without walking every
  // column. Reclamation accounting wants magnitude, not exactness.
  uint64_t bytes = 0;
  for (const auto& [name, table] : tables_) {
    bytes += 16u * table->NumRows() * std::max<size_t>(1, table->NumColumns());
  }
  return bytes;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size() + computed_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  for (const auto& [name, builder] : computed_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace gea::rel
