#ifndef GEA_REL_CATALOG_H_
#define GEA_REL_CATALOG_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "rel/table.h"

namespace gea::rel {

/// The table registry of the analysis database. Mirrors the roles the
/// thesis assigns to its DBMS catalog: it owns every named relation (the
/// SAGE base tables, tissue-type ENUM tables, SUMY/GAP/top-gap tables, the
/// auxiliary metadata relations) and implements the redundancy check of
/// Section 4.4.5.2: creating a table that already exists fails with
/// AlreadyExists unless `replace` is requested.
///
/// Besides stored tables the catalog holds **computed tables**: read-only
/// relations materialized from a builder function on every
/// MaterializeTable() call, the pg_stat_* idiom. The SQL layer resolves
/// FROM through MaterializeTable(), so a query over a computed table
/// always sees live data.
class Catalog {
 public:
  /// Builds one materialization of a computed table. Must return a table
  /// whose name() matches the registered name.
  using TableBuilder = std::function<Table()>;

  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// Registers `table` under its own name. Fails with AlreadyExists when a
  /// table of that name exists and `replace` is false (the caller is
  /// expected to surface this to the user as the Figure 4.28 dialog).
  Status CreateTable(Table table, bool replace = false);

  /// Registers a computed (view-style) table: MaterializeTable(name)
  /// re-runs `builder` and returns the fresh materialization. Fails with
  /// AlreadyExists when the name is taken by a stored or computed table
  /// and `replace` is false. Computed tables are read-only:
  /// GetMutableTable on one fails with FailedPrecondition.
  Status RegisterComputed(const std::string& name, TableBuilder builder,
                          bool replace = false);

  bool HasTable(const std::string& name) const;

  /// True when `name` names a computed (read-only) table.
  bool IsComputed(const std::string& name) const;

  /// Borrowed pointer to a stored table, valid until the table is dropped
  /// or replaced. A computed table has no stored copy to borrow:
  /// FailedPrecondition; read it through MaterializeTable().
  Result<const Table*> GetTable(const std::string& name) const;
  Result<Table*> GetMutableTable(const std::string& name);

  /// A by-value materialization of `name`. Stored tables are copied;
  /// computed tables run their builder, so concurrent MaterializeTable()
  /// calls over the same view share nothing. The serve layer's read-only
  /// query path uses this exclusively.
  Result<Table> MaterializeTable(const std::string& name) const;

  Status DropTable(const std::string& name);

  /// Drops every table, stored and computed: the "initialize database"
  /// operation of Appendix III.2.1.
  void Initialize();

  /// Names of all registered tables (stored + computed), sorted.
  std::vector<std::string> TableNames() const;

  /// A deep copy: stored tables are copied, computed builders are shared
  /// (std::function copy). The MVCC layer clones the catalog into each
  /// published epoch so frozen snapshots can materialize views
  /// concurrently with the live catalog.
  Catalog Clone() const;

  /// Approximate heap footprint of the stored tables (computed views
  /// materialize on demand and are not counted). Feeds the epoch
  /// retired-bytes accounting.
  uint64_t ApproxBytes() const;

  size_t NumTables() const { return tables_.size() + computed_.size(); }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, TableBuilder> computed_;
};

}  // namespace gea::rel

#endif  // GEA_REL_CATALOG_H_
