#ifndef GEA_REL_TABLE_IO_H_
#define GEA_REL_TABLE_IO_H_

#include <string>

#include "common/result.h"
#include "rel/table.h"

namespace gea::rel {

/// CSV persistence for relations (the LOAD / EXPORT utilities of Section
/// 4.6.2 and Appendix III.2.1). The header encodes both name and type of
/// each column as "name:type"; NULL cells round-trip as the literal
/// "NULL", and doubles are written in the shortest form that reads back
/// as the same double.

/// Serializes `table` to typed CSV text.
std::string TableToCsv(const Table& table);

/// Parses typed CSV text into a table named `name`.
Result<Table> TableFromCsv(const std::string& name, const std::string& text);

/// File variants.
Status SaveTable(const Table& table, const std::string& path);
Result<Table> LoadTable(const std::string& name, const std::string& path);

}  // namespace gea::rel

#endif  // GEA_REL_TABLE_IO_H_
