#include "rel/table_io.h"

#include "common/csv.h"
#include "common/strings.h"

namespace gea::rel {

namespace {

/// A cell as CSV text. A double takes the shortest form that reads back
/// as the same double, so a saved table loads back bit for bit.
std::string CsvCell(const Value& value) {
  if (value.type() != ValueType::kDouble) return value.ToString();
  return FormatDoubleExact(value.AsDouble());
}

CsvDocument ToCsvDocument(const Table& table) {
  CsvDocument doc;
  for (const ColumnDef& col : table.schema().columns()) {
    doc.header.push_back(col.name + ":" + ValueTypeName(col.type));
  }
  for (size_t r = 0; r < table.NumRows(); ++r) {
    std::vector<std::string> record;
    record.reserve(table.NumColumns());
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      record.push_back(CsvCell(table.At(r, c)));
    }
    doc.rows.push_back(std::move(record));
  }
  return doc;
}

}  // namespace

std::string TableToCsv(const Table& table) {
  return WriteCsv(ToCsvDocument(table));
}

Result<Table> TableFromCsv(const std::string& name,
                           const std::string& text) {
  GEA_ASSIGN_OR_RETURN(CsvDocument doc, ParseCsv(text));
  std::vector<ColumnDef> defs;
  for (const std::string& field : doc.header) {
    std::vector<std::string> parts = Split(field, ':');
    if (parts.size() != 2) {
      return Status::InvalidArgument("header field not 'name:type': " +
                                     field);
    }
    GEA_ASSIGN_OR_RETURN(ValueType type, ParseValueType(parts[1]));
    defs.push_back({parts[0], type});
  }
  GEA_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(defs)));
  Table table(name, schema);
  for (const auto& record : doc.rows) {
    // ParseCsv already rejects ragged records, but guard here too so a
    // future CSV layer change cannot turn this into an out-of-bounds
    // schema.column() access.
    if (record.size() != schema.NumColumns()) {
      return Status::InvalidArgument(
          "row has " + std::to_string(record.size()) + " fields, schema has " +
          std::to_string(schema.NumColumns()));
    }
    Row row;
    row.reserve(record.size());
    for (size_t c = 0; c < record.size(); ++c) {
      GEA_ASSIGN_OR_RETURN(Value v,
                           Value::Parse(record[c], schema.column(c).type));
      row.push_back(std::move(v));
    }
    GEA_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
  }
  return table;
}

Status SaveTable(const Table& table, const std::string& path) {
  return WriteCsvFile(path, ToCsvDocument(table));
}

Result<Table> LoadTable(const std::string& name, const std::string& path) {
  GEA_ASSIGN_OR_RETURN(CsvDocument doc, ReadCsvFile(path));
  return TableFromCsv(name, WriteCsv(doc));
}

}  // namespace gea::rel
