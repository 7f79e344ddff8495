#include "workbench/command.h"

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "common/strings.h"
#include "sage/library.h"
#include "workbench/session.h"

/// The command table: the one place a named command and its parameters
/// become a call on a session operator. Served writes (src/serve), WAL
/// recovery and replication apply all decode through RunCommand, so the
/// wire and the log accept exactly the same values.

namespace gea::workbench {

// ---- Typed parameter accessors ----

Status CommandParams::Invalid(const std::string& message) const {
  return Status::InvalidArgument(op_ + ": " + message);
}

Result<std::string> CommandParams::String(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return Invalid("missing parameter '" + key + "'");
  return it->second;
}

Result<int64_t> CommandParams::ParseInt(const std::string& key,
                                        const std::string& text, int64_t min,
                                        int64_t max) const {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return Invalid("parameter '" + key + "' is not an integer: " + text);
  }
  if (value < min || value > max) {
    return Invalid(key + (max == INT64_MAX
                              ? " must be >= " + std::to_string(min)
                              : " must be in " + std::to_string(min) + ".." +
                                    std::to_string(max)));
  }
  return static_cast<int64_t>(value);
}

Result<int64_t> CommandParams::Int(const std::string& key, int64_t min,
                                   int64_t max) const {
  GEA_ASSIGN_OR_RETURN(std::string text, String(key));
  return ParseInt(key, text, min, max);
}

Result<int64_t> CommandParams::IntOr(const std::string& key, int64_t absent,
                                     int64_t min, int64_t max) const {
  if (!Has(key)) return absent;
  return Int(key, min, max);
}

Result<double> CommandParams::Double(const std::string& key) const {
  GEA_ASSIGN_OR_RETURN(std::string text, String(key));
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Invalid("parameter '" + key + "' is not a number: " + text);
  }
  return value;
}

Result<bool> CommandParams::Bool(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return false;
  if (it->second == "1" || it->second == "true") return true;
  if (it->second == "0" || it->second == "false") return false;
  return Invalid("parameter '" + key + "' is not a boolean: " + it->second);
}

Result<std::vector<int64_t>> CommandParams::IntList(const std::string& key,
                                                    int64_t min,
                                                    int64_t max) const {
  GEA_ASSIGN_OR_RETURN(std::string text, String(key));
  std::vector<int64_t> values;
  for (const std::string& item : Split(text, ',')) {
    if (item.empty()) continue;
    GEA_ASSIGN_OR_RETURN(int64_t value, ParseInt(key, item, min, max));
    values.push_back(value);
  }
  return values;
}

rel::Table NamesTable(const std::string& column,
                      const std::vector<std::string>& names) {
  rel::Table table("query", rel::Schema({{column, rel::ValueType::kString}}));
  for (const std::string& name : names) {
    table.AppendRowUnchecked({rel::Value::String(name)});
  }
  return table;
}

// ---- The command table ----

namespace {

CommandReply Created(const std::string& name) {
  return {"created " + name, {}};
}

}  // namespace

Result<CommandReply> AnalysisSession::RunCommand(
    const std::string& op, const std::map<std::string, std::string>& params) {
  const CommandParams p(op, params);
  if (op == "tissue_dataset") {
    GEA_ASSIGN_OR_RETURN(std::string tissue, p.String("tissue"));
    GEA_ASSIGN_OR_RETURN(sage::TissueType type, sage::ParseTissueType(tissue));
    GEA_ASSIGN_OR_RETURN(bool replace, p.Bool("replace"));
    GEA_RETURN_IF_ERROR(CreateTissueDataSet(type, replace));
    return Created(tissue);
  }
  if (op == "custom_dataset") {
    GEA_ASSIGN_OR_RETURN(std::string name, p.String("name"));
    // The wire names the id list `libs`; the WAL has always logged `ids`.
    GEA_ASSIGN_OR_RETURN(
        std::vector<int64_t> ids,
        p.IntList(p.Has("libs") ? "libs" : "ids", INT_MIN, INT_MAX));
    GEA_ASSIGN_OR_RETURN(bool replace, p.Bool("replace"));
    GEA_RETURN_IF_ERROR(CreateCustomDataSet(
        name, std::vector<int>(ids.begin(), ids.end()), replace));
    return Created(name);
  }
  if (op == "generate_metadata") {
    GEA_ASSIGN_OR_RETURN(std::string dataset, p.String("dataset"));
    GEA_ASSIGN_OR_RETURN(double percent, p.Double("percent"));
    GEA_ASSIGN_OR_RETURN(std::string meta, p.String("meta"));
    GEA_ASSIGN_OR_RETURN(bool replace, p.Bool("replace"));
    GEA_RETURN_IF_ERROR(GenerateMetadata(dataset, percent, meta, replace));
    return Created(meta);
  }
  if (op == "fascicles" || op == "mine") {
    using Algorithm = cluster::FascicleParams::Algorithm;
    GEA_ASSIGN_OR_RETURN(std::string dataset, p.String("dataset"));
    GEA_ASSIGN_OR_RETURN(std::string meta, p.String("meta"));
    GEA_ASSIGN_OR_RETURN(int64_t min_compact,
                         p.Int("min_compact_tags", 0, INT64_MAX));
    GEA_ASSIGN_OR_RETURN(int64_t batch_size, p.Int("batch_size", 0, INT64_MAX));
    GEA_ASSIGN_OR_RETURN(int64_t min_size, p.Int("min_size", 0, INT64_MAX));
    GEA_ASSIGN_OR_RETURN(std::string out_prefix, p.String("out_prefix"));
    // The wire sends no algorithm: absent means the operator's default,
    // greedy (kExact is 0).
    GEA_ASSIGN_OR_RETURN(
        int64_t algorithm,
        p.IntOr("algorithm", static_cast<int64_t>(Algorithm::kGreedy), 0, 1));
    GEA_ASSIGN_OR_RETURN(
        std::vector<std::string> names,
        CalculateFascicles(dataset, meta, static_cast<size_t>(min_compact),
                           static_cast<size_t>(batch_size),
                           static_cast<size_t>(min_size), out_prefix,
                           static_cast<Algorithm>(algorithm)));
    return CommandReply{"", NamesTable("fascicle", names)};
  }
  if (op == "control_groups") {
    GEA_ASSIGN_OR_RETURN(std::string dataset, p.String("dataset"));
    GEA_ASSIGN_OR_RETURN(std::string fascicle, p.String("fascicle"));
    GEA_ASSIGN_OR_RETURN(ControlGroups groups,
                         FormControlGroups(dataset, fascicle));
    return Created(groups.not_in_fas_sumy + ", " + groups.opposite_sumy);
  }
  if (op == "aggregate") {
    GEA_ASSIGN_OR_RETURN(std::string in, p.String("enum"));
    GEA_ASSIGN_OR_RETURN(std::string out, p.String("out"));
    GEA_ASSIGN_OR_RETURN(bool replace, p.Bool("replace"));
    GEA_RETURN_IF_ERROR(Aggregate(in, out, replace));
    return Created(out);
  }
  if (op == "populate") {
    GEA_ASSIGN_OR_RETURN(std::string sumy, p.String("sumy"));
    GEA_ASSIGN_OR_RETURN(std::string base, p.String("base"));
    GEA_ASSIGN_OR_RETURN(std::string out, p.String("out"));
    GEA_ASSIGN_OR_RETURN(bool replace, p.Bool("replace"));
    GEA_RETURN_IF_ERROR(Populate(sumy, base, out, replace));
    return Created(out);
  }
  if (op == "create_gap" || op == "diff") {
    GEA_ASSIGN_OR_RETURN(std::string sumy1, p.String("sumy1"));
    GEA_ASSIGN_OR_RETURN(std::string sumy2, p.String("sumy2"));
    GEA_ASSIGN_OR_RETURN(std::string gap, p.String("gap"));
    GEA_ASSIGN_OR_RETURN(bool replace, p.Bool("replace"));
    GEA_RETURN_IF_ERROR(CreateGap(sumy1, sumy2, gap, replace));
    return Created(gap);
  }
  if (op == "top_gap") {
    GEA_ASSIGN_OR_RETURN(std::string gap, p.String("gap"));
    GEA_ASSIGN_OR_RETURN(int64_t x, p.Int("x", 0, INT64_MAX));
    GEA_ASSIGN_OR_RETURN(int64_t mode, p.IntOr("mode", 0, 0, 2));
    GEA_ASSIGN_OR_RETURN(
        std::string name,
        CalculateTopGap(gap, static_cast<size_t>(x),
                        static_cast<core::TopGapMode>(mode)));
    return CommandReply{std::move(name), {}};
  }
  if (op == "compare_gaps") {
    GEA_ASSIGN_OR_RETURN(std::string a, p.String("a"));
    GEA_ASSIGN_OR_RETURN(std::string b, p.String("b"));
    GEA_ASSIGN_OR_RETURN(int64_t kind, p.Int("kind", 0, 2));
    GEA_ASSIGN_OR_RETURN(std::string out, p.String("out"));
    GEA_ASSIGN_OR_RETURN(bool replace, p.Bool("replace"));
    GEA_RETURN_IF_ERROR(CompareGapTables(
        a, b, static_cast<core::GapCompareKind>(kind), out, replace));
    return Created(out);
  }
  if (op == "gap_query") {
    GEA_ASSIGN_OR_RETURN(std::string compared, p.String("compared"));
    GEA_ASSIGN_OR_RETURN(int64_t query, p.Int("query", 1, 13));
    GEA_ASSIGN_OR_RETURN(std::string out, p.String("out"));
    GEA_ASSIGN_OR_RETURN(bool replace, p.Bool("replace"));
    GEA_RETURN_IF_ERROR(RunGapQuery(
        compared, static_cast<core::GapCompareQuery>(query), out, replace));
    return Created(out);
  }
  if (op == "comment") {
    GEA_ASSIGN_OR_RETURN(std::string table, p.String("table"));
    GEA_ASSIGN_OR_RETURN(std::string comment, p.String("comment"));
    GEA_RETURN_IF_ERROR(CommentOn(table, comment));
    return CommandReply{"commented " + table, {}};
  }
  if (op == "delete_table") {
    GEA_ASSIGN_OR_RETURN(std::string table, p.String("table"));
    GEA_ASSIGN_OR_RETURN(bool cascade, p.Bool("cascade"));
    GEA_RETURN_IF_ERROR(DeleteTable(table, cascade));
    return CommandReply{"deleted " + table, {}};
  }
  if (op == "initialize") {
    GEA_RETURN_IF_ERROR(InitializeDatabase());
    return CommandReply{"initialized", {}};
  }
  return Status::InvalidArgument("unknown command: " + op);
}

}  // namespace gea::workbench
