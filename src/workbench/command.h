#ifndef GEA_WORKBENCH_COMMAND_H_
#define GEA_WORKBENCH_COMMAND_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "rel/table.h"

namespace gea::workbench {

/// One named command's `key=value` parameters — from a wire request or a
/// logical WAL record — read through the typed accessors every decoder
/// shares. A view: `values` must outlive it. Every accessor error is
/// InvalidArgument and names the command.
class CommandParams {
 public:
  CommandParams(std::string op,
                const std::map<std::string, std::string>& values)
      : op_(std::move(op)), values_(values) {}

  /// The value of `key`; an error when it is absent.
  Result<std::string> String(const std::string& key) const;
  /// `key` as a decimal integer in [min, max].
  Result<int64_t> Int(const std::string& key, int64_t min,
                      int64_t max) const;
  /// Same, but `absent` when `key` is missing.
  Result<int64_t> IntOr(const std::string& key, int64_t absent, int64_t min,
                        int64_t max) const;
  /// `key` as a number (strtod syntax, so "nan" and "inf" parse).
  Result<double> Double(const std::string& key) const;
  /// "1"/"true" or "0"/"false"; false when absent.
  Result<bool> Bool(const std::string& key) const;
  /// `key` as a comma list of integers in [min, max]. Empty items are
  /// skipped, so "" is the empty list.
  Result<std::vector<int64_t>> IntList(const std::string& key, int64_t min,
                                       int64_t max) const;

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  Result<int64_t> ParseInt(const std::string& key, const std::string& text,
                           int64_t min, int64_t max) const;
  Status Invalid(const std::string& message) const;

  std::string op_;
  const std::map<std::string, std::string>& values_;
};

/// What a command answers: a text (`created <name>`, a stored name) and,
/// for commands that return rows, a table.
struct CommandReply {
  std::string text;
  std::optional<rel::Table> table;
};

/// A one-column string table named "query": the reply shape of `mine`
/// (column "fascicle") and of the server's `tables` (column "name").
rel::Table NamesTable(const std::string& column,
                      const std::vector<std::string>& names);

}  // namespace gea::workbench

#endif  // GEA_WORKBENCH_COMMAND_H_
