#ifndef GEA_COMMON_STRINGS_H_
#define GEA_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace gea {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// ASCII lower-casing.
std::string ToLower(std::string_view text);

/// True when `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Formats `value` with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

/// Formats `value` as the shortest text that reads back as the same
/// double. Integral values below 1e15 print as integers ("13", "300000"
/// rather than "3e+05").
std::string FormatDoubleExact(double value);

/// Left- or right-pads `text` with spaces to `width` columns.
std::string PadRight(std::string_view text, size_t width);
std::string PadLeft(std::string_view text, size_t width);

}  // namespace gea

#endif  // GEA_COMMON_STRINGS_H_
