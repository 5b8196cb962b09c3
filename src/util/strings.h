// Minimal string helpers used by the parsers and report writers.
#ifndef TSG_UTIL_STRINGS_H
#define TSG_UTIL_STRINGS_H

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace tsg {

/// Strips leading and trailing ASCII whitespace.
[[nodiscard]] std::string trim(std::string_view text);

/// Splits on any of the characters in `separators`, dropping empty pieces.
[[nodiscard]] std::vector<std::string> split(std::string_view text,
                                             std::string_view separators = " \t");

/// Joins pieces with the given separator.
[[nodiscard]] std::string join(const std::vector<std::string>& pieces,
                               std::string_view separator);

/// True when `text` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Formats a double with the given number of significant decimals, trimming
/// trailing zeros ("6.67", "10", "9.5").
[[nodiscard]] std::string format_double(double value, int decimals = 4);

/// Parses the value of a count flag: plain decimal digits (no sign, no
/// trailing characters) no larger than `max`.  Throws tsg::error naming
/// `flag` otherwise.
[[nodiscard]] std::uint64_t parse_count(const std::string& flag, const std::string& text,
                                        std::uint64_t max =
                                            std::numeric_limits<std::uint64_t>::max());

/// Parses the value of a rate flag: a plain non-negative decimal (digits
/// with an optional fraction; no sign, exponent, inf or nan) that fits a
/// double.  Throws tsg::error naming `flag` otherwise.
[[nodiscard]] double parse_rate(const std::string& flag, const std::string& text);

} // namespace tsg

#endif // TSG_UTIL_STRINGS_H
