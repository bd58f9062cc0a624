// Small string helpers used by the .bench parser, table writers and flag
// parsers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace uniscan {

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Split on a single-character delimiter; elements are trimmed.
/// Empty elements (after trimming) are kept so callers can detect syntax
/// errors such as "AND(a,,b)".
std::vector<std::string> split(std::string_view s, char delim);

/// True if `s` starts with `prefix` (case-sensitive).
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Uppercase ASCII copy.
std::string to_upper(std::string_view s);

/// Copy of `s` capped at `max_len` characters for error messages: longer
/// input is cut and suffixed with "..." so a corrupt multi-megabyte line
/// cannot explode a diagnostic.
std::string excerpt(std::string_view s, std::size_t max_len = 48);

/// Strict value of a numeric command-line flag: the whole of `s` must be a
/// non-negative decimal number that fits T. Empty input, a sign, spaces,
/// trailing junk ("4x"), "inf"/"nan" and out-of-range values all yield
/// nullopt, so callers can reject them as usage errors instead of reading
/// them as 0. T is std::uint64_t (counts, seeds) or double (seconds).
template <typename T>
std::optional<T> parse_number(std::string_view s) noexcept;

}  // namespace uniscan
