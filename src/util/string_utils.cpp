#include "util/string_utils.hpp"

#include <cctype>
#include <charconv>

namespace uniscan {

std::string_view trim(std::string_view s) noexcept {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string excerpt(std::string_view s, std::size_t max_len) {
  if (s.size() <= max_len) return std::string(s);
  return std::string(s.substr(0, max_len)) + "...";
}

template <typename T>
std::optional<T> parse_number(std::string_view s) noexcept {
  // A leading digit (or '.' for "0.5"-style seconds) rules out signs,
  // spaces, "inf" and "nan" before from_chars sees them.
  if (s.empty() || !(std::isdigit(static_cast<unsigned char>(s[0])) || s[0] == '.'))
    return std::nullopt;
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

template std::optional<std::uint64_t> parse_number(std::string_view) noexcept;
template std::optional<double> parse_number(std::string_view) noexcept;

}  // namespace uniscan
