// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace h2push::util {

/// ASCII character classes. They match <cctype> in the "C" locale, which
/// the program never changes, without the locale lookup.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
}
constexpr bool is_alnum(char c) noexcept {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}
constexpr char to_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Equal ignoring ASCII case.
constexpr bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (to_lower(a[i]) != to_lower(b[i])) return false;
  }
  return true;
}

/// Split on a delimiter; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char delim);

/// ASCII lowercase copy (header names, hostnames).
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix) noexcept;
bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view s) noexcept;

/// printf-style human size, e.g. "236.0 KB".
std::string human_bytes(double bytes);

}  // namespace h2push::util
