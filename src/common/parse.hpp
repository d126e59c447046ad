// Strict number parsing for command lines: the whole argument must be the
// number, so "abc", "12x" and "-1" are errors instead of 0, 12 and 2^64-1.
#ifndef FASTCONS_COMMON_PARSE_HPP
#define FASTCONS_COMMON_PARSE_HPP

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace fastcons {

/// Parses the whole of `text` as an unsigned integer <= `max`; nullopt on
/// empty input, a sign, trailing garbage, or overflow.
inline std::optional<std::uint64_t> parse_u64(const std::string& text,
                                              std::uint64_t max = UINT64_MAX) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || text.empty() || value > max) {
    return std::nullopt;
  }
  return value;
}

/// Parses the whole of `text` as a double; nullopt on empty input or
/// trailing garbage.
inline std::optional<double> parse_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  return value;
}

}  // namespace fastcons

#endif  // FASTCONS_COMMON_PARSE_HPP
