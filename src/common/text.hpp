// Small string builders.
#ifndef FASTCONS_COMMON_TEXT_HPP
#define FASTCONS_COMMON_TEXT_HPP

#include <cstdint>
#include <string>
#include <string_view>

namespace fastcons {

/// `prefix` followed by the decimal digits of `n`: numbered("k", 7) is "k7".
/// Built by append, not as `"k" + std::to_string(n)`: GCC 12 at -O3 reports
/// a false -Wrestrict overlap inside that operator+.
inline std::string numbered(std::string_view prefix, std::uint64_t n) {
  std::string out(prefix);
  out.append(std::to_string(n));
  return out;
}

}  // namespace fastcons

#endif  // FASTCONS_COMMON_TEXT_HPP
