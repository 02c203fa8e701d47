// Small string utilities shared across subsystems: natural ordering
// (digit runs compare numerically, so "fig5" < "fig10"), shell-style
// glob matching for experiment-name filters, and the checked number
// conversion every text reader uses.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace dxbar {

/// Natural string comparison: digit runs compare numerically, so
/// "fig5" < "fig10" and "table1" < "table3".
bool natural_less(std::string_view a, std::string_view b);

/// Shell-style glob match over the whole of `text`: `*` matches any run
/// (including empty), `?` matches exactly one character; everything
/// else matches literally.  No character classes.
bool glob_match(std::string_view pattern, std::string_view text);

/// The one number conversion for overrides and result JSON: the whole
/// token, in range for T (so no sign on an unsigned T), and finite.
/// Locale-independent, and a double reads back to the exact bits
/// `%.17g` or to_chars wrote.
template <class T>
bool parse_number(std::string_view s, T& out) {
  T v{};
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  out = v;
  return true;
}

}  // namespace dxbar
