#ifndef FABRICPP_COMMON_STRINGS_H_
#define FABRICPP_COMMON_STRINGS_H_

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace fabricpp {

/// printf-style formatting into a std::string (GCC 12 lacks std::format).
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// `s` without leading and trailing spaces, tabs and carriage returns.
std::string_view TrimSpace(std::string_view s);

/// Parses all of `text` as a T with std::from_chars: no leading space or
/// '+', no trailing bytes, no overflow, and a floating-point value must be
/// finite. False if it does not parse; `*out` is then unspecified.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
  return true;
}

}  // namespace fabricpp

#endif  // FABRICPP_COMMON_STRINGS_H_
