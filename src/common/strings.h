#ifndef FABRICPP_COMMON_STRINGS_H_
#define FABRICPP_COMMON_STRINGS_H_

#include <cstdarg>
#include <string>
#include <string_view>

namespace fabricpp {

/// printf-style formatting into a std::string (GCC 12 lacks std::format).
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// `s` without leading and trailing spaces, tabs and carriage returns.
std::string_view TrimSpace(std::string_view s);

}  // namespace fabricpp

#endif  // FABRICPP_COMMON_STRINGS_H_
