#include "common/strings.h"

#include <cstdio>
#include <vector>

namespace fabricpp {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string_view TrimSpace(std::string_view s) {
  const size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return {};
  return s.substr(begin, s.find_last_not_of(" \t\r") - begin + 1);
}

}  // namespace fabricpp
