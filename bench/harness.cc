#include "harness.h"

#include <cstdio>
#include <string>

namespace fabricpp::bench {

void PrintHeader(const std::string& title, const std::string& paper_ref,
                 const std::string& run) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  if (!run.empty()) std::printf("%s\n", run.c_str());
  std::printf("==============================================================\n");
}

}  // namespace fabricpp::bench
