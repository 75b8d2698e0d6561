#ifndef FABRICPP_BENCH_HARNESS_H_
#define FABRICPP_BENCH_HARNESS_H_

#include <string>

namespace fabricpp::bench {

/// Prints a bench header naming the paper experiment being reproduced.
/// `run`, when not empty, is a line stating how long the bench runs.
void PrintHeader(const std::string& title, const std::string& paper_ref,
                 const std::string& run = "");

}  // namespace fabricpp::bench

#endif  // FABRICPP_BENCH_HARNESS_H_
