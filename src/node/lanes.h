#ifndef FABRICPP_NODE_LANES_H_
#define FABRICPP_NODE_LANES_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/strings.h"
#include "fabric/config.h"
#include "runtime/runtime.h"

namespace fabricpp::node {

/// Number of per-channel pipeline lanes a node should run (DESIGN.md §16).
///
/// Lanes exist to scale multi-channel workloads across cores under the
/// thread runtime: each lane is its own endpoint thread (plus executor),
/// one per channel up to 8, and channels are assigned round-robin, so
/// independent channels stop serializing on one node mailbox. Under the
/// simulation runtime there is exactly one lane regardless — the sim is
/// single-threaded and its event order (and with it every fingerprint)
/// must not depend on the lane count.
inline uint32_t ChannelLaneCount(const fabric::FabricConfig& config,
                                 runtime::RuntimeMode mode) {
  if (mode != runtime::RuntimeMode::kThread) return 1;
  return std::min<uint32_t>(config.num_channels, 8);
}

/// The name of a node's lane `lane`: lane 0 is the node itself, lane i > 0
/// is "<node>-lane-<i>".
inline std::string LaneName(const std::string& node, uint32_t lane) {
  return lane == 0 ? node : StrFormat("%s-lane-%u", node.c_str(), lane);
}

}  // namespace fabricpp::node

#endif  // FABRICPP_NODE_LANES_H_
