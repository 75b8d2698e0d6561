#include "node/mesh.h"

#include <string_view>

namespace fabricpp::node {
namespace {

/// The number `digits` spells in decimal without a sign or a leading zero,
/// if it fits 32 bits.
std::optional<uint32_t> ParseIndex(std::string_view digits) {
  if (digits.empty() || digits.size() > 10 ||
      (digits[0] == '0' && digits.size() > 1)) {
    return std::nullopt;
  }
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (value > UINT32_MAX) return std::nullopt;
  return static_cast<uint32_t>(value);
}

}  // namespace

std::string ClientNameFor(uint32_t channel, uint32_t index_in_channel) {
  return "client_c" + std::to_string(channel) + "_" +
         std::to_string(index_in_channel);
}

std::optional<uint32_t> ClientIndexOf(const std::string& name,
                                      const fabric::FabricConfig& config) {
  constexpr std::string_view kPrefix = "client_c";
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return std::nullopt;
  const std::string_view rest = std::string_view(name).substr(kPrefix.size());
  const size_t sep = rest.find('_');
  if (sep == std::string_view::npos) return std::nullopt;
  const std::optional<uint32_t> channel = ParseIndex(rest.substr(0, sep));
  const std::optional<uint32_t> index = ParseIndex(rest.substr(sep + 1));
  if (!channel.has_value() || !index.has_value() ||
      *channel >= config.num_channels ||
      *index >= config.clients_per_channel) {
    return std::nullopt;
  }
  return *channel * config.clients_per_channel + *index;
}

}  // namespace fabricpp::node
