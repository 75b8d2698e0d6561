#include "workload/custom.h"

#include <algorithm>
#include <unordered_set>

#include "chaincode/builtin_chaincodes.h"

namespace fabricpp::workload {
namespace {

/// Seeded balances are drawn from [0, kBalanceRange).
constexpr uint64_t kBalanceRange = 100000;

}  // namespace

CustomWorkload::CustomWorkload(CustomConfig config)
    : config_(config),
      hot_set_size_(std::max<uint64_t>(
          1, static_cast<uint64_t>(static_cast<double>(config.num_accounts) *
                                   config.hot_set_fraction))) {}

SeedSize CustomWorkload::SeedBound() const {
  const uint64_t n = config_.num_accounts;
  const uint64_t prefix =
      chaincode::CustomChaincode::AccountKey(0).size() - 1;  // "acc_"
  const uint64_t value = std::to_string(kBalanceRange - 1).size();
  return {n, n * (prefix + value) + DecimalDigitsBelow(n)};
}

void CustomWorkload::SeedState(statedb::StateDb* db) const {
  const SeedSize bound = SeedBound();
  db->ReserveSeeds(bound.entries, bound.arena_bytes);
  Rng rng(0xc057a10adULL ^ config_.num_accounts);
  for (uint64_t acc = 0; acc < config_.num_accounts; ++acc) {
    db->SeedInitialState(
        chaincode::CustomChaincode::AccountKey(acc),
        std::to_string(static_cast<int64_t>(rng.NextUint64(kBalanceRange))));
  }
}

uint64_t CustomWorkload::PickAccount(Rng& rng, double hot_prob) const {
  if (rng.NextBool(hot_prob)) {
    return rng.NextUint64(hot_set_size_);
  }
  // Cold accounts: the remainder [hot_set_size, num_accounts).
  const uint64_t cold = config_.num_accounts - hot_set_size_;
  if (cold == 0) return rng.NextUint64(hot_set_size_);
  return hot_set_size_ + rng.NextUint64(cold);
}

std::vector<std::string> CustomWorkload::NextArgs(Rng& rng) const {
  std::vector<std::string> args;
  args.reserve(1 + 2 * config_.rw_ops);
  args.push_back(std::to_string(config_.rw_ops));

  // RW distinct read accounts, then RW distinct write accounts; each access
  // is hot with its configured probability.
  std::unordered_set<uint64_t> used;
  for (uint32_t i = 0; i < config_.rw_ops; ++i) {
    uint64_t acc = PickAccount(rng, config_.hot_read_prob);
    while (used.count(acc) != 0 && used.size() < config_.num_accounts) {
      acc = PickAccount(rng, config_.hot_read_prob);
    }
    used.insert(acc);
    args.push_back(chaincode::CustomChaincode::AccountKey(acc));
  }
  used.clear();
  for (uint32_t i = 0; i < config_.rw_ops; ++i) {
    uint64_t acc = PickAccount(rng, config_.hot_write_prob);
    while (used.count(acc) != 0 && used.size() < config_.num_accounts) {
      acc = PickAccount(rng, config_.hot_write_prob);
    }
    used.insert(acc);
    args.push_back(chaincode::CustomChaincode::AccountKey(acc));
  }
  return args;
}

}  // namespace fabricpp::workload
