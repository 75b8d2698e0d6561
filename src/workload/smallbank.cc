#include "workload/smallbank.h"

#include "chaincode/builtin_chaincodes.h"

namespace fabricpp::workload {

SmallbankWorkload::SmallbankWorkload(SmallbankConfig config)
    : config_(config), zipf_(config.num_users, config.zipf_s) {}

SeedSize SmallbankWorkload::SeedBound() const {
  const uint64_t n = config_.num_users;
  // "c_" and "s_", each followed by the user number.
  const uint64_t prefix =
      chaincode::SmallbankChaincode::CheckingKey(0).size() - 1;
  const uint64_t value = std::max(std::to_string(config_.min_balance).size(),
                                  std::to_string(config_.max_balance).size());
  return {2 * n, 2 * (n * (prefix + value) + DecimalDigitsBelow(n))};
}

void SmallbankWorkload::SeedState(statedb::StateDb* db) const {
  const SeedSize bound = SeedBound();
  db->ReserveSeeds(bound.entries, bound.arena_bytes);
  // Fixed seed: all peers install byte-identical initial state.
  Rng rng(0x5ba11ba2c0ffeeULL ^ config_.num_users);
  const int64_t span = config_.max_balance - config_.min_balance + 1;
  for (uint64_t user = 0; user < config_.num_users; ++user) {
    const int64_t checking =
        config_.min_balance + static_cast<int64_t>(rng.NextUint64(span));
    const int64_t savings =
        config_.min_balance + static_cast<int64_t>(rng.NextUint64(span));
    db->SeedInitialState(chaincode::SmallbankChaincode::CheckingKey(user),
                         std::to_string(checking));
    db->SeedInitialState(chaincode::SmallbankChaincode::SavingsKey(user),
                         std::to_string(savings));
  }
}

uint64_t SmallbankWorkload::PickUser(Rng& rng, uint64_t base,
                                     uint64_t span) const {
  return base + zipf_.Next(rng) % span;
}

std::vector<std::string> SmallbankWorkload::NextArgs(Rng& rng) const {
  return NextArgsIn(rng, 0, config_.num_users);
}

std::vector<std::string> SmallbankWorkload::NextArgsFor(uint32_t channel,
                                                        Rng& rng) const {
  if (config_.channel_shards <= 1) return NextArgs(rng);
  // Contiguous user shards, one per channel (round-robin when there are
  // more channels than shards); the last shard absorbs the remainder. The
  // draw sequence is identical to NextArgs — only the mapping differs.
  const uint64_t shards =
      std::min<uint64_t>(config_.channel_shards, config_.num_users);
  const uint64_t shard = channel % shards;
  const uint64_t per = config_.num_users / shards;
  const uint64_t base = shard * per;
  const uint64_t span =
      shard == shards - 1 ? config_.num_users - base : per;
  return NextArgsIn(rng, base, span);
}

std::vector<std::string> SmallbankWorkload::NextArgsIn(Rng& rng,
                                                       uint64_t base,
                                                       uint64_t span) const {
  const std::string amount =
      std::to_string(1 + static_cast<int64_t>(
                             rng.NextUint64(config_.max_amount)));
  if (!rng.NextBool(config_.prob_write)) {
    return {"query", std::to_string(PickUser(rng, base, span))};
  }
  // One of the five modifying transactions, uniformly (paper §6.2.2).
  switch (rng.NextUint64(5)) {
    case 0:
      return {"transact_savings", std::to_string(PickUser(rng, base, span)),
              amount};
    case 1:
      return {"deposit_checking", std::to_string(PickUser(rng, base, span)),
              amount};
    case 2: {
      const uint64_t from = PickUser(rng, base, span);
      uint64_t to = PickUser(rng, base, span);
      if (span > 1) {
        while (to == from) to = PickUser(rng, base, span);
      }
      return {"send_payment", std::to_string(from), std::to_string(to),
              amount};
    }
    case 3:
      return {"write_check", std::to_string(PickUser(rng, base, span)),
              amount};
    default:
      return {"amalgamate", std::to_string(PickUser(rng, base, span))};
  }
}

}  // namespace fabricpp::workload
