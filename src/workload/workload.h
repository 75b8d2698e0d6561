#ifndef FABRICPP_WORKLOAD_WORKLOAD_H_
#define FABRICPP_WORKLOAD_WORKLOAD_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "statedb/state_db.h"

namespace fabricpp::workload {

/// An upper bound on what a workload's SeedState appends to a fresh
/// database's seed table. Each seeding workload reserves it at the top of
/// its own SeedState (statedb::StateDb::ReserveSeeds), so the genesis is
/// built at its final size (DESIGN.md §17).
struct SeedSize {
  uint64_t entries = 0;
  uint64_t arena_bytes = 0;  ///< Keys and values together.
};

/// The decimal digits of 0, 1, ..., n - 1 together: what the numbers in
/// the keys of n records numbered from 0 take.
inline uint64_t DecimalDigitsBelow(uint64_t n) {
  uint64_t total = 0;
  uint64_t low = 0;  // The first number with `digits` digits (0 has one).
  for (uint64_t digits = 1, high = 10; low < n; ++digits) {
    total += digits * (std::min(n, high) - low);
    low = high;
    high = high > UINT64_MAX / 10 ? UINT64_MAX : high * 10;
  }
  return total;
}

/// A proposal generator: which chaincode to call and with which arguments.
///
/// Workloads are pure argument factories — the fabric::ClientNode turns the
/// args into proposals, fires them at the configured rate, and the
/// chaincode executes them during endorsement.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Name of the chaincode all generated proposals target.
  virtual std::string chaincode() const = 0;

  /// Installs the initial application state (account balances etc.) into a
  /// peer's state database. Must be deterministic: every peer seeds the
  /// identical state. A workload that seeds many entries reserves its
  /// SeedSize here rather than through another virtual method: a wrapper
  /// that forwards only SeedState (the end-to-end benchmark's observer,
  /// examples/smallbank_demo.cpp) then still seeds a reserved table.
  virtual void SeedState(statedb::StateDb* db) const = 0;

  /// SeedState into a fresh database, frozen for sharing: the genesis layer
  /// every (peer, channel) of one process reads through (DESIGN.md §17).
  /// Seeding takes no channel, so one genesis serves every channel.
  std::shared_ptr<const statedb::StateDb> SeedGenesis() const {
    auto genesis = std::make_shared<statedb::StateDb>();
    SeedState(genesis.get());
    return genesis;
  }

  /// Generates the argument vector of the next proposal.
  virtual std::vector<std::string> NextArgs(Rng& rng) const = 0;

  /// Generates the next proposal's arguments for a client on `channel`.
  /// The default ignores the channel and delegates to NextArgs — every
  /// channel runs the same generator over the full keyspace. Multi-channel
  /// workloads override this to give each channel its own key population
  /// (e.g. SmallbankConfig::channel_shards), modeling independent tenants;
  /// overrides should draw the same amount of randomness as NextArgs so a
  /// client's RNG stream stays aligned across modes.
  virtual std::vector<std::string> NextArgsFor(uint32_t /*channel*/,
                                               Rng& rng) const {
    return NextArgs(rng);
  }
};

}  // namespace fabricpp::workload

#endif  // FABRICPP_WORKLOAD_WORKLOAD_H_
