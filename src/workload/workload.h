#ifndef FABRICPP_WORKLOAD_WORKLOAD_H_
#define FABRICPP_WORKLOAD_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "statedb/state_db.h"

namespace fabricpp::workload {

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
  /// identical state.
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
