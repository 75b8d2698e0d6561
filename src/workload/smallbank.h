#ifndef FABRICPP_WORKLOAD_SMALLBANK_H_
#define FABRICPP_WORKLOAD_SMALLBANK_H_

#include <cstdint>

#include "common/zipf.h"
#include "workload/workload.h"

namespace fabricpp::workload {

/// Configuration of the Smallbank run (paper Table 6).
struct SmallbankConfig {
  /// Users; each gets a checking and a savings account (paper: 100,000).
  uint64_t num_users = 100000;
  /// Probability of picking one of the five modifying transactions; the
  /// read-only Query is fired with 1 - prob_write (paper: 95/50/5 %).
  double prob_write = 0.95;
  /// Skew of the Zipf distribution selecting accounts (paper: 0.0 - 2.0).
  double zipf_s = 0.0;
  /// Transfer amounts are drawn uniformly from [1, max_amount].
  int64_t max_amount = 100;
  /// Initial balance range.
  int64_t min_balance = 10000;
  int64_t max_balance = 50000;
  /// Multi-channel mode: when > 1, the user population is split into this
  /// many contiguous shards and channel c's clients only touch shard
  /// c % channel_shards — each channel models an independent tenant with
  /// its own accounts (NextArgsFor). 1 = every channel draws from the full
  /// population (the historical behavior, and the NextArgs path).
  uint32_t channel_shards = 1;
};

/// The Smallbank benchmark (paper §6.2.2): six transaction types over
/// (checking, savings) account pairs, with Zipfian account selection.
class SmallbankWorkload : public Workload {
 public:
  explicit SmallbankWorkload(SmallbankConfig config);

  std::string chaincode() const override { return "smallbank"; }
  void SeedState(statedb::StateDb* db) const override;
  std::vector<std::string> NextArgs(Rng& rng) const override;
  std::vector<std::string> NextArgsFor(uint32_t channel,
                                       Rng& rng) const override;

  /// An upper bound on what SeedState appends: two keys per user, each
  /// value as long as the longer of the balance range's ends.
  SeedSize SeedBound() const;

  const SmallbankConfig& config() const { return config_; }

 private:
  /// One Zipf draw mapped into [base, base + span) — the channel's user
  /// shard (base 0, span num_users for the unsharded path).
  uint64_t PickUser(Rng& rng, uint64_t base, uint64_t span) const;
  std::vector<std::string> NextArgsIn(Rng& rng, uint64_t base,
                                      uint64_t span) const;

  SmallbankConfig config_;
  ZipfGenerator zipf_;
};

}  // namespace fabricpp::workload

#endif  // FABRICPP_WORKLOAD_SMALLBANK_H_
