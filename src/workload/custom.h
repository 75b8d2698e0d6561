#ifndef FABRICPP_WORKLOAD_CUSTOM_H_
#define FABRICPP_WORKLOAD_CUSTOM_H_

#include <cstdint>

#include "workload/workload.h"

namespace fabricpp::workload {

/// Configuration of the paper's custom workload (§6.2.2, Table 7).
struct CustomConfig {
  /// Number of account balances N (paper: 10,000).
  uint64_t num_accounts = 10000;
  /// Reads per transaction and writes per transaction RW (paper: 4, 8).
  uint32_t rw_ops = 8;
  /// Probability a read access targets a hot account HR (10/20/40 %).
  double hot_read_prob = 0.4;
  /// Probability a write access targets a hot account HW (5/10 %).
  double hot_write_prob = 0.1;
  /// Fraction of accounts forming the hot set HSS (1/2/4 %).
  double hot_set_fraction = 0.01;
};

/// The paper's single, highly configurable transaction: RW reads and RW
/// writes over N accounts, each access hitting the hot set (the first
/// HSS * N accounts) with its configured probability.
class CustomWorkload : public Workload {
 public:
  explicit CustomWorkload(CustomConfig config);

  std::string chaincode() const override { return "custom"; }
  void SeedState(statedb::StateDb* db) const override;
  std::vector<std::string> NextArgs(Rng& rng) const override;

  /// An upper bound on what SeedState appends: one key per account, each
  /// balance at most as long as the largest one.
  SeedSize SeedBound() const;

  const CustomConfig& config() const { return config_; }
  uint64_t hot_set_size() const { return hot_set_size_; }

 private:
  uint64_t PickAccount(Rng& rng, double hot_prob) const;

  CustomConfig config_;
  uint64_t hot_set_size_;
};

/// A workload of blank transactions (no reads, no writes) — the Figure 1
/// experiment that exposes the crypto/network throughput ceiling.
class BlankWorkload : public Workload {
 public:
  std::string chaincode() const override { return "blank"; }
  void SeedState(statedb::StateDb* db) const override { (void)db; }
  std::vector<std::string> NextArgs(Rng& rng) const override {
    (void)rng;
    return {};
  }
};

}  // namespace fabricpp::workload

#endif  // FABRICPP_WORKLOAD_CUSTOM_H_
