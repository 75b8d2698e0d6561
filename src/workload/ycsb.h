#ifndef FABRICPP_WORKLOAD_YCSB_H_
#define FABRICPP_WORKLOAD_YCSB_H_

#include <cstdint>

#include "common/zipf.h"
#include "workload/workload.h"

namespace fabricpp::workload {

/// The standard YCSB core workload mixes (Cooper et al., SoCC 2010),
/// mapped onto the "kv" chaincode. The paper names YCSB among the
/// benchmarks a database evaluation would reach for (§6.2); this extension
/// makes the harness directly comparable to KV-store studies.
enum class YcsbMix {
  kA,  ///< 50% read / 50% update ("update heavy").
  kB,  ///< 95% read / 5% update ("read mostly").
  kC,  ///< 100% read.
  kF,  ///< 50% read / 50% read-modify-write.
};

std::string_view YcsbMixToString(YcsbMix mix);

struct YcsbConfig {
  YcsbMix mix = YcsbMix::kA;
  uint64_t num_records = 10000;
  /// Zipfian skew of key selection (YCSB default ~0.99).
  double zipf_s = 0.99;
  uint32_t value_size = 100;
};

/// YCSB proposal generator over the generic key-value chaincode.
class YcsbWorkload : public Workload {
 public:
  explicit YcsbWorkload(YcsbConfig config);

  std::string chaincode() const override { return "kv"; }
  void SeedState(statedb::StateDb* db) const override;
  std::vector<std::string> NextArgs(Rng& rng) const override;

  /// Exactly what SeedState appends: every record's key and value.
  SeedSize SeedBound() const;

  const YcsbConfig& config() const { return config_; }
  static std::string RecordKey(uint64_t record);

 private:
  YcsbConfig config_;
  ZipfGenerator zipf_;
  std::string value_template_;
};

}  // namespace fabricpp::workload

#endif  // FABRICPP_WORKLOAD_YCSB_H_
