#include "workload/ycsb.h"

#include "common/strings.h"

namespace fabricpp::workload {

std::string_view YcsbMixToString(YcsbMix mix) {
  switch (mix) {
    case YcsbMix::kA:
      return "A (50r/50u)";
    case YcsbMix::kB:
      return "B (95r/5u)";
    case YcsbMix::kC:
      return "C (100r)";
    case YcsbMix::kF:
      return "F (50r/50rmw)";
  }
  return "?";
}

YcsbWorkload::YcsbWorkload(YcsbConfig config)
    : config_(config),
      zipf_(config.num_records, config.zipf_s),
      value_template_(config.value_size, 'y') {}

std::string YcsbWorkload::RecordKey(uint64_t record) {
  return StrFormat("user%llu", static_cast<unsigned long long>(record));
}

SeedSize YcsbWorkload::SeedBound() const {
  const uint64_t n = config_.num_records;
  const uint64_t prefix = RecordKey(0).size() - 1;  // "user"
  return {n, n * (prefix + config_.value_size) + DecimalDigitsBelow(n)};
}

void YcsbWorkload::SeedState(statedb::StateDb* db) const {
  const SeedSize bound = SeedBound();
  db->ReserveSeeds(bound.entries, bound.arena_bytes);
  for (uint64_t r = 0; r < config_.num_records; ++r) {
    db->SeedInitialState(RecordKey(r), value_template_);
  }
}

std::vector<std::string> YcsbWorkload::NextArgs(Rng& rng) const {
  const std::string key = RecordKey(zipf_.Next(rng));
  double update_prob = 0;
  bool rmw = false;
  switch (config_.mix) {
    case YcsbMix::kA:
      update_prob = 0.5;
      break;
    case YcsbMix::kB:
      update_prob = 0.05;
      break;
    case YcsbMix::kC:
      update_prob = 0.0;
      break;
    case YcsbMix::kF:
      update_prob = 0.5;
      rmw = true;
      break;
  }
  if (!rng.NextBool(update_prob)) return {"get", key};
  if (rmw) return {"rmw", key, value_template_};
  return {"put", key, value_template_};
}

}  // namespace fabricpp::workload
