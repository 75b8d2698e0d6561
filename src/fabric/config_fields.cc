#include "fabric/config_fields.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>
#include <sstream>
#include <type_traits>

#include "common/strings.h"

namespace fabricpp::fabric {

namespace {

// One row: key, where the value lives in `o` (an Owner&), then [min, max]
// if the value is bounded, or 0, 0 and the names a named field accepts.
#define FIELD(key, ref, ...) \
  {key, [](Owner& o) -> FieldRef { return ref; }, __VA_ARGS__}

// In enum order.
constexpr std::string_view kConcurrencyNames[] = {"coarse", "fine"};
constexpr std::string_view kYcsbMixNames[] = {"a", "b", "c", "f"};
constexpr std::string_view kWorkloadNames[] = {"smallbank", "ycsb"};

template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

template <typename Owner>
Status CheckRange(const ConfigField<Owner>& field, Owner& owner) {
  // Text, bool and enum rows have no range.
  const std::optional<double> v = std::visit(
      [](auto p) -> std::optional<double> {
        using T = decltype(p);
        if constexpr (std::is_same_v<T, Millis>) return *p.value;
        if constexpr (std::is_same_v<T, uint32_t*> ||
                      std::is_same_v<T, uint64_t*> ||
                      std::is_same_v<T, double*>) {
          return *p;
        }
        return std::nullopt;
      },
      field.at(owner));
  if (!v || (*v >= field.min && *v <= field.max)) return Status::OK();
  const std::string max =
      field.max == kUnbounded ? "max" : StrFormat("%.15g", field.max);
  return Status::InvalidArgument(StrFormat(
      "%s must be in [%.15g, %s]", field.name, field.min, max.c_str()));
}

/// Parses `text` into the row's field; false if it does not parse.
template <typename Owner>
bool Parse(const ConfigField<Owner>& field, Owner& owner,
           std::string_view text) {
  const auto named = std::find(field.names.begin(), field.names.end(), text);
  return std::visit(
      [&](auto p) {
        using T = decltype(p);
        if constexpr (std::is_same_v<T, Millis>) {
          uint64_t ms = 0;
          if (!ParseNumber(text, &ms) || ms > UINT64_MAX / sim::kMillisecond) {
            return false;
          }
          *p.value = ms * sim::kMillisecond;
          return true;
        } else if constexpr (std::is_same_v<T, bool*>) {
          *p = text == "true" || text == "1" || text == "on";
          return *p || text == "false" || text == "0" || text == "off";
        } else if constexpr (std::is_same_v<T, double*>) {
          return ParseNumber(text, p) && std::isfinite(*p);
        } else if constexpr (std::is_arithmetic_v<std::remove_pointer_t<T>>) {
          return ParseNumber(text, p);
        } else if constexpr (std::is_same_v<T, std::string*>) {
          *p = text;
          return field.names.empty() || named != field.names.end();
        } else if constexpr (std::is_same_v<T, std::vector<std::string>*>) {
          p->clear();
          std::istringstream parts{std::string(text)};
          for (std::string part; std::getline(parts, part, ',');) {
            if (!TrimSpace(part).empty()) p->emplace_back(TrimSpace(part));
          }
          return true;
        } else {  // An enum: the index of its name.
          if (named == field.names.end()) return false;
          *p = static_cast<std::remove_pointer_t<T>>(named -
                                                     field.names.begin());
          return true;
        }
      },
      field.at(owner));
}

template <typename Owner>
Status SetField(const std::vector<ConfigField<Owner>>& rows, Owner* owner,
                std::string_view key, std::string_view value) {
  for (const ConfigField<Owner>& field : rows) {
    if (key != field.name) continue;
    if (!Parse(field, *owner, value)) {
      return Status::InvalidArgument(
          StrFormat("bad value for %s: \"%.*s\"", field.name,
                    static_cast<int>(value.size()), value.data()));
    }
    return CheckRange(field, *owner);
  }
  return Status::NotFound(StrFormat("unknown key \"%.*s\"",
                                    static_cast<int>(key.size()), key.data()));
}

}  // namespace

const std::vector<ConfigField<FabricConfig>>& ConfigFields() {
  using Owner = FabricConfig;
  static const std::vector<ConfigField<Owner>> rows = {
      FIELD("num_orgs", &o.num_orgs, 1),
      FIELD("peers_per_org", &o.peers_per_org, 1),
      FIELD("num_channels", &o.num_channels, 1),
      FIELD("clients_per_channel", &o.clients_per_channel, 1),
      FIELD("client_fire_rate_tps", &o.client_fire_rate_tps,
            std::numeric_limits<double>::denorm_min()),
      FIELD("client_resubmit", &o.client_resubmit),
      FIELD("client_max_retries", &o.client_max_retries),
      FIELD("client_retry_backoff_base_ms",
            Millis{&o.client_retry_backoff_base}, 1),
      FIELD("client_retry_backoff_max_ms",
            Millis{&o.client_retry_backoff_max}, 1),
      FIELD("client_retry_jitter", &o.client_retry_jitter, 0, 1),
      FIELD("client_endorsement_timeout_ms",
            Millis{&o.client_endorsement_timeout}, 1),
      FIELD("client_commit_timeout_ms", Millis{&o.client_commit_timeout}, 1),
      FIELD("client_max_inflight", &o.client_max_inflight),
      FIELD("admission_queue_depth", &o.admission_queue_depth, 0, 1048576),
      FIELD("fair_sched_quantum", &o.fair_sched_quantum, 0, 4096),
      FIELD("fair_conflict_penalty", &o.fair_conflict_penalty, 0, 1024),
      FIELD("peer_cores", &o.peer_cores, 1),
      FIELD("orderer_cores", &o.orderer_cores, 1),
      FIELD("client_machine_cores", &o.client_machine_cores, 1),
      FIELD("validator_workers", &o.validator_workers, 1, 256),
      FIELD("ordering_pipeline_depth", &o.ordering_pipeline_depth, 1, 64),
      FIELD("block_max_transactions", &o.block.max_transactions),
      FIELD("block_max_bytes", &o.block.max_bytes),
      FIELD("block_timeout_ms", Millis{&o.block.batch_timeout}),
      FIELD("block_max_unique_keys", &o.block.max_unique_keys),
      FIELD("peer_fetch_retry_interval_ms",
            Millis{&o.peer_fetch_retry_interval}, 1),
      FIELD("enable_reordering", &o.enable_reordering),
      FIELD("enable_early_abort_sim", &o.enable_early_abort_sim),
      FIELD("enable_early_abort_ordering", &o.enable_early_abort_ordering),
      FIELD("concurrency", &o.concurrency, 0, 0, kConcurrencyNames),
      FIELD("runtime_mode", &o.runtime_mode),
      FIELD("mailbox_capacity", &o.mailbox_capacity, 16, 1048576),
      FIELD("thread_client_shards", &o.thread_client_shards, 1, 256),
      FIELD("peer_addresses", &o.peer_addresses),
      FIELD("orderer_address", &o.orderer_address),
      FIELD("listen_address", &o.listen_address),
      FIELD("socket_connect_timeout_ms",
            &o.socket_connect_timeout_ms, 1, 600000),
      FIELD("socket_max_frame_bytes", &o.socket_max_frame_bytes, 4096, 1 << 30),
      FIELD("seed", &o.seed),
  };
  return rows;
}

const std::vector<ConfigField<WorkloadSpec>>& WorkloadFields() {
  using Owner = WorkloadSpec;
  static const std::vector<ConfigField<Owner>> rows = {
      FIELD("workload", &o.name, 0, 0, kWorkloadNames),
      FIELD("smallbank_users", &o.smallbank.num_users, 1),
      FIELD("smallbank_prob_write", &o.smallbank.prob_write, 0, 1),
      FIELD("smallbank_zipf", &o.smallbank.zipf_s, 0),
      FIELD("ycsb_mix", &o.ycsb.mix, 0, 0, kYcsbMixNames),
      FIELD("ycsb_records", &o.ycsb.num_records, 1),
      FIELD("ycsb_zipf", &o.ycsb.zipf_s, 0),
      FIELD("ycsb_value_size", &o.ycsb.value_size),
  };
  return rows;
}

#undef FIELD

Status SetConfigField(FabricConfig* config, std::string_view key,
                      std::string_view value) {
  return SetField(ConfigFields(), config, key, value);
}

Status SetWorkloadField(WorkloadSpec* spec, std::string_view key,
                        std::string_view value) {
  return SetField(WorkloadFields(), spec, key, value);
}

Status CheckConfigFieldRanges(const FabricConfig& config) {
  // The rows hand out mutable pointers for the parser; this only reads.
  FabricConfig& fields = const_cast<FabricConfig&>(config);
  for (const ConfigField<FabricConfig>& field : ConfigFields()) {
    FABRICPP_RETURN_IF_ERROR(CheckRange(field, fields));
  }
  return Status::OK();
}

}  // namespace fabricpp::fabric
