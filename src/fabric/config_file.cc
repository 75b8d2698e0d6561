#include "fabric/config_file.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace fabricpp::fabric {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

Status BadValue(const std::string& key, const std::string& value) {
  return Status::InvalidArgument("bad value for " + key + ": \"" + value +
                                 "\"");
}

Status ParseU64(const std::string& key, const std::string& value,
                uint64_t* out) {
  if (value.empty()) return BadValue(key, value);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size()) {
    return BadValue(key, value);
  }
  *out = v;
  return Status::OK();
}

Status ParseU32(const std::string& key, const std::string& value,
                uint32_t* out) {
  uint64_t v = 0;
  const Status s = ParseU64(key, value, &v);
  if (!s.ok()) return s;
  if (v > UINT32_MAX) return BadValue(key, value);
  *out = static_cast<uint32_t>(v);
  return Status::OK();
}

Status ParseF64(const std::string& key, const std::string& value,
                double* out) {
  if (value.empty()) return BadValue(key, value);
  errno = 0;
  char* end = nullptr;
  const double v = strtod(value.c_str(), &end);
  if (errno != 0 || end != value.c_str() + value.size()) {
    return BadValue(key, value);
  }
  *out = v;
  return Status::OK();
}

Status ParseBool(const std::string& key, const std::string& value,
                 bool* out) {
  if (value == "true" || value == "1" || value == "on") {
    *out = true;
    return Status::OK();
  }
  if (value == "false" || value == "0" || value == "off") {
    *out = false;
    return Status::OK();
  }
  return BadValue(key, value);
}

std::vector<std::string> SplitCommas(const std::string& value) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= value.size()) {
    const size_t comma = value.find(',', start);
    if (comma == std::string::npos) {
      const std::string part = Trim(value.substr(start));
      if (!part.empty()) parts.push_back(part);
      break;
    }
    const std::string part = Trim(value.substr(start, comma - start));
    if (!part.empty()) parts.push_back(part);
    start = comma + 1;
  }
  return parts;
}

/// Everything the workload section can set, applied after all lines parse.
struct WorkloadSpec {
  std::string name = "smallbank";
  workload::SmallbankConfig smallbank;
  workload::YcsbConfig ycsb;
};

}  // namespace

Result<DeploymentConfig> ParseDeploymentText(const std::string& text) {
  // Pass 1: the preset selects the baseline the remaining keys override, no
  // matter where in the file it appears.
  FabricConfig config;
  std::istringstream preset_scan(text);
  std::string line;
  while (std::getline(preset_scan, line)) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    if (Trim(line.substr(0, eq)) != "preset") continue;
    std::string value = Trim(line.substr(eq + 1));
    const size_t hash = value.find('#');
    if (hash != std::string::npos) value = Trim(value.substr(0, hash));
    if (value == "vanilla") {
      config = FabricConfig::Vanilla();
    } else if (value == "fabric++" || value == "fabricpp") {
      config = FabricConfig::FabricPlusPlus();
    } else {
      return BadValue("preset", value);
    }
  }

  WorkloadSpec spec;
  std::istringstream in(text);
  uint32_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": expected key = value, got \"" +
          line + "\"");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    Status s = Status::OK();

    if (key == "preset") {
      // Handled in pass 1.
    } else if (key == "num_orgs") {
      s = ParseU32(key, value, &config.num_orgs);
    } else if (key == "peers_per_org") {
      s = ParseU32(key, value, &config.peers_per_org);
    } else if (key == "num_channels") {
      s = ParseU32(key, value, &config.num_channels);
    } else if (key == "clients_per_channel") {
      s = ParseU32(key, value, &config.clients_per_channel);
    } else if (key == "client_fire_rate_tps") {
      s = ParseF64(key, value, &config.client_fire_rate_tps);
    } else if (key == "client_resubmit") {
      s = ParseBool(key, value, &config.client_resubmit);
    } else if (key == "client_max_retries") {
      s = ParseU32(key, value, &config.client_max_retries);
    } else if (key == "client_max_inflight") {
      s = ParseU32(key, value, &config.client_max_inflight);
    } else if (key == "admission_queue_depth") {
      s = ParseU32(key, value, &config.admission_queue_depth);
    } else if (key == "fair_sched_quantum") {
      s = ParseU32(key, value, &config.fair_sched_quantum);
    } else if (key == "fair_conflict_penalty") {
      s = ParseU32(key, value, &config.fair_conflict_penalty);
    } else if (key == "peer_cores") {
      s = ParseU32(key, value, &config.peer_cores);
    } else if (key == "orderer_cores") {
      s = ParseU32(key, value, &config.orderer_cores);
    } else if (key == "client_machine_cores") {
      s = ParseU32(key, value, &config.client_machine_cores);
    } else if (key == "validator_workers") {
      s = ParseU32(key, value, &config.validator_workers);
    } else if (key == "ordering_pipeline_depth") {
      s = ParseU32(key, value, &config.ordering_pipeline_depth);
    } else if (key == "block_max_transactions") {
      s = ParseU32(key, value, &config.block.max_transactions);
    } else if (key == "block_max_bytes") {
      s = ParseU64(key, value, &config.block.max_bytes);
    } else if (key == "block_timeout_ms") {
      uint64_t ms = 0;
      s = ParseU64(key, value, &ms);
      if (s.ok()) config.block.batch_timeout = ms * sim::kMillisecond;
    } else if (key == "block_max_unique_keys") {
      s = ParseU32(key, value, &config.block.max_unique_keys);
    } else if (key == "enable_reordering") {
      s = ParseBool(key, value, &config.enable_reordering);
    } else if (key == "enable_early_abort_sim") {
      s = ParseBool(key, value, &config.enable_early_abort_sim);
    } else if (key == "enable_early_abort_ordering") {
      s = ParseBool(key, value, &config.enable_early_abort_ordering);
    } else if (key == "concurrency") {
      if (value == "coarse") {
        config.concurrency = ConcurrencyMode::kCoarseLock;
      } else if (value == "fine") {
        config.concurrency = ConcurrencyMode::kFineGrained;
      } else {
        s = BadValue(key, value);
      }
    } else if (key == "runtime_mode") {
      config.runtime_mode = value;
    } else if (key == "mailbox_capacity") {
      s = ParseU32(key, value, &config.mailbox_capacity);
    } else if (key == "thread_client_shards") {
      s = ParseU32(key, value, &config.thread_client_shards);
    } else if (key == "peer_addresses") {
      config.peer_addresses = SplitCommas(value);
    } else if (key == "orderer_address") {
      config.orderer_address = value;
    } else if (key == "listen_address") {
      config.listen_address = value;
    } else if (key == "socket_connect_timeout_ms") {
      s = ParseU32(key, value, &config.socket_connect_timeout_ms);
    } else if (key == "socket_max_frame_bytes") {
      s = ParseU64(key, value, &config.socket_max_frame_bytes);
    } else if (key == "seed") {
      s = ParseU64(key, value, &config.seed);
    } else if (key == "workload") {
      if (value != "smallbank" && value != "ycsb") {
        s = BadValue(key, value);
      } else {
        spec.name = value;
      }
    } else if (key == "smallbank_users") {
      s = ParseU64(key, value, &spec.smallbank.num_users);
    } else if (key == "smallbank_prob_write") {
      s = ParseF64(key, value, &spec.smallbank.prob_write);
    } else if (key == "smallbank_zipf") {
      s = ParseF64(key, value, &spec.smallbank.zipf_s);
    } else if (key == "ycsb_mix") {
      if (value == "a") {
        spec.ycsb.mix = workload::YcsbMix::kA;
      } else if (value == "b") {
        spec.ycsb.mix = workload::YcsbMix::kB;
      } else if (value == "c") {
        spec.ycsb.mix = workload::YcsbMix::kC;
      } else if (value == "f") {
        spec.ycsb.mix = workload::YcsbMix::kF;
      } else {
        s = BadValue(key, value);
      }
    } else if (key == "ycsb_records") {
      s = ParseU64(key, value, &spec.ycsb.num_records);
    } else if (key == "ycsb_zipf") {
      s = ParseF64(key, value, &spec.ycsb.zipf_s);
    } else if (key == "ycsb_value_size") {
      s = ParseU32(key, value, &spec.ycsb.value_size);
    } else {
      s = Status::InvalidArgument("line " + std::to_string(line_no) +
                                  ": unknown key \"" + key + "\"");
    }
    if (!s.ok()) return s;
  }

  const Status valid = config.Validate();
  if (!valid.ok()) return valid;

  DeploymentConfig deployment;
  deployment.config = std::move(config);
  if (spec.name == "ycsb") {
    deployment.workload = std::make_unique<workload::YcsbWorkload>(spec.ycsb);
  } else {
    deployment.workload =
        std::make_unique<workload::SmallbankWorkload>(spec.smallbank);
  }
  return deployment;
}

Result<DeploymentConfig> LoadDeploymentFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open config file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseDeploymentText(buffer.str());
}

}  // namespace fabricpp::fabric
