// fabricpp_cli — run a configurable vanilla-Fabric / Fabric++ experiment
// from the command line and print the report. The fifth runnable example,
// and the tool for exploring the design space beyond the paper's figures.
// Every key of the configuration table (fabric/config_fields.cc) is also a
// flag, --<key>=<value>; an invalid configuration exits 1 before any run.
//
//   $ ./build/examples/fabricpp_cli --workload=smallbank --zipf=1.5
//         --seconds=20 --system=both
//   $ ./build/examples/fabricpp_cli --workload=custom --rw=8 --hr=0.4
//         --hw=0.1 --hss=0.01 --block_max_transactions=512 --system=fabric++
//   $ ./build/examples/fabricpp_cli --workload=ycsb --mix=F --raft=3

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "fabric/config_fields.h"
#include "fabric/network.h"
#include "workload/custom.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

using namespace fabricpp;

namespace {

struct CliOptions {
  std::string workload = "smallbank";
  std::string system = "both";  // fabric | fabric++ | both
  double seconds = 10;
  double zipf = 1.0;
  double prob_write = 0.95;
  uint32_t rw = 8;
  double hr = 0.4, hw = 0.1, hss = 0.01;
  std::string ycsb_mix = "A";
  uint32_t raft = 0;
  /// Every --<key>=<value> of the configuration table, in order.
  std::vector<std::pair<std::string, std::string>> fields;
};

void PrintUsage() {
  std::printf(
      "usage: fabricpp_cli [--workload=smallbank|custom|ycsb|blank]\n"
      "  [--system=fabric|fabric++|both] [--seconds=N]\n"
      "  [--zipf=S] [--pw=P]                 (smallbank)\n"
      "  [--rw=N] [--hr=P] [--hw=P] [--hss=F]  (custom)\n"
      "  [--mix=A|B|C|F]                     (ycsb)\n"
      "  [--raft=N]  (0 = solo orderer)\n"
      "  [--<key>=<value>]  any key of fabric/config_fields.cc, e.g.\n"
      "    --block_max_transactions=N --num_channels=N --seed=N\n");
}

std::unique_ptr<workload::Workload> MakeWorkload(const CliOptions& options) {
  if (options.workload == "smallbank") {
    workload::SmallbankConfig config;
    config.num_users = 100000;
    config.prob_write = options.prob_write;
    config.zipf_s = options.zipf;
    return std::make_unique<workload::SmallbankWorkload>(config);
  }
  if (options.workload == "custom") {
    workload::CustomConfig config;
    config.num_accounts = 10000;
    config.rw_ops = options.rw;
    config.hot_read_prob = options.hr;
    config.hot_write_prob = options.hw;
    config.hot_set_fraction = options.hss;
    return std::make_unique<workload::CustomWorkload>(config);
  }
  if (options.workload == "ycsb") {
    workload::YcsbConfig config;
    config.zipf_s = options.zipf;
    config.mix = static_cast<workload::YcsbMix>(
        std::string("ABCF").find(options.ycsb_mix));
    return std::make_unique<workload::YcsbWorkload>(config);
  }
  if (options.workload == "blank") {
    return std::make_unique<workload::BlankWorkload>();
  }
  return nullptr;
}

/// The system's preset with every --<key>=<value> applied. An invalid
/// configuration prints why and exits.
fabric::FabricConfig MakeConfig(const CliOptions& options, bool plusplus) {
  fabric::FabricConfig config = plusplus
                                    ? fabric::FabricConfig::FabricPlusPlus()
                                    : fabric::FabricConfig::Vanilla();
  if (options.raft > 0) {
    config.ordering_backend = fabric::OrderingBackend::kRaft;
    config.raft_cluster_size = options.raft;
  }
  Status status = Status::OK();
  for (const auto& [key, value] : options.fields) {
    if (status.ok()) status = fabric::SetConfigField(&config, key, value);
  }
  if (status.ok()) status = config.Validate();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* eq = std::strchr(argv[i], '=');
    if (std::strncmp(argv[i], "--", 2) != 0 || eq == nullptr) {
      PrintUsage();
      return 1;
    }
    const std::string name(argv[i] + 2, eq - argv[i] - 2);
    const std::string value = eq + 1;
    bool parsed = true;
    if (name == "workload") options.workload = value;
    else if (name == "system") options.system = value;
    else if (name == "seconds") parsed = ParseNumber(value, &options.seconds);
    else if (name == "zipf") parsed = ParseNumber(value, &options.zipf);
    else if (name == "pw") parsed = ParseNumber(value, &options.prob_write);
    else if (name == "rw") parsed = ParseNumber(value, &options.rw);
    else if (name == "hr") parsed = ParseNumber(value, &options.hr);
    else if (name == "hw") parsed = ParseNumber(value, &options.hw);
    else if (name == "hss") parsed = ParseNumber(value, &options.hss);
    else if (name == "mix") options.ycsb_mix = value;
    else if (name == "raft") parsed = ParseNumber(value, &options.raft);
    else options.fields.emplace_back(name, value);
    if (!parsed) {
      std::fprintf(stderr, "bad value for --%s: \"%s\"\n", name.c_str(),
                   value.c_str());
      PrintUsage();
      return 1;
    }
  }

  const auto workload = MakeWorkload(options);
  if (workload == nullptr || options.ycsb_mix.size() != 1 ||
      std::string("ABCF").find(options.ycsb_mix) == std::string::npos) {
    PrintUsage();
    return 1;
  }
  const fabric::FabricConfig vanilla = MakeConfig(options, false);
  const fabric::FabricConfig plusplus = MakeConfig(options, true);
  std::printf("workload=%s seconds=%.0f blocksize=%u channels=%u clients=%u "
              "rate=%.0f orderer=%s\n\n",
              options.workload.c_str(), options.seconds,
              vanilla.block.max_transactions, vanilla.num_channels,
              vanilla.clients_per_channel, vanilla.client_fire_rate_tps,
              options.raft > 0 ? "raft" : "solo");
  const auto duration = static_cast<sim::SimTime>(options.seconds * 1e6);
  for (const std::string system : {"fabric", "fabric++"}) {
    if (options.system != system && options.system != "both") continue;
    fabric::FabricNetwork network(system == "fabric" ? vanilla : plusplus,
                                  workload.get());
    const fabric::RunReport report = network.RunFor(
        duration, duration / 5 < 5000000 ? duration / 5 : 5000000);
    std::printf("%-9s %s\n", (system + ":").c_str(),
                report.ToString().c_str());
  }
  return 0;
}
