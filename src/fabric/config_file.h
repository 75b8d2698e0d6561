#ifndef FABRICPP_FABRIC_CONFIG_FILE_H_
#define FABRICPP_FABRIC_CONFIG_FILE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "fabric/config.h"
#include "workload/workload.h"

namespace fabricpp::fabric {

/// A deployment description parsed from a config file: the FabricConfig
/// every process of the cluster shares, plus the workload the load driver
/// fires (and every peer seeds its state from — the file must be identical
/// across processes or the cluster will not converge).
struct DeploymentConfig {
  FabricConfig config;
  std::unique_ptr<workload::Workload> workload;
};

/// Parses the `key = value` deployment format used by fabricpp_node and
/// fabricpp_load:
///
///   # comment
///   preset = fabric++              # or "vanilla"; applied before other keys
///   runtime_mode = socket
///   peer_addresses = 127.0.0.1:7051,127.0.0.1:7052
///   orderer_address = 127.0.0.1:7050
///   workload = smallbank           # or "ycsb"
///   smallbank_zipf = 1.0
///
/// Every other key is a row of ConfigFields() or WorkloadFields()
/// (fabric/config_fields.cc), which also gives its range. Unknown keys are
/// an error (a typo must not silently run a different experiment); every
/// error names its line. scripts/socket_smoke.sh writes a full example.
Result<DeploymentConfig> ParseDeploymentText(const std::string& text);

/// Reads `path` and parses it with ParseDeploymentText.
Result<DeploymentConfig> LoadDeploymentFile(const std::string& path);

}  // namespace fabricpp::fabric

#endif  // FABRICPP_FABRIC_CONFIG_FILE_H_
