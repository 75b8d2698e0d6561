#include "fabric/config_file.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "fabric/config_fields.h"

namespace fabricpp::fabric {

Result<DeploymentConfig> ParseDeploymentText(const std::string& text) {
  // Pass 1: the preset selects the baseline the remaining keys override, no
  // matter where in the file it appears.
  FabricConfig config;
  std::istringstream preset_scan(text);
  std::string line;
  while (std::getline(preset_scan, line)) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    if (TrimSpace(std::string_view(line).substr(0, eq)) != "preset") continue;
    std::string_view value = std::string_view(line).substr(eq + 1);
    value = TrimSpace(value.substr(0, value.find('#')));
    if (value == "vanilla") {
      config = FabricConfig::Vanilla();
    } else if (value == "fabric++" || value == "fabricpp") {
      config = FabricConfig::FabricPlusPlus();
    } else {
      return Status::InvalidArgument(
          StrFormat("bad value for preset: \"%.*s\"",
                    static_cast<int>(value.size()), value.data()));
    }
  }

  WorkloadSpec spec;
  std::istringstream in(text);
  uint32_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view entry = TrimSpace(
        std::string_view(line).substr(0, line.find('#')));
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("line %u: expected key = value, got \"%.*s\"", line_no,
                    static_cast<int>(entry.size()), entry.data()));
    }
    const std::string_view key = TrimSpace(entry.substr(0, eq));
    const std::string_view value = TrimSpace(entry.substr(eq + 1));
    if (key == "preset") continue;  // Handled in pass 1.
    Status s = SetConfigField(&config, key, value);
    if (s.code() == StatusCode::kNotFound) {
      s = SetWorkloadField(&spec, key, value);
    }
    if (!s.ok()) {
      return Status::InvalidArgument(
          StrFormat("line %u: %s", line_no, s.message().c_str()));
    }
  }

  FABRICPP_RETURN_IF_ERROR(config.Validate());

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
