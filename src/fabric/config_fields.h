#ifndef FABRICPP_FABRIC_CONFIG_FIELDS_H_
#define FABRICPP_FABRIC_CONFIG_FIELDS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"
#include "fabric/config.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace fabricpp::fabric {

/// The workload a deployment file describes. The parser builds it once
/// every line has been read.
struct WorkloadSpec {
  std::string name = "smallbank";
  workload::SmallbankConfig smallbank;
  workload::YcsbConfig ycsb;
};

/// A sim::SimTime field written in milliseconds and stored in microseconds.
struct Millis {
  sim::SimTime* value;
};

/// Where a field lives. The pointer's type is the field's kind: how its
/// text is parsed. A std::string field with names accepts only those; an
/// enum field is set to the index of its name; a list is comma-separated,
/// with every entry trimmed and empty entries dropped.
using FieldRef =
    std::variant<uint32_t*, uint64_t*, double*, bool*, Millis, std::string*,
                 std::vector<std::string>*, ConcurrencyMode*,
                 workload::YcsbMix*>;

/// No upper bound. Finite, so an infinite double is out of range.
inline constexpr double kUnbounded = std::numeric_limits<double>::max();

/// One row of the configuration table. `name` is the field's key in a
/// deployment file and on fabricpp_cli's command line. A numeric value
/// (integer, double or Millis) must lie in [min, max], in its stored unit.
template <typename Owner>
struct ConfigField {
  const char* name;
  FieldRef (*at)(Owner&);
  double min = 0;
  double max = kUnbounded;
  std::span<const std::string_view> names = {};
};

/// Every FabricConfig field that has a key or a range of its own. Nested
/// structs (cost, network, reorder, raft_params) and the ordering backend
/// are set in code only.
const std::vector<ConfigField<FabricConfig>>& ConfigFields();

/// The workload keys of a deployment file.
const std::vector<ConfigField<WorkloadSpec>>& WorkloadFields();

/// Parses `value` into the field named `key`. NotFound if no row has that
/// key; InvalidArgument, naming the key, if the text does not parse or the
/// value is out of range (the field may then hold the rejected value).
Status SetConfigField(FabricConfig* config, std::string_view key,
                      std::string_view value);
Status SetWorkloadField(WorkloadSpec* spec, std::string_view key,
                        std::string_view value);

/// The first row of ConfigFields() whose value is out of its range.
Status CheckConfigFieldRanges(const FabricConfig& config);

}  // namespace fabricpp::fabric

#endif  // FABRICPP_FABRIC_CONFIG_FIELDS_H_
