// The deployment-file parser (ParseDeploymentText) and the configuration
// table it reads. Inputs are built from the table's own rows, so a new row
// is covered without editing this file.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/strings.h"
#include "fabric/config_fields.h"
#include "fabric/config_file.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace fabricpp::fabric {
namespace {

/// The value at `ref`, written as a deployment file writes it.
std::string Render(const FieldRef& ref,
                   std::span<const std::string_view> names) {
  return std::visit(
      [&](auto p) -> std::string {
        using T = decltype(p);
        if constexpr (std::is_same_v<T, Millis>) {
          return std::to_string(*p.value / sim::kMillisecond);
        } else if constexpr (std::is_same_v<T, bool*>) {
          return *p ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double*>) {
          return StrFormat("%.17g", *p);
        } else if constexpr (std::is_arithmetic_v<std::remove_pointer_t<T>>) {
          return std::to_string(*p);
        } else if constexpr (std::is_same_v<T, std::string*>) {
          return *p;
        } else if constexpr (std::is_same_v<T, std::vector<std::string>*>) {
          std::string joined;
          for (const std::string& entry : *p) {
            if (!joined.empty()) joined += ',';
            joined += entry;
          }
          return joined;
        } else {
          return std::string(names[static_cast<size_t>(*p)]);
        }
      },
      ref);
}

/// A value for row `i` that differs from the row's default in `defaults`,
/// lies in its range and differs from every other row's value.
template <typename Owner>
std::string NonDefaultText(const ConfigField<Owner>& field, Owner defaults,
                           size_t i) {
  if (std::string_view(field.name) == "runtime_mode") return "thread";
  const std::string old = Render(field.at(defaults), field.names);
  return std::visit(
      [&](auto p) -> std::string {
        using T = decltype(p);
        if constexpr (std::is_same_v<T, bool*>) {
          return *p ? "false" : "true";
        } else if constexpr (std::is_same_v<T, double*>) {
          const double v = field.max == kUnbounded
                               ? field.min + i + 1.5
                               : field.min + (field.max - field.min) / (i + 2);
          return StrFormat("%.17g", v);
        } else if constexpr (std::is_same_v<T, Millis> ||
                             std::is_arithmetic_v<std::remove_pointer_t<T>>) {
          const uint64_t base = std::is_same_v<T, Millis>
                                    ? 0
                                    : static_cast<uint64_t>(field.min);
          const uint64_t v = base + i + 1;
          return std::to_string(std::to_string(v) == old ? v + 1 : v);
        } else if constexpr (std::is_same_v<T, std::string*>) {
          for (std::string_view name : field.names) {
            if (name != old) return std::string(name);
          }
          return StrFormat("host%zu:%zu", i, 7000 + i);
        } else if constexpr (std::is_same_v<T, std::vector<std::string>*>) {
          return StrFormat("a%zu:1,b%zu:2", i, i);
        } else {
          for (std::string_view name : field.names) {
            if (name != old) return std::string(name);
          }
          return "";
        }
      },
      field.at(defaults));
}

TEST(ConfigFileTest, EveryKeyRoundTrips) {
  std::string text;
  std::vector<std::string> config_values;
  const auto& config_rows = ConfigFields();
  for (size_t i = 0; i < config_rows.size(); ++i) {
    config_values.push_back(NonDefaultText(config_rows[i], FabricConfig(), i));
    text += std::string(config_rows[i].name) + " = " + config_values[i] + "\n";
  }
  std::string workload_text;
  std::vector<std::string> workload_values;
  const auto& workload_rows = WorkloadFields();
  for (size_t i = 0; i < workload_rows.size(); ++i) {
    workload_values.push_back(
        NonDefaultText(workload_rows[i], WorkloadSpec(), i));
    if (std::string_view(workload_rows[i].name) == "workload") continue;
    workload_text +=
        std::string(workload_rows[i].name) + " = " + workload_values[i] + "\n";
  }

  auto ycsb = ParseDeploymentText(text + workload_text + "workload = ycsb\n");
  ASSERT_TRUE(ycsb.ok()) << ycsb.status() << "\n" << text;
  auto smallbank =
      ParseDeploymentText(text + workload_text + "workload = smallbank\n");
  ASSERT_TRUE(smallbank.ok()) << smallbank.status();

  for (size_t i = 0; i < config_rows.size(); ++i) {
    EXPECT_EQ(Render(config_rows[i].at(ycsb->config), config_rows[i].names),
              config_values[i])
        << config_rows[i].name;
  }
  WorkloadSpec seen;
  seen.name = "ycsb";
  seen.ycsb =
      dynamic_cast<const workload::YcsbWorkload&>(*ycsb->workload).config();
  seen.smallbank =
      dynamic_cast<const workload::SmallbankWorkload&>(*smallbank->workload)
          .config();
  for (size_t i = 0; i < workload_rows.size(); ++i) {
    EXPECT_EQ(Render(workload_rows[i].at(seen), workload_rows[i].names),
              workload_values[i])
        << workload_rows[i].name;
  }

  // Keys whose member has another name or unit.
  const auto value_of = [&](std::string_view key) {
    for (size_t i = 0; i < config_rows.size(); ++i) {
      if (key == config_rows[i].name) return std::stoull(config_values[i]);
    }
    return 0ull;
  };
  const FabricConfig& config = ycsb->config;
  EXPECT_EQ(config.block.max_transactions, value_of("block_max_transactions"));
  EXPECT_EQ(config.block.batch_timeout,
            value_of("block_timeout_ms") * sim::kMillisecond);
  EXPECT_EQ(config.client_retry_backoff_base,
            value_of("client_retry_backoff_base_ms") * sim::kMillisecond);
  EXPECT_EQ(config.concurrency, ConcurrencyMode::kFineGrained);
  EXPECT_EQ(seen.ycsb.mix, workload::YcsbMix::kB);
}

TEST(ConfigFileTest, PresetAppliesWhereverItAppears) {
  for (const std::string text :
       {"enable_reordering = false\npreset = fabric++\n",
        "preset = fabric++  # comment\nenable_reordering = false\n"}) {
    auto parsed = ParseDeploymentText(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_FALSE(parsed->config.enable_reordering) << text;
    EXPECT_TRUE(parsed->config.enable_early_abort_sim) << text;
    EXPECT_EQ(parsed->config.concurrency, ConcurrencyMode::kFineGrained);
    EXPECT_EQ(parsed->config.block.max_unique_keys, 16384u);
  }
  EXPECT_FALSE(ParseDeploymentText("preset = fabric+\n").ok());
}

TEST(ConfigFileTest, ErrorsCarryTheirLineNumber) {
  const auto unknown =
      ParseDeploymentText("num_orgs = 2\n\n# comment\nnum_org = 3\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("line 4"), std::string::npos)
      << unknown.status();
  EXPECT_NE(unknown.status().message().find("num_org"), std::string::npos);

  const auto no_equals = ParseDeploymentText("num_orgs = 2\nnum_orgs 3\n");
  ASSERT_FALSE(no_equals.ok());
  EXPECT_NE(no_equals.status().message().find("line 2"), std::string::npos)
      << no_equals.status();
}

TEST(ConfigFileTest, PeerAddressesTrimAndSplitOnCommas) {
  auto parsed =
      ParseDeploymentText("peer_addresses =  a:1 , b:2,, c:3 ,\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->config.peer_addresses,
            (std::vector<std::string>{"a:1", "b:2", "c:3"}));
}

TEST(ConfigFileTest, RejectsHostileValues) {
  // Each used to crash the parser (a zero-sized Zipf table) or to pass
  // Validate: NaN compares false, the workload keys had no range, and the
  // millisecond product wrapped.
  const std::pair<std::string, std::string> cases[] = {
      {"smallbank_users", "smallbank_users = 0\n"},
      {"ycsb_records", "workload = ycsb\nycsb_records = 0\n"},
      {"client_fire_rate_tps", "client_fire_rate_tps = nan\n"},
      {"smallbank_prob_write", "smallbank_prob_write = 7\n"},
      {"smallbank_zipf", "smallbank_zipf = -3\n"},
      {"block_timeout_ms", "block_timeout_ms = 18446744073709552\n"},
  };
  for (const auto& [key, text] : cases) {
    const auto parsed = ParseDeploymentText(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(parsed.status().message().find(key), std::string::npos)
        << parsed.status();
  }
}

}  // namespace
}  // namespace fabricpp::fabric
