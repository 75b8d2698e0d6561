// Overload survival bench: offered load swept to 1x / 10x / 100x of the
// ordering capacity with the graceful-degradation layer on (bounded
// admission queues, BUSY backpressure, DRR fair scheduling). Not a paper
// figure — the SIGMOD'19 paper never drives Fabric(++) past saturation —
// but the property it certifies is the one Section 5's pipeline implicitly
// assumes: goodput holds near capacity instead of collapsing when the
// offered load keeps climbing.
//
// Scenarios, all on the deterministic simulation runtime unless noted:
//   - saturation sweep: every client's rate scaled by the multiplier
//     (smoke mode runs 1x + 10x; full mode adds 100x, where the endorser
//     admission bound engages in front of the orderer's)
//   - spammer: one client at 20x while the rest stay polite (fairness row)
//   - thread: the spammer scenario on the thread runtime with tiny
//     mailboxes, proving the shed accounting end-to-end on real threads
//
// Emits BENCH_overload.json and exits non-zero if goodput at 10x drops
// below 70% of the 1x goodput, if any simulated fired proposal ends the
// run unresolved (a silent drop), or if any scenario commits nothing.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fabric/network.h"
#include "harness.h"
#include "workload/smallbank.h"

namespace fabricpp::bench {
namespace {

double OverloadSeconds() {
  if (const char* env = std::getenv("FABRICPP_BENCH_OVERLOAD_SECONDS")) {
    const double seconds = std::atof(env);
    if (seconds > 0) return seconds;
  }
  return 3.0;
}

fabric::FabricConfig OverloadBenchConfig(double rate_multiplier) {
  fabric::FabricConfig config = fabric::FabricConfig::FabricPlusPlus();
  config.clients_per_channel = 4;
  // 4 x 50 tps against a single-core orderer (~275 tps for the 3.6 ms
  // verify + order charge): 1x sits just under capacity, so every higher
  // multiplier is real saturation, not spare headroom.
  config.client_fire_rate_tps = 50.0 * rate_multiplier;
  config.orderer_cores = 1;
  // The shared client machine signs at 1.6 ms a proposal; at 100x that is
  // the spammers' problem, not the system under test's — model an
  // adversarial client fleet with plenty of CPU.
  config.client_machine_cores = 64;
  config.client_max_inflight = 256;
  config.client_max_retries = 5;
  config.client_endorsement_timeout = 500 * sim::kMillisecond;
  config.client_commit_timeout = 3 * sim::kSecond;
  config.block.max_transactions = 64;
  config.block.batch_timeout = 250 * sim::kMillisecond;
  // The graceful-degradation layer under test.
  config.admission_queue_depth = 64;
  config.fair_sched_quantum = 4;
  config.fair_conflict_penalty = 4;
  config.busy_retry_hint = 20 * sim::kMillisecond;
  return config;
}

struct Row {
  std::string scenario;
  std::string runtime = "sim";
  double multiplier = 1.0;
  double offered_tps = 0;
  fabric::RunReport report;
  uint64_t unresolved = 0;
};

/// Runs one simulated scenario: fire for `duration`, then drain until every
/// in-flight proposal has committed, aborted, or timed out, so the
/// zero-silent-drops check covers the whole run, not just the window.
Row RunSimScenario(const std::string& scenario, double multiplier,
                   double spammer_multiplier,
                   const workload::Workload& workload) {
  const fabric::FabricConfig config = OverloadBenchConfig(multiplier);
  const double seconds = OverloadSeconds();
  const auto duration = static_cast<sim::SimTime>(seconds * sim::kSecond);
  const auto warmup = static_cast<sim::SimTime>(0.2 * seconds * sim::kSecond);

  fabric::FabricNetwork network(config, &workload);
  if (spammer_multiplier > 1.0) {
    network.client(0).set_fire_rate_multiplier(spammer_multiplier);
  }
  network.RunFor(duration, warmup);
  network.env().RunUntil(duration + 5 * sim::kSecond);

  Row row;
  row.scenario = scenario;
  row.multiplier = multiplier;
  row.offered_tps = config.client_fire_rate_tps * config.clients_per_channel +
                    config.client_fire_rate_tps * (spammer_multiplier - 1.0);
  row.report = network.metrics().Report();
  row.unresolved = network.metrics().unresolved_fired();
  return row;
}

Row RunThreadScenario(const workload::Workload& workload) {
  fabric::FabricConfig config = OverloadBenchConfig(1.0);
  config.runtime_mode = "thread";
  config.orderer_cores = 8;  // Thread time is wall-clock, not cost-modeled.
  config.client_fire_rate_tps = 400.0;
  config.mailbox_capacity = 64;  // Tiny: force the bounded-mailbox path.
  config.admission_queue_depth = 32;
  config.busy_retry_hint = 10 * sim::kMillisecond;
  config.client_endorsement_timeout = 300 * sim::kMillisecond;
  config.client_commit_timeout = 800 * sim::kMillisecond;

  fabric::FabricNetwork network(config, &workload);
  network.client(0).set_fire_rate_multiplier(25.0);

  Row row;
  row.scenario = "spammer_thread";
  row.runtime = "thread";
  row.offered_tps = 400.0 * (4 - 1 + 25.0);
  row.report = network.RunFor(1500 * sim::kMillisecond,
                              300 * sim::kMillisecond);
  return row;
}

void PrintRow(const Row& row) {
  std::printf(
      "  %-16s offered %8.0f tps -> goodput %7.1f tps  p99 %8.2f ms  "
      "jain %.3f  busy e/o %llu/%llu  shed %llu  unresolved %llu\n",
      row.scenario.c_str(), row.offered_tps, row.report.successful_tps,
      row.report.latency_p99_ms, row.report.jain_fairness,
      static_cast<unsigned long long>(row.report.endorser_busy),
      static_cast<unsigned long long>(row.report.orderer_busy),
      static_cast<unsigned long long>(row.report.mailbox_shed_total),
      static_cast<unsigned long long>(row.unresolved));
}

int Run(bool smoke) {
  PrintHeader("Overload survival — admission control + DRR under saturation",
              "beyond-paper robustness: Section 5 pipeline at 1x/10x/100x");
  std::printf(
      "Each simulated scenario: %.1f virtual s (+20%% warmup), then a 5 s "
      "drain;\nFABRICPP_BENCH_OVERLOAD_SECONDS overrides.\n",
      OverloadSeconds());

  workload::SmallbankConfig wl;
  wl.num_users = 10000;
  wl.prob_write = 0.95;
  wl.zipf_s = 1.0;
  workload::SmallbankWorkload workload(wl);

  std::vector<Row> rows;
  rows.push_back(RunSimScenario("saturation_1x", 1.0, 1.0, workload));
  rows.push_back(RunSimScenario("saturation_10x", 10.0, 1.0, workload));
  if (!smoke) {
    rows.push_back(RunSimScenario("saturation_100x", 100.0, 1.0, workload));
  }
  rows.push_back(RunSimScenario("spammer_20x", 1.0, 20.0, workload));
  rows.push_back(RunThreadScenario(workload));

  std::printf("\n");
  for (const Row& row : rows) PrintRow(row);

  std::FILE* out = std::fopen("BENCH_overload.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_overload.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"overload_survival\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n  \"rows\": [\n", smoke ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const fabric::RunReport& r = row.report;
    std::fprintf(
        out,
        "    {\"scenario\": \"%s\", \"runtime\": \"%s\", "
        "\"multiplier\": %.0f, \"offered_tps\": %.0f, "
        "\"goodput_tps\": %.2f, \"latency_p99_ms\": %.3f, "
        "\"jain_fairness\": %.4f, \"endorser_busy\": %llu, "
        "\"orderer_busy\": %llu, \"abort_busy\": %llu, "
        "\"mailbox_shed\": %llu, \"unresolved\": %llu}%s\n",
        row.scenario.c_str(), row.runtime.c_str(), row.multiplier,
        row.offered_tps, r.successful_tps, r.latency_p99_ms, r.jain_fairness,
        static_cast<unsigned long long>(r.endorser_busy),
        static_cast<unsigned long long>(r.orderer_busy),
        static_cast<unsigned long long>(
            r.aborts[static_cast<size_t>(fabric::TxOutcome::kAbortBusy)]),
        static_cast<unsigned long long>(r.mailbox_shed_total),
        static_cast<unsigned long long>(row.unresolved),
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_overload.json\n");

  // --- Acceptance gates ---
  int failures = 0;
  const double goodput_1x = rows[0].report.successful_tps;
  const double goodput_10x = rows[1].report.successful_tps;
  if (goodput_10x < 0.7 * goodput_1x) {
    std::fprintf(stderr,
                 "FAIL: goodput collapsed under 10x overload "
                 "(%.1f tps vs %.1f tps at 1x)\n",
                 goodput_10x, goodput_1x);
    ++failures;
  }
  for (const Row& row : rows) {
    if (row.runtime == "sim" && row.unresolved != 0) {
      std::fprintf(stderr,
                   "FAIL: %s left %llu fired proposals unresolved "
                   "(silent drop)\n",
                   row.scenario.c_str(),
                   static_cast<unsigned long long>(row.unresolved));
      ++failures;
    }
    if (row.report.successful == 0) {
      std::fprintf(stderr, "FAIL: %s committed nothing\n",
                   row.scenario.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fabricpp::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return fabricpp::bench::Run(smoke);
}
