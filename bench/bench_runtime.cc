// Runtime smoke comparison: the Figure 8 Smallbank workload (write-heavy,
// contended) executed once on the deterministic simulation runtime, once on
// the thread runtime, and once on the socket runtime (an in-process
// LocalSocketCluster — separate hosts joined by loopback TCP). Not a
// like-for-like perf race — sim seconds are virtual and cost-modeled,
// thread/socket seconds are wall-clock — but it proves all three substrates
// drive the identical node state machines end-to-end. Publishes
// BENCH_runtime.json (sim + thread, schema unchanged) and
// BENCH_socket.json (socket leg + the socket/thread throughput ratio; the
// run fails below FABRICPP_BENCH_SOCKET_MIN_RATIO, default 0.5).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "fabric/network.h"
#include "fabric/socket_host.h"
#include "harness.h"
#include "workload/smallbank.h"

namespace fabricpp::bench {
namespace {

double RuntimeBenchSeconds() {
  if (const char* env = std::getenv("FABRICPP_BENCH_RUNTIME_SECONDS")) {
    const double seconds = std::atof(env);
    if (seconds > 0) return seconds;
  }
  return 2.0;  // Wall-clock for the thread run — keep the smoke short.
}

double SocketMinRatio() {
  if (const char* env = std::getenv("FABRICPP_BENCH_SOCKET_MIN_RATIO")) {
    return std::atof(env);  // 0 disables the gate.
  }
  return 0.5;
}

fabric::FabricConfig BenchConfig(const std::string& runtime_mode) {
  fabric::FabricConfig config = fabric::FabricConfig::FabricPlusPlus();
  config.runtime_mode = runtime_mode;
  config.client_fire_rate_tps = 512.0;
  config.block.max_transactions = 256;
  config.block.batch_timeout = 250 * sim::kMillisecond;
  return config;
}

struct Row {
  std::string mode;
  fabric::RunReport report;
};

void Run() {
  PrintHeader("Runtime smoke — sim vs thread on Smallbank (Fig. 8 workload)",
              "Figure 8, Section 6.4.1 workload; runtime abstraction check");

  workload::SmallbankConfig wl;
  wl.num_users = 10000;
  wl.prob_write = 0.95;
  wl.zipf_s = 1.0;
  workload::SmallbankWorkload workload(wl);

  const double seconds = RuntimeBenchSeconds();
  const auto duration = static_cast<sim::SimTime>(seconds * sim::kSecond);
  const auto warmup = static_cast<sim::SimTime>(0.2 * seconds * sim::kSecond);

  Row rows[2] = {{"sim", {}}, {"thread", {}}};
  for (Row& row : rows) {
    fabric::FabricNetwork network(BenchConfig(row.mode), &workload);
    row.report = network.RunFor(duration, warmup);
    std::printf("\n[%s] %s\n", row.mode.c_str(),
                row.report.ToString().c_str());
  }

  std::FILE* out = std::fopen("BENCH_runtime.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_runtime.json\n");
    return;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"runtime_smoke_smallbank\",\n");
  std::fprintf(out, "  \"seconds\": %.3f,\n", seconds);
  std::fprintf(out, "  \"runs\": [\n");
  for (size_t i = 0; i < 2; ++i) {
    const fabric::RunReport& r = rows[i].report;
    std::fprintf(out,
                 "    {\"runtime\": \"%s\", \"successful\": %llu, "
                 "\"failed\": %llu, \"successful_tps\": %.2f, "
                 "\"blocks_committed\": %llu, \"latency_p50_ms\": %.3f, "
                 "\"latency_p95_ms\": %.3f}%s\n",
                 rows[i].mode.c_str(),
                 static_cast<unsigned long long>(r.successful),
                 static_cast<unsigned long long>(r.failed), r.successful_tps,
                 static_cast<unsigned long long>(r.blocks_committed),
                 r.latency_p50_ms, r.latency_p95_ms, i == 0 ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote BENCH_runtime.json\n");

  if (rows[0].report.successful == 0 || rows[1].report.successful == 0) {
    std::fprintf(stderr, "runtime smoke: a substrate committed nothing\n");
    std::exit(1);
  }

  // --- Socket leg: the same workload against an in-process TCP cluster ---
  fabric::RunReport socket_report;
  uint64_t chain_height = 0;
  fabric::TransportCounters transport;
  runtime::SocketTransport::Counters socket;
  {
    fabric::LocalSocketCluster cluster(BenchConfig("socket"), &workload);
    if (!cluster.clients().WaitForCluster(15000)) {
      std::fprintf(stderr, "socket leg: cluster never connected\n");
      std::exit(1);
    }
    socket_report = cluster.clients().RunClients(duration, warmup);
    socket = cluster.clients().transport().counters();
    // Blocks commit on the peer hosts; chain height comes from the
    // convergence poll, not the local report.
    for (const auto& pr : cluster.clients().CollectPeerReports(15000)) {
      for (const auto& info : pr.channels) {
        if (info.height > chain_height) chain_height = info.height;
      }
    }
    transport = cluster.clients().metrics().transport_counters();
  }
  std::printf("\n[socket] %s\n", socket_report.ToString().c_str());
  std::printf("[socket] %s\n", transport.ToString().c_str());

  const double ratio =
      rows[1].report.successful_tps > 0
          ? socket_report.successful_tps / rows[1].report.successful_tps
          : 0.0;
  std::printf("\nsocket/thread throughput ratio: %.2f\n", ratio);

  out = std::fopen("BENCH_socket.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_socket.json\n");
    return;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"runtime_smoke_socket\",\n");
  std::fprintf(out, "  \"seconds\": %.3f,\n", seconds);
  std::fprintf(out, "  \"successful\": %llu,\n",
               static_cast<unsigned long long>(socket_report.successful));
  std::fprintf(out, "  \"failed\": %llu,\n",
               static_cast<unsigned long long>(socket_report.failed));
  std::fprintf(out, "  \"successful_tps\": %.2f,\n",
               socket_report.successful_tps);
  std::fprintf(out, "  \"thread_successful_tps\": %.2f,\n",
               rows[1].report.successful_tps);
  std::fprintf(out, "  \"socket_vs_thread_ratio\": %.3f,\n", ratio);
  std::fprintf(out, "  \"chain_height\": %llu,\n",
               static_cast<unsigned long long>(chain_height));
  std::fprintf(out, "  \"latency_p50_ms\": %.3f,\n",
               socket_report.latency_p50_ms);
  std::fprintf(out, "  \"latency_p95_ms\": %.3f,\n",
               socket_report.latency_p95_ms);
  std::fprintf(out, "  \"socket_frames_sent\": %llu,\n",
               static_cast<unsigned long long>(socket.frames_sent));
  std::fprintf(out, "  \"socket_bytes_sent\": %llu,\n",
               static_cast<unsigned long long>(socket.bytes_sent));
  std::fprintf(out, "  \"framed_bytes\": %llu,\n",
               static_cast<unsigned long long>(transport.framed_bytes));
  std::fprintf(out, "  \"modeled_bytes\": %llu\n",
               static_cast<unsigned long long>(transport.modeled_bytes));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_socket.json\n");

  if (socket_report.successful == 0 || chain_height <= 1) {
    std::fprintf(stderr, "socket leg committed nothing\n");
    std::exit(1);
  }
  const double min_ratio = SocketMinRatio();
  if (min_ratio > 0 && ratio < min_ratio) {
    std::fprintf(stderr, "socket leg below %.0f%% of thread throughput\n",
                 min_ratio * 100);
    std::exit(1);
  }
}

}  // namespace
}  // namespace fabricpp::bench

int main() {
  fabricpp::bench::Run();
  return 0;
}
