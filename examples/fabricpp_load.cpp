// fabricpp_load — the load driver for a multi-process Fabric++ cluster
// (DESIGN.md §15). Hosts every client state machine, fires the configured
// workload at the remote peers/orderer for --seconds, prints the standard
// RunReport, then polls the peers until their (height, tip hash, state
// fingerprint) tuples agree and shuts the cluster down:
//
//   fabricpp_load --config cluster.conf --seconds 5 --warmup 1 --check
//
// --check turns the convergence poll into an assertion (exit 1 unless every
// peer reported, all per-channel fingerprints match — the multi-process
// "no MVCC anomalies" check — and the run committed work). --json PATH
// writes a machine-readable summary for CI.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "crypto/sha256.h"
#include "fabric/config_file.h"
#include "fabric/socket_host.h"
#include "sim/time.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --config FILE [--seconds S] [--warmup S] "
               "[--json PATH] [--check] [--no-shutdown]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string json_path;
  double seconds = 5.0;
  double warmup = 1.0;
  bool check = false;
  bool shutdown_cluster = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if ((arg == "--seconds" || arg == "--warmup") && i + 1 < argc) {
      const std::string value = argv[++i];
      if (!fabricpp::ParseNumber(value,
                                 arg == "--seconds" ? &seconds : &warmup)) {
        std::fprintf(stderr, "bad value for %s: \"%s\"\n", arg.c_str(),
                     value.c_str());
        Usage(argv[0]);
        return 2;
      }
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--no-shutdown") {
      shutdown_cluster = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (config_path.empty() || seconds <= 0 || warmup < 0 || warmup >= seconds) {
    Usage(argv[0]);
    return 2;
  }

  auto deployment = fabricpp::fabric::LoadDeploymentFile(config_path);
  if (!deployment.ok()) {
    std::fprintf(stderr, "%s: %s\n", config_path.c_str(),
                 deployment.status().ToString().c_str());
    return 1;
  }

  fabricpp::fabric::SocketRole role;
  role.kind = fabricpp::fabric::SocketRole::Kind::kClients;
  fabricpp::fabric::SocketHost host(deployment->config,
                                    deployment->workload.get(), role);
  const fabricpp::Status started = host.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  const uint32_t connect_budget_ms =
      deployment->config.socket_connect_timeout_ms + 10000;
  std::printf("[fabricpp_load] dialing %zu peers + orderer...\n",
              deployment->config.peer_addresses.size());
  std::fflush(stdout);
  if (!host.WaitForCluster(connect_budget_ms)) {
    std::fprintf(stderr, "cluster not reachable after %u ms\n",
                 connect_budget_ms);
    host.Stop();
    return 1;
  }

  std::printf("[fabricpp_load] firing %s for %.1fs (warmup %.1fs)\n",
              deployment->workload->chaincode().c_str(), seconds, warmup);
  std::fflush(stdout);
  const auto report = host.RunClients(
      static_cast<fabricpp::runtime::TimeMicros>(seconds * 1e6),
      static_cast<fabricpp::runtime::TimeMicros>(warmup * 1e6));
  std::printf("%s\n", report.ToString().c_str());
  const auto transport = host.metrics().transport_counters();
  const auto socket = host.transport().counters();
  std::printf("%s\n", transport.ToString().c_str());

  const auto peer_reports = host.CollectPeerReports(30000);
  const size_t num_peers = host.num_peers();
  bool converged = peer_reports.size() == num_peers;
  // Blocks commit on the peer hosts, so the local report's block counters
  // stay zero in socket mode; chain height comes from the state reports
  // (height 1 = genesis only, nothing committed).
  uint64_t chain_height = 0;
  for (const auto& pr : peer_reports) {
    for (size_t c = 0; c < pr.channels.size(); ++c) {
      const auto& info = pr.channels[c];
      if (info.height > chain_height) chain_height = info.height;
      std::printf(
          "[peer %u] channel %zu: height=%" PRIu64 " keys=%" PRIu64
          " tip=%.16s state=%s\n",
          pr.peer_index, c, info.height, info.num_keys,
          fabricpp::crypto::DigestToHex(info.tip_hash).c_str(),
          info.state_fingerprint.c_str());
      if (pr.channels.size() != peer_reports[0].channels.size() ||
          !(info == peer_reports[0].channels[c])) {
        converged = false;
      }
    }
  }
  if (converged && !peer_reports.empty()) {
    std::printf("[fabricpp_load] %zu peers converged\n", peer_reports.size());
  } else {
    std::fprintf(stderr,
                 "[fabricpp_load] DIVERGED: %zu/%zu peers reported, "
                 "fingerprints %s\n",
                 peer_reports.size(), num_peers,
                 converged ? "equal" : "differ");
  }

  if (shutdown_cluster) host.BroadcastShutdown();
  host.Stop();

  const bool committed = report.successful > 0 && chain_height > 1;
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"workload\": \"" << deployment->workload->chaincode() << "\",\n"
        << "  \"seconds\": " << seconds << ",\n"
        << "  \"successful\": " << report.successful << ",\n"
        << "  \"failed\": " << report.failed << ",\n"
        << "  \"successful_tps\": " << report.successful_tps << ",\n"
        << "  \"chain_height\": " << chain_height << ",\n"
        << "  \"latency_p50_ms\": " << report.latency_p50_ms << ",\n"
        << "  \"latency_p95_ms\": " << report.latency_p95_ms << ",\n"
        << "  \"socket_frames_sent\": " << socket.frames_sent << ",\n"
        << "  \"socket_reconnects\": " << socket.reconnects << ",\n"
        << "  \"peers_reported\": " << peer_reports.size() << ",\n"
        << "  \"converged\": " << (converged ? "true" : "false") << ",\n"
        << "  \"committed\": " << (committed ? "true" : "false") << "\n"
        << "}\n";
  }

  if (check && (!converged || !committed)) {
    std::fprintf(stderr, "[fabricpp_load] CHECK FAILED (converged=%d "
                 "committed=%d)\n",
                 converged, committed);
    return 1;
  }
  return 0;
}
