// fabricpp_node — one process of a multi-process Fabric++ cluster
// (DESIGN.md §15). Hosts exactly one role from a shared deployment file:
//
//   fabricpp_node --config cluster.conf --role orderer
//   fabricpp_node --config cluster.conf --role peer:0
//   fabricpp_node --config cluster.conf --role peer:1 --listen 0.0.0.0:7052
//
// The process binds its listener, dials its upstreams, and serves until a
// SHUTDOWN frame arrives (fabricpp_load --shutdown, or the load driver's
// normal teardown) or SIGINT/SIGTERM. Every process of the cluster must
// read an identical config file or the peers will not converge.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.h"
#include "fabric/config_file.h"
#include "fabric/socket_host.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --config FILE --role (orderer|peer:N) "
               "[--listen HOST:PORT]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string role_text;
  std::string listen_override;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if (arg == "--role" && i + 1 < argc) {
      role_text = argv[++i];
    } else if (arg == "--listen" && i + 1 < argc) {
      listen_override = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (config_path.empty() || role_text.empty()) {
    Usage(argv[0]);
    return 2;
  }

  auto deployment = fabricpp::fabric::LoadDeploymentFile(config_path);
  if (!deployment.ok()) {
    std::fprintf(stderr, "%s: %s\n", config_path.c_str(),
                 deployment.status().ToString().c_str());
    return 1;
  }
  auto role = fabricpp::fabric::ParseSocketRole(role_text);
  if (!role.ok() ||
      role->kind == fabricpp::fabric::SocketRole::Kind::kClients) {
    std::fprintf(stderr, "bad --role %s (want orderer or peer:N)\n",
                 role_text.c_str());
    return 2;
  }
  if (!listen_override.empty()) {
    deployment->config.listen_address = listen_override;
  }

  // Block SIGINT/SIGTERM before any thread exists, then sigwait on a
  // dedicated thread: the handler context never touches locks.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  // A daemon logs its lifecycle: connections, and a peer's catch-up on the
  // chain it missed.
  fabricpp::SetLogLevel(fabricpp::LogLevel::kInfo);
  fabricpp::fabric::SocketHost host(deployment->config,
                                    deployment->workload.get(), *role);
  const fabricpp::Status started = host.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("[fabricpp_node] role=%s listening on port %u\n",
              role->ToString().c_str(), host.listen_port());
  std::fflush(stdout);

  std::thread signal_waiter([&sigs, &host] {
    int sig = 0;
    sigwait(&sigs, &sig);
    std::fprintf(stderr, "[fabricpp_node] signal %d, stopping\n", sig);
    host.Stop();
  });

  const bool graceful = host.WaitForShutdown();
  host.Stop();
  // Wake the sigwait thread if the shutdown came over the wire.
  pthread_kill(signal_waiter.native_handle(), SIGTERM);
  signal_waiter.join();
  std::printf("[fabricpp_node] role=%s exiting (%s)\n",
              role->ToString().c_str(),
              graceful ? "shutdown frame" : "local stop");
  return 0;
}
