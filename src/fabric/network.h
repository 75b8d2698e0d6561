#ifndef FABRICPP_FABRIC_NETWORK_H_
#define FABRICPP_FABRIC_NETWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "chaincode/chaincode.h"
#include "common/thread_pool.h"
#include "fabric/config.h"
#include "fabric/metrics.h"
#include "fabric/node_slice.h"
#include "fabric/raft_consensus.h"
#include "node/client_node.h"
#include "node/consensus.h"
#include "node/local_mesh.h"
#include "node/orderer_node.h"
#include "node/peer_node.h"
#include "peer/policy.h"
#include "proto/transaction.h"
#include "runtime/runtime.h"
#include "runtime/sim_runtime.h"
#include "runtime/thread_runtime.h"
#include "sim/environment.h"
#include "sim/fault_injector.h"
#include "sim/network.h"
#include "workload/workload.h"

namespace fabricpp::fabric {

/// The node state machines live in src/node/, decoupled from this
/// composition root; their historical names in this namespace stay valid.
using PeerNode = node::PeerNode;
using OrdererNode = node::OrdererNode;
using ClientNode = node::ClientNode;

/// The whole Fabric network: topology and pipeline wiring, the runtime the
/// nodes execute on, and the experiment driver. This is the main entry
/// point of the library — see examples/quickstart.cpp.
///
/// The execution substrate is chosen by `FabricConfig::runtime_mode`:
///
///  - "sim" (default): every node shares one discrete-event loop on a
///    virtual clock. Deterministic — runs are byte-for-byte reproducible —
///    and the full fault plan (injector, crashes) is available; it covers
///    the Raft replicas' endpoints like every other node's.
///  - "thread": every node runs on its own OS thread with a bounded
///    mailbox, timers fire off a steady_clock, and messages hand off
///    directly between threads. Real concurrency (races surface under
///    TSan), but timings are nondeterministic, the sim-only facilities
///    (env(), fault_injector(), peer-crash scheduling) abort,
///    and RunFor() can be called at most once — it shuts the runtime down
///    to guarantee no node activity outlives the measurement. The Raft
///    ordering backend runs here too (replicas on their own mailbox
///    threads), as does ScheduleRaftLeaderCrash; with several channels the
///    orderer and peers shard their pipelines across per-channel lanes,
///    one per channel up to 8 (node::ChannelLaneCount, DESIGN.md §16).
///
/// The topology itself is built by NodeSlice (fabric/node_slice.h), which
/// is also the node::NodeDirectory the nodes see; FabricNetwork adds the
/// runtime, the in-process mesh, Raft and the simulation's fault surface.
class FabricNetwork {
 public:
  /// Builds the network. `workload` seeds each channel's initial state and
  /// generates proposal arguments; it must outlive the network.
  FabricNetwork(FabricConfig config, const workload::Workload* workload);
  ~FabricNetwork();

  FabricNetwork(const FabricNetwork&) = delete;
  FabricNetwork& operator=(const FabricNetwork&) = delete;

  /// Runs the standard experiment: clients fire for `duration`, outcomes
  /// are measured in [warmup, duration), and the report is returned.
  /// Under the thread runtime `duration` is wall-clock microseconds, the
  /// run ends with a quiesce + shutdown, and only one call is allowed.
  RunReport RunFor(sim::SimTime duration, sim::SimTime warmup = 0);

  /// Manual driving (examples): submit one proposal through a client, then
  /// run the event loop until it drains.
  void SubmitProposal(uint32_t channel, uint32_t client_index,
                      std::vector<std::string> args);
  /// Injects a fully-formed transaction directly into the ordering service
  /// (used to demonstrate tamper detection, Appendix A.3.1).
  void SubmitExternalTransaction(uint32_t channel, proto::Transaction tx);
  /// Drains outstanding work. Sim: runs the event queue dry — only valid
  /// with the solo ordering backend (a Raft cluster's heartbeat timers keep
  /// the queue alive forever; use env().RunUntil(...) there). Thread: waits
  /// until the mailboxes are empty and no timer is due soon.
  void RunUntilIdle();

  // --- Fault plan (simulation runtime only) ---

  /// The injector every message of this network flows through. Configure
  /// loss/duplication/delay/partitions on it before (or during) a run.
  sim::FaultInjector& fault_injector();

  /// Crashes peer `peer_index` over [start, end): the injector blackholes
  /// its traffic, the peer drops its in-flight pipeline at `start`, and at
  /// `end` it restarts and catches up from the orderer.
  void SchedulePeerCrash(uint32_t peer_index, sim::SimTime start,
                         sim::SimTime end);

  /// At time `at`, crashes whichever Raft replica currently leads (no-op
  /// for the solo backend) and resumes it after `duration`. The cluster
  /// elects a new leader in the meantime — ordering stalls, then recovers;
  /// no block may be lost. The kill is scheduled on the replicas' own
  /// clocks on either runtime (under threads, call before RunFor).
  void ScheduleRaftLeaderCrash(sim::SimTime at, sim::SimTime duration);

  /// One-shot anti-entropy: every live peer asks the orderer for blocks it
  /// is missing. Chaos drivers call this after healing the network — a
  /// dropped tail block has no successor to reveal the gap, so without a
  /// pull the ledgers could end one block apart forever.
  void SyncPeers();

  // --- Component access ---
  /// The execution substrate the nodes run on.
  runtime::Runtime& runtime() { return *runtime_; }
  /// Simulation-only component; aborts under the thread runtime.
  sim::Environment& env();

  Metrics& metrics() { return metrics_; }
  const FabricConfig& config() const { return config_; }
  const workload::Workload* workload() const { return workload_; }
  const chaincode::ChaincodeRegistry& registry() const {
    return slice_.registry();
  }
  const peer::PolicyRegistry& policies() const { return slice_.policies(); }
  /// The shared client machine's CPU (first shard under the thread
  /// runtime's client sharding).
  runtime::Executor& client_cpu() { return slice_.client_cpu(); }
  runtime::NodeId client_machine_node() const {
    return slice_.client_endpoint().id();
  }

  /// Shared pool running the validators' real signature-verification work
  /// (null when validator_workers == 1, and under the thread runtime,
  /// where each peer's validator owns a pool instead). Workers accelerate
  /// wall-clock crypto only — never virtual time or validation outcomes.
  ThreadPool* validator_pool() {
    return sim_ == nullptr ? nullptr
                           : sim_->RequestPool(config_.validator_workers);
  }

  size_t num_peers() const { return slice_.num_peers(); }
  PeerNode& peer(uint32_t i) { return slice_.peer(i); }
  const PeerNode& peer(uint32_t i) const { return slice_.peer(i); }
  OrdererNode& orderer() { return slice_.orderer(); }
  size_t num_clients() const { return slice_.num_clients(); }
  ClientNode& client(uint32_t i) { return slice_.client(i); }
  const std::string& default_policy_id() const {
    return slice_.default_policy_id();
  }

 private:
  /// Guards the sim-only surface: aborts (with `what` in the log) when the
  /// network runs on the thread runtime.
  runtime::SimRuntime& RequireSim(const char* what) const;
  /// The orderer's Raft backend (nullptr: solo), built for the slice right
  /// after the orderer.
  node::ConsensusService* MakeConsensus(node::OrdererNode& orderer);

  FabricConfig config_;
  const workload::Workload* workload_;
  /// Owns the execution substrate; nodes are destroyed before it.
  std::unique_ptr<runtime::Runtime> runtime_;
  /// Mode discriminators into runtime_ (exactly one is non-null).
  runtime::SimRuntime* sim_;
  runtime::ThreadRuntime* thread_;
  Metrics metrics_;
  std::unique_ptr<RaftConsensus> raft_consensus_;
  /// The in-process message fabric every node send goes through; must
  /// outlive the nodes, which hold it via NodeContext.
  node::LocalMesh mesh_;
  NodeSlice slice_;
};

}  // namespace fabricpp::fabric

#endif  // FABRICPP_FABRIC_NETWORK_H_
