#include "fabric/network.h"

#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "node/deliver.h"

namespace fabricpp::fabric {

namespace {

// The execution substrate. Sim: one deterministic event loop, every message
// routed through the fault injector (pass-through and drawing no randomness
// without a fault plan, so fault-free runs stay bit-identical to a network
// without it). Thread: one mailbox thread per endpoint.
std::unique_ptr<runtime::Runtime> MakeRuntime(const FabricConfig& config) {
  switch (config.RuntimeModeOrDefault()) {
    case runtime::RuntimeMode::kSim: {
      runtime::SimRuntime::Options options;
      options.seed = config.seed;
      options.network = config.network;
      return std::make_unique<runtime::SimRuntime>(options);
    }
    case runtime::RuntimeMode::kThread: {
      runtime::ThreadRuntime::Options options;
      options.mailbox_capacity = config.mailbox_capacity;
      return std::make_unique<runtime::ThreadRuntime>(options);
    }
    case runtime::RuntimeMode::kSocket:
      break;
  }
  FABRICPP_LOG(Error)
      << "runtime_mode=\"socket\" composes per-process hosts, not one "
         "in-process network — run fabricpp_node / fabricpp_load (or "
         "fabric::SocketHost) instead of FabricNetwork";
  std::abort();
}

}  // namespace

FabricNetwork::FabricNetwork(FabricConfig config,
                             const workload::Workload* workload)
    : config_(ValidatedOrDie(std::move(config))),
      workload_(workload),
      runtime_(MakeRuntime(config_)),
      sim_(dynamic_cast<runtime::SimRuntime*>(runtime_.get())),
      thread_(dynamic_cast<runtime::ThreadRuntime*>(runtime_.get())),
      // LocalMesh measures real framed wire sizes on threads only; the sim
      // path must not spend host time encoding messages it never ships.
      mesh_(&metrics_, &slice_, runtime_.get(),
            /*measure_wire_bytes=*/thread_ != nullptr),
      slice_(&config_, workload_, runtime_.get(), &mesh_, &metrics_,
             SliceRoles{"network", 0,
                        config_.num_orgs * config_.peers_per_org, true, true},
             [this](node::OrdererNode& orderer) {
               return MakeConsensus(orderer);
             }) {}

node::ConsensusService* FabricNetwork::MakeConsensus(
    node::OrdererNode& orderer) {
  if (config_.ordering_backend != OrderingBackend::kRaft) return nullptr;
  // Each replica gets its own endpoint, and its commits are posted back to
  // the committed channel's orderer lane.
  raft_consensus_ = std::make_unique<RaftConsensus>(runtime_.get(), config_);
  raft_consensus_->SetDeliveryEndpointResolver([&orderer](uint32_t channel) {
    return &orderer.endpoint_for(channel);
  });
  return raft_consensus_.get();
}

FabricNetwork::~FabricNetwork() {
  // Stop all endpoint threads before any node state they touch is torn
  // down. No-op after RunFor (which shuts down to end the measurement) and
  // under sim.
  if (thread_ != nullptr) thread_->Shutdown();
}

runtime::SimRuntime& FabricNetwork::RequireSim(const char* what) const {
  if (sim_ == nullptr) {
    FABRICPP_LOG(Error) << what
                        << " requires runtime_mode=\"sim\" (the thread "
                           "runtime has no deterministic fault plan)";
    std::abort();
  }
  return *sim_;
}

sim::Environment& FabricNetwork::env() { return RequireSim("env()").env(); }

sim::FaultInjector& FabricNetwork::fault_injector() {
  return RequireSim("fault_injector()").injector();
}

RunReport FabricNetwork::RunFor(sim::SimTime duration, sim::SimTime warmup) {
  if (sim_ != nullptr) {
    metrics_.SetWindow(warmup, duration);
    // Unlike under threads, the replicas are not halted after the window:
    // sim drivers drain with env().RunUntil, and entries still in flight
    // must commit.
    if (raft_consensus_ != nullptr) raft_consensus_->cluster().Start();
    for (auto& client : slice_.clients()) client->StartFiring(duration);
    sim_->env().RunUntil(duration);
    metrics_.SetNetworkFaultTotals(sim_->injector().stats().TotalDropped(),
                                   sim_->injector().stats().duplicated);
    return metrics_.Report();
  }
  NodeSlice::RunHooks hooks;
  if (raft_consensus_ != nullptr) {
    // Election timers first: ordering stalls (and clients back off) until
    // the cluster elects its first leader, which takes one timeout.
    hooks.start = [this]() { raft_consensus_->cluster().Start(); };
    // Give in-flight consensus entries time to commit and deliver, then
    // halt the cluster: heartbeats re-arm every 50ms forever, so the drain
    // would otherwise never see an idle timer queue.
    hooks.settle = [this, duration](runtime::TimeMicros) {
      thread_->SleepUntil(duration + 500 * sim::kMillisecond);
      raft_consensus_->Halt();
    };
  }
  slice_.RunMeasured(*thread_, duration, warmup, hooks);
  return metrics_.Report();
}

void FabricNetwork::SchedulePeerCrash(uint32_t peer_index, sim::SimTime start,
                                      sim::SimTime end) {
  runtime::SimRuntime& sim = RequireSim("SchedulePeerCrash");
  node::PeerNode* peer = &slice_.peer(peer_index);
  sim.injector().CrashNode(peer->node_id(), start, end);
  sim.env().ScheduleAt(start, [peer]() { peer->Crash(); });
  sim.env().ScheduleAt(end, [peer]() { peer->Restart(); });
}

void FabricNetwork::ScheduleRaftLeaderCrash(sim::SimTime at,
                                            sim::SimTime duration) {
  // The kill is scheduled on the replicas' own clocks: whoever believes it
  // leads at `at` crashes itself, replica 0 is the fallback. Under threads,
  // call before RunFor — timers armed before the epoch reset still fire at
  // the right post-epoch time.
  if (raft_consensus_ != nullptr) {
    raft_consensus_->cluster().ScheduleLeaderCrash(at, duration);
  }
}

void FabricNetwork::SyncPeers() { slice_.RequestMissingBlocks(); }

void FabricNetwork::RunUntilIdle() {
  if (sim_ != nullptr) {
    sim_->env().Run();
    return;
  }
  thread_->Quiesce(DrainHorizon(config_));
}

void FabricNetwork::SubmitProposal(uint32_t channel, uint32_t client_index,
                                   std::vector<std::string> args) {
  node::ClientNode& client =
      slice_.client(channel * config_.clients_per_channel + client_index);
  // Under sim, Post is Schedule(0) on the shared loop — identical to the
  // pre-runtime behavior; under threads it hops onto the client's context.
  client.home().Post([&client, args = std::move(args)]() mutable {
    client.FireProposal(std::move(args));
  });
}

void FabricNetwork::SubmitExternalTransaction(uint32_t channel,
                                              proto::Transaction tx) {
  node::Delivery delivery = node::RouteToOrderer(
      slice_, proto::TransactionMsg{channel, std::move(tx)});
  if (delivery.to != nullptr) delivery.to->Post(std::move(delivery.task));
}

}  // namespace fabricpp::fabric
