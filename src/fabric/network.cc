#include "fabric/network.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace fabricpp::fabric {

FabricNetwork::FabricNetwork(FabricConfig config,
                             const workload::Workload* workload)
    : config_(std::move(config)), workload_(workload) {
  const Status valid = config_.Validate();
  if (!valid.ok()) {
    FABRICPP_LOG(Error) << "invalid FabricConfig: " << valid;
    std::abort();
  }

  // 1. The execution substrate. Sim: one deterministic event loop, every
  // message routed through the fault injector (pass-through and drawing no
  // randomness without a fault plan, so fault-free runs stay bit-identical
  // to a network without it). Thread: one mailbox thread per endpoint.
  const runtime::RuntimeMode mode = config_.RuntimeModeOrDefault();
  if (mode == runtime::RuntimeMode::kSocket) {
    FABRICPP_LOG(Error)
        << "runtime_mode=\"socket\" composes per-process hosts, not one "
           "in-process network — run fabricpp_node / fabricpp_load (or "
           "fabric::SocketHost) instead of FabricNetwork";
    std::abort();
  }
  if (mode == runtime::RuntimeMode::kSim) {
    runtime::SimRuntime::Options options;
    options.seed = config_.seed;
    options.network = config_.network;
    auto sim = std::make_unique<runtime::SimRuntime>(options);
    sim_ = sim.get();
    runtime_ = std::move(sim);
  } else {
    runtime::ThreadRuntime::Options options;
    options.mailbox_capacity = config_.mailbox_capacity;
    auto thread = std::make_unique<runtime::ThreadRuntime>(options);
    thread_ = thread.get();
    runtime_ = std::move(thread);
  }

  registry_ = chaincode::ChaincodeRegistry::WithBuiltins();

  // 2. The shared client machine (paper §6.1: one server fires all
  // proposals). Its endpoint is created before any peer so the historical
  // node-id order ("clients" first) is preserved. Under the thread runtime
  // the client population can be sharded across several endpoint threads;
  // node-to-client traffic still addresses each client's own home shard.
  const uint32_t shards = mode == runtime::RuntimeMode::kThread
                              ? config_.thread_client_shards
                              : 1;
  for (uint32_t s = 0; s < shards; ++s) {
    runtime::Endpoint& home = runtime_->AddEndpoint(
        s == 0 ? "clients" : StrFormat("clients-%u", s));
    client_endpoints_.push_back(&home);
    client_cpus_.push_back(&runtime_->AddExecutor(
        home, s == 0 ? "client-cpu" : StrFormat("client-cpu-%u", s),
        config_.client_machine_cores));
  }

  // 3. Worker pools for the real (wall-clock) crypto and reordering work.
  // Under sim these are the process-wide shared pools the peers and the
  // orderer will also be handed (created here, before the nodes, matching
  // the pre-runtime construction order); under the thread runtime each
  // node requests its own pool and these stay null.
  if (sim_ != nullptr) {
    validator_pool_ = runtime_->RequestPool(runtime::PoolKind::kValidator,
                                            config_.validator_workers);
    reorder_pool_ = runtime_->RequestPool(runtime::PoolKind::kReorder,
                                          config_.reorder_workers);
    commit_pool_ = runtime_->RequestPool(runtime::PoolKind::kCommit,
                                         config_.commit_workers);
  }

  // 4. Endorsement policy: one peer of every org (paper §2.2.1).
  peer::EndorsementPolicy policy;
  policy.id = "AND(all-orgs)";
  for (uint32_t o = 0; o < config_.num_orgs; ++o) {
    policy.required_orgs.push_back(std::string(1, static_cast<char>('A' + o)));
  }
  default_policy_id_ = policy.id;
  (void)policies_.Register(std::move(policy));

  // 5. The nodes, built against the narrow context only — no node sees
  // FabricNetwork itself, just the directory + runtime + mesh interfaces.
  // LocalMesh measures real framed wire sizes in thread mode only; the sim
  // path must not spend host time encoding messages it never ships.
  mesh_ = std::make_unique<node::LocalMesh>(
      &config_, &metrics_, this, runtime_.get(),
      /*measure_wire_bytes=*/mode == runtime::RuntimeMode::kThread);
  const node::NodeContext ctx{&config_,         &metrics_, workload_,
                              registry_.get(),  &policies_, runtime_.get(),
                              this,             mesh_.get()};

  // Peers, org-major: A1 A2 ... B1 B2 ...
  for (uint32_t o = 0; o < config_.num_orgs; ++o) {
    const std::string org(1, static_cast<char>('A' + o));
    for (uint32_t p = 0; p < config_.peers_per_org; ++p) {
      const uint32_t index = o * config_.peers_per_org + p;
      peers_.push_back(std::make_unique<node::PeerNode>(
          ctx, index, StrFormat("%s%u", org.c_str(), p + 1), org));
    }
  }

  // Pre-warm every validator's verification-identity cache with the full
  // peer roster (the only signers on the endorsement path). The verify
  // stage then runs read-only against the cache no matter how many workers
  // race through it; the shared_mutex slow path only covers signers unknown
  // at construction (e.g. externally injected transactions).
  {
    std::vector<std::string> peer_names;
    peer_names.reserve(peers_.size());
    for (const auto& peer : peers_) peer_names.push_back(peer->name());
    for (auto& peer : peers_) peer->PrewarmIdentities(peer_names);
  }

  orderer_ = std::make_unique<node::OrdererNode>(ctx);

  // 6. Consensus backend. Raft runs on both substrates: under sim the
  // replicas share the event loop and register with the injector for chaos
  // coverage; under the thread runtime each replica gets its own mailbox
  // thread and commits are posted back to the committed channel's orderer
  // lane.
  if (config_.ordering_backend == OrderingBackend::kRaft) {
    if (sim_ != nullptr) {
      raft_consensus_ = std::make_unique<RaftConsensus>(
          &sim_->env(), &sim_->network(), config_);
    } else {
      raft_consensus_ = std::make_unique<RaftConsensus>(runtime_.get(),
                                                        config_);
      raft_consensus_->SetDeliveryEndpointResolver([this](uint32_t channel) {
        return &orderer_->endpoint_for(channel);
      });
    }
    orderer_->SetConsensus(raft_consensus_.get());
  } else {
    orderer_->SetConsensus(&solo_consensus_);
  }

  // 7. Seed the workload's initial state once and layer every (peer,
  // channel) state database over it: reads fall through to the shared
  // genesis, writes stay per peer (DESIGN.md §17).
  const auto genesis = workload_->SeedGenesis();
  for (auto& peer : peers_) peer->LayerStateOn(genesis);

  // 8. Clients, channel-major, round-robin across the client machine's
  // endpoint shards (one shard under sim: all on "clients").
  for (uint32_t c = 0; c < config_.num_channels; ++c) {
    for (uint32_t i = 0; i < config_.clients_per_channel; ++i) {
      const uint32_t index = c * config_.clients_per_channel + i;
      clients_.push_back(std::make_unique<node::ClientNode>(
          ctx, index, c, node::ClientNameFor(c, i),
          config_.seed * 0x9e3779b97f4a7c15ULL + index + 1,
          client_endpoints_[index % shards], client_cpus_[index % shards]));
      clients_by_name_[clients_.back()->name()] = clients_.back().get();
    }
  }
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

sim::Network& FabricNetwork::network() {
  return RequireSim("network()").network();
}

sim::FaultInjector& FabricNetwork::fault_injector() {
  return RequireSim("fault_injector()").injector();
}

node::ClientNode* FabricNetwork::FindClient(const std::string& name) {
  const auto it = clients_by_name_.find(name);
  return it == clients_by_name_.end() ? nullptr : it->second;
}

std::vector<uint32_t> FabricNetwork::EndorsersFor(uint64_t proposal_id) {
  return node::EndorserIndicesFor(config_.num_orgs, config_.peers_per_org,
                                  proposal_id);
}

RunReport FabricNetwork::RunFor(sim::SimTime duration, sim::SimTime warmup) {
  if (sim_ != nullptr) {
    metrics_.SetWindow(warmup, duration);
    for (auto& client : clients_) client->StartFiring(duration);
    sim_->env().RunUntil(duration);
    metrics_.SetNetworkFaultTotals(sim_->injector().stats().TotalDropped(),
                                   sim_->injector().stats().duplicated);
    return metrics_.Report();
  }

  // Thread runtime: `duration` is wall-clock. The run ends with a drain
  // (so in-flight blocks land) and a full shutdown — client timeout timers
  // are armed tens of (real) seconds out, and the only way to guarantee
  // none of them races the report below is to stop the machinery. One
  // measured run per network, by design.
  if (ran_) {
    FABRICPP_LOG(Error) << "RunFor can only be called once under the "
                           "thread runtime";
    std::abort();
  }
  ran_ = true;
  thread_->ResetEpoch();
  metrics_.SetWindow(warmup, duration);
  // Election timers first: ordering stalls (and clients back off) until the
  // cluster elects its first leader, which takes one timeout.
  if (raft_consensus_ != nullptr) raft_consensus_->StartReplicas();
  for (auto& client : clients_) {
    node::ClientNode* c = client.get();
    c->home().Post([c, duration]() { c->StartFiring(duration); });
  }
  thread_->SleepUntil(duration);
  if (raft_consensus_ != nullptr) {
    // Give in-flight consensus entries time to commit and deliver, then
    // halt the cluster: heartbeats re-arm every 50ms forever, so Quiesce
    // would otherwise never see an idle timer queue.
    thread_->SleepUntil(duration + 500 * sim::kMillisecond);
    raft_consensus_->Halt();
  }
  // Let the pipeline drain: a batch timeout may still have to fire and a
  // peer may still be re-fetching a lost-in-shutdown block.
  const runtime::TimeMicros horizon =
      std::max<runtime::TimeMicros>(config_.block.batch_timeout,
                                    config_.peer_fetch_retry_interval) +
      250 * sim::kMillisecond;
  thread_->Quiesce(horizon);
  thread_->Shutdown();
  metrics_.SetMailboxShedTotal(thread_->mailbox_shed_total());
  return metrics_.Report();
}

void FabricNetwork::SchedulePeerCrash(uint32_t peer_index, sim::SimTime start,
                                      sim::SimTime end) {
  runtime::SimRuntime& sim = RequireSim("SchedulePeerCrash");
  node::PeerNode* peer = peers_[peer_index].get();
  sim.injector().CrashNode(peer->node_id(), start, end);
  sim.env().ScheduleAt(start, [peer]() { peer->Crash(); });
  sim.env().ScheduleAt(end, [peer]() { peer->Restart(); });
}

void FabricNetwork::ScheduleRaftLeaderCrash(sim::SimTime at,
                                            sim::SimTime duration) {
  if (sim_ == nullptr) {
    // Thread runtime: the cluster schedules the kill on the replicas' own
    // clocks (whoever believes it leads at `at` crashes itself; replica 0
    // is the fallback). Call before RunFor — timers armed before the epoch
    // reset still fire at the right post-epoch time.
    if (raft_consensus_ != nullptr) {
      raft_consensus_->ScheduleLeaderCrash(at, duration);
    }
    return;
  }
  sim_->env().ScheduleAt(at, [this, duration]() {
    if (raft_consensus_ == nullptr) return;  // Solo backend: nothing to crash.
    raft::RaftCluster* raft = &raft_consensus_->cluster();
    // Whoever leads right now is the victim; with an election in progress,
    // take replica 0 so the fault still lands deterministically.
    const uint32_t victim = raft->FindLeader().value_or(0);
    FABRICPP_LOG(Info) << "crashing raft leader " << victim << " at "
                       << sim_->env().Now() / 1000 << "ms";
    raft->node(victim).Crash();
    sim_->env().Schedule(duration, [raft, victim]() {
      raft->node(victim).Resume();
    });
  });
}

void FabricNetwork::SyncPeers() {
  if (sim_ != nullptr) {
    sim_->env().Schedule(0, [this]() {
      for (auto& peer : peers_) {
        if (peer->crashed()) continue;
        for (uint32_t c = 0; c < config_.num_channels; ++c) {
          peer->RequestMissingBlocks(c);
        }
      }
    });
    return;
  }
  // Thread runtime: each channel pulls on its own lane context.
  for (auto& peer : peers_) {
    node::PeerNode* p = peer.get();
    for (uint32_t c = 0; c < config_.num_channels; ++c) {
      p->endpoint_for(c).Post([p, c]() {
        if (p->crashed()) return;
        p->RequestMissingBlocks(c);
      });
    }
  }
}

void FabricNetwork::RunUntilIdle() {
  if (sim_ != nullptr) {
    sim_->env().Run();
    return;
  }
  thread_->Quiesce(
      std::max<runtime::TimeMicros>(config_.block.batch_timeout,
                                    config_.peer_fetch_retry_interval) +
      250 * sim::kMillisecond);
}

void FabricNetwork::SubmitProposal(uint32_t channel, uint32_t client_index,
                                   std::vector<std::string> args) {
  node::ClientNode& client =
      *clients_[channel * config_.clients_per_channel + client_index];
  // Under sim, Post is Schedule(0) on the shared loop — identical to the
  // pre-runtime behavior; under threads it hops onto the client's context.
  client.home().Post([&client, args = std::move(args)]() mutable {
    client.FireProposal(std::move(args));
  });
}

void FabricNetwork::SubmitExternalTransaction(uint32_t channel,
                                              proto::Transaction tx) {
  node::OrdererNode* orderer = orderer_.get();
  orderer->endpoint_for(channel).Post(
      [orderer, channel, tx = std::move(tx)]() mutable {
        orderer->HandleTransaction(channel, std::move(tx));
      });
}

}  // namespace fabricpp::fabric
