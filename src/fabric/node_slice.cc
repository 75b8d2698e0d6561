#include "fabric/node_slice.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "sim/time.h"

namespace fabricpp::fabric {

namespace {

std::string OrgNameFor(uint32_t org) {
  return std::string(1, static_cast<char>('A' + org));
}

}  // namespace

FabricConfig ValidatedOrDie(FabricConfig config) {
  const Status valid = config.Validate();
  if (!valid.ok()) {
    FABRICPP_LOG(Error) << "invalid FabricConfig: " << valid;
    std::abort();
  }
  return config;
}

std::string PeerNameFor(const FabricConfig& config, uint32_t index) {
  return StrFormat("%s%u",
                   OrgNameFor(index / config.peers_per_org).c_str(),
                   index % config.peers_per_org + 1);
}

runtime::TimeMicros DrainHorizon(const FabricConfig& config) {
  return std::max<runtime::TimeMicros>(config.block.batch_timeout,
                                       config.peer_fetch_retry_interval) +
         250 * sim::kMillisecond;
}

NodeSlice::NodeSlice(const FabricConfig* config,
                     const workload::Workload* workload,
                     runtime::Runtime* runtime, node::Mesh* mesh,
                     Metrics* metrics, SliceRoles roles,
                     const ConsensusFactory& consensus)
    : config_(config),
      metrics_(metrics),
      roles_(std::move(roles)),
      registry_(chaincode::ChaincodeRegistry::WithBuiltins()) {
  if (roles_.first_peer > roles_.end_peer || roles_.end_peer > num_peers()) {
    FABRICPP_LOG(Error) << "peer index " << roles_.end_peer - 1
                        << " out of range (num peers " << num_peers() << ")";
    std::abort();
  }

  // Endorsement policy: one peer of every org (paper §2.2.1).
  peer::EndorsementPolicy policy;
  policy.id = "AND(all-orgs)";
  for (uint32_t o = 0; o < config_->num_orgs; ++o) {
    policy.required_orgs.push_back(OrgNameFor(o));
  }
  default_policy_id_ = policy.id;
  (void)policies_.Register(std::move(policy));

  // The nodes see only this narrow context: the directory, the runtime and
  // the mesh — never the composition root itself.
  const node::NodeContext ctx{config_,         metrics_,  workload,
                              registry_.get(), &policies_, runtime,
                              this,            mesh};

  // The shared client machine (paper §6.1: one server fires all
  // proposals). Its endpoints come first, preserving the historical
  // node-id order. On threads the client population can be sharded across
  // several endpoint threads; node-to-client traffic still addresses each
  // client's own home shard.
  const uint32_t shards = runtime->mode() == runtime::RuntimeMode::kSim
                              ? 1
                              : config_->thread_client_shards;
  if (roles_.clients) {
    for (uint32_t s = 0; s < shards; ++s) {
      runtime::Endpoint& home = runtime->AddEndpoint(
          s == 0 ? "clients" : StrFormat("clients-%u", s));
      client_endpoints_.push_back(&home);
      client_cpus_.push_back(&runtime->AddExecutor(
          home, s == 0 ? "client-cpu" : StrFormat("client-cpu-%u", s),
          config_->client_machine_cores));
    }
  }

  // Every verification-identity cache is pre-warmed with the full roster
  // (the only signers on the endorsement path; identities are
  // deterministic in name + seed, so remote signers verify too). The
  // verify stage then runs read-only against the cache however many
  // workers race through it.
  std::vector<std::string> roster;
  for (uint32_t i = 0; i < num_peers(); ++i) {
    roster.push_back(PeerNameFor(*config_, i));
  }
  for (uint32_t index = roles_.first_peer; index < roles_.end_peer; ++index) {
    peers_.push_back(std::make_unique<node::PeerNode>(
        ctx, index, roster[index], OrgNameFor(index / config_->peers_per_org)));
    peers_.back()->PrewarmIdentities(roster);
  }

  if (roles_.orderer) {
    orderer_ = std::make_unique<node::OrdererNode>(ctx);
    node::ConsensusService* backend =
        consensus ? consensus(*orderer_) : nullptr;
    orderer_->SetConsensus(backend != nullptr ? backend : &solo_consensus_);
  }

  // Seed the workload's initial state once per slice that hosts a peer and
  // layer every (peer, channel) state over it: reads fall through to the
  // shared genesis, writes stay per peer (DESIGN.md §17).
  if (!peers_.empty()) {
    const auto genesis = workload->SeedGenesis();
    for (auto& peer : peers_) peer->LayerStateOn(genesis);
  }

  // Clients, channel-major, round-robin across the client machine's shards.
  if (roles_.clients) {
    for (uint32_t c = 0; c < config_->num_channels; ++c) {
      for (uint32_t i = 0; i < config_->clients_per_channel; ++i) {
        const uint32_t index = c * config_->clients_per_channel + i;
        clients_.push_back(std::make_unique<node::ClientNode>(
            ctx, index, c, node::ClientNameFor(c, i),
            config_->seed * 0x9e3779b97f4a7c15ULL + index + 1,
            client_endpoints_[index % shards], client_cpus_[index % shards]));
        clients_by_name_[clients_.back()->name()] = clients_.back().get();
      }
    }
  }
}

void NodeSlice::RequestMissingBlocks() {
  for (auto& peer : peers_) {
    node::PeerNode* p = peer.get();
    for (uint32_t c = 0; c < config_->num_channels; ++c) {
      p->endpoint_for(c).Post([p, c]() {
        if (!p->crashed()) p->RequestMissingBlocks(c);
      });
    }
  }
}

void NodeSlice::RunMeasured(runtime::ThreadRuntime& runtime,
                            runtime::TimeMicros duration,
                            runtime::TimeMicros warmup,
                            const RunHooks& hooks) {
  if (ran_) {
    FABRICPP_LOG(Error) << "a thread-runtime composition (" << roles_.label
                        << ") runs its measurement once";
    std::abort();
  }
  ran_ = true;
  runtime.ResetEpoch();
  metrics_->SetWindow(warmup, duration);
  if (hooks.start) hooks.start();
  for (auto& client : clients_) {
    node::ClientNode* c = client.get();
    c->home().Post([c, duration]() { c->StartFiring(duration); });
  }
  runtime.SleepUntil(duration);
  const runtime::TimeMicros horizon = DrainHorizon(*config_);
  if (hooks.settle) hooks.settle(horizon);
  runtime.Quiesce(horizon);
  runtime.Shutdown();
  metrics_->SetMailboxShedTotal(runtime.mailbox_shed_total());
}

// --- node::NodeDirectory ----------------------------------------------------

size_t NodeSlice::num_peers() const {
  return static_cast<size_t>(config_->num_orgs) * config_->peers_per_org;
}

size_t NodeSlice::num_clients() const {
  return static_cast<size_t>(config_->num_channels) *
         config_->clients_per_channel;
}

node::PeerNode& NodeSlice::HostedPeer(uint32_t index) const {
  if (index < roles_.first_peer || index >= roles_.end_peer) {
    AbortNotHosted(StrFormat("peer %u", index));
  }
  return *peers_[index - roles_.first_peer];
}

node::OrdererNode& NodeSlice::orderer() {
  if (orderer_ == nullptr) AbortNotHosted("the orderer");
  return *orderer_;
}

node::ClientNode& NodeSlice::client(uint32_t index) {
  if (index >= clients_.size()) AbortNotHosted(StrFormat("client %u", index));
  return *clients_[index];
}

node::ClientNode* NodeSlice::FindClient(const std::string& name) {
  const auto it = clients_by_name_.find(name);
  return it == clients_by_name_.end() ? nullptr : it->second;
}

std::vector<uint32_t> NodeSlice::EndorsersFor(uint64_t proposal_id) {
  // One endorsing peer per org (paper §2.2.1), rotated by proposal id so
  // load spreads: org o contributes peer o * peers_per_org + id % that —
  // or, when that peer is unreachable, the next reachable one of the org
  // in rotation order (if none is, the rotation's pick).
  const uint32_t per_org = config_->peers_per_org;
  std::vector<uint32_t> endorsers;
  for (uint32_t o = 0; o < config_->num_orgs; ++o) {
    uint32_t pick = o * per_org + static_cast<uint32_t>(proposal_id % per_org);
    for (uint32_t k = 0; peer_reachable_ && k < per_org; ++k) {
      const uint32_t candidate =
          o * per_org + static_cast<uint32_t>((proposal_id + k) % per_org);
      if (peer_reachable_(candidate)) {
        pick = candidate;
        break;
      }
    }
    endorsers.push_back(pick);
  }
  return endorsers;
}

void NodeSlice::AbortNotHosted(const std::string& what) const {
  FABRICPP_LOG(Error) << what << " is not hosted by this slice ("
                      << roles_.label << ")";
  std::abort();
}

}  // namespace fabricpp::fabric
