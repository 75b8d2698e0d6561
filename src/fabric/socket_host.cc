#include "fabric/socket_host.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "node/wire.h"
#include "sim/time.h"

namespace fabricpp::fabric {

namespace {

bool RoundsEqual(const std::vector<proto::StateReportMsg>& a,
                 const std::vector<proto::StateReportMsg>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].peer_index != b[i].peer_index) return false;
    if (!(a[i].channels == b[i].channels)) return false;
  }
  return true;
}

}  // namespace

std::string SocketRole::ToString() const {
  switch (kind) {
    case Kind::kClients:
      return "clients";
    case Kind::kOrderer:
      return "orderer";
    case Kind::kPeer:
      return StrFormat("peer:%u", peer_index);
  }
  return "?";
}

Result<SocketRole> ParseSocketRole(const std::string& text) {
  SocketRole role;
  if (text == "clients") {
    role.kind = SocketRole::Kind::kClients;
    return role;
  }
  if (text == "orderer") {
    role.kind = SocketRole::Kind::kOrderer;
    return role;
  }
  constexpr std::string_view kPeerPrefix = "peer:";
  if (text.compare(0, kPeerPrefix.size(), kPeerPrefix) == 0 &&
      text.size() > kPeerPrefix.size()) {
    uint64_t index = 0;
    for (size_t i = kPeerPrefix.size(); i < text.size(); ++i) {
      if (text[i] < '0' || text[i] > '9') {
        return Status::InvalidArgument("bad peer index in role \"" + text +
                                       "\"");
      }
      index = index * 10 + static_cast<uint64_t>(text[i] - '0');
      if (index > UINT32_MAX) {
        return Status::InvalidArgument("peer index out of range in \"" +
                                       text + "\"");
      }
    }
    role.kind = SocketRole::Kind::kPeer;
    role.peer_index = static_cast<uint32_t>(index);
    return role;
  }
  return Status::InvalidArgument(
      "role must be \"clients\", \"orderer\" or \"peer:<index>\", got \"" +
      text + "\"");
}

SocketHost::SocketHost(FabricConfig config, const workload::Workload* workload,
                       SocketRole role)
    : config_(std::move(config)), workload_(workload), role_(role) {
  const Status valid = config_.Validate();
  if (!valid.ok()) {
    FABRICPP_LOG(Error) << "invalid FabricConfig: " << valid;
    std::abort();
  }
  if (config_.RuntimeModeOrDefault() != runtime::RuntimeMode::kSocket) {
    FABRICPP_LOG(Error) << "SocketHost requires runtime_mode=\"socket\"";
    std::abort();
  }
  if (role_.kind == SocketRole::Kind::kPeer &&
      role_.peer_index >= num_peers()) {
    FABRICPP_LOG(Error) << "peer index " << role_.peer_index
                        << " out of range (num peers " << num_peers() << ")";
    std::abort();
  }

  registry_ = chaincode::ChaincodeRegistry::WithBuiltins();

  peer::EndorsementPolicy policy;
  policy.id = "AND(all-orgs)";
  for (uint32_t o = 0; o < config_.num_orgs; ++o) {
    policy.required_orgs.push_back(std::string(1, static_cast<char>('A' + o)));
  }
  default_policy_id_ = policy.id;
  (void)policies_.Register(std::move(policy));

  // Every host runs its slice on a thread runtime of its own — same node
  // code, same mailbox semantics as runtime_mode="thread", just fewer
  // endpoints per process.
  runtime::ThreadRuntime::Options options;
  options.mailbox_capacity = config_.mailbox_capacity;
  runtime_ = std::make_unique<runtime::ThreadRuntime>(options);

  const node::NodeContext ctx{&config_,        &metrics_,  workload_,
                              registry_.get(), &policies_, runtime_.get(),
                              this,            this};

  switch (role_.kind) {
    case SocketRole::Kind::kPeer: {
      const uint32_t o = role_.peer_index / config_.peers_per_org;
      const uint32_t p = role_.peer_index % config_.peers_per_org;
      const std::string org(1, static_cast<char>('A' + o));
      peer_ = std::make_unique<node::PeerNode>(
          ctx, role_.peer_index, StrFormat("%s%u", org.c_str(), p + 1), org);
      // The full roster signs endorsements; prewarm so remote signatures
      // verify read-only (identities are deterministic in name + seed).
      peer_->PrewarmIdentities(PeerNames());
      peer_->LayerStateOn(workload_->SeedGenesis());
      break;
    }
    case SocketRole::Kind::kOrderer: {
      orderer_ = std::make_unique<node::OrdererNode>(ctx);
      orderer_->SetConsensus(&solo_consensus_);
      break;
    }
    case SocketRole::Kind::kClients: {
      const uint32_t shards = config_.thread_client_shards;
      for (uint32_t s = 0; s < shards; ++s) {
        runtime::Endpoint& home = runtime_->AddEndpoint(
            s == 0 ? "clients" : StrFormat("clients-%u", s));
        client_endpoints_.push_back(&home);
        client_cpus_.push_back(&runtime_->AddExecutor(
            home, s == 0 ? "client-cpu" : StrFormat("client-cpu-%u", s),
            config_.client_machine_cores));
      }
      for (uint32_t c = 0; c < config_.num_channels; ++c) {
        for (uint32_t i = 0; i < config_.clients_per_channel; ++i) {
          const uint32_t index = c * config_.clients_per_channel + i;
          clients_.push_back(std::make_unique<node::ClientNode>(
              ctx, index, c, node::ClientNameFor(c, i),
              config_.seed * 0x9e3779b97f4a7c15ULL + index + 1,
              client_endpoints_[index % shards],
              client_cpus_[index % shards]));
          clients_by_name_[clients_.back()->name()] = clients_.back().get();
        }
      }
      break;
    }
  }
}

SocketHost::~SocketHost() { Stop(); }

std::vector<std::string> SocketHost::PeerNames() const {
  std::vector<std::string> names;
  names.reserve(num_peers());
  for (uint32_t o = 0; o < config_.num_orgs; ++o) {
    const std::string org(1, static_cast<char>('A' + o));
    for (uint32_t p = 0; p < config_.peers_per_org; ++p) {
      names.push_back(StrFormat("%s%u", org.c_str(), p + 1));
    }
  }
  return names;
}

runtime::SocketPeerKey SocketHost::SelfKey() const {
  switch (role_.kind) {
    case SocketRole::Kind::kClients:
      return ClientsKey();
    case SocketRole::Kind::kOrderer:
      return OrdererKey();
    case SocketRole::Kind::kPeer:
      return PeerKey(role_.peer_index);
  }
  return ClientsKey();
}

Status SocketHost::Start() {
  runtime::SocketTransport::Options opts;
  opts.max_frame_bytes = config_.socket_max_frame_bytes;
  opts.connect_timeout_ms = config_.socket_connect_timeout_ms;
  const runtime::SocketPeerKey self = SelfKey();
  opts.self_role = self.role;
  opts.self_index = self.index;
  switch (role_.kind) {
    case SocketRole::Kind::kClients:
      // Dial-only: the load driver reaches out to everyone.
      opts.self_name = "load";
      break;
    case SocketRole::Kind::kPeer:
      opts.listen_address = !config_.listen_address.empty()
                                ? config_.listen_address
                                : config_.peer_addresses[role_.peer_index];
      opts.self_name = peer_->name();
      break;
    case SocketRole::Kind::kOrderer:
      opts.listen_address = !config_.listen_address.empty()
                                ? config_.listen_address
                                : config_.orderer_address;
      opts.self_name = "orderer";
      break;
  }
  transport_ = std::make_unique<runtime::SocketTransport>(
      std::move(opts),
      [this](const runtime::SocketPeerKey& from, proto::Frame frame) {
        HandleFrame(from, std::move(frame));
      });
  const Status started = transport_->Start();
  if (!started.ok()) return started;

  switch (role_.kind) {
    case SocketRole::Kind::kClients:
      for (uint32_t i = 0; i < num_peers(); ++i) {
        transport_->Dial(PeerKey(i), config_.peer_addresses[i]);
      }
      transport_->Dial(OrdererKey(), config_.orderer_address);
      break;
    case SocketRole::Kind::kPeer:
      transport_->Dial(OrdererKey(), config_.orderer_address);
      ArmAntiEntropy();
      break;
    case SocketRole::Kind::kOrderer:
      break;  // Everyone dials the orderer.
  }
  return Status::OK();
}

uint16_t SocketHost::listen_port() const {
  return transport_ == nullptr ? 0 : transport_->listen_port();
}

bool SocketHost::WaitForCluster(uint32_t timeout_ms) {
  std::vector<runtime::SocketPeerKey> want;
  switch (role_.kind) {
    case SocketRole::Kind::kClients:
      for (uint32_t i = 0; i < num_peers(); ++i) want.push_back(PeerKey(i));
      want.push_back(OrdererKey());
      break;
    case SocketRole::Kind::kPeer:
      want.push_back(OrdererKey());
      break;
    case SocketRole::Kind::kOrderer:
      return true;
  }
  return transport_->WaitConnected(want, timeout_ms);
}

void SocketHost::ArmAntiEntropy() {
  node::PeerNode* p = peer_.get();
  p->endpoint().clock().Schedule(config_.peer_fetch_retry_interval, [this]() {
    // Runs on the peer's endpoint context; dies with the runtime on stop.
    for (uint32_t c = 0; c < config_.num_channels; ++c) {
      peer_->RequestMissingBlocks(c);
    }
    ArmAntiEntropy();
  });
}

// --- NodeDirectory ---------------------------------------------------------

size_t SocketHost::num_peers() const {
  return static_cast<size_t>(config_.num_orgs) * config_.peers_per_org;
}

node::PeerNode& SocketHost::peer(uint32_t index) {
  if (peer_ != nullptr && index == role_.peer_index) return *peer_;
  FABRICPP_LOG(Error) << "peer " << index << " is not hosted by this process ("
                      << role_.ToString() << ")";
  std::abort();
}

node::OrdererNode& SocketHost::orderer() {
  if (orderer_ != nullptr) return *orderer_;
  FABRICPP_LOG(Error) << "the orderer is not hosted by this process ("
                      << role_.ToString() << ")";
  std::abort();
}

size_t SocketHost::num_clients() const {
  return static_cast<size_t>(config_.num_channels) *
         config_.clients_per_channel;
}

node::ClientNode& SocketHost::client(uint32_t index) {
  if (role_.kind == SocketRole::Kind::kClients && index < clients_.size()) {
    return *clients_[index];
  }
  FABRICPP_LOG(Error) << "client " << index
                      << " is not hosted by this process ("
                      << role_.ToString() << ")";
  std::abort();
}

node::ClientNode* SocketHost::FindClient(const std::string& name) {
  const auto it = clients_by_name_.find(name);
  return it == clients_by_name_.end() ? nullptr : it->second;
}

std::vector<uint32_t> SocketHost::EndorsersFor(uint64_t proposal_id) {
  return node::EndorserIndicesFor(config_.num_orgs, config_.peers_per_org,
                                  proposal_id);
}

// --- Mesh ------------------------------------------------------------------

void SocketHost::Ship(const runtime::SocketPeerKey& to,
                      proto::WireMessageType type, const Bytes& payload,
                      uint64_t modeled_bytes) {
  metrics_.NoteWireMessage(static_cast<uint8_t>(type),
                           proto::FramedSize(payload.size()), modeled_bytes);
  (void)transport_->Send(to, type, payload);
}

void SocketHost::SendProposal(runtime::Endpoint& from, uint32_t peer_index,
                              uint32_t channel,
                              const proto::Proposal& proposal,
                              uint32_t client_index, uint64_t size_bytes) {
  (void)from;
  const proto::ProposalMsg msg{channel, client_index, proposal};
  Ship(PeerKey(peer_index), proto::WireMessageType::kProposal, msg.Encode(),
       size_bytes);
}

void SocketHost::SendTransaction(runtime::Endpoint& from, uint32_t channel,
                                 proto::Transaction tx, uint64_t size_bytes) {
  (void)from;
  proto::TransactionMsg msg;
  msg.channel = channel;
  msg.tx = std::move(tx);
  Ship(OrdererKey(), proto::WireMessageType::kTransaction, msg.Encode(),
       size_bytes);
}

void SocketHost::SendEndorsementReply(
    runtime::Endpoint& from, uint32_t client_index, uint64_t proposal_id,
    Result<peer::EndorsementResponse> response, uint64_t size_bytes) {
  (void)from;
  proto::EndorsementReplyMsg msg;
  msg.client_index = client_index;
  msg.proposal_id = proposal_id;
  msg.ok = response.ok();
  if (response.ok()) {
    msg.rwset = std::move(response->rwset);
    msg.endorsement = std::move(response->endorsement);
  } else {
    msg.status_code = static_cast<uint8_t>(response.status().code());
    msg.status_message = response.status().message();
  }
  Ship(ClientsKey(), proto::WireMessageType::kEndorsementReply, msg.Encode(),
       size_bytes);
}

void SocketHost::SendBusy(runtime::Endpoint& from, uint32_t client_index,
                          const node::BusyResponse& busy) {
  (void)from;
  const proto::BusyMsg msg{client_index, busy.proposal_id,
                           busy.retry_after_us};
  Ship(ClientsKey(), proto::WireMessageType::kBusy, msg.Encode(),
       node::kMessageOverhead);
}

void SocketHost::SendBusyByName(runtime::Endpoint& from,
                                const std::string& client,
                                const node::BusyResponse& busy) {
  (void)from;
  uint32_t channel = 0;
  uint32_t index_in_channel = 0;
  if (!node::ParseClientName(client, &channel, &index_in_channel)) {
    return;  // External submitter — no client host route for it.
  }
  const uint32_t global = channel * config_.clients_per_channel +
                          index_in_channel;
  const proto::BusyMsg msg{global, busy.proposal_id, busy.retry_after_us};
  Ship(ClientsKey(), proto::WireMessageType::kBusy, msg.Encode(),
       node::kMessageOverhead);
}

bool SocketHost::RoutesToClient(const std::string& client) {
  uint32_t channel = 0;
  uint32_t index_in_channel = 0;
  if (!node::ParseClientName(client, &channel, &index_in_channel)) {
    return false;  // Externally injected — nobody hosts its state machine.
  }
  return transport_->Connected(ClientsKey());
}

void SocketHost::SendOutcome(runtime::Endpoint& from,
                             const std::string& client, uint64_t proposal_id,
                             proto::TxValidationCode code) {
  (void)from;
  proto::OutcomeMsg msg;
  msg.client = client;
  msg.proposal_id = proposal_id;
  msg.code = code;
  Ship(ClientsKey(), proto::WireMessageType::kOutcome, msg.Encode(),
       node::kMessageOverhead);
}

void SocketHost::SendBlock(runtime::Endpoint& from, uint32_t peer_index,
                           uint32_t channel,
                           std::shared_ptr<proto::Block> block,
                           uint64_t block_bytes) {
  (void)from;
  const proto::BlockMsg msg{channel, *block};
  Ship(PeerKey(peer_index), proto::WireMessageType::kBlock, msg.Encode(),
       block_bytes);
}

void SocketHost::GossipBlock(runtime::Endpoint& from, uint32_t channel,
                             std::shared_ptr<proto::Block> block,
                             uint64_t block_bytes) {
  (void)from;
  (void)channel;
  (void)block;
  (void)block_bytes;
  // Validate() rejects gossip_blocks under runtime_mode="socket" (peer ->
  // peer links do not exist in the dial topology).
  FABRICPP_LOG(Error) << "gossip dissemination is not available in socket "
                         "mode";
  std::abort();
}

void SocketHost::SendChainInfo(runtime::Endpoint& from, uint32_t peer_index,
                               uint32_t channel, uint64_t height) {
  (void)from;
  const proto::ChainInfoMsg msg{channel, height};
  Ship(PeerKey(peer_index), proto::WireMessageType::kChainInfo, msg.Encode(),
       node::kMessageOverhead);
}

void SocketHost::SendBlockRequest(runtime::Endpoint& from, uint32_t channel,
                                  uint32_t peer_index, uint64_t from_number) {
  (void)from;
  const proto::BlockRequestMsg msg{channel, peer_index, from_number};
  Ship(OrdererKey(), proto::WireMessageType::kBlockRequest, msg.Encode(),
       node::kMessageOverhead);
}

// --- Frame dispatch (event-loop thread) ------------------------------------

void SocketHost::HandleFrame(const runtime::SocketPeerKey& from,
                             proto::Frame frame) {
  switch (role_.kind) {
    case SocketRole::Kind::kClients:
      HandleClientsFrame(frame);
      return;
    case SocketRole::Kind::kPeer:
      HandlePeerFrame(from, frame);
      return;
    case SocketRole::Kind::kOrderer:
      HandleOrdererFrame(frame);
      return;
  }
}

void SocketHost::HandleClientsFrame(proto::Frame& frame) {
  ByteReader r(frame.payload);
  switch (static_cast<proto::WireMessageType>(frame.type)) {
    case proto::WireMessageType::kEndorsementReply: {
      Result<proto::EndorsementReplyMsg> msg =
          proto::EndorsementReplyMsg::Decode(&r);
      if (!msg.ok() || msg->client_index >= clients_.size()) break;
      if (run_done_.load()) return;
      node::ClientNode* c = clients_[msg->client_index].get();
      Result<peer::EndorsementResponse> response =
          msg->ok ? Result<peer::EndorsementResponse>(
                        peer::EndorsementResponse{std::move(msg->rwset),
                                                  std::move(msg->endorsement)})
                  : Result<peer::EndorsementResponse>(
                        Status(static_cast<StatusCode>(msg->status_code),
                               std::move(msg->status_message)));
      c->home().Post([c, proposal_id = msg->proposal_id,
                      response = std::move(response)]() mutable {
        c->HandleEndorsement(proposal_id, std::move(response));
      });
      return;
    }
    case proto::WireMessageType::kBusy: {
      Result<proto::BusyMsg> msg = proto::BusyMsg::Decode(&r);
      if (!msg.ok() || msg->client_index >= clients_.size()) break;
      if (run_done_.load()) return;
      node::ClientNode* c = clients_[msg->client_index].get();
      const node::BusyResponse busy{msg->proposal_id, msg->retry_after_us};
      c->home().Post([c, busy]() { c->HandleBusy(busy); });
      return;
    }
    case proto::WireMessageType::kOutcome: {
      Result<proto::OutcomeMsg> msg = proto::OutcomeMsg::Decode(&r);
      if (!msg.ok()) break;
      uint32_t channel = 0;
      uint32_t index_in_channel = 0;
      if (!node::ParseClientName(msg->client, &channel, &index_in_channel)) {
        break;
      }
      const uint64_t global =
          static_cast<uint64_t>(channel) * config_.clients_per_channel +
          index_in_channel;
      if (global >= clients_.size()) break;
      if (run_done_.load()) return;
      node::ClientNode* c = clients_[global].get();
      // The client host is the authority on proposal outcomes: resolve in
      // this host's (reported) Metrics, then drive the client's retry
      // machine. ResolveFired consumes the fired entry, so a racing
      // client-side timeout cannot double-count.
      c->home().Post([this, c, name = std::move(msg->client),
                      proposal_id = msg->proposal_id, code = msg->code]() {
        metrics_.ResolveFired(ProposalKey(name, proposal_id),
                              OutcomeFromValidationCode(code),
                              c->home().clock().Now());
        c->HandleOutcome(proposal_id,
                         code == proto::TxValidationCode::kValid);
      });
      return;
    }
    case proto::WireMessageType::kStateReport: {
      Result<proto::StateReportMsg> msg = proto::StateReportMsg::Decode(&r);
      if (!msg.ok()) break;
      {
        const std::pair<uint64_t, uint32_t> key{msg->token, msg->peer_index};
        std::lock_guard<std::mutex> lock(mu_);
        reports_[key] = std::move(*msg);
      }
      cv_.notify_all();
      return;
    }
    case proto::WireMessageType::kShutdown: {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_received_ = true;
      cv_.notify_all();
      return;
    }
    default:
      break;
  }
  transport_->NoteMessageDropped();
}

void SocketHost::HandlePeerFrame(const runtime::SocketPeerKey& from,
                                 proto::Frame& frame) {
  (void)from;
  node::PeerNode* p = peer_.get();
  ByteReader r(frame.payload);
  switch (static_cast<proto::WireMessageType>(frame.type)) {
    case proto::WireMessageType::kProposal: {
      Result<proto::ProposalMsg> msg = proto::ProposalMsg::Decode(&r);
      if (!msg.ok() || msg->channel >= config_.num_channels ||
          msg->client_index >= num_clients()) {
        break;
      }
      p->endpoint().Post([p, channel = msg->channel,
                          proposal = std::move(msg->proposal),
                          client_index = msg->client_index]() mutable {
        p->HandleProposal(channel, std::move(proposal), client_index);
      });
      return;
    }
    case proto::WireMessageType::kBlock: {
      Result<proto::BlockMsg> msg = proto::BlockMsg::Decode(&r);
      if (!msg.ok() || msg->channel >= config_.num_channels) break;
      auto block = std::make_shared<proto::Block>(std::move(msg->block));
      p->endpoint().Post([p, channel = msg->channel, block]() {
        p->HandleBlock(channel, block);
      });
      return;
    }
    case proto::WireMessageType::kChainInfo: {
      Result<proto::ChainInfoMsg> msg = proto::ChainInfoMsg::Decode(&r);
      if (!msg.ok() || msg->channel >= config_.num_channels) break;
      p->endpoint().Post([p, channel = msg->channel, height = msg->height]() {
        p->HandleChainInfo(channel, height);
      });
      return;
    }
    case proto::WireMessageType::kStateRequest: {
      Result<proto::StateRequestMsg> msg = proto::StateRequestMsg::Decode(&r);
      if (!msg.ok()) break;
      // Build the report on the peer's own context — ledger and state are
      // single-writer there, so the snapshot is consistent.
      p->endpoint().Post([this, p, token = msg->token]() {
        proto::StateReportMsg report;
        report.peer_index = role_.peer_index;
        report.token = token;
        for (uint32_t c = 0; c < config_.num_channels; ++c) {
          proto::ChannelStateInfo info;
          info.height = p->ledger(c).Height();
          info.tip_hash = p->ledger(c).LastHash();
          info.state_fingerprint = p->state_db(c).Fingerprint();
          info.num_keys = p->state_db(c).NumKeys();
          report.channels.push_back(std::move(info));
        }
        Ship(ClientsKey(), proto::WireMessageType::kStateReport,
             report.Encode(), node::kMessageOverhead);
      });
      return;
    }
    case proto::WireMessageType::kShutdown: {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_received_ = true;
      cv_.notify_all();
      return;
    }
    default:
      break;
  }
  transport_->NoteMessageDropped();
}

void SocketHost::HandleOrdererFrame(proto::Frame& frame) {
  node::OrdererNode* o = orderer_.get();
  ByteReader r(frame.payload);
  switch (static_cast<proto::WireMessageType>(frame.type)) {
    case proto::WireMessageType::kTransaction: {
      Result<proto::TransactionMsg> msg = proto::TransactionMsg::Decode(&r);
      if (!msg.ok() || msg->channel >= config_.num_channels) break;
      o->endpoint().Post(
          [o, channel = msg->channel, tx = std::move(msg->tx)]() mutable {
            o->HandleTransaction(channel, std::move(tx));
          });
      return;
    }
    case proto::WireMessageType::kBlockRequest: {
      Result<proto::BlockRequestMsg> msg = proto::BlockRequestMsg::Decode(&r);
      if (!msg.ok() || msg->channel >= config_.num_channels ||
          msg->peer_index >= num_peers()) {
        break;
      }
      o->endpoint().Post([o, channel = msg->channel,
                          peer_index = msg->peer_index,
                          from_number = msg->from_number]() {
        o->HandleBlockRequest(channel, peer_index, from_number);
      });
      return;
    }
    case proto::WireMessageType::kShutdown: {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_received_ = true;
      cv_.notify_all();
      return;
    }
    default:
      break;
  }
  transport_->NoteMessageDropped();
}

// --- Experiment driving (client host) --------------------------------------

RunReport SocketHost::RunClients(runtime::TimeMicros duration,
                                 runtime::TimeMicros warmup) {
  if (role_.kind != SocketRole::Kind::kClients) {
    FABRICPP_LOG(Error) << "RunClients is client-host only";
    std::abort();
  }
  if (ran_) {
    FABRICPP_LOG(Error) << "RunClients can only be called once per host";
    std::abort();
  }
  ran_ = true;

  // Same measured-run protocol as thread-mode FabricNetwork::RunFor.
  runtime_->ResetEpoch();
  metrics_.SetWindow(warmup, duration);
  for (auto& client : clients_) {
    node::ClientNode* c = client.get();
    c->home().Post([c, duration]() { c->StartFiring(duration); });
  }
  runtime_->SleepUntil(duration);

  // Drain: first the local mailboxes, then a settle window for the remote
  // pipeline (blocks cut near the deadline still have to be validated and
  // their outcome frames shipped back), then the mailboxes again.
  const runtime::TimeMicros horizon =
      std::max<runtime::TimeMicros>(config_.block.batch_timeout,
                                    config_.peer_fetch_retry_interval) +
      250 * sim::kMillisecond;
  runtime_->Quiesce(horizon);
  std::this_thread::sleep_for(std::chrono::microseconds(horizon));
  runtime_->Quiesce(horizon);

  run_done_.store(true);
  runtime_->Shutdown();
  metrics_.SetMailboxShedTotal(runtime_->mailbox_shed_total());
  const runtime::SocketTransport::Counters c = transport_->counters();
  metrics_.SetSocketTransportTotals(c.frames_sent, c.bytes_sent,
                                    c.frames_received, c.bytes_received,
                                    c.writev_calls, c.reconnects,
                                    c.messages_dropped, c.decode_errors);
  return metrics_.Report();
}

std::vector<proto::StateReportMsg> SocketHost::CollectPeerReports(
    uint32_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::vector<proto::StateReportMsg> last;
  while (std::chrono::steady_clock::now() < deadline) {
    uint64_t token = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      token = next_state_token_++;
    }
    const proto::StateRequestMsg request{token};
    for (uint32_t i = 0; i < num_peers(); ++i) {
      Ship(PeerKey(i), proto::WireMessageType::kStateRequest,
           request.Encode(), node::kMessageOverhead);
    }

    std::vector<proto::StateReportMsg> round;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto round_deadline = std::min(
          deadline, std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(2000));
      const bool complete = cv_.wait_until(lock, round_deadline, [&]() {
        size_t got = 0;
        for (uint32_t i = 0; i < num_peers(); ++i) {
          got += reports_.count({token, i});
        }
        return got == num_peers();
      });
      if (!complete) continue;  // A peer lagged; poll again.
      for (uint32_t i = 0; i < num_peers(); ++i) {
        const auto it = reports_.find({token, i});
        round.push_back(it->second);
        reports_.erase(it);
      }
    }
    // Two consecutive identical rounds mean the cluster went quiescent —
    // heights and fingerprints can no longer be mid-commit snapshots.
    if (!last.empty() && RoundsEqual(last, round)) return round;
    last = std::move(round);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return last;
}

void SocketHost::BroadcastShutdown() {
  const proto::ShutdownMsg msg;
  for (uint32_t i = 0; i < num_peers(); ++i) {
    Ship(PeerKey(i), proto::WireMessageType::kShutdown, msg.Encode(),
         node::kMessageOverhead);
  }
  Ship(OrdererKey(), proto::WireMessageType::kShutdown, msg.Encode(),
       node::kMessageOverhead);
  (void)transport_->Drain(2000);
}

bool SocketHost::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this]() { return shutdown_received_ || stopped_; });
  return shutdown_received_;
}

void SocketHost::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  cv_.notify_all();
  if (transport_ != nullptr) {
    // Flush what is queued (e.g. the last outcome frames a peer produced
    // before its shutdown), then tear the loop down before the runtime so
    // no frame dispatch posts into dying mailboxes.
    (void)transport_->Drain(1000);
    transport_->Stop();
  }
  runtime_->Shutdown();
}

namespace {

void CheckStarted(const Status& status, const char* what) {
  if (!status.ok()) {
    FABRICPP_LOG(Error) << what << ": " << status.ToString();
    std::abort();
  }
}

}  // namespace

LocalSocketCluster::LocalSocketCluster(FabricConfig base,
                                       const workload::Workload* workload) {
  const size_t num_peers =
      static_cast<size_t>(base.num_orgs) * base.peers_per_org;
  base.runtime_mode = "socket";
  base.peer_addresses.assign(num_peers, "127.0.0.1:0");
  base.orderer_address = "127.0.0.1:0";

  FabricConfig orderer_config = base;
  orderer_config.listen_address = "127.0.0.1:0";
  SocketRole orderer_role;
  orderer_role.kind = SocketRole::Kind::kOrderer;
  orderer_ =
      std::make_unique<SocketHost>(orderer_config, workload, orderer_role);
  CheckStarted(orderer_->Start(), "orderer host start");
  base.orderer_address =
      "127.0.0.1:" + std::to_string(orderer_->listen_port());

  for (size_t i = 0; i < num_peers; ++i) {
    FabricConfig peer_config = base;
    peer_config.listen_address = "127.0.0.1:0";
    SocketRole role;
    role.kind = SocketRole::Kind::kPeer;
    role.peer_index = static_cast<uint32_t>(i);
    peers_.push_back(std::make_unique<SocketHost>(peer_config, workload, role));
    CheckStarted(peers_.back()->Start(), "peer host start");
    base.peer_addresses[i] =
        "127.0.0.1:" + std::to_string(peers_.back()->listen_port());
  }

  SocketRole clients_role;
  clients_role.kind = SocketRole::Kind::kClients;
  clients_ = std::make_unique<SocketHost>(base, workload, clients_role);
  CheckStarted(clients_->Start(), "client host start");
}

LocalSocketCluster::~LocalSocketCluster() {
  clients_->BroadcastShutdown();
  clients_->Stop();
  for (auto& peer : peers_) peer->Stop();
  orderer_->Stop();
}

}  // namespace fabricpp::fabric
