#include "fabric/socket_host.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "node/wire.h"

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

namespace {

FabricConfig SocketConfigOrDie(FabricConfig config) {
  config = ValidatedOrDie(std::move(config));
  if (config.RuntimeModeOrDefault() != runtime::RuntimeMode::kSocket) {
    FABRICPP_LOG(Error) << "SocketHost requires runtime_mode=\"socket\"";
    std::abort();
  }
  return config;
}

// Every host runs its slice on a thread runtime of its own — same node
// code, same mailbox semantics as runtime_mode="thread", just fewer
// endpoints per process.
std::unique_ptr<runtime::ThreadRuntime> MakeRuntime(
    const FabricConfig& config) {
  runtime::ThreadRuntime::Options options;
  options.mailbox_capacity = config.mailbox_capacity;
  return std::make_unique<runtime::ThreadRuntime>(options);
}

SliceRoles SliceRolesFor(const SocketRole& role) {
  const bool peer = role.kind == SocketRole::Kind::kPeer;
  return {role.ToString(), peer ? role.peer_index : 0,
          peer ? role.peer_index + 1 : 0,
          role.kind == SocketRole::Kind::kOrderer,
          role.kind == SocketRole::Kind::kClients};
}

}  // namespace

SocketHost::SocketHost(FabricConfig config, const workload::Workload* workload,
                       SocketRole role)
    : config_(SocketConfigOrDie(std::move(config))),
      role_(role),
      runtime_(MakeRuntime(config_)),
      slice_(&config_, workload, runtime_.get(), this, &metrics_,
             SliceRolesFor(role_)) {}

SocketHost::~SocketHost() { Stop(); }

Status SocketHost::Start() {
  runtime::SocketTransport::Options opts;
  opts.max_frame_bytes = config_.socket_max_frame_bytes;
  opts.connect_timeout_ms = config_.socket_connect_timeout_ms;
  switch (role_.kind) {
    case SocketRole::Kind::kClients:
      // Dial-only: the load driver reaches out to everyone.
      opts.self_role = proto::NodeRole::kClientHost;
      opts.self_name = "load";
      break;
    case SocketRole::Kind::kPeer:
      opts.self_role = proto::NodeRole::kPeer;
      opts.self_index = role_.peer_index;
      opts.listen_address = config_.peer_addresses[role_.peer_index];
      opts.self_name = PeerNameFor(config_, role_.peer_index);
      break;
    case SocketRole::Kind::kOrderer:
      opts.self_role = proto::NodeRole::kOrderer;
      opts.listen_address = config_.orderer_address;
      opts.self_name = "orderer";
      break;
  }
  // listen_address overrides where a listening role binds.
  if (!opts.listen_address.empty() && !config_.listen_address.empty()) {
    opts.listen_address = config_.listen_address;
  }
  transport_ = std::make_unique<runtime::SocketTransport>(
      std::move(opts),
      [this](const runtime::SocketPeerKey& /*from*/, proto::Frame frame) {
        HandleFrame(std::move(frame));
      });
  const Status started = transport_->Start();
  if (!started.ok()) return started;
  for (const auto& [key, address] : Dials()) transport_->Dial(key, address);
  if (role_.kind == SocketRole::Kind::kPeer) ArmAntiEntropy();
  return Status::OK();
}

std::vector<std::pair<runtime::SocketPeerKey, std::string>>
SocketHost::Dials() const {
  std::vector<std::pair<runtime::SocketPeerKey, std::string>> dials;
  if (role_.kind == SocketRole::Kind::kClients) {
    for (uint32_t i = 0; i < slice_.num_peers(); ++i) {
      dials.emplace_back(PeerKey(i), config_.peer_addresses[i]);
    }
  }
  if (role_.kind != SocketRole::Kind::kOrderer) {
    dials.emplace_back(OrdererKey(), config_.orderer_address);
  }
  return dials;
}

uint16_t SocketHost::listen_port() const {
  return transport_ == nullptr ? 0 : transport_->listen_port();
}

bool SocketHost::WaitForCluster(uint32_t timeout_ms) {
  std::vector<runtime::SocketPeerKey> want;
  for (const auto& dial : Dials()) want.push_back(dial.first);
  return want.empty() || transport_->WaitConnected(want, timeout_ms);
}

void SocketHost::ArmAntiEntropy() {
  local_peer()->endpoint().clock().Schedule(
      config_.peer_fetch_retry_interval, [this]() {
        // Dies with the runtime on stop.
        slice_.RequestMissingBlocks();
        ArmAntiEntropy();
      });
}

void SocketHost::ReportState(proto::StateReportMsg report) {
  const uint32_t c = static_cast<uint32_t>(report.channels.size());
  if (c == config_.num_channels) {
    Ship(ClientsKey(), proto::WireMessageType::kStateReport, report.Encode(),
         node::kMessageOverhead);
    return;
  }
  // A channel's ledger and state are single-writer on its lane: read there.
  node::PeerNode* p = local_peer();
  p->endpoint_for(c).Post([this, p, c, report = std::move(report)]() mutable {
    report.channels.push_back({p->ledger(c).Height(), p->ledger(c).LastHash(),
                               p->state_db(c).Fingerprint(),
                               p->state_db(c).NumKeys()});
    ReportState(std::move(report));
  });
}

// --- Mesh ------------------------------------------------------------------

void SocketHost::Ship(const runtime::SocketPeerKey& to,
                      proto::WireMessageType type, const Bytes& payload,
                      uint64_t modeled_bytes) {
  metrics_.NoteWireMessage(proto::FramedSize(payload.size()), modeled_bytes);
  (void)transport_->Send(to, type, payload);
}

void SocketHost::SendProposal(runtime::Endpoint& /*from*/, uint32_t peer_index,
                              uint32_t channel,
                              const proto::Proposal& proposal,
                              uint32_t client_index, uint64_t size_bytes) {
  const proto::ProposalMsg msg{channel, client_index, proposal};
  Ship(PeerKey(peer_index), proto::WireMessageType::kProposal, msg.Encode(),
       size_bytes);
}

void SocketHost::SendTransaction(runtime::Endpoint& /*from*/, uint32_t channel,
                                 proto::Transaction tx, uint64_t size_bytes) {
  const proto::TransactionMsg msg{channel, std::move(tx)};
  Ship(OrdererKey(), proto::WireMessageType::kTransaction, msg.Encode(),
       size_bytes);
}

void SocketHost::SendEndorsementReply(
    runtime::Endpoint& /*from*/, uint32_t client_index, uint64_t proposal_id,
    Result<peer::EndorsementResponse> response, uint64_t size_bytes) {
  const proto::EndorsementReplyMsg msg = node::EndorsementReplyToWire(
      client_index, proposal_id, std::move(response));
  Ship(ClientsKey(), proto::WireMessageType::kEndorsementReply, msg.Encode(),
       size_bytes);
}

void SocketHost::SendBusy(runtime::Endpoint& /*from*/, uint32_t client_index,
                          const node::BusyResponse& busy) {
  const proto::BusyMsg msg{client_index, busy.proposal_id,
                           busy.retry_after_us};
  Ship(ClientsKey(), proto::WireMessageType::kBusy, msg.Encode(),
       node::kMessageOverhead);
}

void SocketHost::SendBusyByName(runtime::Endpoint& /*from*/,
                                const std::string& client,
                                const node::BusyResponse& busy) {
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

void SocketHost::SendOutcome(runtime::Endpoint& /*from*/,
                             const std::string& client, uint64_t proposal_id,
                             proto::TxValidationCode code) {
  const proto::OutcomeMsg msg{client, proposal_id, code};
  Ship(ClientsKey(), proto::WireMessageType::kOutcome, msg.Encode(),
       node::kMessageOverhead);
}

void SocketHost::SendBlock(runtime::Endpoint& /*from*/, uint32_t peer_index,
                           uint32_t channel,
                           std::shared_ptr<proto::Block> block,
                           uint64_t block_bytes) {
  const proto::BlockMsg msg{channel, *block};
  Ship(PeerKey(peer_index), proto::WireMessageType::kBlock, msg.Encode(),
       block_bytes);
}

void SocketHost::BroadcastBlock(runtime::Endpoint& /*from*/,
                                uint32_t channel,
                                std::shared_ptr<proto::Block> block,
                                uint64_t block_bytes) {
  // Direct to every peer; the frame is encoded once for all of them.
  const Bytes payload = proto::BlockMsg{channel, *block}.Encode();
  for (uint32_t p = 0; p < slice_.num_peers(); ++p) {
    Ship(PeerKey(p), proto::WireMessageType::kBlock, payload, block_bytes);
  }
}

void SocketHost::SendChainInfo(runtime::Endpoint& /*from*/, uint32_t peer_index,
                               uint32_t channel, uint64_t height) {
  const proto::ChainInfoMsg msg{channel, height};
  Ship(PeerKey(peer_index), proto::WireMessageType::kChainInfo, msg.Encode(),
       node::kMessageOverhead);
}

void SocketHost::SendBlockRequest(runtime::Endpoint& /*from*/, uint32_t channel,
                                  uint32_t peer_index, uint64_t from_number) {
  const proto::BlockRequestMsg msg{channel, peer_index, from_number};
  Ship(OrdererKey(), proto::WireMessageType::kBlockRequest, msg.Encode(),
       node::kMessageOverhead);
}

// --- Frame dispatch (event-loop thread) ------------------------------------

void SocketHost::HandleFrame(proto::Frame frame) {
  if (static_cast<proto::WireMessageType>(frame.type) ==
      proto::WireMessageType::kShutdown) {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_received_ = true;
    cv_.notify_all();
    return;
  }
  switch (role_.kind) {
    case SocketRole::Kind::kClients:
      HandleClientsFrame(frame);
      return;
    case SocketRole::Kind::kPeer:
      HandlePeerFrame(frame);
      return;
    case SocketRole::Kind::kOrderer:
      HandleOrdererFrame(frame);
      return;
  }
}

// Frames for clients that arrive after the measured run are posted into the
// shut-down runtime, which drops them.
void SocketHost::HandleClientsFrame(proto::Frame& frame) {
  const auto& clients = slice_.clients();
  ByteReader r(frame.payload);
  switch (static_cast<proto::WireMessageType>(frame.type)) {
    case proto::WireMessageType::kEndorsementReply: {
      Result<proto::EndorsementReplyMsg> msg =
          proto::EndorsementReplyMsg::Decode(&r);
      if (!msg.ok() || msg->client_index >= clients.size()) break;
      node::ClientNode* c = clients[msg->client_index].get();
      Result<peer::EndorsementResponse> response =
          node::EndorsementReplyFromWire(std::move(*msg));
      c->home().Post([c, proposal_id = msg->proposal_id,
                      response = std::move(response)]() mutable {
        c->HandleEndorsement(proposal_id, std::move(response));
      });
      return;
    }
    case proto::WireMessageType::kBusy: {
      Result<proto::BusyMsg> msg = proto::BusyMsg::Decode(&r);
      if (!msg.ok() || msg->client_index >= clients.size()) break;
      node::ClientNode* c = clients[msg->client_index].get();
      const node::BusyResponse busy{msg->proposal_id, msg->retry_after_us};
      c->home().Post([c, busy]() { c->HandleBusy(busy); });
      return;
    }
    case proto::WireMessageType::kOutcome: {
      Result<proto::OutcomeMsg> msg = proto::OutcomeMsg::Decode(&r);
      if (!msg.ok()) break;
      node::ClientNode* c = slice_.FindClient(msg->client);
      if (c == nullptr) break;
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
    default:
      break;
  }
  transport_->NoteMessageDropped();
}

void SocketHost::HandlePeerFrame(proto::Frame& frame) {
  node::PeerNode* p = local_peer();
  ByteReader r(frame.payload);
  switch (static_cast<proto::WireMessageType>(frame.type)) {
    case proto::WireMessageType::kProposal: {
      Result<proto::ProposalMsg> msg = proto::ProposalMsg::Decode(&r);
      if (!msg.ok() || msg->channel >= config_.num_channels ||
          msg->client_index >= slice_.num_clients()) {
        break;
      }
      p->endpoint_for(msg->channel)
          .Post([p, channel = msg->channel,
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
      p->endpoint_for(msg->channel).Post([p, channel = msg->channel, block]() {
        p->HandleBlock(channel, block);
      });
      return;
    }
    case proto::WireMessageType::kChainInfo: {
      Result<proto::ChainInfoMsg> msg = proto::ChainInfoMsg::Decode(&r);
      if (!msg.ok() || msg->channel >= config_.num_channels) break;
      p->endpoint_for(msg->channel)
          .Post([p, channel = msg->channel, height = msg->height]() {
            p->HandleChainInfo(channel, height);
          });
      return;
    }
    case proto::WireMessageType::kStateRequest: {
      Result<proto::StateRequestMsg> msg = proto::StateRequestMsg::Decode(&r);
      if (!msg.ok()) break;
      ReportState({role_.peer_index, msg->token, {}});
      return;
    }
    default:
      break;
  }
  transport_->NoteMessageDropped();
}

void SocketHost::HandleOrdererFrame(proto::Frame& frame) {
  node::OrdererNode* o = &slice_.orderer();
  ByteReader r(frame.payload);
  switch (static_cast<proto::WireMessageType>(frame.type)) {
    case proto::WireMessageType::kTransaction: {
      Result<proto::TransactionMsg> msg = proto::TransactionMsg::Decode(&r);
      if (!msg.ok() || msg->channel >= config_.num_channels) break;
      o->endpoint_for(msg->channel)
          .Post([o, channel = msg->channel, tx = std::move(msg->tx)]() mutable {
            o->HandleTransaction(channel, std::move(tx));
          });
      return;
    }
    case proto::WireMessageType::kBlockRequest: {
      Result<proto::BlockRequestMsg> msg = proto::BlockRequestMsg::Decode(&r);
      if (!msg.ok() || msg->channel >= config_.num_channels ||
          msg->peer_index >= slice_.num_peers()) {
        break;
      }
      o->endpoint_for(msg->channel)
          .Post([o, channel = msg->channel, peer_index = msg->peer_index,
                 from_number = msg->from_number]() {
            o->HandleBlockRequest(channel, peer_index, from_number);
          });
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
  NodeSlice::RunHooks hooks;
  // Drain the local mailboxes, then give the remote pipeline a settle
  // window (blocks cut near the deadline still have to be validated and
  // their outcome frames shipped back) before the final drain.
  hooks.settle = [this](runtime::TimeMicros horizon) {
    runtime_->Quiesce(horizon);
    std::this_thread::sleep_for(std::chrono::microseconds(horizon));
  };
  slice_.RunMeasured(*runtime_, duration, warmup, hooks);
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
    for (uint32_t i = 0; i < slice_.num_peers(); ++i) {
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
        for (uint32_t i = 0; i < slice_.num_peers(); ++i) {
          got += reports_.count({token, i});
        }
        return got == slice_.num_peers();
      });
      if (!complete) continue;  // A peer lagged; poll again.
      for (uint32_t i = 0; i < slice_.num_peers(); ++i) {
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
  for (uint32_t i = 0; i < slice_.num_peers(); ++i) {
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

LocalSocketCluster::LocalSocketCluster(FabricConfig base,
                                       const workload::Workload* workload) {
  base.runtime_mode = "socket";
  base.peer_addresses.assign(
      static_cast<size_t>(base.num_orgs) * base.peers_per_org, "127.0.0.1:0");
  base.orderer_address = "127.0.0.1:0";
  // Every listener binds an ephemeral port; each host started later dials
  // the ports the earlier ones bound.
  base.listen_address = "127.0.0.1:0";
  const auto start = [&](SocketRole role) {
    auto host = std::make_unique<SocketHost>(base, workload, role);
    const Status started = host->Start();
    if (!started.ok()) {
      FABRICPP_LOG(Error) << role.ToString() << " host start: " << started;
      std::abort();
    }
    return host;
  };
  orderer_ = start({SocketRole::Kind::kOrderer});
  base.orderer_address = StrFormat("127.0.0.1:%u", orderer_->listen_port());
  for (uint32_t i = 0; i < base.peer_addresses.size(); ++i) {
    peers_.push_back(start({SocketRole::Kind::kPeer, i}));
    base.peer_addresses[i] =
        StrFormat("127.0.0.1:%u", peers_.back()->listen_port());
  }
  clients_ = start({SocketRole::Kind::kClients});
}

LocalSocketCluster::~LocalSocketCluster() {
  clients_->BroadcastShutdown();
  clients_->Stop();
  for (auto& peer : peers_) peer->Stop();
  orderer_->Stop();
}

}  // namespace fabricpp::fabric
