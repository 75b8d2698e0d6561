#include "fabric/socket_host.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>
#include <utility>
#include <variant>

#include "common/logging.h"
#include "common/strings.h"
#include "node/deliver.h"
#include "node/wire.h"

namespace fabricpp::fabric {

namespace {

/// `frame`'s payload as a `Message`, or nullopt when the frame carries
/// another type or its payload fails to decode.
template <typename Message>
std::optional<Message> DecodeFrame(const proto::Frame& frame) {
  if (frame.type != static_cast<uint8_t>(Message::kType)) return std::nullopt;
  ByteReader r(frame.payload);
  Result<Message> msg = Message::Decode(&r);
  if (!msg.ok()) return std::nullopt;
  return std::move(*msg);
}

/// `frame` decoded as the alternative of `Variant` its type names, or
/// nullopt when no alternative matches or the payload fails to decode.
template <typename Variant, size_t I = 0>
std::optional<Variant> DecodeOneOf(const proto::Frame& frame) {
  if constexpr (I == std::variant_size_v<Variant>) {
    return std::nullopt;
  } else {
    using Message = std::variant_alternative_t<I, Variant>;
    if (frame.type != static_cast<uint8_t>(Message::kType)) {
      return DecodeOneOf<Variant, I + 1>(frame);
    }
    std::optional<Message> msg = DecodeFrame<Message>(frame);
    if (!msg.has_value()) return std::nullopt;
    return Variant(std::move(*msg));
  }
}

/// Posts a routed delivery. False when the message had no route.
bool Post(node::Delivery delivery) {
  if (delivery.to == nullptr) return false;
  delivery.to->Post(std::move(delivery.task));
  return true;
}

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
  if (role_.kind == SocketRole::Kind::kClients) {
    // Frames toward a down peer would queue and reach its restarted process
    // late, to be endorsed against newer state than the other orgs' replies.
    slice_.set_peer_reachable([this](uint32_t peer_index) {
      return transport_->Connected(PeerKey(peer_index));
    });
  }
  for (const auto& [key, address] : Dials()) transport_->Dial(key, address);
  if (role_.kind == SocketRole::Kind::kPeer) {
    // The daemon starts with empty memory while the orderer may hold a long
    // chain (a restart after a crash): catch up before endorsing. The
    // requests queue until the orderer route is up.
    node::PeerNode* p = local_peer();
    for (uint32_t c = 0; c < config_.num_channels; ++c) {
      p->endpoint_for(c).Post([p, c]() { p->StartCatchUp(c); });
    }
    ArmAntiEntropy();
  }
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
    Ship(ClientsKey(), report, node::kMessageOverhead);
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

template <typename Message>
void SocketHost::Ship(const runtime::SocketPeerKey& to, const Message& msg,
                      uint64_t modeled_bytes) {
  Ship(to, Message::kType, msg.Encode(), modeled_bytes);
}

void SocketHost::Ship(const runtime::SocketPeerKey& to,
                      proto::WireMessageType type, const Bytes& payload,
                      uint64_t modeled_bytes) {
  metrics_.NoteWireMessage(proto::FramedSize(payload.size()), modeled_bytes);
  (void)transport_->Send(to, type, payload);
}

void SocketHost::SendToPeer(runtime::Endpoint& /*from*/, uint32_t peer_index,
                            node::PeerMessage msg, uint64_t size_bytes) {
  std::visit([&](const auto& m) { Ship(PeerKey(peer_index), m, size_bytes); },
             msg);
}

void SocketHost::SendToOrderer(runtime::Endpoint& /*from*/,
                               node::OrdererMessage msg, uint64_t size_bytes) {
  std::visit([&](const auto& m) { Ship(OrdererKey(), m, size_bytes); }, msg);
}

void SocketHost::SendToClient(runtime::Endpoint& /*from*/,
                              node::ClientMessage msg, uint64_t size_bytes) {
  std::visit([&](const auto& m) { Ship(ClientsKey(), m, size_bytes); }, msg);
}

bool SocketHost::RoutesToClient(const std::string& client) {
  // An externally injected transaction's submitter has no state machine.
  return node::ClientIndexOf(client, config_).has_value() &&
         transport_->Connected(ClientsKey());
}

void SocketHost::SendBlock(runtime::Endpoint& /*from*/, uint32_t peer_index,
                           uint32_t channel,
                           std::shared_ptr<proto::Block> block,
                           uint64_t block_bytes) {
  Ship(PeerKey(peer_index), proto::BlockMsg{channel, *block}, block_bytes);
}

void SocketHost::BroadcastBlock(runtime::Endpoint& /*from*/,
                                uint32_t channel,
                                std::shared_ptr<proto::Block> block,
                                uint64_t block_bytes) {
  // Direct to every peer; the frame is encoded once for all of them.
  const Bytes payload = proto::BlockMsg{channel, *block}.Encode();
  for (uint32_t p = 0; p < slice_.num_peers(); ++p) {
    Ship(PeerKey(p), proto::BlockMsg::kType, payload, block_bytes);
  }
}

// --- Frame dispatch (event-loop thread) ------------------------------------

void SocketHost::HandleFrame(proto::Frame frame) {
  if (frame.type == static_cast<uint8_t>(proto::WireMessageType::kShutdown)) {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_received_ = true;
    cv_.notify_all();
    return;
  }
  bool handled = false;
  switch (role_.kind) {
    case SocketRole::Kind::kClients:
      if (auto report = DecodeFrame<proto::StateReportMsg>(frame)) {
        {
          const std::pair<uint64_t, uint32_t> key{report->token,
                                                  report->peer_index};
          std::lock_guard<std::mutex> lock(mu_);
          reports_[key] = std::move(*report);
        }
        cv_.notify_all();
        handled = true;
      } else if (auto msg = DecodeOneOf<node::ClientMessage>(frame)) {
        handled = DeliverToClient(std::move(*msg));
      }
      break;
    case SocketRole::Kind::kPeer:
      if (auto request = DecodeFrame<proto::StateRequestMsg>(frame)) {
        ReportState({role_.peer_index, request->token, {}});
        handled = true;
      } else if (auto msg = DecodeOneOf<node::PeerMessage>(frame)) {
        handled = Post(
            node::RouteToPeer(slice_, role_.peer_index, std::move(*msg)));
      }
      break;
    case SocketRole::Kind::kOrderer:
      if (auto msg = DecodeOneOf<node::OrdererMessage>(frame)) {
        handled = Post(node::RouteToOrderer(slice_, std::move(*msg)));
      }
      break;
  }
  if (!handled) transport_->NoteMessageDropped();
}

// Frames for clients that arrive after the measured run are posted into the
// shut-down runtime, which drops them.
bool SocketHost::DeliverToClient(node::ClientMessage msg) {
  const auto* outcome = std::get_if<proto::OutcomeMsg>(&msg);
  if (outcome == nullptr) {
    return Post(node::RouteToClient(slice_, std::move(msg)));
  }
  // The client host is the authority on proposal outcomes: resolve in this
  // host's (reported) Metrics, then drive the client's retry machine.
  // ResolveFired consumes the fired entry, so a racing client-side timeout
  // cannot double-count.
  std::string key = ProposalKey(outcome->client, outcome->proposal_id);
  const TxOutcome result = OutcomeFromValidationCode(outcome->code);
  node::Delivery delivery = node::RouteToClient(slice_, std::move(msg));
  runtime::Endpoint* home = delivery.to;
  if (home == nullptr) return false;
  home->Post([this, home, key = std::move(key), result,
              handle = std::move(delivery.task)]() {
    metrics_.ResolveFired(key, result, home->clock().Now());
    handle();
  });
  return true;
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
      Ship(PeerKey(i), request, node::kMessageOverhead);
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
    Ship(PeerKey(i), msg, node::kMessageOverhead);
  }
  Ship(OrdererKey(), msg, node::kMessageOverhead);
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
