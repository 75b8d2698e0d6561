// SocketTransport + SocketHost integration tests over real loopback TCP:
// frame delivery and counters between two transports, reconnect with
// backoff when the listener comes up late, pending-queue flush on
// establishment, and a whole SmallBank cluster (orderer + peers + load
// driver as separate SocketHosts in one process, ephemeral ports) that
// must converge to identical per-peer fingerprints — the in-process twin
// of scripts/socket_smoke.sh.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fabric/config.h"
#include "fabric/node_slice.h"
#include "common/strings.h"
#include "fabric/socket_host.h"
#include "node/client_node.h"
#include "node/mesh.h"
#include "node/wire.h"
#include "proto/wire_format.h"
#include "runtime/socket_transport.h"
#include "sim/time.h"
#include "workload/smallbank.h"

namespace fabricpp::runtime {
namespace {

using proto::NodeRole;
using proto::WireMessageType;

constexpr SocketPeerKey kOrdererKey{NodeRole::kOrderer, 0};
constexpr SocketPeerKey kClientsKey{NodeRole::kClientHost, 0};

/// Collects frames delivered to one transport.
class FrameSink {
 public:
  void Handle(const SocketPeerKey& from, proto::Frame frame) {
    const std::lock_guard<std::mutex> lock(mu_);
    frames_.emplace_back(from, std::move(frame));
    cv_.notify_all();
  }

  /// Waits until `n` frames arrived; returns whether they did.
  bool WaitFor(size_t n, uint32_t timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] { return frames_.size() >= n; });
  }

  std::vector<std::pair<SocketPeerKey, proto::Frame>> Take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(frames_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<SocketPeerKey, proto::Frame>> frames_;
};

SocketTransport::Options ListenerOptions() {
  SocketTransport::Options options;
  options.listen_address = "127.0.0.1:0";
  options.self_role = NodeRole::kOrderer;
  options.self_name = "orderer";
  return options;
}

SocketTransport::Options DialerOptions() {
  SocketTransport::Options options;
  options.self_role = NodeRole::kClientHost;
  options.self_name = "load";
  return options;
}

TEST(SocketTransportTest, DeliversFramesBothWays) {
  FrameSink server_sink;
  FrameSink client_sink;
  SocketTransport server(ListenerOptions(),
                         [&](const SocketPeerKey& from, proto::Frame f) {
                           server_sink.Handle(from, std::move(f));
                         });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.listen_port(), 0);

  SocketTransport client(DialerOptions(),
                         [&](const SocketPeerKey& from, proto::Frame f) {
                           client_sink.Handle(from, std::move(f));
                         });
  ASSERT_TRUE(client.Start().ok());
  client.Dial(kOrdererKey,
              "127.0.0.1:" + std::to_string(server.listen_port()));
  ASSERT_TRUE(client.WaitConnected({kOrdererKey}, 5000));

  const proto::BusyMsg busy{7, 42, 1000};
  EXPECT_TRUE(client.Send(kOrdererKey, WireMessageType::kBusy, busy.Encode()));
  ASSERT_TRUE(server_sink.WaitFor(1, 5000));
  auto server_got = server_sink.Take();
  ASSERT_EQ(server_got.size(), 1u);
  EXPECT_TRUE(server_got[0].first == kClientsKey);
  EXPECT_EQ(server_got[0].second.type,
            static_cast<uint8_t>(WireMessageType::kBusy));
  ByteReader r(server_got[0].second.payload);
  auto decoded = proto::BusyMsg::Decode(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->proposal_id, 42u);

  // The accept side can answer back over the same multiplexed connection.
  const proto::ChainInfoMsg info{0, 17};
  EXPECT_TRUE(
      server.Send(kClientsKey, WireMessageType::kChainInfo, info.Encode()));
  ASSERT_TRUE(client_sink.WaitFor(1, 5000));
  auto client_got = client_sink.Take();
  ASSERT_EQ(client_got.size(), 1u);
  EXPECT_TRUE(client_got[0].first == kOrdererKey);

  EXPECT_TRUE(client.Drain(2000));
  const auto ctrs = client.counters();
  EXPECT_GE(ctrs.frames_sent, 2u);  // HELLO + BUSY.
  EXPECT_GT(ctrs.bytes_sent, 0u);
  EXPECT_GE(ctrs.frames_received, 1u);
  EXPECT_EQ(ctrs.decode_errors, 0u);
  client.Stop();
  server.Stop();
}

TEST(SocketTransportTest, ManyFramesSurviveChunkingAndCorking) {
  FrameSink sink;
  SocketTransport server(ListenerOptions(),
                         [&](const SocketPeerKey& from, proto::Frame f) {
                           sink.Handle(from, std::move(f));
                         });
  ASSERT_TRUE(server.Start().ok());
  SocketTransport client(DialerOptions(), [](const SocketPeerKey&,
                                             proto::Frame) {});
  ASSERT_TRUE(client.Start().ok());
  client.Dial(kOrdererKey,
              "127.0.0.1:" + std::to_string(server.listen_port()));

  // Burst without waiting for the connection: frames queue as pending and
  // flush on establishment, then keep flowing; payload sizes vary so frame
  // boundaries land everywhere within recv chunks.
  constexpr size_t kFrames = 500;
  for (size_t i = 0; i < kFrames; ++i) {
    proto::OutcomeMsg msg;
    msg.client = std::string(1 + (i % 97), 'x');
    msg.proposal_id = i;
    EXPECT_TRUE(
        client.Send(kOrdererKey, WireMessageType::kOutcome, msg.Encode()));
  }
  ASSERT_TRUE(sink.WaitFor(kFrames, 10000));
  auto got = sink.Take();
  ASSERT_EQ(got.size(), kFrames);
  for (size_t i = 0; i < kFrames; ++i) {
    ByteReader r(got[i].second.payload);
    auto msg = proto::OutcomeMsg::Decode(&r);
    ASSERT_TRUE(msg.ok());
    // In-order per connection: TCP + one write queue.
    EXPECT_EQ(msg->proposal_id, i);
  }
  // Corking batched at least some writes (far fewer writev calls than
  // frames would be ideal, but scheduling-dependent; assert the counter
  // moved and never exceeded one call per frame plus the HELLO).
  const auto ctrs = client.counters();
  EXPECT_GT(ctrs.writev_calls, 0u);
  EXPECT_LE(ctrs.writev_calls, kFrames + 1);
  client.Stop();
  server.Stop();
}

TEST(SocketTransportTest, ReconnectsWhenListenerComesUpLate) {
  // Dial first: the route must back off and keep retrying, then establish
  // once the listener exists, then flush everything queued meanwhile.
  SocketTransport client(DialerOptions(), [](const SocketPeerKey&,
                                             proto::Frame) {});
  ASSERT_TRUE(client.Start().ok());

  // Reserve a port by binding a listener, learning its port, and stopping
  // it again — the dial target while nothing is listening.
  uint16_t port = 0;
  {
    SocketTransport probe(ListenerOptions(),
                          [](const SocketPeerKey&, proto::Frame) {});
    ASSERT_TRUE(probe.Start().ok());
    port = probe.listen_port();
    probe.Stop();
  }
  client.Dial(kOrdererKey, "127.0.0.1:" + std::to_string(port));
  const proto::StateRequestMsg req{123};
  EXPECT_TRUE(
      client.Send(kOrdererKey, WireMessageType::kStateRequest, req.Encode()));
  EXPECT_FALSE(client.WaitConnected({kOrdererKey}, 300));
  EXPECT_FALSE(client.Connected(kOrdererKey));

  FrameSink sink;
  SocketTransport::Options late = ListenerOptions();
  late.listen_address = "127.0.0.1:" + std::to_string(port);
  SocketTransport server(late, [&](const SocketPeerKey& from, proto::Frame f) {
    sink.Handle(from, std::move(f));
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(client.WaitConnected({kOrdererKey}, 10000));
  // The frame queued before any connection existed arrives after redial.
  ASSERT_TRUE(sink.WaitFor(1, 5000));
  EXPECT_GE(client.counters().reconnects, 1u);
  client.Stop();
  server.Stop();
}

TEST(SocketTransportTest, SendToUnknownRouteIsDropped) {
  SocketTransport client(DialerOptions(), [](const SocketPeerKey&,
                                             proto::Frame) {});
  ASSERT_TRUE(client.Start().ok());
  EXPECT_FALSE(client.Send({NodeRole::kPeer, 3}, WireMessageType::kShutdown,
                           Bytes()));
  EXPECT_GE(client.counters().messages_dropped, 1u);
  client.Stop();
}

TEST(SocketTransportTest, ParseHostPortRejectsGarbage) {
  EXPECT_TRUE(ParseHostPort("127.0.0.1:7051").ok());
  auto parsed = ParseHostPort("localhost:0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->first, "localhost");
  EXPECT_EQ(parsed->second, 0);
  EXPECT_FALSE(ParseHostPort("127.0.0.1").ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:").ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:port").ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:70000").ok());
  EXPECT_FALSE(ParseHostPort("").ok());
}

}  // namespace
}  // namespace fabricpp::runtime

namespace fabricpp::fabric {
namespace {

using proto::NodeRole;
using proto::WireMessageType;

/// Polls `done` until it holds or `timeout_ms` elapses.
template <typename Pred>
bool WaitUntil(uint32_t timeout_ms, const Pred& done) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST(SocketHostTest, ParseSocketRole) {
  auto role = ParseSocketRole("clients");
  ASSERT_TRUE(role.ok());
  EXPECT_EQ(role->kind, SocketRole::Kind::kClients);
  role = ParseSocketRole("orderer");
  ASSERT_TRUE(role.ok());
  EXPECT_EQ(role->kind, SocketRole::Kind::kOrderer);
  role = ParseSocketRole("peer:3");
  ASSERT_TRUE(role.ok());
  EXPECT_EQ(role->kind, SocketRole::Kind::kPeer);
  EXPECT_EQ(role->peer_index, 3u);
  EXPECT_FALSE(ParseSocketRole("peer:").ok());
  EXPECT_FALSE(ParseSocketRole("peer:x").ok());
  EXPECT_FALSE(ParseSocketRole("validator").ok());
  EXPECT_FALSE(ParseSocketRole("").ok());
}

// Runs a 2-peer SmallBank cluster over loopback and asserts that every
// channel converges on every peer. With two channels each peer and the
// orderer run one lane per channel, so this also checks that frames,
// catch-up probes and state reads land on the channel's own lane.
void ExpectSmallbankClusterConverges(uint32_t num_channels) {
  FabricConfig config = FabricConfig::FabricPlusPlus();
  config.num_orgs = 2;
  config.peers_per_org = 1;
  config.num_channels = num_channels;
  config.clients_per_channel = 4;
  config.client_fire_rate_tps = 50;
  config.block.max_transactions = 32;
  config.block.batch_timeout = 100 * sim::kMillisecond;

  workload::SmallbankConfig wl;
  wl.num_users = 200;
  workload::SmallbankWorkload workload(wl);

  LocalSocketCluster cluster(config, &workload);
  ASSERT_TRUE(cluster.clients().WaitForCluster(10000));
  // Every peer host starts catching up on the orderer's chain: on a fresh
  // cluster the chain is empty, so each reaches parity at once.
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(WaitUntil(10000, [&]() {
      return cluster.peer(p).metrics().Report().peer_recoveries ==
             num_channels;
    })) << "peer " << p;
  }
  const RunReport report = cluster.clients().RunClients(2000000, 500000);
  EXPECT_GT(report.successful, 0u);
  // Caught up before the first proposal and never killed: no peer ever
  // refused one.
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_EQ(cluster.peer(p).metrics().Report().endorser_busy, 0u)
        << "peer " << p;
  }

  const auto reports = cluster.clients().CollectPeerReports(20000);
  ASSERT_EQ(reports.size(), 2u);
  // Convergence: identical height, tip hash, state fingerprint, key count
  // on every peer — the cross-process "no MVCC anomalies" assertion.
  for (const auto& peer_report : reports) {
    ASSERT_EQ(peer_report.channels.size(), num_channels);
  }
  for (uint32_t c = 0; c < num_channels; ++c) {
    SCOPED_TRACE(c);
    EXPECT_GT(reports[0].channels[c].height, 1u);
    EXPECT_TRUE(reports[0].channels[c] == reports[1].channels[c]);
  }

  // The real framed bytes were measured and diverge from the modeled cost.
  const auto transport = cluster.clients().metrics().transport_counters();
  EXPECT_GT(transport.messages, 0u);
  EXPECT_GT(transport.framed_bytes, 0u);
  EXPECT_GT(transport.modeled_bytes, 0u);
  const runtime::SocketTransport::Counters socket =
      cluster.clients().transport().counters();
  EXPECT_GT(socket.frames_sent, 0u);
  EXPECT_EQ(socket.decode_errors, 0u);
}

TEST(SocketHostTest, SmallbankClusterConverges) {
  ExpectSmallbankClusterConverges(1);
}

TEST(SocketHostTest, SmallbankClusterConvergesOnTwoChannels) {
  ExpectSmallbankClusterConverges(2);
}

/// A bare transport that speaks the wire protocol to one host under test,
/// collecting whatever the host sends back.
struct RawNode {
  RawNode(NodeRole role, uint32_t index, bool listen) {
    runtime::SocketTransport::Options options;
    options.self_role = role;
    options.self_index = index;
    options.self_name = "raw";
    if (listen) options.listen_address = "127.0.0.1:0";
    transport = std::make_unique<runtime::SocketTransport>(
        options, [this](const runtime::SocketPeerKey& from, proto::Frame f) {
          sink.Handle(from, std::move(f));
        });
    EXPECT_TRUE(transport->Start().ok());
  }
  ~RawNode() { transport->Stop(); }

  runtime::FrameSink sink;
  std::unique_ptr<runtime::SocketTransport> transport;
};

using RawFrame = std::pair<WireMessageType, Bytes>;

/// Sends each frame from `raw` to `host` (at `to`) and expects the host to
/// drop it: its dropped-message count rises by exactly one per frame.
void ExpectEachDropped(SocketHost& host, RawNode& raw,
                       const runtime::SocketPeerKey& to,
                       const std::vector<RawFrame>& frames) {
  uint64_t dropped = host.transport().counters().messages_dropped;
  for (size_t i = 0; i < frames.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(raw.transport->Send(to, frames[i].first, frames[i].second));
    ++dropped;
    EXPECT_TRUE(WaitUntil(5000, [&]() {
      return host.transport().counters().messages_dropped >= dropped;
    }));
    EXPECT_EQ(host.transport().counters().messages_dropped, dropped);
  }
}

Bytes Truncated(Bytes payload) {
  payload.pop_back();
  return payload;
}

/// One org peer each for two orgs, one channel, two clients. Every address
/// is refused until a test points one at a live listener.
FabricConfig HostileFrameConfig() {
  FabricConfig config = FabricConfig::FabricPlusPlus();
  config.num_orgs = 2;
  config.peers_per_org = 1;
  config.num_channels = 1;
  config.clients_per_channel = 2;
  config.runtime_mode = "socket";
  config.peer_addresses.assign(2, "127.0.0.1:1");
  config.orderer_address = "127.0.0.1:1";
  config.listen_address = "127.0.0.1:0";
  return config;
}

std::string LocalAddress(uint16_t port) {
  return StrFormat("127.0.0.1:%u", port);
}

// Hosts decode untrusted frames. A frame whose payload fails to decode, that
// carries another role's message type, or that names a channel, client or
// peer outside the cluster is dropped and counted, nothing is posted for it,
// and the host keeps serving: the valid frame that follows is handled.
TEST(SocketHostTest, HostsDropHostileFramesAndKeepServing) {
  workload::SmallbankConfig wl;
  wl.num_users = 50;
  workload::SmallbankWorkload workload(wl);
  FabricConfig config = HostileFrameConfig();

  proto::Proposal proposal;
  proposal.proposal_id = 42;
  proposal.client = node::ClientNameFor(0, 1);
  proposal.chaincode = "smallbank";
  proto::Transaction tx;
  tx.client = node::ClientNameFor(0, 1);
  proto::Block block;
  block.header.number = 1;
  const proto::ProposalMsg valid_proposal{0, 1, proposal};

  SocketHost orderer(config, &workload, {SocketRole::Kind::kOrderer});
  ASSERT_TRUE(orderer.Start().ok());
  config.orderer_address = LocalAddress(orderer.listen_port());
  const runtime::SocketPeerKey orderer_key{NodeRole::kOrderer, 0};
  {
    SCOPED_TRACE("orderer host");
    RawNode raw(NodeRole::kPeer, 1, /*listen=*/false);
    raw.transport->Dial(orderer_key, config.orderer_address);
    ASSERT_TRUE(raw.transport->WaitConnected({orderer_key}, 5000));
    const uint64_t shipped = orderer.metrics().transport_counters().messages;
    ExpectEachDropped(
        orderer, raw, orderer_key,
        {{WireMessageType::kTransaction, proto::TransactionMsg{1, tx}.Encode()},
         {WireMessageType::kBlockRequest,
          proto::BlockRequestMsg{1, 1, 1}.Encode()},
         {WireMessageType::kBlockRequest,
          proto::BlockRequestMsg{0, 2, 1}.Encode()},
         {WireMessageType::kBlockRequest,
          Truncated(proto::BlockRequestMsg{0, 1, 1}.Encode())},
         {WireMessageType::kProposal, valid_proposal.Encode()}});
    EXPECT_EQ(orderer.metrics().transport_counters().messages, shipped);

    // Still serving: a valid block request gets its chain info.
    ASSERT_TRUE(raw.transport->Send(orderer_key, WireMessageType::kBlockRequest,
                                    proto::BlockRequestMsg{0, 1, 1}.Encode()));
    ASSERT_TRUE(raw.sink.WaitFor(1, 5000));
    const auto got = raw.sink.Take();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].second.type,
              static_cast<uint8_t>(WireMessageType::kChainInfo));
    EXPECT_EQ(orderer.metrics().transport_counters().messages, shipped + 1);
  }

  SocketHost peer(config, &workload, {SocketRole::Kind::kPeer, 0});
  ASSERT_TRUE(peer.Start().ok());
  ASSERT_TRUE(WaitUntil(5000, [&]() {
    return peer.metrics().Report().peer_recoveries == 1;
  }));
  {
    SCOPED_TRACE("peer host");
    const runtime::SocketPeerKey peer_key{NodeRole::kPeer, 0};
    RawNode raw(NodeRole::kClientHost, 0, /*listen=*/false);
    raw.transport->Dial(peer_key, LocalAddress(peer.listen_port()));
    ASSERT_TRUE(raw.transport->WaitConnected({peer_key}, 5000));
    ExpectEachDropped(
        peer, raw, peer_key,
        {{WireMessageType::kProposal,
          proto::ProposalMsg{1, 1, proposal}.Encode()},
         {WireMessageType::kProposal,
          proto::ProposalMsg{0, 2, proposal}.Encode()},
         {WireMessageType::kChainInfo, proto::ChainInfoMsg{1, 0}.Encode()},
         {WireMessageType::kBlock, proto::BlockMsg{1, block}.Encode()},
         {WireMessageType::kProposal, Truncated(valid_proposal.Encode())},
         {WireMessageType::kTransaction,
          proto::TransactionMsg{0, tx}.Encode()},
         {WireMessageType::kBusy, proto::BusyMsg{0, 42, 0}.Encode()}});

    // Still serving: the valid proposal is simulated and answered, and it
    // is the only one that was.
    ASSERT_TRUE(raw.transport->Send(peer_key, WireMessageType::kProposal,
                                    valid_proposal.Encode()));
    ASSERT_TRUE(raw.sink.WaitFor(1, 5000));
    const auto got = raw.sink.Take();
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0].second.type,
              static_cast<uint8_t>(WireMessageType::kEndorsementReply));
    ByteReader r(got[0].second.payload);
    const auto reply = proto::EndorsementReplyMsg::Decode(&r);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->client_index, 1u);
    EXPECT_EQ(reply->proposal_id, 42u);
  }
  peer.Stop();

  {
    SCOPED_TRACE("client host");
    // The client host only dials: the raw node stands in for peer 0.
    RawNode raw(NodeRole::kPeer, 0, /*listen=*/true);
    config.peer_addresses[0] = LocalAddress(raw.transport->listen_port());
    SocketHost clients(config, &workload, {SocketRole::Kind::kClients});
    ASSERT_TRUE(clients.Start().ok());
    const runtime::SocketPeerKey clients_key{NodeRole::kClientHost, 0};
    ASSERT_TRUE(raw.transport->WaitConnected({clients_key}, 5000));

    // Client 0 fires one proposal; peer 0's share of it reaches the raw
    // node.
    node::ClientNode& client = clients.slice().client(0);
    client.home().Post([&client]() { client.FireProposal({"1"}); });
    ASSERT_TRUE(raw.sink.WaitFor(1, 5000));
    const auto got = raw.sink.Take();
    ASSERT_EQ(got.size(), 1u);
    ByteReader r(got[0].second.payload);
    const auto fired = proto::ProposalMsg::Decode(&r);
    ASSERT_TRUE(fired.ok());
    const uint64_t id = fired->proposal.proposal_id;
    EXPECT_EQ(fired->client_index, 0u);
    EXPECT_EQ(clients.metrics().unresolved_fired(), 1u);

    ExpectEachDropped(
        clients, raw, clients_key,
        {{WireMessageType::kEndorsementReply,
          node::EndorsementReplyToWire(2, id, Status::NotFound("x")).Encode()},
         {WireMessageType::kBusy, proto::BusyMsg{2, id, 0}.Encode()},
         {WireMessageType::kOutcome,
          proto::OutcomeMsg{node::ClientNameFor(1, 0), id,
                            proto::TxValidationCode::kValid}
              .Encode()},
         {WireMessageType::kBusy, Truncated(proto::BusyMsg{0, id, 0}.Encode())},
         {WireMessageType::kProposal, valid_proposal.Encode()},
         {WireMessageType::kStateRequest, proto::StateRequestMsg{1}.Encode()}});
    EXPECT_EQ(clients.metrics().unresolved_fired(), 1u);

    // Still serving: a valid BUSY resolves the proposal (its retry waits
    // out the hint, past the end of the test).
    ASSERT_TRUE(raw.transport->Send(
        clients_key, WireMessageType::kBusy,
        proto::BusyMsg{0, id, 60 * sim::kSecond}.Encode()));
    EXPECT_TRUE(WaitUntil(
        5000, [&]() { return clients.metrics().unresolved_fired() == 0; }));
    clients.Stop();
  }
  orderer.Stop();
}

// The directory contract of a socket slice: counts come from the config on
// every slice, and a lookup of a node another process hosts aborts, naming
// the slice. No host is started — building the slice is enough.
TEST(SocketHostDeathTest, SliceDirectoryServesOnlyLocalNodes) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  FabricConfig config = FabricConfig::FabricPlusPlus();
  config.num_orgs = 2;
  config.peers_per_org = 1;
  config.num_channels = 2;
  config.clients_per_channel = 3;
  config.runtime_mode = "socket";
  config.peer_addresses.assign(2, "127.0.0.1:0");
  config.orderer_address = "127.0.0.1:0";

  workload::SmallbankConfig wl;
  wl.num_users = 50;
  workload::SmallbankWorkload workload(wl);

  for (const char* text : {"clients", "orderer", "peer:1"}) {
    SCOPED_TRACE(text);
    const Result<SocketRole> role = ParseSocketRole(text);
    ASSERT_TRUE(role.ok());
    SocketHost host(config, &workload, *role);
    NodeSlice& slice = host.slice();
    EXPECT_EQ(slice.num_peers(), 2u);
    EXPECT_EQ(slice.num_clients(), 6u);
    EXPECT_EQ(slice.default_policy_id(), "AND(all-orgs)");
  }

  SocketHost peer_host(config, &workload, {SocketRole::Kind::kPeer, 1});
  NodeSlice& peer_slice = peer_host.slice();
  EXPECT_EQ(peer_slice.peer(1).name(), "B1");
  EXPECT_EQ(peer_slice.FindClient(node::ClientNameFor(0, 0)), nullptr);
  EXPECT_DEATH(peer_slice.peer(0), "peer 0 is not hosted.*peer:1");
  EXPECT_DEATH(peer_slice.orderer(), "orderer is not hosted.*peer:1");
  EXPECT_DEATH(peer_slice.client(0), "client 0 is not hosted.*peer:1");

  SocketHost orderer_host(config, &workload, {SocketRole::Kind::kOrderer});
  NodeSlice& orderer_slice = orderer_host.slice();
  EXPECT_EQ(orderer_slice.FindClient(node::ClientNameFor(1, 2)), nullptr);
  EXPECT_DEATH(orderer_slice.peer(1), "peer 1 is not hosted.*orderer");
  EXPECT_DEATH(orderer_slice.client(5), "client 5 is not hosted.*orderer");

  // A peer index past the roster (including one whose successor wraps)
  // is refused at construction.
  for (const uint32_t index : {2u, UINT32_MAX}) {
    const SocketRole bad{SocketRole::Kind::kPeer, index};
    EXPECT_DEATH(SocketHost(config, &workload, bad), "out of range");
  }

  SocketHost clients_host(config, &workload, {SocketRole::Kind::kClients});
  NodeSlice& clients_slice = clients_host.slice();
  EXPECT_NE(clients_slice.FindClient(node::ClientNameFor(1, 2)), nullptr);
  EXPECT_DEATH(clients_slice.orderer(), "orderer is not hosted.*clients");
}

}  // namespace
}  // namespace fabricpp::fabric
