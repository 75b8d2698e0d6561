#include "node/deliver.h"

#include <utility>

#include "node/client_node.h"
#include "node/orderer_node.h"
#include "node/peer_node.h"
#include "node/wire.h"

namespace fabricpp::node {
namespace {

// --- Peer messages ----------------------------------------------------------

Delivery Deliver(NodeDirectory& directory, PeerNode* peer,
                 proto::ProposalMsg msg) {
  if (msg.channel >= peer->num_channels() ||
      msg.client_index >= directory.num_clients()) {
    return {};
  }
  runtime::Endpoint* lane = &peer->endpoint_for(msg.channel);
  auto task = [peer, m = std::move(msg)]() mutable {
    peer->HandleProposal(m.channel, std::move(m.proposal), m.client_index);
  };
  return {lane, std::move(task)};
}

Delivery Deliver(NodeDirectory& /*directory*/, PeerNode* peer,
                 proto::ChainInfoMsg msg) {
  if (msg.channel >= peer->num_channels()) return {};
  auto task = [peer, msg]() { peer->HandleChainInfo(msg.channel, msg.height); };
  return {&peer->endpoint_for(msg.channel), std::move(task)};
}

Delivery Deliver(NodeDirectory& /*directory*/, PeerNode* peer,
                 proto::BlockMsg msg) {
  if (msg.channel >= peer->num_channels()) return {};
  auto block = std::make_shared<proto::Block>(std::move(msg.block));
  return RouteBlock(*peer, msg.channel, std::move(block));
}

// --- Orderer messages -------------------------------------------------------

Delivery Deliver(NodeDirectory& /*directory*/, OrdererNode* orderer,
                 proto::TransactionMsg msg) {
  if (msg.channel >= orderer->num_channels()) return {};
  runtime::Endpoint* lane = &orderer->endpoint_for(msg.channel);
  auto task = [orderer, m = std::move(msg)]() mutable {
    orderer->HandleTransaction(m.channel, std::move(m.tx));
  };
  return {lane, std::move(task)};
}

Delivery Deliver(NodeDirectory& directory, OrdererNode* orderer,
                 proto::BlockRequestMsg msg) {
  if (msg.channel >= orderer->num_channels() ||
      msg.peer_index >= directory.num_peers()) {
    return {};
  }
  auto task = [orderer, msg]() {
    orderer->HandleBlockRequest(msg.channel, msg.peer_index, msg.from_number);
  };
  return {&orderer->endpoint_for(msg.channel), std::move(task)};
}

// --- Client messages --------------------------------------------------------

Delivery Deliver(NodeDirectory& directory, proto::EndorsementReplyMsg msg) {
  if (msg.client_index >= directory.num_clients()) return {};
  ClientNode* client = &directory.client(msg.client_index);
  const uint64_t id = msg.proposal_id;
  Result<peer::EndorsementResponse> response =
      EndorsementReplyFromWire(std::move(msg));
  auto task = [client, id, response = std::move(response)]() mutable {
    client->HandleEndorsement(id, std::move(response));
  };
  return {&client->home(), std::move(task)};
}

Delivery Deliver(NodeDirectory& directory, proto::BusyMsg msg) {
  if (msg.client_index >= directory.num_clients()) return {};
  ClientNode* client = &directory.client(msg.client_index);
  const BusyResponse busy{msg.proposal_id, msg.retry_after_us};
  auto task = [client, busy]() { client->HandleBusy(busy); };
  return {&client->home(), std::move(task)};
}

Delivery Deliver(NodeDirectory& directory, proto::OutcomeMsg msg) {
  ClientNode* client = directory.FindClient(msg.client);
  if (client == nullptr) return {};
  const uint64_t id = msg.proposal_id;
  const bool success = msg.code == proto::TxValidationCode::kValid;
  auto task = [client, id, success]() { client->HandleOutcome(id, success); };
  return {&client->home(), std::move(task)};
}

}  // namespace

Delivery RouteToPeer(NodeDirectory& directory, uint32_t peer_index,
                     PeerMessage msg) {
  PeerNode* peer = &directory.peer(peer_index);
  return std::visit(
      [&](auto& m) { return Deliver(directory, peer, std::move(m)); }, msg);
}

Delivery RouteToOrderer(NodeDirectory& directory, OrdererMessage msg) {
  OrdererNode* orderer = &directory.orderer();
  return std::visit(
      [&](auto& m) { return Deliver(directory, orderer, std::move(m)); }, msg);
}

Delivery RouteToClient(NodeDirectory& directory, ClientMessage msg) {
  return std::visit([&](auto& m) { return Deliver(directory, std::move(m)); },
                    msg);
}

Delivery RouteBlock(PeerNode& peer, uint32_t channel,
                    std::shared_ptr<proto::Block> block) {
  runtime::Endpoint* lane = &peer.endpoint_for(channel);
  auto task = [peer = &peer, channel, block = std::move(block)]() {
    peer->HandleBlock(channel, block);
  };
  return {lane, std::move(task)};
}

}  // namespace fabricpp::node
