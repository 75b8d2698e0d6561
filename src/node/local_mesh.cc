#include "node/local_mesh.h"

#include <utility>

#include "node/client_node.h"
#include "node/orderer_node.h"
#include "node/peer_node.h"
#include "node/wire.h"
#include "proto/wire_format.h"

namespace fabricpp::node {
namespace {

/// The encoded size of a proto::BlockMsg carrying `block`.
size_t BlockPayloadSize(uint32_t channel, const proto::Block& block) {
  return CountBytes([&](ByteWriter* w) {
    proto::BlockMsg::EncodeTo(w, channel, block);
  });
}

}  // namespace

LocalMesh::LocalMesh(fabric::Metrics* metrics, NodeDirectory* directory,
                     runtime::Runtime* runtime, bool measure_wire_bytes)
    : metrics_(metrics),
      directory_(directory),
      runtime_(runtime),
      measure_wire_bytes_(measure_wire_bytes) {}

void LocalMesh::Measure(size_t payload_size, uint64_t modeled) {
  metrics_->NoteWireMessage(proto::FramedSize(payload_size), modeled);
}

void LocalMesh::SendProposal(runtime::Endpoint& from, uint32_t peer_index,
                             uint32_t channel, const proto::Proposal& proposal,
                             uint32_t client_index, uint64_t size_bytes) {
  PeerNode* peer = &directory_->peer(peer_index);
  transport().Send(
      from, peer->endpoint_for(channel), size_bytes,
      [peer, channel, proposal, index = client_index]() mutable {
        peer->HandleProposal(channel, std::move(proposal), index);
      });
  if (measure_wire_bytes_) {
    Measure(CountBytes([&](ByteWriter* w) {
              proto::ProposalMsg::EncodeTo(w, channel, client_index, proposal);
            }),
            size_bytes);
  }
}

void LocalMesh::SendTransaction(runtime::Endpoint& from, uint32_t channel,
                                proto::Transaction tx, uint64_t size_bytes) {
  OrdererNode* orderer = &directory_->orderer();
  if (measure_wire_bytes_) {
    Measure(CountBytes([&](ByteWriter* w) {
              proto::TransactionMsg::EncodeTo(w, channel, tx);
            }),
            size_bytes);
  }
  transport().Send(from, orderer->endpoint_for(channel), size_bytes,
                   [orderer, channel, tx = std::move(tx)]() mutable {
                     orderer->HandleTransaction(channel, std::move(tx));
                   });
}

void LocalMesh::SendEndorsementReply(
    runtime::Endpoint& from, uint32_t client_index, uint64_t proposal_id,
    Result<peer::EndorsementResponse> response, uint64_t size_bytes) {
  ClientNode* client = &directory_->client(client_index);
  if (measure_wire_bytes_) {
    Measure(CountBytes([&](ByteWriter* w) {
              EncodeEndorsementReply(w, client_index, proposal_id, response);
            }),
            size_bytes);
  }
  transport().Send(
      from, client->home(), size_bytes,
      [client, proposal_id, response = std::move(response)]() mutable {
        client->HandleEndorsement(proposal_id, std::move(response));
      });
}

void LocalMesh::SendBusy(runtime::Endpoint& from, uint32_t client_index,
                         const BusyResponse& busy) {
  ClientNode* client = &directory_->client(client_index);
  transport().Send(from, client->home(), kMessageOverhead,
                   [client, busy]() { client->HandleBusy(busy); });
  if (measure_wire_bytes_) {
    const proto::BusyMsg msg{client_index, busy.proposal_id,
                             busy.retry_after_us};
    Measure(EncodedSize(msg), kMessageOverhead);
  }
}

void LocalMesh::SendBusyByName(runtime::Endpoint& from,
                               const std::string& client_name,
                               const BusyResponse& busy) {
  ClientNode* client = directory_->FindClient(client_name);
  if (client == nullptr) return;
  transport().Send(from, client->home(), kMessageOverhead,
                   [client, busy]() { client->HandleBusy(busy); });
  if (measure_wire_bytes_) {
    const proto::BusyMsg msg{0, busy.proposal_id, busy.retry_after_us};
    Measure(EncodedSize(msg), kMessageOverhead);
  }
}

bool LocalMesh::RoutesToClient(const std::string& client) {
  return directory_->FindClient(client) != nullptr;
}

void LocalMesh::SendOutcome(runtime::Endpoint& from, const std::string& client,
                            uint64_t proposal_id,
                            proto::TxValidationCode code) {
  ClientNode* target = directory_->FindClient(client);
  if (target == nullptr) return;
  const bool success = code == proto::TxValidationCode::kValid;
  transport().Send(from, target->home(), kMessageOverhead,
                   [target, proposal_id, success]() {
                     target->HandleOutcome(proposal_id, success);
                   });
  if (measure_wire_bytes_) {
    Measure(CountBytes([&](ByteWriter* w) {
              proto::OutcomeMsg::EncodeTo(w, client, proposal_id, code);
            }),
            kMessageOverhead);
  }
}

void LocalMesh::DeliverBlock(runtime::Endpoint& from, uint32_t peer_index,
                             uint32_t channel,
                             const std::shared_ptr<proto::Block>& block,
                             uint64_t block_bytes) {
  PeerNode* peer = &directory_->peer(peer_index);
  transport().Send(from, peer->endpoint_for(channel), block_bytes,
                   [peer, channel, block]() {
                     peer->HandleBlock(channel, block);
                   });
}

void LocalMesh::SendBlock(runtime::Endpoint& from, uint32_t peer_index,
                          uint32_t channel,
                          std::shared_ptr<proto::Block> block,
                          uint64_t block_bytes) {
  DeliverBlock(from, peer_index, channel, block, block_bytes);
  if (measure_wire_bytes_) {
    Measure(BlockPayloadSize(channel, *block), block_bytes);
  }
}

void LocalMesh::BroadcastBlock(runtime::Endpoint& from, uint32_t channel,
                               std::shared_ptr<proto::Block> block,
                               uint64_t block_bytes) {
  const uint32_t num_peers = static_cast<uint32_t>(directory_->num_peers());
  for (uint32_t p = 0; p < num_peers; ++p) {
    DeliverBlock(from, p, channel, block, block_bytes);
  }
  if (!measure_wire_bytes_) return;
  // Every peer's frame carries the same payload, so one count, after all
  // deliveries are posted, measures them all.
  const size_t payload_size = BlockPayloadSize(channel, *block);
  for (uint32_t p = 0; p < num_peers; ++p) Measure(payload_size, block_bytes);
}

void LocalMesh::SendChainInfo(runtime::Endpoint& from, uint32_t peer_index,
                              uint32_t channel, uint64_t height) {
  PeerNode* peer = &directory_->peer(peer_index);
  transport().Send(from, peer->endpoint_for(channel), kMessageOverhead,
                   [peer, channel, height]() {
                     peer->HandleChainInfo(channel, height);
                   });
  if (measure_wire_bytes_) {
    const proto::ChainInfoMsg msg{channel, height};
    Measure(EncodedSize(msg), kMessageOverhead);
  }
}

void LocalMesh::SendBlockRequest(runtime::Endpoint& from, uint32_t channel,
                                 uint32_t peer_index, uint64_t from_number) {
  OrdererNode* orderer = &directory_->orderer();
  transport().Send(from, orderer->endpoint_for(channel), kMessageOverhead,
                   [orderer, channel, peer_index, from_number]() {
                     orderer->HandleBlockRequest(channel, peer_index,
                                                 from_number);
                   });
  if (measure_wire_bytes_) {
    const proto::BlockRequestMsg msg{channel, peer_index, from_number};
    Measure(EncodedSize(msg), kMessageOverhead);
  }
}

std::string ClientNameFor(uint32_t channel, uint32_t index_in_channel) {
  return "client_c" + std::to_string(channel) + "_" +
         std::to_string(index_in_channel);
}

bool ParseClientName(const std::string& name, uint32_t* channel,
                     uint32_t* index_in_channel) {
  constexpr std::string_view kPrefix = "client_c";
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  const size_t sep = name.find('_', kPrefix.size());
  if (sep == std::string::npos || sep == kPrefix.size() ||
      sep + 1 >= name.size()) {
    return false;
  }
  uint64_t ch = 0;
  for (size_t i = kPrefix.size(); i < sep; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    ch = ch * 10 + static_cast<uint64_t>(name[i] - '0');
    if (ch > UINT32_MAX) return false;
  }
  uint64_t idx = 0;
  for (size_t i = sep + 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    idx = idx * 10 + static_cast<uint64_t>(name[i] - '0');
    if (idx > UINT32_MAX) return false;
  }
  *channel = static_cast<uint32_t>(ch);
  *index_in_channel = static_cast<uint32_t>(idx);
  return true;
}

}  // namespace fabricpp::node
