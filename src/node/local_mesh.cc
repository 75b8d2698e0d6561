#include "node/local_mesh.h"

#include <utility>
#include <variant>

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

template <typename Message>
size_t LocalMesh::PayloadSize(const Message& msg) const {
  if (!measure_wire_bytes_) return 0;
  return std::visit([](const auto& m) { return EncodedSize(m); }, msg);
}

void LocalMesh::Send(runtime::Endpoint& from, Delivery delivery,
                     uint64_t size_bytes, size_t payload_size) {
  if (delivery.to == nullptr) return;
  runtime_->transport().Send(from, *delivery.to, size_bytes,
                             std::move(delivery.task));
  if (measure_wire_bytes_) Measure(payload_size, size_bytes);
}

void LocalMesh::Measure(size_t payload_size, uint64_t modeled) {
  metrics_->NoteWireMessage(proto::FramedSize(payload_size), modeled);
}

void LocalMesh::SendToPeer(runtime::Endpoint& from, uint32_t peer_index,
                           PeerMessage msg, uint64_t size_bytes) {
  const size_t payload_size = PayloadSize(msg);
  Send(from, RouteToPeer(*directory_, peer_index, std::move(msg)), size_bytes,
       payload_size);
}

void LocalMesh::SendToOrderer(runtime::Endpoint& from, OrdererMessage msg,
                              uint64_t size_bytes) {
  const size_t payload_size = PayloadSize(msg);
  Send(from, RouteToOrderer(*directory_, std::move(msg)), size_bytes,
       payload_size);
}

void LocalMesh::SendToClient(runtime::Endpoint& from, ClientMessage msg,
                             uint64_t size_bytes) {
  const size_t payload_size = PayloadSize(msg);
  Send(from, RouteToClient(*directory_, std::move(msg)), size_bytes,
       payload_size);
}

bool LocalMesh::RoutesToClient(const std::string& client) {
  return directory_->FindClient(client) != nullptr;
}

void LocalMesh::SendBlock(runtime::Endpoint& from, uint32_t peer_index,
                          uint32_t channel,
                          std::shared_ptr<proto::Block> block,
                          uint64_t block_bytes) {
  const size_t payload_size =
      measure_wire_bytes_ ? BlockPayloadSize(channel, *block) : 0;
  Send(from, RouteBlock(directory_->peer(peer_index), channel, block),
       block_bytes, payload_size);
}

void LocalMesh::BroadcastBlock(runtime::Endpoint& from, uint32_t channel,
                               std::shared_ptr<proto::Block> block,
                               uint64_t block_bytes) {
  const uint32_t num_peers = static_cast<uint32_t>(directory_->num_peers());
  for (uint32_t p = 0; p < num_peers; ++p) {
    Delivery delivery = RouteBlock(directory_->peer(p), channel, block);
    runtime_->transport().Send(from, *delivery.to, block_bytes,
                               std::move(delivery.task));
  }
  if (!measure_wire_bytes_) return;
  // Every peer's frame carries the same payload, so one count, after all
  // deliveries are posted, measures them all.
  const size_t payload_size = BlockPayloadSize(channel, *block);
  for (uint32_t p = 0; p < num_peers; ++p) Measure(payload_size, block_bytes);
}

}  // namespace fabricpp::node
