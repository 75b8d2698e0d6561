#ifndef FABRICPP_NODE_LOCAL_MESH_H_
#define FABRICPP_NODE_LOCAL_MESH_H_

#include <cstdint>
#include <memory>
#include <string>

#include "fabric/metrics.h"
#include "node/deliver.h"
#include "node/mesh.h"
#include "node/node_context.h"

namespace fabricpp::node {

/// The in-process Mesh: every destination lives in this composition, so a
/// send is one runtime::Transport task that runs the handler call the
/// delivery table (node/deliver.h) routes the message to.
///
/// When `measure_wire_bytes` is on (thread runtime), every send's payload
/// is also counted through the real wire format's encoder (ByteWriter's
/// size-only mode: no buffer) and its framed size recorded in
/// Metrics::transport_counters() — the measured counterpart to the modeled
/// kMessageOverhead sizes the cost model charges. Sim runs must leave it
/// off: the measurement itself is invisible to the report, but skipping
/// the count keeps the deterministic path free of dead work.
class LocalMesh : public Mesh {
 public:
  LocalMesh(fabric::Metrics* metrics, NodeDirectory* directory,
            runtime::Runtime* runtime, bool measure_wire_bytes);

  void SendToPeer(runtime::Endpoint& from, uint32_t peer_index,
                  PeerMessage msg, uint64_t size_bytes) override;
  void SendToOrderer(runtime::Endpoint& from, OrdererMessage msg,
                     uint64_t size_bytes) override;
  void SendToClient(runtime::Endpoint& from, ClientMessage msg,
                    uint64_t size_bytes) override;
  bool RoutesToClient(const std::string& client) override;
  void SendBlock(runtime::Endpoint& from, uint32_t peer_index,
                 uint32_t channel, std::shared_ptr<proto::Block> block,
                 uint64_t block_bytes) override;
  /// Direct to every peer: posts every delivery, then encodes the block
  /// once to measure all of them.
  void BroadcastBlock(runtime::Endpoint& from, uint32_t channel,
                      std::shared_ptr<proto::Block> block,
                      uint64_t block_bytes) override;

 private:
  /// The encoded payload size of `msg` when measuring, else 0.
  template <typename Message>
  size_t PayloadSize(const Message& msg) const;
  /// Sends `delivery` over the runtime transport (a routeless one is
  /// dropped) and, on threads, records its real framed size:
  /// `payload_size` is the encoded wire payload's size, `size_bytes` what
  /// the cost model charged.
  void Send(runtime::Endpoint& from, Delivery delivery, uint64_t size_bytes,
            size_t payload_size);
  /// Records the real framed size of one send (thread mode only).
  void Measure(size_t payload_size, uint64_t modeled);

  fabric::Metrics* metrics_;
  NodeDirectory* directory_;
  runtime::Runtime* runtime_;
  bool measure_wire_bytes_;
};

}  // namespace fabricpp::node

#endif  // FABRICPP_NODE_LOCAL_MESH_H_
