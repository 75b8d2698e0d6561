#ifndef FABRICPP_NODE_LOCAL_MESH_H_
#define FABRICPP_NODE_LOCAL_MESH_H_

#include <cstdint>
#include <memory>
#include <string>

#include "fabric/metrics.h"
#include "node/mesh.h"
#include "node/node_context.h"

namespace fabricpp::node {

/// The in-process Mesh: every destination lives in this composition, so a
/// send is a runtime::Transport task that invokes the target's handler
/// directly — byte-for-byte the closures the node layer shipped before the
/// seam existed, which is what keeps sim fingerprints and thread-mode
/// behavior pinned across the refactor.
///
/// When `measure_wire_bytes` is on (thread runtime), every send's payload
/// is also counted through the real wire format's encoder (ByteWriter's
/// size-only mode, from the fields the send already holds: no copy, no
/// buffer) and its framed size recorded in Metrics::transport_counters() —
/// the measured counterpart to the modeled kMessageOverhead sizes the cost
/// model charges. Sim runs must leave it off: the measurement itself is
/// invisible to the report, but skipping the count keeps the deterministic
/// path free of dead work.
class LocalMesh : public Mesh {
 public:
  LocalMesh(fabric::Metrics* metrics, NodeDirectory* directory,
            runtime::Runtime* runtime, bool measure_wire_bytes);

  void SendProposal(runtime::Endpoint& from, uint32_t peer_index,
                    uint32_t channel, const proto::Proposal& proposal,
                    uint32_t client_index, uint64_t size_bytes) override;
  void SendTransaction(runtime::Endpoint& from, uint32_t channel,
                       proto::Transaction tx, uint64_t size_bytes) override;
  void SendEndorsementReply(runtime::Endpoint& from, uint32_t client_index,
                            uint64_t proposal_id,
                            Result<peer::EndorsementResponse> response,
                            uint64_t size_bytes) override;
  void SendBusy(runtime::Endpoint& from, uint32_t client_index,
                const BusyResponse& busy) override;
  void SendBusyByName(runtime::Endpoint& from, const std::string& client,
                      const BusyResponse& busy) override;
  bool RoutesToClient(const std::string& client) override;
  void SendOutcome(runtime::Endpoint& from, const std::string& client,
                   uint64_t proposal_id, proto::TxValidationCode code) override;
  void SendBlock(runtime::Endpoint& from, uint32_t peer_index,
                 uint32_t channel, std::shared_ptr<proto::Block> block,
                 uint64_t block_bytes) override;
  /// Direct to every peer: posts every delivery, then encodes the block
  /// once to measure all of them.
  void BroadcastBlock(runtime::Endpoint& from, uint32_t channel,
                      std::shared_ptr<proto::Block> block,
                      uint64_t block_bytes) override;
  void SendChainInfo(runtime::Endpoint& from, uint32_t peer_index,
                     uint32_t channel, uint64_t height) override;
  void SendBlockRequest(runtime::Endpoint& from, uint32_t channel,
                        uint32_t peer_index, uint64_t from_number) override;

 private:
  runtime::Transport& transport() { return runtime_->transport(); }
  /// Records the real framed size of a send (thread mode only).
  /// `payload_size` is the encoded wire payload's size; `modeled` what the
  /// cost model charged.
  void Measure(size_t payload_size, uint64_t modeled);
  /// Posts `block` to `peer_index`'s lane for `channel`.
  void DeliverBlock(runtime::Endpoint& from, uint32_t peer_index,
                    uint32_t channel,
                    const std::shared_ptr<proto::Block>& block,
                    uint64_t block_bytes);

  fabric::Metrics* metrics_;
  NodeDirectory* directory_;
  runtime::Runtime* runtime_;
  bool measure_wire_bytes_;
};

}  // namespace fabricpp::node

#endif  // FABRICPP_NODE_LOCAL_MESH_H_
