#ifndef FABRICPP_NODE_MESH_H_
#define FABRICPP_NODE_MESH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "fabric/config.h"
#include "proto/block.h"
#include "proto/wire_format.h"
#include "runtime/runtime.h"

namespace fabricpp::node {

/// The node messages, grouped by the kind of node that handles them. Each
/// is a wire message (proto/wire_format.h): the sender builds it, and the
/// mesh either delivers it in-process or encodes it into a frame.
///
/// A peer handles its messages on the lane of the channel they carry. Nodes
/// send blocks through Mesh::SendBlock and Mesh::BroadcastBlock, which share
/// one block across peers; the BlockMsg arm is how a block decoded from a
/// socket frame is delivered.
using PeerMessage =
    std::variant<proto::ProposalMsg, proto::ChainInfoMsg, proto::BlockMsg>;
/// The orderer handles its messages on the lane of the channel they carry.
using OrdererMessage =
    std::variant<proto::TransactionMsg, proto::BlockRequestMsg>;
/// A client handles its messages on its home endpoint. Replies and BUSY
/// name the client by its global index (directory order), outcomes by name.
using ClientMessage = std::variant<proto::EndorsementReplyMsg, proto::BusyMsg,
                                   proto::OutcomeMsg>;

/// The message fabric between node state machines. Every cross-node send a
/// client, peer or orderer makes goes through this seam as a wire message,
/// so the same state-machine code runs whether the destination lives in
/// this process or in another one. Both implementations hand each message
/// to one delivery table (node/deliver.h), which knows its target lane and
/// handler:
///  - LocalMesh (sim and thread runtimes): the routed handler call becomes
///    one runtime::Transport task;
///  - fabric::SocketHost: the message is encoded into a wire frame and
///    shipped over TCP (DESIGN.md §15); the receiving host decodes the
///    frame and posts the routed handler call to the target's lane.
/// Blocks are the one special case: one shared block fans out to every
/// peer.
///
/// Contract:
///  - All methods are called on the *sender's* endpoint context.
///  - `size_bytes` is the modeled wire size (ByteSize() + kMessageOverhead)
///    the node computed; the sim's network cost model charges it verbatim.
///    Implementations measure real framed bytes separately (Metrics
///    transport counters) so the deterministic report never depends on the
///    actual encoding.
///  - Destinations are indices or names, never pointers: peer i, the
///    orderer, client `client_index` (directory order), or a client by
///    name. A message with no route (a client nobody hosts) is dropped.
///  - Delivery is at-most-once and unordered across destinations, exactly
///    like the underlying transports; the node layer already tolerates loss
///    via timeouts and block refetch.
class Mesh {
 public:
  virtual ~Mesh() = default;

  /// Client -> peer (proposal), orderer -> peer (chain info).
  virtual void SendToPeer(runtime::Endpoint& from, uint32_t peer_index,
                          PeerMessage msg, uint64_t size_bytes) = 0;

  /// Client -> orderer (transaction), peer -> orderer (block request).
  virtual void SendToOrderer(runtime::Endpoint& from, OrdererMessage msg,
                             uint64_t size_bytes) = 0;

  /// Peer -> client (endorsement reply, BUSY, outcome), orderer -> client
  /// (BUSY, early-abort outcome).
  virtual void SendToClient(runtime::Endpoint& from, ClientMessage msg,
                            uint64_t size_bytes) = 0;

  /// True iff a final outcome for `client` can reach its state machine from
  /// here (it is hosted locally, or a client host is connected that hosts
  /// it). Peers use this to decide ResolveFired-vs-Resolve accounting.
  virtual bool RoutesToClient(const std::string& client) = 0;

  /// Orderer -> one peer: a block it asked for again.
  virtual void SendBlock(runtime::Endpoint& from, uint32_t peer_index,
                         uint32_t channel,
                         std::shared_ptr<proto::Block> block,
                         uint64_t block_bytes) = 0;

  /// Orderer -> every peer: a newly cut block (paper §2.2.2 / Appendix A.2
  /// steps 8-9), shipped directly to each peer. The paper's gossip relay
  /// through each org's leader peer is not modeled.
  virtual void BroadcastBlock(runtime::Endpoint& from, uint32_t channel,
                              std::shared_ptr<proto::Block> block,
                              uint64_t block_bytes) = 0;
};

/// Canonical client naming, shared by every composition root so a client's
/// name alone identifies it across processes: channel c, in-channel index i
/// -> "client_c<c>_<i>".
std::string ClientNameFor(uint32_t channel, uint32_t index_in_channel);

/// Inverts ClientNameFor: the global index (channel-major directory order)
/// of the client named `name`, or nullopt when `name` is not the name of
/// one of the cluster's clients (an external submitter).
std::optional<uint32_t> ClientIndexOf(const std::string& name,
                                      const fabric::FabricConfig& config);

}  // namespace fabricpp::node

#endif  // FABRICPP_NODE_MESH_H_
