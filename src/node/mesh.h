#ifndef FABRICPP_NODE_MESH_H_
#define FABRICPP_NODE_MESH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "peer/endorser.h"
#include "proto/block.h"
#include "proto/transaction.h"
#include "runtime/runtime.h"

namespace fabricpp::node {

struct BusyResponse;

/// The message fabric between node state machines. Every cross-node send a
/// client, peer or orderer makes goes through this seam, typed by message
/// rather than by closure, so the same state-machine code runs whether the
/// destination lives in this process (LocalMesh: the message becomes a
/// runtime::Transport task invoking the target's handler directly — the
/// sim/thread path, byte-identical to the pre-seam closures) or in another
/// one (fabric::SocketHost: the message is encoded into a wire frame and
/// shipped over TCP — DESIGN.md §15).
///
/// Contract:
///  - All methods are called on the *sender's* endpoint context.
///  - `size_bytes` is the modeled wire size (ByteSize() + kMessageOverhead)
///    the node computed; the sim's network cost model charges it verbatim.
///    Implementations measure real framed bytes separately (Metrics
///    transport counters) so the deterministic report never depends on the
///    actual encoding.
///  - Destinations are indices/names, never pointers: peer i, the orderer,
///    client `client_index` (directory order), or a client by name.
///  - Delivery is at-most-once and unordered across destinations, exactly
///    like the underlying transports; the node layer already tolerates loss
///    via timeouts and block refetch.
class Mesh {
 public:
  virtual ~Mesh() = default;

  /// Client -> peer: endorse `proposal`. `client_index` routes the replies.
  virtual void SendProposal(runtime::Endpoint& from, uint32_t peer_index,
                            uint32_t channel, const proto::Proposal& proposal,
                            uint32_t client_index, uint64_t size_bytes) = 0;

  /// Client -> orderer: an endorsed transaction for ordering.
  virtual void SendTransaction(runtime::Endpoint& from, uint32_t channel,
                               proto::Transaction tx, uint64_t size_bytes) = 0;

  /// Peer -> client: the simulation outcome (rwset + endorsement, or the
  /// error that aborted it).
  virtual void SendEndorsementReply(runtime::Endpoint& from,
                                    uint32_t client_index,
                                    uint64_t proposal_id,
                                    Result<peer::EndorsementResponse> response,
                                    uint64_t size_bytes) = 0;

  /// Peer -> client: admission refused, retry later.
  virtual void SendBusy(runtime::Endpoint& from, uint32_t client_index,
                        const BusyResponse& busy) = 0;

  /// Orderer -> client, by name (the orderer only knows names from
  /// transactions). Unknown names are dropped.
  virtual void SendBusyByName(runtime::Endpoint& from,
                              const std::string& client,
                              const BusyResponse& busy) = 0;

  /// True iff a final outcome for `client` can reach its state machine from
  /// here (it is hosted locally, or a client host is connected that hosts
  /// it). Peers use this to decide ResolveFired-vs-Resolve accounting.
  virtual bool RoutesToClient(const std::string& client) = 0;

  /// Peer/orderer -> client: the final validation code for one proposal.
  /// kValid completes the proposal; any abort code triggers the client's
  /// resubmission path.
  virtual void SendOutcome(runtime::Endpoint& from, const std::string& client,
                           uint64_t proposal_id,
                           proto::TxValidationCode code) = 0;

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

  /// Orderer -> peer: current dispatched chain height (gap detection).
  virtual void SendChainInfo(runtime::Endpoint& from, uint32_t peer_index,
                             uint32_t channel, uint64_t height) = 0;

  /// Peer -> orderer: re-send blocks from `from_number` on.
  virtual void SendBlockRequest(runtime::Endpoint& from, uint32_t channel,
                                uint32_t peer_index, uint64_t from_number) = 0;
};

/// Canonical client naming, shared by every composition root so a client's
/// name alone identifies it across processes: channel c, in-channel index i
/// -> "client_c<c>_<i>".
std::string ClientNameFor(uint32_t channel, uint32_t index_in_channel);

/// Inverts ClientNameFor. Returns false on anything else.
bool ParseClientName(const std::string& name, uint32_t* channel,
                     uint32_t* index_in_channel);

}  // namespace fabricpp::node

#endif  // FABRICPP_NODE_MESH_H_
