#ifndef FABRICPP_FABRIC_RAFT_CONSENSUS_H_
#define FABRICPP_FABRIC_RAFT_CONSENSUS_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fabric/config.h"
#include "node/consensus.h"
#include "raft/raft_node.h"
#include "runtime/runtime.h"

namespace fabricpp::fabric {

/// The crash-fault-tolerant consensus backend (Fabric >= 1.4's etcdraft
/// profile): blocks are delivered only after the Raft log commits them,
/// adding replication latency. One flow on every runtime: each replica
/// lives on its own runtime endpoint ("raft-%u") — a mailbox thread under
/// the thread runtime, the shared event loop under sim — its RPCs ride the
/// runtime transport, and commits are funneled back to the submitting
/// channel's execution context.
///
/// A submitted block is re-proposed until its commit callback fires: a
/// leader crash can lose an accepted entry before replication, and the
/// block must not be lost with it.
class RaftConsensus final : public node::ConsensusService {
 public:
  /// Resolves a channel to the endpoint its deliveries must run on (the
  /// orderer's lane for that channel).
  using EndpointResolver = std::function<runtime::Endpoint*(uint32_t)>;

  /// Adds one endpoint per replica to `runtime`. Call
  /// SetDeliveryEndpointResolver before the first Submit and
  /// cluster().Start() when the run begins.
  RaftConsensus(runtime::Runtime* runtime, const FabricConfig& config);

  void Submit(uint32_t channel, std::shared_ptr<proto::Block> block,
              uint64_t block_bytes) override;

  raft::RaftCluster& cluster() { return *raft_; }

  /// Wires commit delivery back to per-channel execution contexts.
  void SetDeliveryEndpointResolver(EndpointResolver resolver) {
    resolver_ = std::move(resolver);
  }

  /// Stops proposal retries and halts every replica, so no consensus timer
  /// re-arms and the runtime can quiesce. Irreversible.
  void Halt();

  /// Identity of a block in consensus: (channel, block number). Stable
  /// across re-proposals, unlike the Raft log index. A struct rather than
  /// a packed word: the historical `(channel << 48) | number` packing
  /// collided once a channel's block numbers crossed 2^48 — and worse,
  /// collided *between* channels for any number with bits at or above 48.
  struct BlockId {
    uint32_t channel = 0;
    uint64_t number = 0;
    bool operator==(const BlockId&) const = default;
  };

  /// The consensus entry carries the block's identity in its first 12
  /// bytes (LE channel, LE number) and is padded to the block's wire size.
  /// Public for the collision regression tests.
  static Bytes EncodePayload(BlockId id, uint64_t block_bytes);
  static bool DecodePayload(const Bytes& payload, BlockId* id);

 private:
  struct Pending {
    uint32_t channel;
    std::shared_ptr<proto::Block> block;
    uint64_t block_bytes;
  };

  /// Per-channel delivery lane. Each element is touched only on its
  /// channel's resolved endpoint context: Submit runs there, and replica
  /// commit callbacks post back to it.
  struct ChannelLane {
    /// Blocks awaiting consensus commit, keyed by block number.
    std::unordered_map<uint64_t, Pending> pending;
    /// Committed blocks held back until their predecessors deliver —
    /// commits can surface out of chain order when an earlier block's
    /// entry was lost to a leader crash and re-proposed.
    std::map<uint64_t, Pending> ready;
    uint64_t next_deliver = 1;
  };

  /// ProposeOnAll plus a fixed retry on the channel's lane clock, until
  /// the commit erases the pending entry (or Halt()).
  void Propose(uint32_t channel, uint64_t number, uint64_t block_bytes);

  /// Runs on the channel's lane context; first arrival wins (every replica
  /// posts one), delivery is held back into chain order.
  void OnCommit(BlockId id);

  std::unique_ptr<raft::RaftCluster> raft_;
  EndpointResolver resolver_;
  std::vector<ChannelLane> lanes_;  // One per channel, lane-confined.
  std::atomic<bool> halted_{false};
};

}  // namespace fabricpp::fabric

#endif  // FABRICPP_FABRIC_RAFT_CONSENSUS_H_
