#ifndef FABRICPP_NODE_PEER_NODE_H_
#define FABRICPP_NODE_PEER_NODE_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger/ledger.h"
#include "node/node_context.h"
#include "peer/endorser.h"
#include "peer/validator.h"
#include "proto/block.h"
#include "proto/transaction.h"
#include "runtime/runtime.h"
#include "statedb/state_db.h"

namespace fabricpp::node {

/// One peer of the network: endorsement (simulation phase) and validation +
/// commit, per channel.
///
/// Execution contexts: every handler and callback for a channel runs on
/// that channel's lane endpoint. Under the simulation runtime (and with
/// one channel) there is a single lane — the historical one-endpoint peer,
/// event order untouched. Under the thread runtime with multiple channels
/// the peer runs ChannelLaneCount commit lanes (per-lane endpoint,
/// executor, and validator; channels round-robin), so independent
/// channels endorse and commit in parallel. A channel's entire state lives
/// on exactly one lane — still single-writer, no locks on peer state.
/// Crash()/Restart() remain simulation-only (single lane).
class PeerNode {
 public:
  PeerNode(const NodeContext& ctx, uint32_t index, std::string name,
           std::string org);

  const std::string& name() const { return name_; }
  const std::string& org() const { return org_; }
  uint32_t index() const { return index_; }
  runtime::Endpoint& endpoint() { return *lanes_[0].endpoint; }
  runtime::NodeId node_id() const { return lanes_[0].endpoint->id(); }
  /// The lane endpoint channel `channel`'s pipeline runs on (== endpoint()
  /// under sim or with a single lane). Messages for the channel must be
  /// delivered here.
  runtime::Endpoint& endpoint_for(uint32_t channel) {
    return *lane_for(channel).endpoint;
  }
  uint32_t num_channels() const {
    return static_cast<uint32_t>(channels_.size());
  }

  /// Delivery of a proposal from a client (simulation phase entry).
  void HandleProposal(uint32_t channel, proto::Proposal proposal,
                      uint32_t client_index);

  /// Delivery of a block from the ordering service (validation entry).
  /// Blocks are admitted strictly in chain order: duplicates are discarded,
  /// out-of-order arrivals are buffered, tampered payloads are rejected, and
  /// a detected gap triggers a re-fetch from the orderer.
  void HandleBlock(uint32_t channel, std::shared_ptr<proto::Block> block);

  /// Orderer's reply to a block-fetch request: the highest block number it
  /// has dispatched so far on `channel`.
  void HandleChainInfo(uint32_t channel, uint64_t orderer_height);

  /// Asks the orderer to re-send blocks from next_accept on. Also the
  /// anti-entropy entry the composition root's SyncPeers drives.
  void RequestMissingBlocks(uint32_t channel);

  /// Marks `channel` as catching up and asks the orderer for the blocks it
  /// is missing, re-asking on the fetch timer. Until HandleChainInfo
  /// reports parity with the orderer's chain, the channel answers
  /// proposals with BUSY instead of endorsing from stale state. Restart()
  /// runs it on every channel; so does a socket peer host at start, whose
  /// daemon starts with empty memory. Runs on the channel's lane.
  void StartCatchUp(uint32_t channel);

  /// Crash simulation. Crash() drops everything in flight (running
  /// simulations, queued blocks, the validation pipeline) but keeps the
  /// durable state — ledger and state database — like a process kill on a
  /// machine with an intact disk. Restart() rejoins and catches up on
  /// missed blocks by fetching them from the orderer (StartCatchUp).
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  /// Pre-warms every lane validator's verification-identity cache
  /// (composition root, once the full peer roster is known).
  void PrewarmIdentities(const std::vector<std::string>& names) {
    for (Lane& lane : lanes_) lane.validator->PrewarmIdentities(names);
  }

  const ledger::Ledger& ledger(uint32_t channel) const {
    return channels_[channel].ledger;
  }
  const statedb::StateDb& state_db(uint32_t channel) const {
    return channels_[channel].db;
  }
  /// Resets every channel's state database to an empty layer over the
  /// shared, read-only `genesis` (composition root, before any endpoint
  /// thread starts).
  void LayerStateOn(const std::shared_ptr<const statedb::StateDb>& genesis) {
    for (ChannelState& channel : channels_) {
      channel.db = statedb::StateDb(genesis);
    }
  }

 private:
  struct PendingSim {
    proto::Proposal proposal;
    uint32_t client_index;
  };

  /// Per-channel peer state, including the vanilla coarse-lock bookkeeping
  /// (paper §4.2.1): simulations hold the shared side of the state lock;
  /// the block's *commit stage* (MVCC check + state update) needs the
  /// exclusive side. Endorsement-policy verification does not touch the
  /// state and runs outside the lock, as in Fabric 1.2.
  struct ChannelState {
    statedb::StateDb db;
    ledger::Ledger ledger;
    uint32_t active_sims = 0;
    /// A block is in the validation pipeline (serializes blocks).
    bool validating = false;
    /// The block finished policy checks and is waiting for / holding the
    /// exclusive lock; simulations queue while set (coarse mode).
    bool commit_phase = false;
    bool commit_submitted = false;
    std::shared_ptr<proto::Block> current_block;
    std::deque<PendingSim> pending_sims;
    std::deque<std::shared_ptr<proto::Block>> pending_blocks;
    /// Next block number this peer will admit into its pipeline. Blocks
    /// below it are duplicates; blocks above it wait in reorder_buffer.
    uint64_t next_accept = 1;
    /// Out-of-order arrivals, keyed by block number.
    std::map<uint64_t, std::shared_ptr<proto::Block>> reorder_buffer;
    bool fetch_timer_armed = false;
    /// Catch-up bookkeeping: set between StartCatchUp() and chain parity;
    /// proposals are refused with BUSY meanwhile.
    bool recovering = false;
    runtime::TimeMicros restart_time = 0;

    /// Drops the block pipeline — the block in validation, queued and
    /// buffered blocks — and admits again from the ledger's height.
    void ResetBlockPipeline();
  };

  void StartSimulation(uint32_t channel, PendingSim sim);
  void FinishSimulation(uint32_t channel, uint32_t client_index,
                        uint64_t proposal_id,
                        Result<peer::EndorsementResponse> response);
  void MaybeStartValidation(uint32_t channel);
  void TryStartCommit(uint32_t channel);
  void FinishCommit(uint32_t channel);
  /// Moves contiguous buffered blocks into the validation queue.
  void DrainReorderBuffer(uint32_t channel);
  /// Arms a one-shot retry timer that re-fetches while a gap persists.
  void ArmFetchTimer(uint32_t channel);
  /// Resets the channel's block pipeline after a rejected (corrupted)
  /// block, so a clean copy can be re-fetched and admitted.
  void ResyncChannel(uint32_t channel);

  const fabric::FabricConfig& config() const { return *ctx_.config; }
  fabric::Metrics& metrics() { return *ctx_.metrics; }
  runtime::Clock& clock() { return lanes_[0].endpoint->clock(); }
  runtime::Transport& transport() { return ctx_.runtime->transport(); }

  /// One commit lane: its endpoint thread, executor and validator. Lane 0
  /// is the primary context. Validators are per lane: ParallelFor pools are
  /// single-user, so lanes committing concurrently must not share one.
  struct Lane {
    runtime::Endpoint* endpoint;
    runtime::Executor* cpu;
    std::unique_ptr<peer::Validator> validator;
  };

  Lane& lane_for(uint32_t channel) { return lanes_[channel % lanes_.size()]; }
  runtime::Clock& clock_for(uint32_t channel) {
    return lane_for(channel).endpoint->clock();
  }
  runtime::Executor& cpu_for(uint32_t channel) {
    return *lane_for(channel).cpu;
  }
  peer::Validator& validator_for(uint32_t channel) {
    return *lane_for(channel).validator;
  }

  NodeContext ctx_;
  uint32_t index_;
  std::string name_;
  std::string org_;
  /// Shared across lanes: Endorse is const and the identity cache is
  /// internally synchronized.
  peer::Endorser endorser_;
  std::vector<Lane> lanes_;
  std::vector<ChannelState> channels_;
  /// Crash simulation is sim-only (single lane, single thread): never
  /// written under the thread runtime, so the cross-lane reads race-free.
  bool crashed_ = false;
  /// Bumped on every crash; CPU-job callbacks from before the crash carry
  /// the old epoch and turn into no-ops (the work died with the process).
  uint64_t crash_epoch_ = 0;
};

}  // namespace fabricpp::node

#endif  // FABRICPP_NODE_PEER_NODE_H_
