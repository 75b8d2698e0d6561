#ifndef FABRICPP_NODE_ORDERER_NODE_H_
#define FABRICPP_NODE_ORDERER_NODE_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "node/consensus.h"
#include "node/fair_scheduler.h"
#include "node/node_context.h"
#include "ordering/batch_cutter.h"
#include "ordering/reorderer.h"
#include "proto/block.h"
#include "proto/transaction.h"
#include "runtime/runtime.h"

namespace fabricpp::node {

/// The (trusted) ordering service: receives endorsed transactions, cuts
/// batches, optionally early-aborts and reorders (Fabric++), seals blocks,
/// hands them to the consensus backend, and distributes committed blocks to
/// every peer.
///
/// Execution contexts: every handler for a channel runs on that channel's
/// lane endpoint. Under the simulation runtime (and with one channel) there
/// is exactly one lane — the historical single-endpoint orderer, event
/// order untouched. Under the thread runtime with multiple channels, the
/// pipeline is sharded across ChannelLaneCount lanes (per-lane endpoint,
/// executor, and reorder pool; channels round-robin), so independent
/// channels order in parallel instead of serializing on one mailbox
/// thread. Per-channel state stays single-writer: a channel's entire
/// pipeline lives on exactly one lane.
class OrdererNode {
 public:
  explicit OrdererNode(const NodeContext& ctx);

  /// Wires the consensus backend (composition root, before any traffic).
  /// The service's deliver callback is pointed at DispatchBlock.
  void SetConsensus(ConsensusService* consensus);

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

  /// Delivery of a transaction from a client.
  void HandleTransaction(uint32_t channel, proto::Transaction tx);

  /// A peer's catch-up request: re-send dispatched blocks of `channel`
  /// numbered >= `from_number` (bounded per request), then report the
  /// highest dispatched number so the peer knows whether it is caught up.
  void HandleBlockRequest(uint32_t channel, uint32_t peer_index,
                          uint64_t from_number);

  /// Ships a consensus-committed block to every peer. Public because it is
  /// the consensus backend's delivery entry; runs on the orderer's context.
  void DispatchBlock(uint32_t channel, std::shared_ptr<proto::Block> block,
                     uint64_t block_bytes);

  uint64_t blocks_cut() const {
    return blocks_cut_.load(std::memory_order_relaxed);
  }
  /// Stats of the channel's most recent reordering pass (channel 0 by
  /// default, matching the historical single-channel accessor).
  const ordering::ReorderStats& last_reorder_stats(uint32_t channel = 0) const {
    return channels_[channel].last_reorder_stats;
  }

 private:
  /// A cut batch waiting for the reorder stage, stamped with its cut time
  /// so the pipeline-stall metric can measure how long it sat.
  struct PendingBatch {
    ordering::Batch batch;
    runtime::TimeMicros enqueued_at;
  };

  /// A block whose reorder stage finished, awaiting its turn at consensus.
  struct StagedBlock {
    std::shared_ptr<proto::Block> block;
    uint64_t block_bytes;
  };

  struct ChannelState {
    ChannelState(ordering::BatchCutConfig config,
                 FairScheduler::Options admission_options)
        : cutter(config), admission(admission_options) {}
    ordering::BatchCutter cutter;
    /// Bounded per-client admission queues in front of the verify stage
    /// (admission_queue_depth > 0; unused otherwise). Offer refusals turn
    /// into BUSY replies, never silent drops.
    FairScheduler admission;
    /// Admitted transactions whose verify+order CPU cost is in flight.
    /// PumpAdmission keeps this at most 2 * orderer_cores so the admission
    /// queue — not the executor — holds the backlog.
    uint32_t verify_inflight = 0;
    uint64_t next_block_number = 1;
    crypto::Digest prev_hash{};
    uint64_t timer_generation = 0;
    /// Single-producer queue between the batch cutter and the reorder
    /// stage. Admission is bounded by ordering_pipeline_depth: with depth
    /// 1 this is the seed's strictly serial behavior, with depth d the
    /// reorder+hash of up to d consecutive blocks overlaps on the
    /// orderer's cores while block N+d's batch accumulates.
    std::deque<PendingBatch> batch_queue;
    /// Batches currently inside the reorder stage (their virtual CPU cost
    /// has been submitted but not completed).
    uint32_t stage_inflight = 0;
    /// Stage sequence numbers, assigned at admission in cut order. Blocks
    /// are sealed (numbered + hash-chained) at admission, but a deeper
    /// pipeline can finish a light block's stage before a heavy
    /// predecessor's — the staged map + next_submit_seq drain re-imposes
    /// chain order on consensus submission.
    uint64_t next_stage_seq = 0;
    uint64_t next_submit_seq = 0;
    std::map<uint64_t, StagedBlock> staged;
    /// Every dispatched block, keyed by number — the delivery service peers
    /// fetch from when they detect a gap or recover from a crash.
    std::map<uint64_t, std::shared_ptr<proto::Block>> dispatched;
    /// The channel's most recent reordering pass (per channel: lanes run
    /// passes concurrently under the thread runtime).
    ordering::ReorderStats last_reorder_stats;
  };

  void Enqueue(uint32_t channel, proto::Transaction tx);
  void NotifyEarlyAbort(uint32_t channel, const proto::Transaction& tx,
                        proto::TxValidationCode code);
  /// Tells `client_name` its transaction was refused for overload, with the
  /// configured retry-after hint. External submitters (not one of the
  /// cluster's clients) are only counted.
  void NotifyBusy(uint32_t channel, const std::string& client_name,
                  uint64_t proposal_id);
  /// Drains the fair scheduler into the verify stage while the per-channel
  /// verify window and the batch queue have room — the backpressure valve
  /// that keeps the backlog in the bounded admission queues.
  void PumpAdmission(uint32_t channel);
  void ArmTimer(uint32_t channel);
  /// Admits queued batches into the reorder stage while the pipeline has
  /// capacity, recording a stall for each batch that had to wait.
  void MaybeProcessNextBatch(uint32_t channel);
  /// Runs the Fabric++ ordering-phase logic on a cut batch (early abort +
  /// reordering), seals the block, and charges its virtual cost; the block
  /// proceeds to consensus via FinishBatchStage when the cost is paid.
  void ProcessBatch(uint32_t channel, ordering::Batch batch);
  /// Stage-completion: queues the block for in-order consensus submission,
  /// drains every consecutively finished block, and refills the stage.
  void FinishBatchStage(uint32_t channel, uint64_t seq, StagedBlock done);
  /// Hands a sealed block to the configured consensus backend; distribution
  /// happens on consensus commit (immediately for solo).
  void SubmitToConsensus(uint32_t channel,
                         std::shared_ptr<proto::Block> block,
                         uint64_t block_bytes);

  const fabric::FabricConfig& config() const { return *ctx_.config; }
  fabric::Metrics& metrics() { return *ctx_.metrics; }
  runtime::Transport& transport() { return ctx_.runtime->transport(); }

  /// One ordering lane: its endpoint thread and executor. Lane 0 is the
  /// primary context.
  struct Lane {
    runtime::Endpoint* endpoint;
    runtime::Executor* cpu;
  };

  Lane& lane_for(uint32_t channel) { return lanes_[channel % lanes_.size()]; }
  runtime::Clock& clock_for(uint32_t channel) {
    return lane_for(channel).endpoint->clock();
  }
  runtime::Executor& cpu_for(uint32_t channel) {
    return *lane_for(channel).cpu;
  }

  NodeContext ctx_;
  std::vector<Lane> lanes_;
  ConsensusService* consensus_ = nullptr;
  std::vector<ChannelState> channels_;
  /// Atomic: lanes cut blocks concurrently under the thread runtime.
  std::atomic<uint64_t> blocks_cut_{0};
};

}  // namespace fabricpp::node

#endif  // FABRICPP_NODE_ORDERER_NODE_H_
