#include "node/orderer_node.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "ledger/ledger.h"
#include "node/client_node.h"
#include "node/lanes.h"
#include "node/mesh.h"
#include "node/peer_node.h"
#include "node/wire.h"
#include "ordering/early_abort.h"

namespace fabricpp::node {

OrdererNode::OrdererNode(const NodeContext& ctx) : ctx_(ctx) {
  // Lane 0 is the primary context; extra lanes (thread runtime,
  // multi-channel) each get their own endpoint thread and executor so
  // channels stop serializing on one mailbox.
  const uint32_t lanes = ChannelLaneCount(*ctx.config, ctx.runtime->mode());
  lanes_.reserve(lanes);
  for (uint32_t i = 0; i < lanes; ++i) {
    const std::string lane = LaneName("orderer", i);
    runtime::Endpoint& ep = ctx.runtime->AddEndpoint(lane);
    runtime::Executor& cpu =
        ctx.runtime->AddExecutor(ep, lane + "-cpu", ctx.config->orderer_cores);
    lanes_.push_back({&ep, &cpu});
  }
  const crypto::Digest genesis_hash = ledger::Ledger().LastHash();
  FairScheduler::Options admission;
  admission.per_client_depth = ctx.config->admission_queue_depth;
  admission.quantum = ctx.config->fair_sched_quantum;
  admission.conflict_penalty = ctx.config->fair_conflict_penalty;
  channels_.reserve(ctx.config->num_channels);
  for (uint32_t c = 0; c < ctx.config->num_channels; ++c) {
    channels_.emplace_back(ctx.config->block, admission);
    channels_.back().prev_hash = genesis_hash;
  }
}

void OrdererNode::SetConsensus(ConsensusService* consensus) {
  consensus_ = consensus;
  consensus_->SetDeliverCallback(
      [this](uint32_t channel, std::shared_ptr<proto::Block> block,
             uint64_t block_bytes) {
        DispatchBlock(channel, std::move(block), block_bytes);
      });
}

void OrdererNode::SubmitToConsensus(uint32_t channel,
                                    std::shared_ptr<proto::Block> block,
                                    uint64_t block_bytes) {
  consensus_->Submit(channel, std::move(block), block_bytes);
}

void OrdererNode::DispatchBlock(uint32_t channel,
                                std::shared_ptr<proto::Block> block,
                                uint64_t block_bytes) {
  // Keep the block servable: peers that miss this delivery (loss, crash,
  // partition) fetch it later via HandleBlockRequest.
  channels_[channel].dispatched[block->header.number] = block;
  ctx_.mesh->BroadcastBlock(endpoint_for(channel), channel, std::move(block),
                            block_bytes);
}

void OrdererNode::HandleBlockRequest(uint32_t channel, uint32_t peer_index,
                                     uint64_t from_number) {
  ChannelState& ch = channels_[channel];
  // Bounded batch per request: the peer re-requests from its new frontier
  // until it reports parity (HandleChainInfo), so a long outage drains in
  // successive rounds instead of one giant burst.
  constexpr uint32_t kMaxBlocksPerFetch = 16;
  uint32_t sent = 0;
  for (auto it = ch.dispatched.lower_bound(from_number);
       it != ch.dispatched.end() && sent < kMaxBlocksPerFetch; ++it, ++sent) {
    std::shared_ptr<proto::Block> block = it->second;
    const uint64_t block_bytes = block->ByteSize() + kMessageOverhead;
    ctx_.mesh->SendBlock(endpoint_for(channel), peer_index, channel, block,
                         block_bytes);
  }
  const uint64_t highest =
      ch.dispatched.empty() ? 0 : ch.dispatched.rbegin()->first;
  ctx_.mesh->SendToPeer(endpoint_for(channel), peer_index,
                        proto::ChainInfoMsg{channel, highest},
                        kMessageOverhead);
}

void OrdererNode::HandleTransaction(uint32_t channel, proto::Transaction tx) {
  const fabric::CostModel& cost = config().cost;
  if (config().admission_queue_depth == 0) {
    // Admission control off: the seed's unbounded path. The ordering
    // service authenticates the submitting client before enqueueing (one
    // signature verification per transaction).
    cpu_for(channel).Submit(cost.verify + cost.order_per_tx,
                            [this, channel, tx = std::move(tx)]() mutable {
                              Enqueue(channel, std::move(tx));
                            });
    return;
  }
  ChannelState& ch = channels_[channel];
  const std::string client = tx.client;
  const uint64_t proposal_id = tx.proposal_id;
  if (!ch.admission.Offer(tx)) {
    // The client's admission queue is full: refuse explicitly with a
    // retry-after hint instead of buffering without bound (or dropping
    // silently). The refusal costs no CPU — shedding must stay cheap.
    metrics().NoteOrdererAdmission(false);
    NotifyBusy(channel, client, proposal_id);
    return;
  }
  metrics().NoteOrdererAdmission(true);
  PumpAdmission(channel);
}

void OrdererNode::NotifyBusy(uint32_t channel,
                             const std::string& client_name,
                             uint64_t proposal_id) {
  const std::optional<uint32_t> client_index =
      ClientIndexOf(client_name, config());
  if (!client_index.has_value()) return;
  ctx_.mesh->SendToClient(
      endpoint_for(channel),
      proto::BusyMsg{*client_index, proposal_id, config().busy_retry_hint},
      kMessageOverhead);
}

void OrdererNode::PumpAdmission(uint32_t channel) {
  ChannelState& ch = channels_[channel];
  const fabric::CostModel& cost = config().cost;
  // Enough verify jobs to keep the cores busy, few enough that the backlog
  // waits in the fair scheduler (where DRR ordering applies) rather than in
  // the executor's FIFO. The batch-queue bound stops admitting cut batches
  // faster than the reorder stage drains them.
  const uint32_t verify_window = 2 * config().orderer_cores;
  while (ch.verify_inflight < verify_window &&
         ch.batch_queue.size() <= config().ordering_pipeline_depth) {
    std::optional<proto::Transaction> tx = ch.admission.PollNext();
    if (!tx.has_value()) return;
    ++ch.verify_inflight;
    cpu_for(channel).Submit(cost.verify + cost.order_per_tx,
                            [this, channel, tx = std::move(*tx)]() mutable {
                              --channels_[channel].verify_inflight;
                              Enqueue(channel, std::move(tx));
                              PumpAdmission(channel);
                            });
  }
}

void OrdererNode::NotifyEarlyAbort(uint32_t channel,
                                   const proto::Transaction& tx,
                                   proto::TxValidationCode code) {
  // Early abort notification to the client (paper §5.2: aborted
  // transactions leave the pipeline immediately and the client learns of it
  // without waiting for validation). The code travels with the outcome so a
  // remote client host can account the abort under the right bucket.
  ctx_.mesh->SendToClient(endpoint_for(channel),
                          proto::OutcomeMsg{tx.client, tx.proposal_id, code},
                          kMessageOverhead);
}

void OrdererNode::Enqueue(uint32_t channel, proto::Transaction tx) {
  ChannelState& ch = channels_[channel];
  const bool was_empty = ch.cutter.pending_transactions() == 0;
  std::optional<ordering::Batch> batch = ch.cutter.Add(std::move(tx));
  if (batch.has_value()) {
    ++ch.timer_generation;  // Cancel the pending timeout.
    ch.batch_queue.push_back({std::move(*batch), clock_for(channel).Now()});
    MaybeProcessNextBatch(channel);
  } else if (was_empty) {
    ArmTimer(channel);
  }
}

void OrdererNode::MaybeProcessNextBatch(uint32_t channel) {
  ChannelState& ch = channels_[channel];
  const uint32_t depth = config().ordering_pipeline_depth;
  while (!ch.batch_queue.empty() && ch.stage_inflight < depth) {
    PendingBatch pending = std::move(ch.batch_queue.front());
    ch.batch_queue.pop_front();
    const runtime::TimeMicros now = clock_for(channel).Now();
    if (now > pending.enqueued_at) {
      // The batch was cut while the reorder stage was at capacity — the
      // pipeline stall the ordering_pipeline_depth knob exists to hide.
      metrics().NoteOrderingStall(now - pending.enqueued_at, now);
    }
    ProcessBatch(channel, std::move(pending.batch));
  }
  // Draining the batch queue may have re-opened the admission valve.
  if (config().admission_queue_depth > 0) PumpAdmission(channel);
}

void OrdererNode::ArmTimer(uint32_t channel) {
  ChannelState& ch = channels_[channel];
  const uint64_t generation = ch.timer_generation;
  clock_for(channel).Schedule(
      config().block.batch_timeout, [this, channel, generation]() {
        ChannelState& state = channels_[channel];
        if (state.timer_generation != generation) return;  // Was cut already.
        ++state.timer_generation;
        std::optional<ordering::Batch> batch =
            state.cutter.Flush(ordering::CutReason::kTimeout);
        if (batch.has_value()) {
          state.batch_queue.push_back(
              {std::move(*batch), clock_for(channel).Now()});
          MaybeProcessNextBatch(channel);
        }
      });
}

void OrdererNode::ProcessBatch(uint32_t channel, ordering::Batch batch) {
  const fabric::FabricConfig& cfg = config();
  const fabric::CostModel& cost = cfg.cost;
  const runtime::TimeMicros now = clock_for(channel).Now();
  runtime::TimeMicros service = cost.block_fixed_order;

  std::vector<proto::Transaction>& txs = batch.transactions;
  std::vector<bool> dropped(txs.size(), false);

  // Fabric++ early abort in the ordering phase (paper §5.2.2): transactions
  // whose reads are version-skewed against a sibling in the same batch can
  // never commit; drop them before reordering and distribution.
  if (cfg.enable_early_abort_ordering) {
    std::vector<const proto::ReadWriteSet*> rwsets;
    rwsets.reserve(txs.size());
    for (const proto::Transaction& tx : txs) rwsets.push_back(&tx.rwset);
    for (const uint32_t victim : ordering::FindVersionSkewAborts(rwsets)) {
      dropped[victim] = true;
      metrics().Resolve(
          fabric::ProposalKey(txs[victim].client, txs[victim].proposal_id),
          fabric::TxOutcome::kAbortVersionSkew, now);
      NotifyEarlyAbort(channel, txs[victim],
                       proto::TxValidationCode::kAbortedVersionSkew);
    }
    service += cost.order_per_tx * txs.size();  // The skew scan.
  }

  std::vector<uint32_t> survivors;
  survivors.reserve(txs.size());
  for (uint32_t i = 0; i < txs.size(); ++i) {
    if (!dropped[i]) survivors.push_back(i);
  }

  // Fabric++ transaction reordering (paper §5.1): replace the arrival order
  // by a serializable schedule, aborting cycle participants.
  std::vector<uint32_t> final_order = survivors;
  if (cfg.enable_reordering && !survivors.empty()) {
    std::vector<const proto::ReadWriteSet*> rwsets;
    rwsets.reserve(survivors.size());
    for (const uint32_t i : survivors) rwsets.push_back(&txs[i].rwset);
    ordering::ReorderResult reorder =
        ordering::ReorderTransactions(rwsets, cfg.reorder);
    channels_[channel].last_reorder_stats = reorder.stats;
    // Wall-clock of the pass goes to the measurement side of Metrics, never
    // into the deterministic stats/report (same rule as validation timings).
    metrics().NoteReorderWallClock(
        reorder.elapsed_wall_us, reorder.stage_wall.build_us,
        reorder.stage_wall.enumerate_us, reorder.stage_wall.break_us,
        reorder.stage_wall.schedule_us);
    for (const uint32_t victim : reorder.aborted) {
      const proto::Transaction& tx = txs[survivors[victim]];
      metrics().Resolve(fabric::ProposalKey(tx.client, tx.proposal_id),
                        fabric::TxOutcome::kAbortReorderer, now);
      NotifyEarlyAbort(channel, tx,
                       proto::TxValidationCode::kAbortedByReorderer);
    }
    final_order.clear();
    for (const uint32_t pos : reorder.order) {
      final_order.push_back(survivors[pos]);
    }
    service += cost.reorder_per_tx * reorder.stats.num_transactions +
               cost.reorder_per_cycle * reorder.stats.num_cycles_found;
  }

  if (final_order.empty()) {
    // Nothing survived; no block to distribute and no pipeline slot taken —
    // the admission loop in MaybeProcessNextBatch continues to the next
    // queued batch.
    return;
  }

  auto block = std::make_shared<proto::Block>();
  block->transactions.reserve(final_order.size());
  for (const uint32_t i : final_order) {
    block->transactions.push_back(std::move(txs[i]));
  }

  // Seal at admission: batches are admitted in cut order, so numbering and
  // hash-chaining here keeps the chain identical for any pipeline depth
  // even though a deeper pipeline lets several blocks' ordering costs
  // overlap below.
  ChannelState& ch = channels_[channel];
  block->header.number = ch.next_block_number++;
  block->header.previous_hash = ch.prev_hash;
  block->SealDataHash();
  ch.prev_hash = block->header.Hash();
  blocks_cut_.fetch_add(1, std::memory_order_relaxed);

  if (cfg.fair_conflict_penalty > 0) {
    // Feed the conflict-aware scheduler the block's write keys: keys
    // written often across recent blocks become "hot", and queued
    // transactions touching them pay extra deficit.
    std::vector<std::string> write_keys;
    for (const proto::Transaction& tx : block->transactions) {
      for (const proto::WriteItem& w : tx.rwset.writes) {
        write_keys.push_back(w.key);
      }
    }
    ch.admission.NoteSealedBatch(write_keys);
  }

  const uint64_t block_bytes = block->ByteSize() + kMessageOverhead;
  service += cost.hash_per_kb * (block_bytes / 1024 + 1);

  const uint64_t seq = ch.next_stage_seq++;
  ++ch.stage_inflight;
  cpu_for(channel).Submit(
      service, [this, channel, seq, block, block_bytes]() {
        FinishBatchStage(channel, seq, StagedBlock{block, block_bytes});
      });
}

void OrdererNode::FinishBatchStage(uint32_t channel, uint64_t seq,
                                   StagedBlock done) {
  ChannelState& ch = channels_[channel];
  --ch.stage_inflight;
  ch.staged.emplace(seq, std::move(done));
  // Blocks enter consensus strictly in chain order even when a later,
  // lighter block pays off its ordering cost before a heavy predecessor.
  while (true) {
    const auto it = ch.staged.find(ch.next_submit_seq);
    if (it == ch.staged.end()) break;
    StagedBlock ready = std::move(it->second);
    ch.staged.erase(it);
    ++ch.next_submit_seq;
    SubmitToConsensus(channel, std::move(ready.block), ready.block_bytes);
  }
  MaybeProcessNextBatch(channel);
}

}  // namespace fabricpp::node
