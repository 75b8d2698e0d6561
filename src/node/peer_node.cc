#include "node/peer_node.h"

#include <utility>

#include "common/logging.h"
#include "node/client_node.h"
#include "node/lanes.h"
#include "node/mesh.h"
#include "node/orderer_node.h"
#include "node/wire.h"

namespace fabricpp::node {

PeerNode::PeerNode(const NodeContext& ctx, uint32_t index, std::string name,
                   std::string org)
    : ctx_(ctx),
      index_(index),
      name_(std::move(name)),
      org_(std::move(org)),
      endorser_(name_, org_, ctx.config->seed, ctx.registry),
      channels_(ctx.config->num_channels) {
  // Lane 0 is the primary context; extra lanes (thread runtime,
  // multi-channel) each get their own endpoint thread, executor, and
  // validator, so independent channels endorse and commit in parallel.
  // Each lane requests its endpoint, executor and pool in that order: the
  // runtime numbers endpoints as they are added, and sim fingerprints see
  // the numbers.
  const uint32_t lanes = ChannelLaneCount(*ctx.config, ctx.runtime->mode());
  lanes_.reserve(lanes);
  for (uint32_t i = 0; i < lanes; ++i) {
    const std::string lane = LaneName(name_, i);
    runtime::Endpoint& ep = ctx.runtime->AddEndpoint(lane);
    runtime::Executor& cpu =
        ctx.runtime->AddExecutor(ep, lane + "-cpu", ctx.config->peer_cores);
    ThreadPool* pool = ctx.runtime->RequestPool(ctx.config->validator_workers);
    auto validator =
        std::make_unique<peer::Validator>(ctx.config->seed, ctx.policies, pool);
    lanes_.push_back({&ep, &cpu, std::move(validator)});
  }
}

void PeerNode::HandleProposal(uint32_t channel, proto::Proposal proposal,
                              uint32_t client_index) {
  if (crashed_) return;
  ChannelState& ch = channels_[channel];
  const uint32_t depth = config().admission_queue_depth;
  if (ch.recovering ||
      (depth != 0 && ch.active_sims + ch.pending_sims.size() >= depth)) {
    // Refuse explicitly with a retry-after hint when the channel is still
    // catching up on blocks it missed (any read may be stale, so the
    // endorsement would mismatch the other orgs' or fail MVCC later — the
    // reason for paper §5.2.1's early abort), or when endorser admission
    // control finds the simulation stage saturated. The refusal costs no
    // CPU (shedding must stay cheap): the proposal never enters
    // simulation, and the client retries, usually at another endorser.
    metrics().NoteEndorserAdmission(false);
    ctx_.mesh->SendToClient(endpoint_for(channel),
                            proto::BusyMsg{client_index, proposal.proposal_id,
                                           config().busy_retry_hint},
                            kMessageOverhead);
    return;
  }
  if (depth != 0) metrics().NoteEndorserAdmission(true);
  PendingSim sim{std::move(proposal), client_index};
  if (config().concurrency == fabric::ConcurrencyMode::kCoarseLock &&
      ch.commit_phase) {
    // Vanilla: a block's commit stage wants (or holds) the exclusive state
    // lock; the simulation's read lock must wait (paper §4.2.1).
    ch.pending_sims.push_back(std::move(sim));
    return;
  }
  StartSimulation(channel, std::move(sim));
}

void PeerNode::StartSimulation(uint32_t channel, PendingSim sim) {
  ChannelState& ch = channels_[channel];
  ++ch.active_sims;

  // The chaincode's effects are determined by the state at simulation
  // start; the CPU job then models the wall time the simulation occupies.
  const bool stale_checks = config().enable_early_abort_sim;
  Result<peer::EndorsementResponse> response =
      endorser_.Endorse(sim.proposal, ctx_.directory->default_policy_id(),
                        ch.db, stale_checks);

  const fabric::CostModel& cost = config().cost;
  runtime::TimeMicros service = cost.verify + cost.chaincode_base;
  if (response.ok()) {
    service += cost.per_read * response->rwset.reads.size() +
               cost.per_write * response->rwset.writes.size() + cost.sign;
  }
  const uint64_t proposal_id = sim.proposal.proposal_id;
  const uint32_t client_index = sim.client_index;
  const uint64_t epoch = crash_epoch_;
  cpu_for(channel).Submit(
      service, [this, channel, client_index, proposal_id, epoch,
                response = std::move(response)]() mutable {
        if (crashed_ || epoch != crash_epoch_) return;
        FinishSimulation(channel, client_index, proposal_id,
                         std::move(response));
      });
}

void PeerNode::FinishSimulation(uint32_t channel, uint32_t client_index,
                                uint64_t proposal_id,
                                Result<peer::EndorsementResponse> response) {
  ChannelState& ch = channels_[channel];
  --ch.active_sims;

  // Fabric++ early abort in the simulation phase (paper §5.2.1): with the
  // fine-grained concurrency control, a block may have committed while this
  // simulation ran; re-checking the read versions detects exactly the stale
  // reads the vanilla version would only discover in its validation phase.
  if (response.ok() && config().enable_early_abort_sim) {
    for (const proto::ReadItem& r : response->rwset.reads) {
      if (ch.db.GetVersion(r.key) != r.version) {
        response = Status::StaleRead("overtaken by commit during simulation");
        break;
      }
    }
  }

  uint64_t reply_size = kMessageOverhead;
  if (response.ok()) reply_size += response->rwset.ByteSize();
  ctx_.mesh->SendToClient(
      endpoint_for(channel),
      EndorsementReplyToWire(client_index, proposal_id, std::move(response)),
      reply_size);

  if (config().concurrency == fabric::ConcurrencyMode::kCoarseLock &&
      ch.active_sims == 0 && ch.commit_phase) {
    TryStartCommit(channel);
  }
}

void PeerNode::HandleBlock(uint32_t channel,
                           std::shared_ptr<proto::Block> block) {
  if (crashed_) return;
  ChannelState& ch = channels_[channel];
  const uint64_t number = block->header.number;
  if (number < ch.next_accept || ch.reorder_buffer.count(number) != 0) {
    // Already admitted (or waiting): duplicated delivery, discard.
    metrics().NoteDuplicateBlock();
    return;
  }
  // Integrity at admission: a block whose payload does not match its sealed
  // data hash was tampered with in flight; reject it and fetch a clean copy.
  if (!block->VerifyDataHash()) {
    metrics().NoteCorruptedBlock();
    FABRICPP_LOG(Warn) << name_ << ": rejecting block " << number
                       << " on channel " << channel
                       << " with mismatched data hash";
    RequestMissingBlocks(channel);
    ArmFetchTimer(channel);
    return;
  }
  ch.reorder_buffer[number] = std::move(block);
  DrainReorderBuffer(channel);
  // Anything left is out of order: a predecessor was lost or is still in
  // flight. Fetch right away the first time the gap is seen — waiting a
  // full retry interval would stall every transaction of the lost block,
  // and with tight client commit timeouts that turns one lost delivery
  // into a resubmission storm. The timer covers lost fetches.
  if (!ch.reorder_buffer.empty() && !ch.fetch_timer_armed) {
    RequestMissingBlocks(channel);
    ArmFetchTimer(channel);
  }
}

void PeerNode::DrainReorderBuffer(uint32_t channel) {
  ChannelState& ch = channels_[channel];
  while (true) {
    const auto it = ch.reorder_buffer.find(ch.next_accept);
    if (it == ch.reorder_buffer.end()) break;
    ch.pending_blocks.push_back(std::move(it->second));
    ch.reorder_buffer.erase(it);
    ++ch.next_accept;
  }
  MaybeStartValidation(channel);
}

void PeerNode::RequestMissingBlocks(uint32_t channel) {
  if (crashed_) return;
  const uint64_t from = channels_[channel].next_accept;
  ctx_.mesh->SendToOrderer(endpoint_for(channel),
                           proto::BlockRequestMsg{channel, index_, from},
                           kMessageOverhead);
}

void PeerNode::ArmFetchTimer(uint32_t channel) {
  ChannelState& ch = channels_[channel];
  if (crashed_ || ch.fetch_timer_armed) return;
  ch.fetch_timer_armed = true;
  const uint64_t epoch = crash_epoch_;
  clock_for(channel).Schedule(
      config().peer_fetch_retry_interval, [this, channel, epoch]() {
        if (crashed_ || epoch != crash_epoch_) return;
        ChannelState& state = channels_[channel];
        state.fetch_timer_armed = false;
        if (!state.reorder_buffer.empty() || state.recovering) {
          RequestMissingBlocks(channel);
          ArmFetchTimer(channel);
        }
      });
}

void PeerNode::HandleChainInfo(uint32_t channel, uint64_t orderer_height) {
  if (crashed_) return;
  ChannelState& ch = channels_[channel];
  if (ch.next_accept <= orderer_height) {
    // Still behind the orderer's dispatched chain: keep fetching.
    ArmFetchTimer(channel);
    return;
  }
  if (ch.recovering) {
    ch.recovering = false;
    const runtime::TimeMicros took =
        clock_for(channel).Now() - ch.restart_time;
    metrics().NoteRecovery(took);
    FABRICPP_LOG(Info) << name_ << ": caught up on channel " << channel
                       << " " << took / 1000 << "ms after restart";
  }
}

void PeerNode::ChannelState::ResetBlockPipeline() {
  validating = false;
  commit_phase = false;
  commit_submitted = false;
  current_block.reset();
  pending_blocks.clear();
  reorder_buffer.clear();
  next_accept = ledger.Height();
}

void PeerNode::ResyncChannel(uint32_t channel) {
  channels_[channel].ResetBlockPipeline();
  RequestMissingBlocks(channel);
  ArmFetchTimer(channel);
}

void PeerNode::Crash() {
  if (crashed_) return;
  crashed_ = true;
  ++crash_epoch_;
  for (ChannelState& ch : channels_) {
    // The process dies: running simulations, queued work and undelivered
    // blocks are gone. Ledger and state database are durable and survive.
    ch.active_sims = 0;
    ch.pending_sims.clear();
    ch.fetch_timer_armed = false;
    ch.recovering = false;
    ch.ResetBlockPipeline();
  }
  FABRICPP_LOG(Info) << name_ << ": crashed at "
                     << clock().Now() / 1000 << "ms";
}

void PeerNode::Restart() {
  if (!crashed_) return;
  crashed_ = false;
  FABRICPP_LOG(Info) << name_ << ": restarting at " << clock().Now() / 1000
                     << "ms";
  for (uint32_t c = 0; c < channels_.size(); ++c) StartCatchUp(c);
}

void PeerNode::StartCatchUp(uint32_t channel) {
  ChannelState& ch = channels_[channel];
  ch.recovering = true;
  ch.restart_time = clock_for(channel).Now();
  RequestMissingBlocks(channel);
  ArmFetchTimer(channel);
}

void PeerNode::MaybeStartValidation(uint32_t channel) {
  ChannelState& ch = channels_[channel];
  if (ch.validating || ch.pending_blocks.empty()) return;
  ch.validating = true;
  ch.current_block = ch.pending_blocks.front();
  ch.pending_blocks.pop_front();

  const fabric::CostModel& cost = config().cost;
  const size_t num_txs = ch.current_block->transactions.size();

  // Endorsement-policy evaluation parallelizes across the peer's cores
  // (Fabric 1.2's validator workers) and runs *outside* the state lock;
  // only the subsequent commit stage needs exclusivity.
  auto on_policy_done = [this, channel]() {
    ChannelState& state = channels_[channel];
    state.commit_phase = true;
    TryStartCommit(channel);
  };

  if (num_txs == 0) {
    on_policy_done();
    return;
  }
  auto remaining = std::make_shared<size_t>(num_txs);
  const uint64_t epoch = crash_epoch_;
  for (const proto::Transaction& tx : ch.current_block->transactions) {
    const runtime::TimeMicros policy_service =
        cost.validate_per_tx + cost.verify * tx.endorsements.size();
    cpu_for(channel).Submit(
        policy_service, [this, epoch, remaining, on_policy_done]() {
          if (crashed_ || epoch != crash_epoch_) return;
          if (--*remaining == 0) on_policy_done();
        });
  }
}

void PeerNode::TryStartCommit(uint32_t channel) {
  ChannelState& ch = channels_[channel];
  if (ch.commit_submitted) return;
  if (config().concurrency == fabric::ConcurrencyMode::kCoarseLock &&
      ch.active_sims > 0) {
    // Vanilla: the exclusive lock waits for running simulations
    // (paper §4.2.1's "the block has to wait").
    return;
  }
  ch.commit_submitted = true;
  const fabric::CostModel& cost = config().cost;
  const std::shared_ptr<proto::Block>& block = ch.current_block;
  runtime::TimeMicros commit_service =
      cost.block_fixed_commit +
      cost.ledger_append_per_kb * (block->ByteSize() / 1024 + 1);
  for (const proto::Transaction& tx : block->transactions) {
    commit_service += cost.per_read * tx.rwset.reads.size() +
                      cost.commit_per_write * tx.rwset.writes.size();
  }
  const uint64_t epoch = crash_epoch_;
  cpu_for(channel).Submit(commit_service, [this, channel, epoch]() {
    if (crashed_ || epoch != crash_epoch_) return;
    FinishCommit(channel);
  });
}

void PeerNode::FinishCommit(uint32_t channel) {
  ChannelState& ch = channels_[channel];
  const std::shared_ptr<proto::Block> block = std::move(ch.current_block);

  // Integrity gate before any state mutation: the block must extend our
  // chain (number + previous-hash link) and carry the data it was sealed
  // with. ValidateAndCommit applies state writes before the ledger append,
  // so a tampered block caught only there would already have leaked writes.
  const bool intact = block->header.number == ch.ledger.Height() &&
                      block->header.previous_hash == ch.ledger.LastHash() &&
                      block->VerifyDataHash();
  if (!intact) {
    metrics().NoteCorruptedBlock();
    FABRICPP_LOG(Warn) << name_ << ": rejecting corrupted block "
                       << block->header.number << " on channel " << channel
                       << " at commit (bad chain link or data hash)";
    ResyncChannel(channel);
    if (config().concurrency == fabric::ConcurrencyMode::kCoarseLock) {
      std::deque<PendingSim> sims;
      sims.swap(ch.pending_sims);
      for (PendingSim& sim : sims) StartSimulation(channel, std::move(sim));
    }
    return;
  }

  const peer::BlockValidationResult result =
      validator_for(channel).ValidateAndCommit(*block, &ch.db, &ch.ledger);

  if (ctx_.directory->IsObserver(*this)) {
    // Host wall-clock of the two validation stages — kept outside the
    // deterministic RunReport (it varies with validator_workers).
    metrics().NoteValidationWallClock(result.verify_wall_ns,
                                      result.commit_wall_ns);
    const runtime::TimeMicros now = clock_for(channel).Now();
    for (uint32_t i = 0; i < block->transactions.size(); ++i) {
      const proto::Transaction& tx = block->transactions[i];
      const fabric::TxOutcome outcome =
          fabric::OutcomeFromValidationCode(result.codes[i]);
      const std::string key = fabric::ProposalKey(tx.client, tx.proposal_id);
      const bool routed = ctx_.mesh->RoutesToClient(tx.client);
      if (routed) {
        // Client-fired work resolves at most once, even when a client-side
        // timeout raced this commit.
        metrics().ResolveFired(key, outcome, now);
      } else {
        // Externally injected transactions have no NoteFired entry.
        metrics().Resolve(key, outcome, now);
      }
      // Commit-event notification to the submitting client (Fabric's event
      // service); an aborted transaction triggers resubmission there.
      if (routed) {
        ctx_.mesh->SendToClient(
            endpoint_for(channel),
            proto::OutcomeMsg{tx.client, tx.proposal_id, result.codes[i]},
            kMessageOverhead);
      }
    }
    metrics().NoteBlockCommitted(
        static_cast<uint32_t>(block->transactions.size()), now);
  }

  ch.validating = false;
  ch.commit_phase = false;
  ch.commit_submitted = false;
  // Vanilla: admit the queued simulations before the next block's commit
  // takes the exclusive lock again (reader batch between writers).
  if (config().concurrency == fabric::ConcurrencyMode::kCoarseLock) {
    std::deque<PendingSim> sims;
    sims.swap(ch.pending_sims);
    for (PendingSim& sim : sims) StartSimulation(channel, std::move(sim));
  }
  MaybeStartValidation(channel);
}

}  // namespace fabricpp::node
