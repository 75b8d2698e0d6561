#include "node/client_node.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "node/mesh.h"
#include "node/orderer_node.h"
#include "node/peer_node.h"
#include "node/wire.h"

namespace fabricpp::node {

ClientNode::ClientNode(const NodeContext& ctx, uint32_t index,
                       uint32_t channel, std::string name, uint64_t rng_seed,
                       runtime::Endpoint* home, runtime::Executor* cpu)
    : ctx_(ctx),
      index_(index),
      channel_(channel),
      name_(std::move(name)),
      home_(home),
      cpu_(cpu),
      rng_(rng_seed) {}

void ClientNode::StartFiring(runtime::TimeMicros deadline) {
  fire_deadline_ = deadline;
  const double interval_us =
      1e6 / (config().client_fire_rate_tps * fire_rate_multiplier_);
  // Stagger clients across one interval so firing is uniform in aggregate.
  next_fire_us_ = interval_us * static_cast<double>(index_) /
                  static_cast<double>(ctx_.directory->num_clients());
  clock().ScheduleAt(static_cast<runtime::TimeMicros>(next_fire_us_),
                     [this]() { FireFromWorkload(); });
}

void ClientNode::FireFromWorkload() {
  if (clock().Now() >= fire_deadline_) return;
  const uint32_t max_inflight = config().client_max_inflight;
  if (max_inflight == 0 || inflight_.size() < max_inflight) {
    FireProposal(ctx_.workload->NextArgsFor(channel_, rng_));
  }
  const double interval_us =
      1e6 / (config().client_fire_rate_tps * fire_rate_multiplier_);
  next_fire_us_ += interval_us;
  clock().ScheduleAt(static_cast<runtime::TimeMicros>(next_fire_us_),
                     [this]() { FireFromWorkload(); });
}

void ClientNode::FireProposal(std::vector<std::string> args) {
  FireWithRetries(std::move(args), 0);
}

void ClientNode::FireWithRetries(std::vector<std::string> args,
                                 uint32_t retries_used) {
  proto::Proposal proposal;
  proposal.proposal_id = next_proposal_id_++;
  proposal.client = name_;
  proposal.channel = StrFormat("ch%u", channel_);
  proposal.chaincode = ctx_.workload->chaincode();
  proposal.args = args;
  proposal.nonce = rng_.Next();
  inflight_[proposal.proposal_id] =
      InflightProposal{std::move(args), retries_used};
  metrics().NoteFired(fabric::ProposalKey(name_, proposal.proposal_id),
                      clock().Now());
  Submit(std::move(proposal));
}

runtime::TimeMicros SaturatingBackoff(runtime::TimeMicros base,
                                      runtime::TimeMicros max,
                                      uint32_t retries_used) {
  runtime::TimeMicros delay = std::min(base, max);
  for (uint32_t i = 0; i < retries_used && delay < max; ++i) {
    // `delay < max` (loop guard) keeps the subtraction safe; the comparison
    // is `2 * delay >= max` written without the doubling, so the doubling
    // itself can never overflow — the old `delay *= 2` before the clamp
    // wrapped around for bases near the top of the TimeMicros range,
    // turning a huge configured backoff into a near-zero one.
    if (delay >= max - delay) {
      delay = max;
      break;
    }
    delay *= 2;
  }
  return delay;
}

runtime::TimeMicros ClientNode::BackoffDelay(uint32_t retries_used) {
  const fabric::FabricConfig& cfg = config();
  runtime::TimeMicros delay =
      SaturatingBackoff(cfg.client_retry_backoff_base,
                        cfg.client_retry_backoff_max, retries_used);
  if (cfg.client_retry_jitter > 0.0) {
    // Uniform multiplier in [1 - j, 1 + j]: desynchronizes clients whose
    // proposals aborted off the same event (block commit, fault window).
    const double factor = 1.0 - cfg.client_retry_jitter +
                          2.0 * cfg.client_retry_jitter * rng_.NextDouble();
    delay = static_cast<runtime::TimeMicros>(
        static_cast<double>(delay) * factor);
  }
  return std::max<runtime::TimeMicros>(delay, 1);
}

void ClientNode::MaybeResubmit(uint64_t proposal_id,
                               runtime::TimeMicros min_delay) {
  const auto it = inflight_.find(proposal_id);
  if (it == inflight_.end()) return;
  InflightProposal inflight = std::move(it->second);
  inflight_.erase(it);
  const fabric::FabricConfig& cfg = config();
  if (!cfg.client_resubmit) return;
  if (inflight.retries_used >= cfg.client_max_retries) return;
  // fire_deadline_ == 0 means manual driving (no firing window).
  if (fire_deadline_ != 0 && clock().Now() >= fire_deadline_) return;
  // Resubmit the same logical work as a fresh proposal after a backoff:
  // new simulation, new read versions (paper §4.1 / §5.2.1). Instant
  // refiring would hammer a still-faulty pipeline with retry storms. A
  // BUSY's retry-after hint floors the delay: the server knows better than
  // the client's first-retry backoff how long its queues need to drain.
  const uint32_t next_retries = inflight.retries_used + 1;
  clock().Schedule(
      std::max(BackoffDelay(inflight.retries_used), min_delay),
      [this, args = std::move(inflight.args), next_retries]() mutable {
        if (fire_deadline_ != 0 && clock().Now() >= fire_deadline_) return;
        FireWithRetries(std::move(args), next_retries);
      });
}

void ClientNode::HandleBusy(const BusyResponse& busy) {
  // The refusal may come from one endorser while others still reply, or
  // from the orderer after assembly: drop any endorsement collection state
  // and resolve the proposal as BUSY exactly once — ResolveFired consumes
  // the fired entry, so a second refusal (or a racing timeout) is a no-op
  // and can never double-resubmit.
  pending_.erase(busy.proposal_id);
  if (metrics().ResolveFired(fabric::ProposalKey(name_, busy.proposal_id),
                             fabric::TxOutcome::kAbortBusy, clock().Now())) {
    MaybeResubmit(busy.proposal_id, busy.retry_after_us);
  }
}

void ClientNode::ArmEndorsementTimeout(uint64_t proposal_id) {
  clock().Schedule(
      config().client_endorsement_timeout, [this, proposal_id]() {
        const auto it = pending_.find(proposal_id);
        if (it == pending_.end()) return;  // Completed or aborted already.
        pending_.erase(it);
        if (metrics().ResolveFired(
                fabric::ProposalKey(name_, proposal_id),
                fabric::TxOutcome::kAbortEndorsementTimeout, clock().Now())) {
          MaybeResubmit(proposal_id);
        }
      });
}

void ClientNode::ArmCommitTimeout(uint64_t proposal_id) {
  clock().Schedule(
      config().client_commit_timeout, [this, proposal_id]() {
        if (inflight_.find(proposal_id) == inflight_.end()) return;
        // ResolveFired fails when the transaction already resolved (its
        // commit event is merely in flight) — then do NOT resubmit, or
        // committed work would be applied twice.
        if (metrics().ResolveFired(
                fabric::ProposalKey(name_, proposal_id),
                fabric::TxOutcome::kAbortCommitTimeout, clock().Now())) {
          MaybeResubmit(proposal_id);
        }
      });
}

void ClientNode::HandleOutcome(uint64_t proposal_id, bool success) {
  if (success) {
    inflight_.erase(proposal_id);
    return;
  }
  MaybeResubmit(proposal_id);
}

void ClientNode::Submit(proto::Proposal proposal) {
  // Client CPU: sign the proposal, then ship it to one endorser per org.
  const fabric::CostModel& cost = config().cost;
  cpu_->Submit(
      cost.sign, [this, proposal = std::move(proposal)]() mutable {
        const uint64_t size = proposal.ByteSize() + kMessageOverhead;
        std::vector<uint32_t> endorsers =
            ctx_.directory->EndorsersFor(proposal.proposal_id + index_);
        PendingProposal pending;
        pending.proposal = proposal;
        pending.expected = static_cast<uint32_t>(endorsers.size());
        pending_.emplace(proposal.proposal_id, std::move(pending));
        for (uint32_t peer_index : endorsers) {
          ctx_.mesh->SendToPeer(*home_, peer_index,
                                proto::ProposalMsg{channel_, index_, proposal},
                                size);
        }
        ArmEndorsementTimeout(proposal.proposal_id);
      });
}

void ClientNode::HandleEndorsement(
    uint64_t proposal_id, Result<peer::EndorsementResponse> response) {
  const auto it = pending_.find(proposal_id);
  if (it == pending_.end()) return;
  PendingProposal& pending = it->second;

  if (!response.ok()) {
    // A failed simulation aborts the proposal immediately — the client does
    // not wait for the remaining endorsers (paper §5.2.1: "we directly
    // notify the corresponding client about the abort"). Late replies find
    // no pending entry and are dropped.
    const fabric::TxOutcome outcome =
        response.status().code() == StatusCode::kStaleRead
            ? fabric::TxOutcome::kAbortStaleSimulation
            : fabric::TxOutcome::kAbortChaincodeError;
    pending_.erase(it);
    metrics().Resolve(fabric::ProposalKey(name_, proposal_id), outcome,
                      clock().Now());
    MaybeResubmit(proposal_id);
    return;
  }

  // A duplicated reply from the same endorser must not count twice — the
  // transaction would then carry two copies of one org's endorsement and
  // miss another org's, failing the policy at validation.
  for (const peer::EndorsementResponse& r : pending.responses) {
    if (r.endorsement.peer == response->endorsement.peer) return;
  }
  pending.responses.push_back(std::move(response).value());
  if (pending.responses.size() < pending.expected) return;

  PendingProposal done = std::move(pending);
  pending_.erase(it);

  // All read/write sets must match (paper §2.2.1); otherwise the proposal
  // cannot become a transaction.
  for (size_t i = 1; i < done.responses.size(); ++i) {
    if (!(done.responses[i].rwset == done.responses[0].rwset)) {
      metrics().Resolve(fabric::ProposalKey(name_, proposal_id),
                        fabric::TxOutcome::kAbortRwsetMismatch,
                        clock().Now());
      MaybeResubmit(proposal_id);
      return;
    }
  }
  Assemble(std::move(done));
}

void ClientNode::Assemble(PendingProposal pending) {
  const fabric::CostModel& cost = config().cost;
  cpu_->Submit(
      cost.client_assemble + cost.sign,
      [this, pending = std::move(pending)]() mutable {
        proto::Transaction tx;
        tx.proposal_id = pending.proposal.proposal_id;
        tx.client = name_;
        tx.channel = pending.proposal.channel;
        tx.chaincode = pending.proposal.chaincode;
        tx.policy_id = ctx_.directory->default_policy_id();
        tx.rwset = pending.responses[0].rwset;
        for (const peer::EndorsementResponse& r : pending.responses) {
          tx.endorsements.push_back(r.endorsement);
        }
        tx.ComputeTxId(pending.proposal);
        const uint64_t proposal_id = tx.proposal_id;
        const uint64_t size = tx.ByteSize() + kMessageOverhead;
        ctx_.mesh->SendToOrderer(
            *home_, proto::TransactionMsg{channel_, std::move(tx)}, size);
        ArmCommitTimeout(proposal_id);
      });
}

}  // namespace fabricpp::node
