#include "fabric/metrics.h"

#include "common/strings.h"

namespace fabricpp::fabric {

std::string_view TxOutcomeToString(TxOutcome outcome) {
  switch (outcome) {
    case TxOutcome::kSuccess:
      return "SUCCESS";
    case TxOutcome::kAbortMvcc:
      return "ABORT_MVCC";
    case TxOutcome::kAbortPolicy:
      return "ABORT_POLICY";
    case TxOutcome::kAbortStaleSimulation:
      return "ABORT_STALE_SIMULATION";
    case TxOutcome::kAbortReorderer:
      return "ABORT_REORDERER";
    case TxOutcome::kAbortVersionSkew:
      return "ABORT_VERSION_SKEW";
    case TxOutcome::kAbortRwsetMismatch:
      return "ABORT_RWSET_MISMATCH";
    case TxOutcome::kAbortChaincodeError:
      return "ABORT_CHAINCODE_ERROR";
    case TxOutcome::kAbortEndorsementTimeout:
      return "ABORT_ENDORSEMENT_TIMEOUT";
    case TxOutcome::kAbortCommitTimeout:
      return "ABORT_COMMIT_TIMEOUT";
    case TxOutcome::kAbortDuplicateTxId:
      return "ABORT_DUPLICATE_TXID";
    case TxOutcome::kAbortBusy:
      return "ABORT_BUSY";
  }
  return "UNKNOWN";
}

TxOutcome OutcomeFromValidationCode(proto::TxValidationCode code) {
  switch (code) {
    case proto::TxValidationCode::kValid:
      return TxOutcome::kSuccess;
    case proto::TxValidationCode::kMvccConflict:
      return TxOutcome::kAbortMvcc;
    case proto::TxValidationCode::kEndorsementPolicyFailure:
      return TxOutcome::kAbortPolicy;
    case proto::TxValidationCode::kDuplicateTxId:
      return TxOutcome::kAbortDuplicateTxId;
    // The orderer-stage codes never appear in a committed block, but they do
    // travel in socket-mode OUTCOME messages (early aborts).
    case proto::TxValidationCode::kAbortedByReorderer:
      return TxOutcome::kAbortReorderer;
    case proto::TxValidationCode::kAbortedVersionSkew:
      return TxOutcome::kAbortVersionSkew;
    case proto::TxValidationCode::kAbortedStaleSimulation:
      return TxOutcome::kAbortStaleSimulation;
    case proto::TxValidationCode::kNotValidated:
      return TxOutcome::kAbortChaincodeError;
  }
  return TxOutcome::kAbortChaincodeError;
}

std::string TransportCounters::ToString() const {
  const double messages_d =
      messages == 0 ? 1.0 : static_cast<double>(messages);
  return StrFormat(
      "messages=%llu framed=%.2fMB modeled=%.2fMB framed_avg=%.1fB "
      "modeled_avg=%.1fB",
      static_cast<unsigned long long>(messages),
      static_cast<double>(framed_bytes) / 1e6,
      static_cast<double>(modeled_bytes) / 1e6,
      static_cast<double>(framed_bytes) / messages_d,
      static_cast<double>(modeled_bytes) / messages_d);
}

std::string ValidationWallClock::ToString() const {
  const double blocks_d = blocks == 0 ? 1.0 : static_cast<double>(blocks);
  return StrFormat(
      "blocks=%llu verify_total=%.2fms commit_total=%.2fms "
      "verify_avg=%.1fus commit_avg=%.1fus",
      static_cast<unsigned long long>(blocks),
      static_cast<double>(verify_ns) / 1e6,
      static_cast<double>(commit_ns) / 1e6,
      static_cast<double>(verify_ns) / 1e3 / blocks_d,
      static_cast<double>(commit_ns) / 1e3 / blocks_d);
}

std::string ReorderWallClock::ToString() const {
  const double batches_d = batches == 0 ? 1.0 : static_cast<double>(batches);
  return StrFormat(
      "batches=%llu reorder_total=%.2fms reorder_avg=%.1fus "
      "(build=%.2fms enumerate=%.2fms break=%.2fms schedule=%.2fms)",
      static_cast<unsigned long long>(batches),
      static_cast<double>(elapsed_us) / 1e3,
      static_cast<double>(elapsed_us) / batches_d,
      static_cast<double>(build_us) / 1e3,
      static_cast<double>(enumerate_us) / 1e3,
      static_cast<double>(break_us) / 1e3,
      static_cast<double>(schedule_us) / 1e3);
}

std::string ProposalKey(const std::string& client, uint64_t proposal_id) {
  return StrFormat("%s/%llu", client.c_str(),
                   static_cast<unsigned long long>(proposal_id));
}

std::string Metrics::ClientOfKey(const std::string& key) {
  const size_t slash = key.rfind('/');
  return slash == std::string::npos ? key : key.substr(0, slash);
}

void Metrics::NoteFired(const std::string& key, sim::SimTime fired_at) {
  const std::lock_guard<std::mutex> lock(mu_);
  fired_at_[key] = fired_at;
  if (InWindow(fired_at)) ++per_client_fired_[ClientOfKey(key)];
}

void Metrics::Resolve(const std::string& key, TxOutcome outcome,
                      sim::SimTime now) {
  const std::lock_guard<std::mutex> lock(mu_);
  sim::SimTime fired = now;
  if (const auto it = fired_at_.find(key); it != fired_at_.end()) {
    fired = it->second;
    fired_at_.erase(it);
  }
  if (!InWindow(now)) return;
  if (outcome == TxOutcome::kSuccess) {
    ++successful_;
    ++per_client_successful_[ClientOfKey(key)];
    latency_us_.Add(now - fired);
  } else {
    ++failed_;
    ++aborts_[static_cast<size_t>(outcome)];
  }
}

bool Metrics::ResolveFired(const std::string& key, TxOutcome outcome,
                           sim::SimTime now) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = fired_at_.find(key);
  if (it == fired_at_.end()) return false;
  const sim::SimTime fired = it->second;
  fired_at_.erase(it);
  if (!InWindow(now)) return true;
  if (outcome == TxOutcome::kSuccess) {
    ++successful_;
    ++per_client_successful_[ClientOfKey(key)];
    latency_us_.Add(now - fired);
  } else {
    ++failed_;
    ++aborts_[static_cast<size_t>(outcome)];
  }
  return true;
}

void Metrics::NoteBlockCommitted(uint32_t num_txs, sim::SimTime now) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Commit-to-commit gap at the observer peer; the previous commit may sit
  // outside the window, the gap counts where it *ends*.
  if (last_block_commit_ != 0 && now >= last_block_commit_ && InWindow(now)) {
    block_gap_us_.Add(now - last_block_commit_);
  }
  last_block_commit_ = now;
  if (!InWindow(now)) return;
  ++blocks_committed_;
  block_tx_total_ += num_txs;
}

RunReport Metrics::Report() const {
  const std::lock_guard<std::mutex> lock(mu_);
  RunReport report;
  report.measure_seconds =
      sim::ToSeconds(window_end_ == ~0ULL ? 0 : window_end_ - window_start_);
  report.successful = successful_;
  report.failed = failed_;
  for (size_t i = 0; i < kNumTxOutcomes; ++i) report.aborts[i] = aborts_[i];
  if (report.measure_seconds > 0) {
    report.successful_tps =
        static_cast<double>(successful_) / report.measure_seconds;
    report.failed_tps = static_cast<double>(failed_) / report.measure_seconds;
  }
  if (latency_us_.count() > 0) {
    report.latency_avg_ms = latency_us_.Mean() / 1000.0;
    report.latency_min_ms = static_cast<double>(latency_us_.min()) / 1000.0;
    report.latency_max_ms = static_cast<double>(latency_us_.max()) / 1000.0;
    report.latency_p50_ms = latency_us_.Quantile(0.5) / 1000.0;
    report.latency_p95_ms = latency_us_.Quantile(0.95) / 1000.0;
    report.latency_p99_ms = latency_us_.Quantile(0.99) / 1000.0;
  }
  report.blocks_committed = blocks_committed_;
  if (blocks_committed_ > 0) {
    report.avg_block_size =
        static_cast<double>(block_tx_total_) / blocks_committed_;
  }
  if (block_gap_us_.count() > 0) {
    report.block_gap_avg_ms = block_gap_us_.Mean() / 1000.0;
    report.block_gap_p95_ms = block_gap_us_.Quantile(0.95) / 1000.0;
  }
  report.ordering_stalls = ordering_stalls_;
  report.ordering_stall_ms = static_cast<double>(ordering_stall_us_) / 1000.0;
  report.endorser_admitted = endorser_admitted_;
  report.endorser_busy = endorser_busy_;
  report.orderer_admitted = orderer_admitted_;
  report.orderer_busy = orderer_busy_;
  report.mailbox_shed_total = mailbox_shed_total_;
  // Jain index over every client that fired in the window: a starved client
  // contributes x=0 and drags the index toward 1/n, which is the point.
  double sum = 0, sum_sq = 0;
  size_t n = 0;
  for (const auto& [client, fired] : per_client_fired_) {
    const auto it = per_client_successful_.find(client);
    const double x =
        it == per_client_successful_.end() ? 0.0 : static_cast<double>(
                                                       it->second);
    sum += x;
    sum_sq += x * x;
    ++n;
  }
  if (n <= 1) {
    // No client fired in the window (or only one did): there is no
    // allocation to be unfair about. Defined as perfectly fair — an idle
    // run must not report the worst-possible index.
    report.jain_fairness = 1.0;
  } else if (sum_sq > 0) {
    report.jain_fairness = (sum * sum) / (n * sum_sq);
  } else {
    // Several clients fired, none succeeded: equal (zero) shares. The
    // formula's 0/0 limit is taken as fair rather than starved.
    report.jain_fairness = 1.0;
  }
  report.per_client_successful.assign(per_client_successful_.begin(),
                                      per_client_successful_.end());
  report.net_messages_dropped = net_dropped_;
  report.net_messages_duplicated = net_duplicated_;
  report.blocks_corrupted = blocks_corrupted_;
  report.blocks_deduplicated = blocks_deduplicated_;
  report.peer_recoveries = recovery_us_.count();
  if (recovery_us_.count() > 0) {
    report.recovery_avg_ms = recovery_us_.Mean() / 1000.0;
    report.recovery_max_ms = static_cast<double>(recovery_us_.max()) / 1000.0;
  }
  return report;
}

std::string RunReport::ToString() const {
  std::string out = StrFormat(
      "successful=%llu (%.1f tps) failed=%llu (%.1f tps) latency avg=%.1fms "
      "p50=%.1fms p95=%.1fms blocks=%llu avg_block=%.1f",
      static_cast<unsigned long long>(successful), successful_tps,
      static_cast<unsigned long long>(failed), failed_tps, latency_avg_ms,
      latency_p50_ms, latency_p95_ms,
      static_cast<unsigned long long>(blocks_committed), avg_block_size);
  bool any = false;
  for (uint64_t a : aborts) any |= (a != 0);
  if (any) {
    out += "\n  aborts:";
    for (size_t i = 1; i < kNumTxOutcomes; ++i) {
      if (aborts[i] == 0) continue;
      out += StrFormat(" %s=%llu",
                       std::string(TxOutcomeToString(static_cast<TxOutcome>(i)))
                           .c_str(),
                       static_cast<unsigned long long>(aborts[i]));
    }
  }
  if (ordering_stalls != 0) {
    out += StrFormat(
        "\n  ordering: stalls=%llu stall_total=%.1fms block_gap avg=%.1fms "
        "p95=%.1fms",
        static_cast<unsigned long long>(ordering_stalls), ordering_stall_ms,
        block_gap_avg_ms, block_gap_p95_ms);
  }
  if (endorser_admitted != 0 || endorser_busy != 0 || orderer_admitted != 0 ||
      orderer_busy != 0 || mailbox_shed_total != 0) {
    out += StrFormat(
        "\n  admission: endorser=%llu/%llu orderer=%llu/%llu "
        "(admitted/busy) mailbox_shed=%llu jain=%.3f",
        static_cast<unsigned long long>(endorser_admitted),
        static_cast<unsigned long long>(endorser_busy),
        static_cast<unsigned long long>(orderer_admitted),
        static_cast<unsigned long long>(orderer_busy),
        static_cast<unsigned long long>(mailbox_shed_total), jain_fairness);
  }
  if (net_messages_dropped != 0 || net_messages_duplicated != 0 ||
      blocks_corrupted != 0 || blocks_deduplicated != 0 ||
      peer_recoveries != 0) {
    out += StrFormat(
        "\n  faults: dropped=%llu duplicated=%llu corrupted_blocks=%llu "
        "deduped_blocks=%llu recoveries=%llu avg_recovery=%.1fms "
        "max_recovery=%.1fms",
        static_cast<unsigned long long>(net_messages_dropped),
        static_cast<unsigned long long>(net_messages_duplicated),
        static_cast<unsigned long long>(blocks_corrupted),
        static_cast<unsigned long long>(blocks_deduplicated),
        static_cast<unsigned long long>(peer_recoveries), recovery_avg_ms,
        recovery_max_ms);
  }
  return out;
}

}  // namespace fabricpp::fabric
