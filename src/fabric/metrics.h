#ifndef FABRICPP_FABRIC_METRICS_H_
#define FABRICPP_FABRIC_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "proto/transaction.h"
#include "sim/time.h"

namespace fabricpp::fabric {

/// Where in the pipeline a transaction's fate was decided.
enum class TxOutcome : uint8_t {
  kSuccess = 0,
  /// Validator MVCC conflict (the paper's "serialization conflict" aborts).
  kAbortMvcc,
  /// Endorsement policy / signature failure at validation.
  kAbortPolicy,
  /// Fabric++: stale read detected during simulation (paper §5.2.1).
  kAbortStaleSimulation,
  /// Fabric++: removed by the reorderer as a cycle victim (paper §5.1).
  kAbortReorderer,
  /// Fabric++: within-block version skew in the orderer (paper §5.2.2).
  kAbortVersionSkew,
  /// Client saw mismatching read/write sets across endorsers.
  kAbortRwsetMismatch,
  /// The chaincode itself returned an error during simulation.
  kAbortChaincodeError,
  /// Client gave up waiting for endorsements (lost proposal or reply).
  kAbortEndorsementTimeout,
  /// Client gave up waiting for the commit event (lost submission, lost
  /// block, or lost notification).
  kAbortCommitTimeout,
  /// Validator replay protection: the transaction id had already committed
  /// (a duplicated submission or block delivery).
  kAbortDuplicateTxId,
  /// An overloaded endorser or orderer refused admission with an explicit
  /// BUSY (retry-after) response; the client backs off and resubmits.
  kAbortBusy,
};

/// Number of TxOutcome values (array-sizing constant).
inline constexpr size_t kNumTxOutcomes = 12;

std::string_view TxOutcomeToString(TxOutcome outcome);

/// Maps a committed transaction's validation code to the outcome bucket the
/// run report counts it under. Shared by the observer peer (commit events)
/// and the socket-mode client host, which resolves metrics from OUTCOME
/// wire messages instead of an in-process commit loop.
TxOutcome OutcomeFromValidationCode(proto::TxValidationCode code);

/// Aggregated results of one run (what every bench prints).
struct RunReport {
  double measure_seconds = 0;
  uint64_t successful = 0;
  uint64_t failed = 0;  ///< Sum of all abort categories.
  double successful_tps = 0;
  double failed_tps = 0;
  uint64_t aborts[kNumTxOutcomes] = {0};  ///< Indexed by TxOutcome.
  // Latency of successful transactions (proposal fired -> committed),
  // milliseconds.
  double latency_avg_ms = 0;
  double latency_min_ms = 0;
  double latency_max_ms = 0;
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double latency_p99_ms = 0;
  uint64_t blocks_committed = 0;
  double avg_block_size = 0;
  // Block inter-arrival gap at the observer peer (commit-to-commit virtual
  // time) — what the ordering pipeline compresses when the reorder stage is
  // the bottleneck.
  double block_gap_avg_ms = 0;
  double block_gap_p95_ms = 0;

  // --- Ordering pipeline (virtual-time, deterministic) ---
  /// Batches that sat in the orderer's cut queue because the reorder stage
  /// was at its pipeline depth (with depth 1, every wait behind the
  /// previous block counts).
  uint64_t ordering_stalls = 0;
  double ordering_stall_ms = 0;  ///< Total virtual time those batches waited.

  // --- Admission / overload telemetry (zero with admission control off,
  // apart from the catch-up refusals in endorser_busy) ---
  /// Whole-run totals (not window-gated): admission accounting must balance
  /// even for work admitted during warm-up or the drain.
  uint64_t endorser_admitted = 0;  ///< Proposals admitted by endorsers.
  /// Proposals refused with BUSY: by endorser admission control, or by a
  /// peer still catching up on blocks it missed, with admission control on
  /// or off.
  uint64_t endorser_busy = 0;
  uint64_t orderer_admitted = 0;   ///< Transactions admitted by the orderer.
  uint64_t orderer_busy = 0;       ///< Transactions refused with BUSY.
  /// Thread-runtime mailbox deliveries shed at a full bounded mailbox
  /// (always 0 under the simulation runtime, whose transport never sheds).
  uint64_t mailbox_shed_total = 0;
  /// Jain fairness index (sum x)^2 / (n * sum x^2) of per-client goodput,
  /// over every client that fired inside the window; 1.0 = perfectly even,
  /// 1/n = one client took everything. 0 when nothing committed.
  double jain_fairness = 0;
  /// Per-client committed transactions inside the window, sorted by client
  /// name (deterministic under sim).
  std::vector<std::pair<std::string, uint64_t>> per_client_successful;

  // --- Fault / recovery telemetry (zero in fault-free runs) ---
  uint64_t net_messages_dropped = 0;     ///< Injector drops, all causes.
  uint64_t net_messages_duplicated = 0;  ///< Injector duplications.
  uint64_t blocks_corrupted = 0;   ///< Blocks a peer rejected as tampered.
  uint64_t blocks_deduplicated = 0;  ///< Duplicate deliveries discarded.
  uint64_t peer_recoveries = 0;    ///< Completed crash-recovery episodes.
  double recovery_avg_ms = 0;      ///< Restart -> caught-up, average.
  double recovery_max_ms = 0;

  std::string ToString() const;
};

/// Host wall-clock spent in the validator's two stages, accumulated across
/// all blocks the observer peer committed. **Not part of RunReport**: these
/// are real (std::chrono) measurements of the crypto work, so they vary
/// run-to-run and with `validator_workers` — folding them into the report
/// would break the bit-identical-across-worker-counts guarantee the
/// determinism tests assert. Benches read them via
/// Metrics::validation_wall_clock().
struct ValidationWallClock {
  uint64_t blocks = 0;
  uint64_t verify_ns = 0;  ///< Parallel endorsement/signature stage.
  uint64_t commit_ns = 0;  ///< MVCC/write/append stage.

  std::string ToString() const;
};

/// Host wall-clock spent in the orderer's reordering passes. Same contract
/// as ValidationWallClock: a real measurement, kept out of RunReport and
/// the deterministic ReorderStats so simulation outputs stay byte-identical
/// run-to-run. Benches read it via Metrics::reorder_wall_clock().
struct ReorderWallClock {
  uint64_t batches = 0;     ///< Reordering passes measured.
  uint64_t elapsed_us = 0;  ///< Total host microseconds across passes.
  // Per-stage split of elapsed_us (graph build / SCC + cycle enumeration /
  // cycle breaking / schedule generation); benches report the split.
  uint64_t build_us = 0;
  uint64_t enumerate_us = 0;
  uint64_t break_us = 0;
  uint64_t schedule_us = 0;

  std::string ToString() const;
};

/// Wire-level message accounting under the thread and socket runtimes.
/// Same contract as ValidationWallClock: **not part of RunReport**. The
/// deterministic cost model keeps charging the modeled
/// `ByteSize() + node::kMessageOverhead` sizes (so sim fingerprints never
/// move), while these counters record what the messages *actually* weigh
/// once encoded and framed (proto/wire_format.h) — the measured replacement
/// for the modeled constant. Sim runs leave everything zero.
struct TransportCounters {
  uint64_t messages = 0;
  uint64_t framed_bytes = 0;   ///< Encoded payload + frame header + CRC.
  uint64_t modeled_bytes = 0;  ///< What the cost model charged instead.

  std::string ToString() const;
};

/// Collects transaction outcomes during a run.
///
/// Only events inside the measurement window [window_start, window_end)
/// count — the warm-up ramp and the drain are excluded, mirroring how the
/// paper reports steady-state transactions per second.
///
/// Thread-safe: under the thread runtime, the observer peer, the orderer
/// and the client machine report concurrently, so every entry takes an
/// internal mutex. Under the (single-threaded) simulation runtime the lock
/// is uncontended and has no effect on any recorded value.
class Metrics {
 public:
  void SetWindow(sim::SimTime start, sim::SimTime end) {
    const std::lock_guard<std::mutex> lock(mu_);
    window_start_ = start;
    window_end_ = end;
  }

  /// Clients call this when a proposal is fired, so commit-side latency can
  /// be computed. `key` identifies the proposal (client + proposal id).
  void NoteFired(const std::string& key, sim::SimTime fired_at);

  /// Records a resolved transaction (commit or any abort). `key` must match
  /// a NoteFired call; unknown keys are counted without latency.
  void Resolve(const std::string& key, TxOutcome outcome, sim::SimTime now);

  /// Like Resolve, but only counts if `key` has a pending NoteFired entry —
  /// the entry is consumed, so a proposal resolves at most once even when a
  /// client-side timeout races the real commit event. Returns whether the
  /// resolution counted.
  bool ResolveFired(const std::string& key, TxOutcome outcome,
                    sim::SimTime now);

  /// Records a committed block (observer peer only).
  void NoteBlockCommitted(uint32_t num_txs, sim::SimTime now);

  /// A peer rejected a block whose hashes or chain linkage did not check out.
  void NoteCorruptedBlock() {
    const std::lock_guard<std::mutex> lock(mu_);
    ++blocks_corrupted_;
  }

  /// A peer discarded a duplicate delivery of a block it already has.
  void NoteDuplicateBlock() {
    const std::lock_guard<std::mutex> lock(mu_);
    ++blocks_deduplicated_;
  }

  /// A restarted peer finished catching up; `duration` is restart -> parity
  /// with the orderer's chain.
  void NoteRecovery(sim::SimTime duration) {
    const std::lock_guard<std::mutex> lock(mu_);
    recovery_us_.Add(duration);
  }

  /// Host wall-clock of one block's verify/commit stages (observer peer).
  /// Accumulated outside the deterministic report — see ValidationWallClock.
  void NoteValidationWallClock(uint64_t verify_ns, uint64_t commit_ns) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++validation_wall_.blocks;
    validation_wall_.verify_ns += verify_ns;
    validation_wall_.commit_ns += commit_ns;
  }
  const ValidationWallClock& validation_wall_clock() const {
    return validation_wall_;
  }

  /// Host wall-clock of one reordering pass (orderer), with its per-stage
  /// split. Accumulated outside the deterministic report — see
  /// ReorderWallClock.
  void NoteReorderWallClock(uint64_t elapsed_us, uint64_t build_us = 0,
                            uint64_t enumerate_us = 0, uint64_t break_us = 0,
                            uint64_t schedule_us = 0) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++reorder_wall_.batches;
    reorder_wall_.elapsed_us += elapsed_us;
    reorder_wall_.build_us += build_us;
    reorder_wall_.enumerate_us += enumerate_us;
    reorder_wall_.break_us += break_us;
    reorder_wall_.schedule_us += schedule_us;
  }
  const ReorderWallClock& reorder_wall_clock() const { return reorder_wall_; }

  /// One cross-node message measured at its real framed size (thread and
  /// socket modes; the mesh skips measuring under sim). `modeled_bytes` is
  /// what the cost model charged for the same send. Outside RunReport —
  /// see TransportCounters.
  void NoteWireMessage(uint64_t framed_bytes, uint64_t modeled_bytes) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++transport_counters_.messages;
    transport_counters_.framed_bytes += framed_bytes;
    transport_counters_.modeled_bytes += modeled_bytes;
  }

  TransportCounters transport_counters() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return transport_counters_;
  }

  /// A cut batch waited `waited` virtual time in the orderer's queue before
  /// the reorder stage had pipeline capacity for it. Virtual-time and thus
  /// deterministic: part of RunReport, unlike the wall-clock notes above.
  void NoteOrderingStall(sim::SimTime waited, sim::SimTime now) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!InWindow(now)) return;
    ++ordering_stalls_;
    ordering_stall_us_ += waited;
  }

  /// An endorsing peer's admission decision on a delivered proposal:
  /// admitted into the simulation stage, or refused with BUSY (admission
  /// control, or a channel still catching up). Whole-run
  /// totals (no window gating): the zero-silent-drops accounting must
  /// balance across warm-up and drain too.
  void NoteEndorserAdmission(bool admitted) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (admitted) {
      ++endorser_admitted_;
    } else {
      ++endorser_busy_;
    }
  }

  /// The orderer's admission decision on a delivered transaction.
  void NoteOrdererAdmission(bool admitted) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (admitted) {
      ++orderer_admitted_;
    } else {
      ++orderer_busy_;
    }
  }

  /// Thread-runtime mailbox deliveries shed at full bounded mailboxes,
  /// folded in by the composition root after the run (like the injector
  /// totals). Always 0 under the simulation runtime.
  void SetMailboxShedTotal(uint64_t shed) {
    const std::lock_guard<std::mutex> lock(mu_);
    mailbox_shed_total_ = shed;
  }

  /// Proposals fired but not yet resolved (committed, aborted or timed
  /// out). After a full drain this must be zero: anything else would be a
  /// silently dropped transaction.
  uint64_t unresolved_fired() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return fired_at_.size();
  }

  /// Injector totals, folded into the report by the harness after the run.
  void SetNetworkFaultTotals(uint64_t dropped, uint64_t duplicated) {
    const std::lock_guard<std::mutex> lock(mu_);
    net_dropped_ = dropped;
    net_duplicated_ = duplicated;
  }

  RunReport Report() const;

  uint64_t successful() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return successful_;
  }
  uint64_t failed() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }
  uint64_t aborts(TxOutcome outcome) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return aborts_[static_cast<size_t>(outcome)];
  }

 private:
  bool InWindow(sim::SimTime t) const {
    return t >= window_start_ && t < window_end_;
  }

  /// The client part of a ProposalKey ("client/proposal_id").
  static std::string ClientOfKey(const std::string& key);

  mutable std::mutex mu_;
  sim::SimTime window_start_ = 0;
  sim::SimTime window_end_ = ~0ULL;
  std::unordered_map<std::string, sim::SimTime> fired_at_;
  uint64_t successful_ = 0;
  uint64_t failed_ = 0;
  uint64_t aborts_[kNumTxOutcomes] = {0};
  Histogram latency_us_;
  uint64_t blocks_committed_ = 0;
  uint64_t block_tx_total_ = 0;
  sim::SimTime last_block_commit_ = 0;
  Histogram block_gap_us_;
  uint64_t ordering_stalls_ = 0;
  uint64_t ordering_stall_us_ = 0;
  uint64_t endorser_admitted_ = 0;
  uint64_t endorser_busy_ = 0;
  uint64_t orderer_admitted_ = 0;
  uint64_t orderer_busy_ = 0;
  uint64_t mailbox_shed_total_ = 0;
  /// Per-client in-window counters (std::map: deterministic iteration for
  /// the report's sorted per-client goodput).
  std::map<std::string, uint64_t> per_client_successful_;
  std::map<std::string, uint64_t> per_client_fired_;
  uint64_t blocks_corrupted_ = 0;
  uint64_t blocks_deduplicated_ = 0;
  Histogram recovery_us_;
  uint64_t net_dropped_ = 0;
  uint64_t net_duplicated_ = 0;
  ValidationWallClock validation_wall_;
  ReorderWallClock reorder_wall_;
  TransportCounters transport_counters_;
};

/// A stable key for (client, proposal) used by Metrics.
std::string ProposalKey(const std::string& client, uint64_t proposal_id);

}  // namespace fabricpp::fabric

#endif  // FABRICPP_FABRIC_METRICS_H_
