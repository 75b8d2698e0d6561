#ifndef FABRICPP_PEER_VALIDATOR_H_
#define FABRICPP_PEER_VALIDATOR_H_

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "ledger/ledger.h"
#include "peer/policy.h"
#include "proto/block.h"
#include "statedb/state_db.h"

namespace fabricpp::peer {

/// Per-block validation outcome.
struct BlockValidationResult {
  std::vector<proto::TxValidationCode> codes;
  uint32_t num_valid = 0;
  uint32_t num_mvcc_conflicts = 0;
  uint32_t num_policy_failures = 0;
  uint32_t num_duplicate_txids = 0;
  /// Host wall-clock (std::chrono::steady_clock) spent in the two stages,
  /// nanoseconds. These are *measurements of the real crypto work*, not
  /// simulation state: they vary run-to-run and with the worker count, and
  /// must never feed back into virtual time or validation decisions.
  uint64_t verify_wall_ns = 0;
  uint64_t commit_wall_ns = 0;
};

/// The validation + commit phase of a peer (paper §2.2.3-§2.2.4 /
/// Appendix A.3): endorsement-policy evaluation, the MVCC serializability
/// check, state updates for valid transactions, and the ledger append.
///
/// Signature verification follows the paper's trust model: the validator
/// *recomputes* each endorser's signature over the received read/write set
/// and compares — a client that tampered with the effects (Appendix A.3.1)
/// fails here because honest endorsers signed different bytes.
///
/// ValidateAndCommit is split into two stages, mirroring Fabric 1.2's
/// validator-worker fan-out (and "Optimizing Validation Phase of
/// Hyperledger Fabric"):
///  - **verify** (pure, parallel): per-transaction endorsement-policy +
///    signature checks. No shared mutable state; when a ThreadPool is
///    attached the checks fan out across its workers and the verdicts are
///    joined in transaction order, so the outcome is byte-identical to the
///    serial loop regardless of worker count.
///  - **commit** (sequential, as in Fabric §2.2.4): duplicate-txid replay
///    protection, the MVCC check, write application, and the ledger
///    append, one transaction at a time in block order, so each valid
///    transaction's writes feed the next one's MVCC check. Single-threaded
///    and lock-free, as in "Lockless Transaction Isolation in Hyperledger
///    Fabric". DESIGN.md §13 records why this stage has no parallel
///    variant.
class Validator {
 public:
  /// `policies` is borrowed; `network_seed` lets the validator reconstruct
  /// endorser verification identities. `pool` (borrowed, may be null =
  /// serial) runs the verify stage; it may be shared across validators.
  Validator(uint64_t network_seed, const PolicyRegistry* policies,
            ThreadPool* pool = nullptr);

  /// Attaches/detaches the verify-stage pool. Not thread-safe; call before
  /// validation begins.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Derives and caches the verification identities for `peer_names` up
  /// front, so the verify stage's cache accesses are read-only in the
  /// common case (no writer contention on the hot path).
  void PrewarmIdentities(const std::vector<std::string>& peer_names);

  /// Checks one transaction against its endorsement policy. Thread-safe:
  /// may be called concurrently from verify-stage workers.
  bool CheckEndorsementPolicy(const proto::Transaction& tx) const;

  /// Stage 1 (pure, parallelizable): the endorsement-policy verdict for
  /// every transaction of `block`, in transaction order. Touches neither
  /// the state database nor the ledger.
  std::vector<uint8_t> VerifyEndorsements(const proto::Block& block) const;

  /// Validates every transaction of `block` in order, applies the write
  /// sets of valid ones to `db` (bumping versions to {block, tx index}),
  /// advances the db's last-committed-block, and appends the block with its
  /// validation flags to `ledger`.
  ///
  /// The MVCC rule (Appendix A.3.2): a transaction is valid iff the version
  /// of every key in its read set still matches the current state —
  /// including updates made by *earlier valid transactions of the same
  /// block*, which is exactly the within-block conflict the Fabric++
  /// reorderer minimizes. In-block updates are tracked in a version
  /// overlay; the state db itself is mutated exactly once, by a single
  /// StateDb::ApplyBlock carrying every valid write plus the new height.
  BlockValidationResult ValidateAndCommit(const proto::Block& block,
                                          statedb::StateDb* db,
                                          ledger::Ledger* ledger) const;

 private:
  /// Returns the cached verification identity for `peer_name`, deriving it
  /// on first use. Thread-safe (shared_mutex-guarded cache); the returned
  /// reference stays valid for the validator's lifetime because
  /// unordered_map never invalidates references on rehash.
  const crypto::Identity& IdentityFor(const std::string& peer_name) const;

  uint64_t network_seed_;
  const PolicyRegistry* policies_;
  ThreadPool* pool_;
  /// Guards identity_cache_. Invariant: verify-stage workers only ever
  /// take the shared side unless a signer was not pre-warmed; the exclusive
  /// side is taken solely to insert a missing identity.
  mutable std::shared_mutex identity_mu_;
  /// Verification identities, derived on demand (or pre-warmed) and cached.
  mutable std::unordered_map<std::string, crypto::Identity> identity_cache_;
};

/// Counts how many transactions commit when the given read/write sets are
/// applied in `order`, assuming all of them simulated against one common
/// snapshot (so a read is stale iff an earlier *valid* transaction in the
/// sequence wrote the key). This is the validation model of the paper's
/// Tables 1-2 and the Appendix B micro-benchmarks.
uint32_t CountValidUnderCommonSnapshot(
    const std::vector<const proto::ReadWriteSet*>& rwsets,
    const std::vector<uint32_t>& order);

}  // namespace fabricpp::peer

#endif  // FABRICPP_PEER_VALIDATOR_H_
