#include "peer/validator.h"

#include <chrono>
#include <mutex>
#include <unordered_set>

#include "common/logging.h"
#include "peer/endorser.h"

namespace fabricpp::peer {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

Validator::Validator(uint64_t network_seed, const PolicyRegistry* policies,
                     ThreadPool* pool)
    : network_seed_(network_seed), policies_(policies), pool_(pool) {}

void Validator::PrewarmIdentities(
    const std::vector<std::string>& peer_names) {
  std::unique_lock<std::shared_mutex> lock(identity_mu_);
  for (const std::string& name : peer_names) {
    if (identity_cache_.find(name) == identity_cache_.end()) {
      identity_cache_.emplace(name, crypto::Identity(network_seed_, name));
    }
  }
}

const crypto::Identity& Validator::IdentityFor(
    const std::string& peer_name) const {
  {
    std::shared_lock<std::shared_mutex> lock(identity_mu_);
    const auto it = identity_cache_.find(peer_name);
    if (it != identity_cache_.end()) return it->second;
  }
  // Cache miss (a signer that was not pre-warmed): derive outside any lock —
  // key derivation hashes — then publish under the exclusive lock. A racing
  // inserter wins harmlessly: emplace keeps the existing entry, and both
  // derivations are deterministic in (seed, name).
  crypto::Identity identity(network_seed_, peer_name);
  std::unique_lock<std::shared_mutex> lock(identity_mu_);
  return identity_cache_.emplace(peer_name, std::move(identity))
      .first->second;
}

bool Validator::CheckEndorsementPolicy(const proto::Transaction& tx) const {
  const auto policy = policies_->Get(tx.policy_id);
  if (!policy.ok()) return false;

  // Recompute the signed payload from the *received* effects; tampering
  // with the rwset invalidates every honest signature.
  const Bytes payload =
      EndorsementPayload(tx.channel, tx.chaincode, tx.policy_id, tx.rwset);

  std::unordered_set<std::string> endorsing_orgs;
  for (const proto::Endorsement& e : tx.endorsements) {
    if (IdentityFor(e.peer).Verify(payload, e.signature)) {
      endorsing_orgs.insert(e.org);
    }
  }
  for (const std::string& org : (*policy)->required_orgs) {
    if (endorsing_orgs.find(org) == endorsing_orgs.end()) return false;
  }
  return true;
}

std::vector<uint8_t> Validator::VerifyEndorsements(
    const proto::Block& block) const {
  std::vector<uint8_t> ok(block.transactions.size(), 0);
  const auto verify_one = [this, &block, &ok](size_t i) {
    // Each worker writes only its own index; joined in transaction order,
    // so the verdict vector is identical for any worker count.
    ok[i] = CheckEndorsementPolicy(block.transactions[i]) ? 1 : 0;
  };
  if (pool_ != nullptr && pool_->extra_threads() > 0) {
    pool_->ParallelFor(ok.size(), verify_one);
  } else {
    for (size_t i = 0; i < ok.size(); ++i) verify_one(i);
  }
  return ok;
}

BlockValidationResult Validator::ValidateAndCommit(
    const proto::Block& block, statedb::StateDb* db,
    ledger::Ledger* ledger) const {
  BlockValidationResult result;
  result.codes.resize(block.transactions.size(),
                      proto::TxValidationCode::kNotValidated);

  // Stage 1 — verify (pure, parallel): per-transaction endorsement policy
  // + signature checks. This dominates real validation cost (Appendix
  // A.3.1) and shares no mutable state, so it fans out across the attached
  // pool. Duplicate-txid transactions are verified too (their verdict is
  // simply unused): skipping them would require the sequential ledger scan
  // first and serialize the stages.
  const auto verify_start = std::chrono::steady_clock::now();
  const std::vector<uint8_t> policy_ok = VerifyEndorsements(block);
  result.verify_wall_ns = ElapsedNs(verify_start);

  // Stage 2 — commit: replay protection, MVCC, write application, ledger
  // append. Writes are *deferred*: valid transactions accumulate into one
  // block-level batch that is applied at the end together with the new
  // height, so no reader of the state db sees writes ahead of the recorded
  // height.
  const auto commit_start = std::chrono::steady_clock::now();
  std::vector<statedb::VersionedWrite> block_writes;
  // Transactions are checked in block order, as in Fabric (§2.2.4): each
  // valid transaction's writes feed the next one's MVCC check through the
  // `pending` overlay. Single-threaded and lock-free.
  std::unordered_set<std::string> block_tx_ids;
  std::unordered_map<std::string, proto::Version> pending;
  const auto current_version = [&](const std::string& key) {
    const auto it = pending.find(key);
    return it != pending.end() ? it->second : db->GetVersion(key);
  };
  for (uint32_t i = 0; i < block.transactions.size(); ++i) {
    const proto::Transaction& tx = block.transactions[i];

    // Replay protection (Fabric's DUPLICATE_TXID check): a transaction id
    // already on the ledger — or earlier in this very block — must not
    // commit again. Without this, a network-duplicated read-only
    // transaction passes MVCC every time (its reads bump no versions).
    if (!tx.tx_id.empty() &&
        ((ledger != nullptr && ledger->FindTransaction(tx.tx_id).ok()) ||
         !block_tx_ids.insert(tx.tx_id).second)) {
      result.codes[i] = proto::TxValidationCode::kDuplicateTxId;
      ++result.num_duplicate_txids;
      continue;
    }

    // First check: endorsement policy + signatures (Appendix A.3.1),
    // computed by the verify stage.
    if (!policy_ok[i]) {
      result.codes[i] = proto::TxValidationCode::kEndorsementPolicyFailure;
      ++result.num_policy_failures;
      continue;
    }

    // Second check: MVCC serializability (Appendix A.3.2). Earlier valid
    // transactions of this block have already bumped versions in the
    // overlay, so within-block read-write conflicts fail here too.
    bool serializable = true;
    for (const proto::ReadItem& r : tx.rwset.reads) {
      if (current_version(r.key) != r.version) {
        serializable = false;
        break;
      }
    }
    if (!serializable) {
      result.codes[i] = proto::TxValidationCode::kMvccConflict;
      ++result.num_mvcc_conflicts;
      continue;
    }

    result.codes[i] = proto::TxValidationCode::kValid;
    ++result.num_valid;
    const proto::Version version{block.header.number, i};
    for (const proto::WriteItem& w : tx.rwset.writes) {
      block_writes.push_back(statedb::VersionedWrite{w, version});
      // A delete leaves no version behind — a later same-block read of the
      // key must see kNilVersion, matching the store after the erase.
      pending[w.key] = w.is_delete ? proto::kNilVersion : version;
    }
  }

  // One commit for the whole block: every valid write and the new height
  // land together.
  db->ApplyBlock(block_writes, block.header.number);

  if (ledger != nullptr) {
    ledger::StoredBlock stored;
    stored.block = block;
    stored.validation_codes = result.codes;
    // Blocks reach peers in chain order, so an append failure is a pipeline
    // wiring bug — surface it loudly.
    const Status append_status = ledger->Append(std::move(stored));
    if (!append_status.ok()) {
      FABRICPP_LOG(Error) << "ledger append failed: "
                          << append_status.ToString();
    }
  }
  result.commit_wall_ns = ElapsedNs(commit_start);
  return result;
}

uint32_t CountValidUnderCommonSnapshot(
    const std::vector<const proto::ReadWriteSet*>& rwsets,
    const std::vector<uint32_t>& order) {
  std::unordered_set<std::string> written;
  uint32_t valid = 0;
  for (const uint32_t idx : order) {
    const proto::ReadWriteSet* set = rwsets[idx];
    bool ok = true;
    for (const proto::ReadItem& r : set->reads) {
      if (written.count(r.key) != 0) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    ++valid;
    for (const proto::WriteItem& w : set->writes) written.insert(w.key);
  }
  return valid;
}

}  // namespace fabricpp::peer
