#ifndef FABRICPP_PROTO_TRANSACTION_H_
#define FABRICPP_PROTO_TRANSACTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/identity.h"
#include "crypto/sha256.h"
#include "proto/rwset.h"

namespace fabricpp::proto {

/// A client's transaction proposal: which chaincode to run with which
/// arguments (paper §2.2.1 / Appendix A.1). The proposal itself carries no
/// effects — endorsers produce those by simulation.
struct Proposal {
  uint64_t proposal_id = 0;  ///< Client-unique id (client name + counter).
  std::string client;
  std::string channel;
  std::string chaincode;
  std::vector<std::string> args;
  uint64_t nonce = 0;  ///< Random per-proposal value; salts the tx id.

  /// Canonical encoding (hashed into the transaction id).
  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<Proposal> Decode(ByteReader* r);
  uint64_t ByteSize() const { return EncodedSize(*this); }
};

/// One endorsement: the simulating peer's signature over the proposal's
/// chaincode, the produced read/write set, and the endorsement policy.
struct Endorsement {
  std::string peer;
  std::string org;
  crypto::Signature signature;
};

enum class TxValidationCode : uint8_t {
  kValid = 0,
  /// Failed the validator's MVCC check (read an outdated version).
  kMvccConflict,
  /// Endorsement policy not satisfied or a signature failed to verify.
  kEndorsementPolicyFailure,
  /// Fabric++: dropped by the orderer because it participated in conflict
  /// cycles broken by the reorderer (paper §5.1 step 4).
  kAbortedByReorderer,
  /// Fabric++: dropped by the orderer's within-block version-skew check
  /// (paper §5.2.2).
  kAbortedVersionSkew,
  /// Fabric++: the simulation itself detected a stale read and the proposal
  /// never became a transaction (paper §5.2.1).
  kAbortedStaleSimulation,
  /// Replay protection: this transaction id is already on the ledger (or
  /// appeared earlier in the same block). Catches duplicated submissions —
  /// a read-only transaction would otherwise pass MVCC any number of times.
  kDuplicateTxId,
  kNotValidated,
};

std::string_view TxValidationCodeToString(TxValidationCode code);
/// True for every abort code (anything except kValid/kNotValidated).
bool IsAbort(TxValidationCode code);

/// A full transaction as submitted to the ordering service: the simulated
/// effects (read/write set) plus the endorsements that vouch for them.
struct Transaction {
  std::string tx_id;  ///< Hex SHA-256 of proposal + rwset.
  uint64_t proposal_id = 0;
  std::string client;
  std::string channel;
  std::string chaincode;
  std::string policy_id;  ///< Name of the endorsement policy used.
  ReadWriteSet rwset;
  std::vector<Endorsement> endorsements;

  /// The byte string each endorser signs: chaincode identity, policy, and
  /// the canonical read/write set encoding. A client that tampers with the
  /// write set (Appendix A.3.1's malicious example) invalidates every honest
  /// endorser signature because validators recompute this payload.
  Bytes SignedPayload() const;
  /// The same bytes from the four signed fields alone: endorsers sign, and
  /// validators check, without building a Transaction around the rwset.
  static Bytes SignedPayload(std::string_view channel,
                             std::string_view chaincode,
                             std::string_view policy_id,
                             const ReadWriteSet& rwset);

  /// Computes and assigns tx_id from the content.
  void ComputeTxId(const Proposal& proposal);

  /// Canonical encoding for block hashing / ledger storage.
  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<Transaction> Decode(ByteReader* r);

  /// Wire size in bytes — drives the network cost model and the orderer's
  /// max-block-bytes batch-cutting condition.
  uint64_t ByteSize() const;

  /// Digest used as the transaction's Merkle leaf.
  crypto::Digest ContentDigest() const;
};

}  // namespace fabricpp::proto

#endif  // FABRICPP_PROTO_TRANSACTION_H_
