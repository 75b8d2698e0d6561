#include "proto/transaction.h"

namespace fabricpp::proto {

namespace {

/// Bounds a decoded element count before reserve(): every element costs at
/// least one encoded byte, so a count beyond the bytes left is garbage. A
/// hostile varint must yield a decode error, never a length_error/OOM abort.
Status CheckCount(uint64_t count, const ByteReader& r, const char* what) {
  if (count > r.remaining()) {
    return Status::DataLoss(std::string("implausible ") + what +
                            " count in encoded transaction");
  }
  return Status::OK();
}

}  // namespace

void Proposal::EncodeTo(ByteWriter* w) const {
  w->PutVarint(proposal_id);
  w->PutString(client);
  w->PutString(channel);
  w->PutString(chaincode);
  w->PutVarint(args.size());
  for (const std::string& a : args) w->PutString(a);
  w->PutU64(nonce);
}

Bytes Proposal::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  EncodeTo(&w);
  return out;
}

Result<Proposal> Proposal::Decode(ByteReader* r) {
  Proposal p;
  FABRICPP_ASSIGN_OR_RETURN(p.proposal_id, r->GetVarint());
  FABRICPP_ASSIGN_OR_RETURN(p.client, r->GetString());
  FABRICPP_ASSIGN_OR_RETURN(p.channel, r->GetString());
  FABRICPP_ASSIGN_OR_RETURN(p.chaincode, r->GetString());
  FABRICPP_ASSIGN_OR_RETURN(const uint64_t num_args, r->GetVarint());
  FABRICPP_RETURN_IF_ERROR(CheckCount(num_args, *r, "arg"));
  p.args.reserve(num_args);
  for (uint64_t i = 0; i < num_args; ++i) {
    FABRICPP_ASSIGN_OR_RETURN(std::string arg, r->GetString());
    p.args.push_back(std::move(arg));
  }
  FABRICPP_ASSIGN_OR_RETURN(p.nonce, r->GetU64());
  return p;
}

std::string_view TxValidationCodeToString(TxValidationCode code) {
  switch (code) {
    case TxValidationCode::kValid:
      return "VALID";
    case TxValidationCode::kMvccConflict:
      return "MVCC_CONFLICT";
    case TxValidationCode::kEndorsementPolicyFailure:
      return "ENDORSEMENT_POLICY_FAILURE";
    case TxValidationCode::kAbortedByReorderer:
      return "ABORTED_BY_REORDERER";
    case TxValidationCode::kAbortedVersionSkew:
      return "ABORTED_VERSION_SKEW";
    case TxValidationCode::kAbortedStaleSimulation:
      return "ABORTED_STALE_SIMULATION";
    case TxValidationCode::kDuplicateTxId:
      return "DUPLICATE_TXID";
    case TxValidationCode::kNotValidated:
      return "NOT_VALIDATED";
  }
  return "UNKNOWN";
}

bool IsAbort(TxValidationCode code) {
  return code != TxValidationCode::kValid &&
         code != TxValidationCode::kNotValidated;
}

Bytes Transaction::SignedPayload() const {
  return SignedPayload(channel, chaincode, policy_id, rwset);
}

Bytes Transaction::SignedPayload(std::string_view channel,
                                 std::string_view chaincode,
                                 std::string_view policy_id,
                                 const ReadWriteSet& rwset) {
  Bytes out;
  ByteWriter w(&out);
  w.PutString(channel);
  w.PutString(chaincode);
  w.PutString(policy_id);
  rwset.EncodeTo(&w);
  return out;
}

void Transaction::ComputeTxId(const Proposal& proposal) {
  crypto::Sha256 h;
  h.Update(proposal.Encode());
  h.Update(rwset.Encode());
  tx_id = crypto::DigestToHex(h.Finalize());
}

void Transaction::EncodeTo(ByteWriter* w) const {
  w->PutString(tx_id);
  w->PutVarint(proposal_id);
  w->PutString(client);
  w->PutString(channel);
  w->PutString(chaincode);
  w->PutString(policy_id);
  rwset.EncodeTo(w);
  w->PutVarint(endorsements.size());
  for (const Endorsement& e : endorsements) {
    w->PutString(e.peer);
    w->PutString(e.org);
    w->PutString(e.signature.signer);
    w->PutRaw(e.signature.tag.data(), e.signature.tag.size());
  }
}

Bytes Transaction::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  EncodeTo(&w);
  return out;
}

Result<Transaction> Transaction::Decode(ByteReader* r) {
  Transaction tx;
  FABRICPP_ASSIGN_OR_RETURN(tx.tx_id, r->GetString());
  FABRICPP_ASSIGN_OR_RETURN(tx.proposal_id, r->GetVarint());
  FABRICPP_ASSIGN_OR_RETURN(tx.client, r->GetString());
  FABRICPP_ASSIGN_OR_RETURN(tx.channel, r->GetString());
  FABRICPP_ASSIGN_OR_RETURN(tx.chaincode, r->GetString());
  FABRICPP_ASSIGN_OR_RETURN(tx.policy_id, r->GetString());
  {
    FABRICPP_ASSIGN_OR_RETURN(tx.rwset, ReadWriteSet::Decode(r));
  }
  FABRICPP_ASSIGN_OR_RETURN(const uint64_t num_endorsements, r->GetVarint());
  FABRICPP_RETURN_IF_ERROR(CheckCount(num_endorsements, *r, "endorsement"));
  tx.endorsements.reserve(num_endorsements);
  for (uint64_t i = 0; i < num_endorsements; ++i) {
    Endorsement e;
    FABRICPP_ASSIGN_OR_RETURN(e.peer, r->GetString());
    FABRICPP_ASSIGN_OR_RETURN(e.org, r->GetString());
    FABRICPP_ASSIGN_OR_RETURN(e.signature.signer, r->GetString());
    for (size_t b = 0; b < e.signature.tag.size(); ++b) {
      FABRICPP_ASSIGN_OR_RETURN(e.signature.tag[b], r->GetU8());
    }
    tx.endorsements.push_back(std::move(e));
  }
  return tx;
}

uint64_t Transaction::ByteSize() const { return EncodedSize(*this); }

crypto::Digest Transaction::ContentDigest() const {
  return crypto::Sha256::Hash(Encode());
}

}  // namespace fabricpp::proto
