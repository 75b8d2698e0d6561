#include "proto/block.h"

namespace fabricpp::proto {

Bytes BlockHeader::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.PutU64(number);
  w.PutRaw(previous_hash.data(), previous_hash.size());
  w.PutRaw(data_hash.data(), data_hash.size());
  return out;
}

crypto::Digest BlockHeader::Hash() const {
  return crypto::Sha256::Hash(Encode());
}

void Block::SealDataHash() {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(transactions.size());
  for (const Transaction& tx : transactions) {
    leaves.push_back(tx.ContentDigest());
  }
  header.data_hash = crypto::MerkleRoot(leaves);
}

bool Block::VerifyDataHash() const {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(transactions.size());
  for (const Transaction& tx : transactions) {
    leaves.push_back(tx.ContentDigest());
  }
  return crypto::MerkleRoot(leaves) == header.data_hash;
}

void Block::EncodeTo(ByteWriter* w) const {
  w->PutU64(header.number);
  w->PutRaw(header.previous_hash.data(), header.previous_hash.size());
  w->PutRaw(header.data_hash.data(), header.data_hash.size());
  w->PutVarint(transactions.size());
  for (const Transaction& tx : transactions) tx.EncodeTo(w);
}

Bytes Block::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  EncodeTo(&w);
  return out;
}

Result<Block> Block::Decode(ByteReader* r) {
  Block block;
  FABRICPP_ASSIGN_OR_RETURN(block.header.number, r->GetU64());
  for (size_t i = 0; i < block.header.previous_hash.size(); ++i) {
    FABRICPP_ASSIGN_OR_RETURN(block.header.previous_hash[i], r->GetU8());
  }
  for (size_t i = 0; i < block.header.data_hash.size(); ++i) {
    FABRICPP_ASSIGN_OR_RETURN(block.header.data_hash[i], r->GetU8());
  }
  FABRICPP_ASSIGN_OR_RETURN(const uint64_t num_txs, r->GetVarint());
  // Bound before reserve(): a hostile count (say 2^60) must produce a decode
  // error, not a length_error/OOM abort. Every transaction costs well over
  // one encoded byte, so a count beyond the bytes left is garbage.
  if (num_txs > r->remaining()) {
    return Status::DataLoss("implausible transaction count in encoded block");
  }
  block.transactions.reserve(num_txs);
  for (uint64_t i = 0; i < num_txs; ++i) {
    FABRICPP_ASSIGN_OR_RETURN(Transaction tx, Transaction::Decode(r));
    block.transactions.push_back(std::move(tx));
  }
  if (!r->AtEnd()) {
    return Status::DataLoss("trailing bytes after encoded block");
  }
  return block;
}

uint64_t Block::ByteSize() const { return EncodedSize(*this); }

}  // namespace fabricpp::proto
