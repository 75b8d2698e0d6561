#ifndef FABRICPP_PROTO_BLOCK_H_
#define FABRICPP_PROTO_BLOCK_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "proto/transaction.h"

namespace fabricpp::proto {

/// Block header: number + hash chain link + Merkle root of the transaction
/// contents.
struct BlockHeader {
  uint64_t number = 0;
  crypto::Digest previous_hash{};
  crypto::Digest data_hash{};

  Bytes Encode() const;
  /// The hash referenced by the next block's previous_hash.
  crypto::Digest Hash() const;
};

/// A block as distributed by the ordering service (paper §2.2.2): an ordered
/// list of transactions. Validation flags are *not* part of the distributed
/// block — each peer computes them in its own validation phase and stores
/// them alongside in the ledger (see ledger::Ledger).
struct Block {
  BlockHeader header;
  std::vector<Transaction> transactions;

  /// Recomputes header.data_hash from the transactions' Merkle root.
  void SealDataHash();

  /// True iff header.data_hash matches the transactions.
  bool VerifyDataHash() const;

  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  /// Decodes a whole encoded block. `r` must hold exactly one block:
  /// callers length-frame block bytes, so anything left over after the
  /// transactions is DataLoss.
  static Result<Block> Decode(ByteReader* r);

  /// Wire size for the network cost model.
  uint64_t ByteSize() const;
};

}  // namespace fabricpp::proto

#endif  // FABRICPP_PROTO_BLOCK_H_
