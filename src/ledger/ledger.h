#ifndef FABRICPP_LEDGER_LEDGER_H_
#define FABRICPP_LEDGER_LEDGER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "proto/block.h"
#include "proto/transaction.h"

namespace fabricpp::ledger {

/// A block as stored by a peer: the distributed block plus the validation
/// flags this peer computed. Fabric appends *both valid and invalid*
/// transactions to the ledger (paper §2.2.4); the flags record which are
/// which.
struct StoredBlock {
  proto::Block block;
  std::vector<proto::TxValidationCode> validation_codes;
};

/// Append-only hash-chained block store — one per (peer, channel).
///
/// Every appended block must reference the hash of its predecessor;
/// VerifyChain() re-hashes the whole chain and is used by integrity tests
/// and the examples to demonstrate tamper evidence. Every block is kept in
/// memory from genesis on: the transaction index behind DUPLICATE_TXID
/// replay protection covers the whole chain.
class Ledger {
 public:
  Ledger();

  /// Appends a validated block. Fails with FailedPrecondition if the block
  /// number or previous-hash link is wrong, or if the data hash does not
  /// match the transactions.
  Status Append(StoredBlock stored);

  /// Number of blocks including the genesis block — i.e. the next block
  /// number to append.
  uint64_t Height() const { return blocks_.size(); }

  /// Hash of the last block (what the next header must link to).
  crypto::Digest LastHash() const;

  /// Block by number; OutOfRange if beyond the chain tip.
  Result<const StoredBlock*> GetBlock(uint64_t number) const;

  /// Looks a transaction up by id; returns (block number, tx index).
  Result<std::pair<uint64_t, uint32_t>> FindTransaction(
      const std::string& tx_id) const;

  /// The validation code recorded for a transaction.
  Result<proto::TxValidationCode> GetValidationCode(
      const std::string& tx_id) const;

  /// Re-hashes every block and checks all links and data hashes.
  Status VerifyChain() const;

  /// Totals across all blocks.
  uint64_t TotalTransactions() const { return total_txs_; }
  uint64_t TotalValidTransactions() const { return total_valid_txs_; }

 private:
  /// blocks_[i] holds block number i; blocks_[0] is the genesis block.
  std::vector<StoredBlock> blocks_;
  std::unordered_map<std::string, std::pair<uint64_t, uint32_t>> tx_index_;
  uint64_t total_txs_ = 0;
  uint64_t total_valid_txs_ = 0;
};

}  // namespace fabricpp::ledger

#endif  // FABRICPP_LEDGER_LEDGER_H_
