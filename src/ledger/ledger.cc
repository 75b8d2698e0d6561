#include "ledger/ledger.h"

#include <utility>

#include "common/strings.h"

namespace fabricpp::ledger {

Ledger::Ledger() {
  // Genesis block: number 0, zero previous hash, no transactions.
  StoredBlock genesis;
  genesis.block.header.number = 0;
  genesis.block.header.previous_hash.fill(0);
  genesis.block.SealDataHash();
  blocks_.push_back(std::move(genesis));
}

crypto::Digest Ledger::LastHash() const {
  return blocks_.back().block.header.Hash();
}

Status Ledger::Append(StoredBlock stored) {
  const proto::Block& block = stored.block;
  if (block.header.number != Height()) {
    return Status::FailedPrecondition(
        StrFormat("block number %llu does not extend chain of height %llu",
                  static_cast<unsigned long long>(block.header.number),
                  static_cast<unsigned long long>(Height())));
  }
  if (block.header.previous_hash != LastHash()) {
    return Status::FailedPrecondition("previous-hash link mismatch");
  }
  if (!block.VerifyDataHash()) {
    return Status::FailedPrecondition("block data hash mismatch");
  }
  if (stored.validation_codes.size() != block.transactions.size()) {
    return Status::InvalidArgument(
        "validation codes do not match transaction count");
  }
  for (uint32_t i = 0; i < block.transactions.size(); ++i) {
    tx_index_[block.transactions[i].tx_id] = {block.header.number, i};
    ++total_txs_;
    if (stored.validation_codes[i] == proto::TxValidationCode::kValid) {
      ++total_valid_txs_;
    }
  }
  blocks_.push_back(std::move(stored));
  return Status::OK();
}

Result<const StoredBlock*> Ledger::GetBlock(uint64_t number) const {
  if (number >= Height()) {
    return Status::OutOfRange(
        StrFormat("block %llu beyond chain height %llu",
                  static_cast<unsigned long long>(number),
                  static_cast<unsigned long long>(Height())));
  }
  return &blocks_[number];
}

Result<std::pair<uint64_t, uint32_t>> Ledger::FindTransaction(
    const std::string& tx_id) const {
  const auto it = tx_index_.find(tx_id);
  if (it == tx_index_.end()) {
    return Status::NotFound("transaction not in ledger: " + tx_id);
  }
  return it->second;
}

Result<proto::TxValidationCode> Ledger::GetValidationCode(
    const std::string& tx_id) const {
  FABRICPP_ASSIGN_OR_RETURN(const auto loc, FindTransaction(tx_id));
  return blocks_[loc.first].validation_codes[loc.second];
}

Status Ledger::VerifyChain() const {
  for (size_t i = 0; i < blocks_.size(); ++i) {
    const proto::Block& block = blocks_[i].block;
    const uint64_t number = i;
    if (block.header.number != number) {
      return Status::Internal(
          StrFormat("block %llu has wrong number",
                    static_cast<unsigned long long>(number)));
    }
    if (!block.VerifyDataHash()) {
      return Status::Internal(
          StrFormat("block %llu data hash mismatch",
                    static_cast<unsigned long long>(number)));
    }
    // Genesis has no predecessor to link to.
    if (i > 0 &&
        block.header.previous_hash != blocks_[i - 1].block.header.Hash()) {
      return Status::Internal(
          StrFormat("block %llu previous-hash link broken",
                    static_cast<unsigned long long>(number)));
    }
  }
  return Status::OK();
}

}  // namespace fabricpp::ledger
