// Tests for src/peer: endorser, endorsement policies, validator (policy
// evaluation + MVCC serializability + commit).

#include <gtest/gtest.h>

#include "chaincode/chaincode.h"
#include "common/strings.h"
#include "ledger/ledger.h"
#include "peer/endorser.h"
#include "peer/policy.h"
#include "peer/validator.h"
#include "statedb/state_db.h"

namespace fabricpp::peer {
namespace {

constexpr uint64_t kSeed = 42;

class PeerFixture : public ::testing::Test {
 protected:
  PeerFixture()
      : registry_(chaincode::ChaincodeRegistry::WithBuiltins()),
        endorser_a_("A1", "A", kSeed, registry_.get()),
        endorser_b_("B1", "B", kSeed, registry_.get()),
        validator_(kSeed, &policies_) {
    EndorsementPolicy policy;
    policy.id = "AND(A,B)";
    policy.required_orgs = {"A", "B"};
    (void)policies_.Register(std::move(policy));
    db_.SeedInitialState("bal_A", "100");
    db_.SeedInitialState("bal_B", "50");
  }

  proto::Proposal TransferProposal(const std::string& amount) {
    proto::Proposal p;
    p.proposal_id = next_id_++;
    p.client = "client";
    p.channel = "ch0";
    p.chaincode = "asset_transfer";
    p.args = {"transfer", "A", "B", amount};
    return p;
  }

  /// Endorses on both orgs and assembles the transaction (the honest
  /// client path).
  proto::Transaction MakeTransaction(const proto::Proposal& proposal) {
    const auto ra = endorser_a_.Endorse(proposal, "AND(A,B)", db_, false);
    const auto rb = endorser_b_.Endorse(proposal, "AND(A,B)", db_, false);
    EXPECT_TRUE(ra.ok());
    EXPECT_TRUE(rb.ok());
    proto::Transaction tx;
    tx.proposal_id = proposal.proposal_id;
    tx.client = proposal.client;
    tx.channel = proposal.channel;
    tx.chaincode = proposal.chaincode;
    tx.policy_id = "AND(A,B)";
    tx.rwset = ra->rwset;
    tx.endorsements = {ra->endorsement, rb->endorsement};
    tx.ComputeTxId(proposal);
    return tx;
  }

  /// A transaction with an explicit rwset (reads as {key, version}, writes
  /// as plain upserts), signed by A1 and B1 over the real payload.
  /// `tamper` edits the first write after signing.
  proto::Transaction ExplicitTransaction(uint64_t id,
                                         std::vector<proto::ReadItem> reads,
                                         std::vector<std::string> write_keys,
                                         bool tamper = false) {
    proto::Transaction tx;
    tx.proposal_id = id;
    tx.client = "client";
    tx.channel = "ch0";
    tx.chaincode = "cc";
    tx.policy_id = "AND(A,B)";
    tx.rwset.reads = std::move(reads);
    for (std::string& key : write_keys) {
      tx.rwset.writes.push_back(
          {std::move(key),
           StrFormat("v%llu", static_cast<unsigned long long>(id)), false});
    }
    const Bytes payload = EndorsementPayload(tx.channel, tx.chaincode,
                                             tx.policy_id, tx.rwset);
    for (const char* org : {"A", "B"}) {
      proto::Endorsement e;
      e.peer = std::string(org) + "1";
      e.org = org;
      e.signature = crypto::Identity(kSeed, e.peer).Sign(payload);
      tx.endorsements.push_back(std::move(e));
    }
    if (tamper) tx.rwset.writes[0].value = "evil";
    proto::Proposal proposal;
    proposal.proposal_id = id;
    proposal.client = tx.client;
    proposal.nonce = id;
    tx.ComputeTxId(proposal);
    return tx;
  }

  proto::Block MakeBlock(uint64_t number,
                         std::vector<proto::Transaction> txs) {
    proto::Block block;
    block.header.number = number;
    block.header.previous_hash = ledger_.LastHash();
    block.transactions = std::move(txs);
    block.SealDataHash();
    return block;
  }

  std::unique_ptr<chaincode::ChaincodeRegistry> registry_;
  PolicyRegistry policies_;
  Endorser endorser_a_;
  Endorser endorser_b_;
  Validator validator_;
  statedb::StateDb db_;
  ledger::Ledger ledger_;
  uint64_t next_id_ = 1;
};

// --- Endorser ---

TEST_F(PeerFixture, EndorseProducesEffectsAndSignature) {
  const auto response =
      endorser_a_.Endorse(TransferProposal("30"), "AND(A,B)", db_, false);
  ASSERT_TRUE(response.ok());
  // Reads both balances at their current versions, writes both.
  EXPECT_EQ(response->rwset.reads.size(), 2u);
  EXPECT_EQ(response->rwset.writes.size(), 2u);
  EXPECT_EQ(response->endorsement.peer, "A1");
  EXPECT_EQ(response->endorsement.org, "A");
  // The signature verifies against the canonical payload.
  const crypto::Identity id(kSeed, "A1");
  EXPECT_TRUE(id.Verify(
      EndorsementPayload("ch0", "asset_transfer", "AND(A,B)", response->rwset),
      response->endorsement.signature));
}

TEST_F(PeerFixture, EndorsementPayloadMatchesTransactionSignedPayload) {
  const auto response =
      endorser_a_.Endorse(TransferProposal("30"), "AND(A,B)", db_, false);
  ASSERT_TRUE(response.ok());
  proto::Transaction tx;
  tx.tx_id = "not-signed";
  tx.client = "client";
  tx.channel = "ch0";
  tx.chaincode = "asset_transfer";
  tx.policy_id = "AND(A,B)";
  tx.rwset = response->rwset;
  tx.endorsements.push_back(response->endorsement);
  EXPECT_EQ(EndorsementPayload(tx.channel, tx.chaincode, tx.policy_id,
                               tx.rwset),
            tx.SignedPayload());
}

TEST_F(PeerFixture, EndorsersAgreeOnIdenticalState) {
  const proto::Proposal proposal = TransferProposal("30");
  const auto ra = endorser_a_.Endorse(proposal, "AND(A,B)", db_, false);
  const auto rb = endorser_b_.Endorse(proposal, "AND(A,B)", db_, false);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->rwset, rb->rwset);
  // But their signatures differ (different identities).
  EXPECT_NE(ra->endorsement.signature.tag, rb->endorsement.signature.tag);
}

TEST_F(PeerFixture, EndorseUnknownChaincodeFails) {
  proto::Proposal p = TransferProposal("1");
  p.chaincode = "missing";
  EXPECT_EQ(endorser_a_.Endorse(p, "AND(A,B)", db_, false).status().code(),
            StatusCode::kNotFound);
}

TEST_F(PeerFixture, EndorseChaincodeErrorPropagates) {
  EXPECT_EQ(endorser_a_.Endorse(TransferProposal("100000"), "AND(A,B)", db_,
                                false)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PeerFixture, EndorseStaleCheckFiresOnNewerState) {
  // Simulate against a snapshot that predates a committed block.
  statedb::StateDb newer;
  newer.ApplyWrites({{"bal_A", "100", false}, {"bal_B", "50", false}},
                    proto::Version{6, 0});
  newer.set_last_committed_block(6);
  // The endorser snapshots last_committed_block = 6, so reads are fine.
  EXPECT_TRUE(endorser_a_.Endorse(TransferProposal("1"), "AND(A,B)", newer,
                                  true)
                  .ok());
  // Now wind the snapshot back: a commit from block 6 lands mid-simulation.
  newer.set_last_committed_block(5);
  EXPECT_EQ(endorser_a_.Endorse(TransferProposal("1"), "AND(A,B)", newer, true)
                .status()
                .code(),
            StatusCode::kStaleRead);
}

// --- Policy registry ---

TEST(PolicyRegistryTest, RegisterAndLookup) {
  PolicyRegistry registry;
  EXPECT_TRUE(registry.Register({"p1", {"A"}}).ok());
  EXPECT_EQ(registry.Register({"p1", {"B"}}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(registry.Get("p1").ok());
  EXPECT_EQ((*registry.Get("p1"))->required_orgs,
            (std::vector<std::string>{"A"}));
  EXPECT_EQ(registry.Get("p2").status().code(), StatusCode::kNotFound);
}

// --- Validator: policy evaluation ---

TEST_F(PeerFixture, HonestTransactionPassesPolicy) {
  EXPECT_TRUE(validator_.CheckEndorsementPolicy(
      MakeTransaction(TransferProposal("30"))));
}

TEST_F(PeerFixture, TamperedWriteSetFailsPolicy) {
  // Appendix A.3.1: the client swaps in a doctored write set; the
  // recomputed signatures no longer match.
  proto::Transaction tx = MakeTransaction(TransferProposal("30"));
  tx.rwset.writes[0].value = "1000000";
  EXPECT_FALSE(validator_.CheckEndorsementPolicy(tx));
}

TEST_F(PeerFixture, MissingOrgFailsPolicy) {
  proto::Transaction tx = MakeTransaction(TransferProposal("30"));
  tx.endorsements.pop_back();  // Drop org B.
  EXPECT_FALSE(validator_.CheckEndorsementPolicy(tx));
}

TEST_F(PeerFixture, ForgedSignatureFailsPolicy) {
  proto::Transaction tx = MakeTransaction(TransferProposal("30"));
  tx.endorsements[1].signature.tag.fill(0x00);
  EXPECT_FALSE(validator_.CheckEndorsementPolicy(tx));
}

TEST_F(PeerFixture, UnknownPolicyFails) {
  proto::Transaction tx = MakeTransaction(TransferProposal("30"));
  tx.policy_id = "no-such-policy";
  EXPECT_FALSE(validator_.CheckEndorsementPolicy(tx));
}

TEST_F(PeerFixture, WrongOrgLabelFailsPolicy) {
  // An org-B endorsement claiming to be org A must not satisfy A's slot
  // while B goes missing.
  proto::Transaction tx = MakeTransaction(TransferProposal("30"));
  tx.endorsements[1].org = "A";
  EXPECT_FALSE(validator_.CheckEndorsementPolicy(tx));
}

// --- Validator: MVCC + commit ---

TEST_F(PeerFixture, ValidTransactionCommits) {
  const proto::Block block =
      MakeBlock(1, {MakeTransaction(TransferProposal("30"))});
  const auto result = validator_.ValidateAndCommit(block, &db_, &ledger_);
  ASSERT_EQ(result.codes.size(), 1u);
  EXPECT_EQ(result.codes[0], proto::TxValidationCode::kValid);
  EXPECT_EQ(result.num_valid, 1u);
  EXPECT_EQ(db_.Get("bal_A")->value, "70");
  EXPECT_EQ(db_.Get("bal_B")->value, "80");
  EXPECT_EQ(db_.GetVersion("bal_A"), (proto::Version{1, 0}));
  EXPECT_EQ(db_.last_committed_block(), 1u);
  EXPECT_EQ(ledger_.Height(), 2u);
  EXPECT_TRUE(ledger_.VerifyChain().ok());
}

TEST_F(PeerFixture, WithinBlockConflictInvalidatesLaterReader) {
  // Two transfers endorsed against the same snapshot in one block: the
  // second read bal_A at the pre-block version, which the first bumps.
  const proto::Transaction t1 = MakeTransaction(TransferProposal("10"));
  const proto::Transaction t2 = MakeTransaction(TransferProposal("20"));
  const proto::Block block = MakeBlock(1, {t1, t2});
  const auto result = validator_.ValidateAndCommit(block, &db_, &ledger_);
  EXPECT_EQ(result.codes[0], proto::TxValidationCode::kValid);
  EXPECT_EQ(result.codes[1], proto::TxValidationCode::kMvccConflict);
  EXPECT_EQ(result.num_mvcc_conflicts, 1u);
  // Only t1's effects applied.
  EXPECT_EQ(db_.Get("bal_A")->value, "90");
}

TEST_F(PeerFixture, CrossBlockConflictInvalidates) {
  // Endorse t2 against the pre-block state, then commit block 1; t2 in
  // block 2 is stale.
  const proto::Transaction t1 = MakeTransaction(TransferProposal("10"));
  const proto::Transaction t2 = MakeTransaction(TransferProposal("20"));
  (void)validator_.ValidateAndCommit(MakeBlock(1, {t1}), &db_, &ledger_);
  const auto result =
      validator_.ValidateAndCommit(MakeBlock(2, {t2}), &db_, &ledger_);
  EXPECT_EQ(result.codes[0], proto::TxValidationCode::kMvccConflict);
}

TEST_F(PeerFixture, SequentialBlocksCommitSequentially) {
  const proto::Transaction t1 = MakeTransaction(TransferProposal("10"));
  (void)validator_.ValidateAndCommit(MakeBlock(1, {t1}), &db_, &ledger_);
  // Endorse t2 against the *post-block-1* state: it must commit.
  const proto::Transaction t2 = MakeTransaction(TransferProposal("20"));
  const auto result =
      validator_.ValidateAndCommit(MakeBlock(2, {t2}), &db_, &ledger_);
  EXPECT_EQ(result.codes[0], proto::TxValidationCode::kValid);
  EXPECT_EQ(db_.Get("bal_A")->value, "70");
  EXPECT_EQ(db_.GetVersion("bal_A"), (proto::Version{2, 0}));
}

TEST_F(PeerFixture, DuplicateTxIdWithinBlockRejected) {
  // A read-only duplicate would pass MVCC (no versions bump); replay
  // protection must catch it by transaction id instead.
  const proto::Transaction tx = MakeTransaction(TransferProposal("10"));
  const auto result =
      validator_.ValidateAndCommit(MakeBlock(1, {tx, tx}), &db_, &ledger_);
  EXPECT_EQ(result.codes[0], proto::TxValidationCode::kValid);
  EXPECT_EQ(result.codes[1], proto::TxValidationCode::kDuplicateTxId);
  EXPECT_EQ(result.num_duplicate_txids, 1u);
  EXPECT_EQ(db_.Get("bal_A")->value, "90");  // Applied exactly once.
}

TEST_F(PeerFixture, DuplicateTxIdAcrossBlocksRejected) {
  const proto::Transaction tx = MakeTransaction(TransferProposal("10"));
  (void)validator_.ValidateAndCommit(MakeBlock(1, {tx}), &db_, &ledger_);
  const auto result =
      validator_.ValidateAndCommit(MakeBlock(2, {tx}), &db_, &ledger_);
  EXPECT_EQ(result.codes[0], proto::TxValidationCode::kDuplicateTxId);
  EXPECT_EQ(db_.Get("bal_A")->value, "90");
}

TEST_F(PeerFixture, InvalidTransactionWritesDiscarded) {
  proto::Transaction tx = MakeTransaction(TransferProposal("30"));
  tx.rwset.writes[0].value = "31337";  // Tamper -> policy failure.
  const auto result =
      validator_.ValidateAndCommit(MakeBlock(1, {tx}), &db_, &ledger_);
  EXPECT_EQ(result.codes[0],
            proto::TxValidationCode::kEndorsementPolicyFailure);
  EXPECT_EQ(db_.Get("bal_A")->value, "100");  // Untouched.
  EXPECT_EQ(ledger_.TotalTransactions(), 1u);  // Still recorded.
  EXPECT_EQ(ledger_.TotalValidTransactions(), 0u);
}

TEST_F(PeerFixture, HotKeyBlockCommitsOnlyTheFirstWriter) {
  // Every transaction reads and writes the same key at its pre-block
  // version: the first commits and bumps it, so the other 31 are stale.
  std::vector<proto::Transaction> txs;
  for (uint64_t i = 0; i < 32; ++i) {
    txs.push_back(ExplicitTransaction(i, {{"hot", proto::kNilVersion}},
                                      {"hot"}));
  }
  const auto result = validator_.ValidateAndCommit(
      MakeBlock(1, std::move(txs)), &db_, &ledger_);
  ASSERT_EQ(result.codes.size(), 32u);
  EXPECT_EQ(result.codes[0], proto::TxValidationCode::kValid);
  for (size_t i = 1; i < result.codes.size(); ++i) {
    EXPECT_EQ(result.codes[i], proto::TxValidationCode::kMvccConflict) << i;
  }
  EXPECT_EQ(result.num_valid, 1u);
  EXPECT_EQ(result.num_mvcc_conflicts, 31u);
  EXPECT_EQ(db_.GetVersion("hot"), (proto::Version{1, 0}));
}

TEST_F(PeerFixture, MixedBlockGetsEveryVerdictClass) {
  // An in-block version chain, a stale read, a tampered rwset, a duplicate
  // id and a write-write pair with no read, in one block.
  const std::vector<proto::Transaction> txs = {
      ExplicitTransaction(0, {{"a", proto::kNilVersion}}, {"a", "b"}),
      // Reads a's pre-block version, which tx 0 bumped: stale.
      ExplicitTransaction(1, {{"a", proto::kNilVersion}}, {"c"}),
      // Reads a at tx 0's in-block version.
      ExplicitTransaction(2, {{"a", proto::Version{1, 0}}}, {"d"}),
      ExplicitTransaction(3, {}, {"d"}, /*tamper=*/true),
      // Byte-identical to tx 0 (the tx id covers the proposal and rwset).
      ExplicitTransaction(0, {{"a", proto::kNilVersion}}, {"a", "b"}),
      // Writes b after tx 0 without reading it: valid, and it wins.
      ExplicitTransaction(5, {}, {"b"}),
  };
  const auto result =
      validator_.ValidateAndCommit(MakeBlock(1, txs), &db_, &ledger_);
  using Code = proto::TxValidationCode;
  EXPECT_EQ(result.codes,
            (std::vector<Code>{Code::kValid, Code::kMvccConflict, Code::kValid,
                               Code::kEndorsementPolicyFailure,
                               Code::kDuplicateTxId, Code::kValid}));
  EXPECT_EQ(result.num_valid, 3u);
  EXPECT_EQ(result.num_mvcc_conflicts, 1u);
  EXPECT_EQ(result.num_policy_failures, 1u);
  EXPECT_EQ(result.num_duplicate_txids, 1u);
  EXPECT_EQ(db_.GetVersion("a"), (proto::Version{1, 0}));
  EXPECT_EQ(db_.GetVersion("b"), (proto::Version{1, 5}));
  EXPECT_EQ(db_.GetVersion("c"), proto::kNilVersion);
  EXPECT_EQ(db_.GetVersion("d"), (proto::Version{1, 2}));
}

TEST_F(PeerFixture, ReorderedScheduleCommitsMoreThanArrivalOrder) {
  // End-to-end validation of the paper's Table 1 vs Table 2 claim using the
  // real validator: four conflicting transfers in arrival order commit
  // once; the reader-first order commits all that are serializable.
  const proto::Transaction t1 = MakeTransaction(TransferProposal("10"));
  const proto::Transaction t2 = MakeTransaction(TransferProposal("20"));
  statedb::StateDb db2;
  db2.SeedInitialState("bal_A", "100");
  db2.SeedInitialState("bal_B", "50");
  ledger::Ledger ledger2;
  // Arrival order t1, t2 in one block: 1 valid (tested above). Reordering
  // cannot help two transfers touching identical keys — but a read-only
  // query ordered before them stays valid, after them becomes invalid.
  proto::Proposal query;
  query.proposal_id = 100;
  query.client = "client";
  query.channel = "ch0";
  query.chaincode = "asset_transfer";
  query.args = {"query", "A"};
  const proto::Transaction q = MakeTransaction(query);

  // Order writer-first: query is stale within the block.
  {
    proto::Block block;
    block.header.number = 1;
    block.header.previous_hash = ledger2.LastHash();
    block.transactions = {t1, q};
    block.SealDataHash();
    const auto result = validator_.ValidateAndCommit(block, &db2, &ledger2);
    EXPECT_EQ(result.codes[1], proto::TxValidationCode::kMvccConflict);
  }
  // Order reader-first (what the reorderer produces): both valid.
  {
    statedb::StateDb db3;
    db3.SeedInitialState("bal_A", "100");
    db3.SeedInitialState("bal_B", "50");
    ledger::Ledger ledger3;
    proto::Block block;
    block.header.number = 1;
    block.header.previous_hash = ledger3.LastHash();
    block.transactions = {q, t1};
    block.SealDataHash();
    const auto result = validator_.ValidateAndCommit(block, &db3, &ledger3);
    EXPECT_EQ(result.codes[0], proto::TxValidationCode::kValid);
    EXPECT_EQ(result.codes[1], proto::TxValidationCode::kValid);
  }
}

TEST_F(PeerFixture, CommitWithoutLedgerIsAllowed) {
  const proto::Block block =
      MakeBlock(1, {MakeTransaction(TransferProposal("5"))});
  const auto result = validator_.ValidateAndCommit(block, &db_, nullptr);
  EXPECT_EQ(result.num_valid, 1u);
}

}  // namespace
}  // namespace fabricpp::peer
