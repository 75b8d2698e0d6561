// Tests for src/proto: versions, read/write sets, transactions, blocks —
// encode/decode round trips and hashing invariants.

#include <gtest/gtest.h>

#include "proto/block.h"
#include "proto/rwset.h"
#include "proto/transaction.h"
#include "proto/version.h"

namespace fabricpp::proto {
namespace {

ReadWriteSet SampleRwset() {
  ReadWriteSet set;
  set.reads = {{"balA", Version{3, 1}}, {"balB", Version{2, 0}}};
  set.writes = {{"balA", "70", false}, {"balB", "80", false},
                {"old", "", true}};
  return set;
}

Transaction SampleTransaction() {
  Transaction tx;
  tx.tx_id = "deadbeef";
  tx.proposal_id = 17;
  tx.client = "client_c0_1";
  tx.channel = "ch0";
  tx.chaincode = "smallbank";
  tx.policy_id = "AND(all-orgs)";
  tx.rwset = SampleRwset();
  Endorsement e;
  e.peer = "A1";
  e.org = "A";
  e.signature.signer = "A1";
  e.signature.tag.fill(0xab);
  tx.endorsements.push_back(e);
  return tx;
}

// --- Version ---

TEST(VersionTest, Ordering) {
  EXPECT_LT((Version{1, 5}), (Version{2, 0}));
  EXPECT_LT((Version{2, 0}), (Version{2, 1}));
  EXPECT_FALSE((Version{2, 1}) < (Version{2, 1}));
  EXPECT_EQ((Version{2, 1}), (Version{2, 1}));
  EXPECT_NE((Version{2, 1}), (Version{2, 2}));
}

TEST(VersionTest, NilIsSmallest) {
  EXPECT_FALSE((Version{0, 1}) < kNilVersion);
  EXPECT_LT(kNilVersion, (Version{0, 1}));
}

TEST(VersionTest, ToStringFormat) {
  EXPECT_EQ((Version{4, 2}).ToString(), "v(4,2)");
}

// --- ReadWriteSet ---

TEST(RwsetTest, EncodeDecodeRoundTrip) {
  const ReadWriteSet original = SampleRwset();
  const Bytes encoded = original.Encode();
  ByteReader r(encoded);
  const auto decoded = ReadWriteSet::Decode(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
  EXPECT_TRUE(r.AtEnd());
}

TEST(RwsetTest, EmptySetRoundTrip) {
  const ReadWriteSet empty;
  const Bytes encoded = empty.Encode();
  ByteReader r(encoded);
  const auto decoded = ReadWriteSet::Decode(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, empty);
}

TEST(RwsetTest, EncodingIsCanonical) {
  // Equal sets encode to identical bytes (endorsers' signatures depend on
  // this).
  EXPECT_EQ(SampleRwset().Encode(), SampleRwset().Encode());
}

TEST(RwsetTest, KeyLookups) {
  const ReadWriteSet set = SampleRwset();
  EXPECT_TRUE(set.ReadsKey("balA"));
  EXPECT_FALSE(set.ReadsKey("old"));
  EXPECT_TRUE(set.WritesKey("old"));
  EXPECT_FALSE(set.WritesKey("nothing"));
}

TEST(RwsetTest, DecodeTruncatedFails) {
  const Bytes encoded = SampleRwset().Encode();
  ByteReader r(encoded.data(), encoded.size() / 2);
  EXPECT_FALSE(ReadWriteSet::Decode(&r).ok());
}

// --- Transaction ---

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  const Transaction original = SampleTransaction();
  const Bytes encoded = original.Encode();
  ByteReader r(encoded);
  const auto decoded = Transaction::Decode(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tx_id, original.tx_id);
  EXPECT_EQ(decoded->proposal_id, original.proposal_id);
  EXPECT_EQ(decoded->client, original.client);
  EXPECT_EQ(decoded->chaincode, original.chaincode);
  EXPECT_EQ(decoded->rwset, original.rwset);
  ASSERT_EQ(decoded->endorsements.size(), 1u);
  EXPECT_EQ(decoded->endorsements[0].peer, "A1");
  EXPECT_EQ(decoded->endorsements[0].signature.tag,
            original.endorsements[0].signature.tag);
}

TEST(TransactionTest, SignedPayloadIgnoresEndorsements) {
  // The payload endorsers sign must not depend on other endorsements
  // (signatures would otherwise be order-dependent).
  Transaction a = SampleTransaction();
  Transaction b = SampleTransaction();
  b.endorsements.clear();
  EXPECT_EQ(a.SignedPayload(), b.SignedPayload());
}

TEST(TransactionTest, SignedPayloadCoversRwset) {
  Transaction a = SampleTransaction();
  Transaction b = SampleTransaction();
  b.rwset.writes[0].value = "9999";  // Tamper.
  EXPECT_NE(a.SignedPayload(), b.SignedPayload());
}

TEST(TransactionTest, TxIdDependsOnEffects) {
  Proposal proposal;
  proposal.proposal_id = 1;
  proposal.client = "c";
  proposal.chaincode = "kv";
  Transaction a = SampleTransaction();
  a.ComputeTxId(proposal);
  Transaction b = SampleTransaction();
  b.rwset.writes[0].value = "tampered";
  b.ComputeTxId(proposal);
  EXPECT_NE(a.tx_id, b.tx_id);
  EXPECT_EQ(a.tx_id.size(), 64u);  // Hex SHA-256.
}

TEST(TransactionTest, ValidationCodeNames) {
  EXPECT_EQ(TxValidationCodeToString(TxValidationCode::kValid), "VALID");
  EXPECT_EQ(TxValidationCodeToString(TxValidationCode::kMvccConflict),
            "MVCC_CONFLICT");
  EXPECT_FALSE(IsAbort(TxValidationCode::kValid));
  EXPECT_FALSE(IsAbort(TxValidationCode::kNotValidated));
  EXPECT_TRUE(IsAbort(TxValidationCode::kMvccConflict));
  EXPECT_TRUE(IsAbort(TxValidationCode::kAbortedByReorderer));
}

// --- Block ---

TEST(BlockTest, SealAndVerifyDataHash) {
  Block block;
  block.header.number = 1;
  block.transactions.push_back(SampleTransaction());
  block.SealDataHash();
  EXPECT_TRUE(block.VerifyDataHash());
  block.transactions[0].rwset.writes[0].value = "tampered";
  EXPECT_FALSE(block.VerifyDataHash());
}

TEST(BlockTest, EncodeDecodeRoundTrip) {
  Block block;
  block.header.number = 7;
  block.header.previous_hash.fill(0x11);
  for (int i = 0; i < 3; ++i) {
    Transaction tx = SampleTransaction();
    tx.proposal_id = i;
    block.transactions.push_back(tx);
  }
  block.SealDataHash();
  const Bytes encoded = block.Encode();
  ByteReader r(encoded);
  const auto decoded = Block::Decode(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.number, 7u);
  EXPECT_EQ(decoded->header.previous_hash, block.header.previous_hash);
  EXPECT_EQ(decoded->header.data_hash, block.header.data_hash);
  EXPECT_EQ(decoded->transactions.size(), 3u);
  EXPECT_TRUE(decoded->VerifyDataHash());
}

TEST(BlockTest, HeaderHashChangesWithContent) {
  Block a;
  a.header.number = 1;
  a.SealDataHash();
  Block b = a;
  b.header.number = 2;
  EXPECT_NE(a.header.Hash(), b.header.Hash());
}

TEST(BlockTest, ByteSizeGrowsWithTransactions) {
  Block empty;
  empty.SealDataHash();
  Block full;
  full.transactions.push_back(SampleTransaction());
  full.SealDataHash();
  EXPECT_GT(full.ByteSize(), empty.ByteSize());
}

// Blocks once carried an optional commit-schedule section after the
// transactions (tag 0xC5, a wave count, one wave per transaction). The
// encoding has no trailing section now, so any tail — an unknown tag or
// that old section — is refused, as is a block chopped short.
TEST(CommitScheduleTest, DecodeRejectsMalformedTrailingSection) {
  Block block;
  block.header.number = 3;
  for (int i = 0; i < 2; ++i) {
    Transaction tx = SampleTransaction();
    tx.proposal_id = i;
    block.transactions.push_back(tx);
  }
  block.SealDataHash();
  const Bytes encoded = block.Encode();

  Bytes bad_tag = encoded;
  bad_tag.push_back(0x11);
  ByteReader bad_tag_reader(bad_tag);
  EXPECT_EQ(Block::Decode(&bad_tag_reader).status().code(),
            StatusCode::kDataLoss);

  Bytes old_schedule = encoded;
  const Bytes section{0xC5, 0x02, 0x00, 0x01};
  old_schedule.insert(old_schedule.end(), section.begin(), section.end());
  ByteReader old_schedule_reader(old_schedule);
  EXPECT_EQ(Block::Decode(&old_schedule_reader).status().code(),
            StatusCode::kDataLoss);

  Bytes truncated = encoded;
  truncated.pop_back();
  ByteReader chopped(truncated);
  EXPECT_FALSE(Block::Decode(&chopped).ok());
}

}  // namespace
}  // namespace fabricpp::proto
