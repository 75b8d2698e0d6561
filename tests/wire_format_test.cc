// Wire-protocol tests (DESIGN.md §15): the CRC-32 frame checksum, framing
// round-trips for every message type, the stream-error vs. message-error
// contract, partial-read reassembly at hostile chunk boundaries, and a
// malformed-bytes sweep over a recorded frame — every flip/truncation must
// produce a clean Status, never a crash or an allocation blow-up (the sweep
// is what the sanitizer CI job leans on).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "node/wire.h"
#include "proto/crc32.h"
#include "proto/wire_format.h"

namespace fabricpp::proto {
namespace {

Proposal MakeProposal() {
  Proposal p;
  p.proposal_id = 42;
  p.client = "client_c0_1";
  p.channel = "ch0";
  p.chaincode = "smallbank";
  p.args = {"send_payment", "acc_1", "acc_2", "10"};
  p.nonce = 0xdeadbeef;
  return p;
}

ReadWriteSet MakeRwset() {
  ReadWriteSet rw;
  rw.reads.push_back({"acc_1", Version{3, 1}});
  rw.reads.push_back({"acc_2", Version{5, 0}});
  rw.writes.push_back({"acc_1", "90", false});
  rw.writes.push_back({"acc_stale", "", true});
  return rw;
}

Transaction MakeTransaction() {
  Transaction tx;
  tx.proposal_id = 42;
  tx.client = "client_c0_1";
  tx.channel = "ch0";
  tx.chaincode = "smallbank";
  tx.policy_id = "default";
  tx.rwset = MakeRwset();
  Endorsement e;
  e.peer = "A1";
  e.org = "orgA";
  e.signature.signer = "A1";
  e.signature.tag.fill(0x5a);
  tx.endorsements.push_back(e);
  tx.ComputeTxId(MakeProposal());
  return tx;
}

Block MakeBlock() {
  Block b;
  b.header.number = 7;
  b.header.previous_hash.fill(0x11);
  b.transactions.push_back(MakeTransaction());
  b.transactions.push_back(MakeTransaction());
  b.SealDataHash();
  return b;
}

/// Frames `payload`, feeds it through a fresh decoder, and returns the
/// decoded frame (asserting exactly one frame comes out).
Frame RoundTrip(WireMessageType type, const Bytes& payload) {
  const Bytes wire = EncodeFrame(type, payload);
  EXPECT_EQ(wire.size(), FramedSize(payload.size()));
  FrameDecoder decoder(1 << 20);
  decoder.Feed(wire.data(), wire.size());
  Frame frame;
  auto got = decoder.Next(&frame);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(*got);
  EXPECT_EQ(frame.type, static_cast<uint8_t>(type));
  auto more = decoder.Next(&frame);
  EXPECT_TRUE(more.ok() && !*more) << "one frame in, one frame out";
  return frame;
}

// --- CRC-32, the frame checksum ---

TEST(Crc32Test, KnownVectors) {
  // "123456789" -> 0xcbf43926 is the canonical check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "hello fabric++ wire frame";
  uint32_t crc = 0;
  for (const char c : data) crc = Crc32Extend(crc, &c, 1);
  EXPECT_EQ(crc, Crc32(data.data(), data.size()));
}

TEST(Crc32Test, DetectsBitFlip) {
  std::string data = "payload";
  const uint32_t good = Crc32(data.data(), data.size());
  data[3] ^= 1;
  EXPECT_NE(Crc32(data.data(), data.size()), good);
}

// --- Framing ---

TEST(WireFormatTest, TypeRegistryIsStable) {
  // Wire-stable values: renumbering is a protocol break, so pin them.
  EXPECT_EQ(static_cast<uint8_t>(WireMessageType::kHello), 1);
  EXPECT_EQ(static_cast<uint8_t>(WireMessageType::kProposal), 2);
  EXPECT_EQ(static_cast<uint8_t>(WireMessageType::kEndorsementReply), 3);
  EXPECT_EQ(static_cast<uint8_t>(WireMessageType::kBusy), 4);
  EXPECT_EQ(static_cast<uint8_t>(WireMessageType::kTransaction), 5);
  EXPECT_EQ(static_cast<uint8_t>(WireMessageType::kBlock), 6);
  EXPECT_EQ(static_cast<uint8_t>(WireMessageType::kChainInfo), 7);
  EXPECT_EQ(static_cast<uint8_t>(WireMessageType::kBlockRequest), 8);
  EXPECT_EQ(static_cast<uint8_t>(WireMessageType::kOutcome), 9);
  EXPECT_EQ(static_cast<uint8_t>(WireMessageType::kStateRequest), 10);
  EXPECT_EQ(static_cast<uint8_t>(WireMessageType::kStateReport), 11);
  EXPECT_EQ(static_cast<uint8_t>(WireMessageType::kShutdown), 12);
  for (uint8_t t = 1; t <= 12; ++t) {
    EXPECT_TRUE(IsKnownWireType(t)) << int{t};
    EXPECT_FALSE(WireMessageTypeName(static_cast<WireMessageType>(t)).empty());
  }
  EXPECT_FALSE(IsKnownWireType(0));
  EXPECT_FALSE(IsKnownWireType(13));
  EXPECT_FALSE(IsKnownWireType(255));
}

TEST(WireFormatTest, FrameLayout) {
  const Bytes payload = {0xaa, 0xbb, 0xcc};
  const Bytes wire = EncodeFrame(WireMessageType::kBusy, payload);
  ASSERT_EQ(wire.size(), payload.size() + kFrameOverheadBytes);
  // frame_len counts everything after itself (little-endian u32).
  const uint32_t frame_len = wire[0] | (wire[1] << 8) | (wire[2] << 16) |
                             (uint32_t{wire[3]} << 24);
  EXPECT_EQ(frame_len, wire.size() - 4);
  EXPECT_EQ(wire[4], kWireVersion);
  EXPECT_EQ(wire[5], static_cast<uint8_t>(WireMessageType::kBusy));
  EXPECT_EQ(wire[6], 0);  // reserved
  EXPECT_EQ(wire[7], 0);
  EXPECT_EQ(0, std::memcmp(wire.data() + kFrameHeaderBytes, payload.data(),
                           payload.size()));
}

TEST(WireFormatTest, EmptyPayloadFrameIsMinimal) {
  const Frame frame = RoundTrip(WireMessageType::kShutdown, Bytes());
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(EncodeFrame(WireMessageType::kShutdown, Bytes()).size(),
            kMinFrameLen + 4);
  ByteReader r(frame.payload);
  EXPECT_TRUE(ShutdownMsg::Decode(&r).ok());
}

TEST(WireFormatTest, RoundTripHello) {
  HelloMsg msg;
  msg.role = NodeRole::kPeer;
  msg.index = 3;
  msg.name = "B2";
  const Frame f = RoundTrip(WireMessageType::kHello, msg.Encode());
  ByteReader r(f.payload);
  auto got = HelloMsg::Decode(&r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->role, NodeRole::kPeer);
  EXPECT_EQ(got->index, 3u);
  EXPECT_EQ(got->name, "B2");
}

TEST(WireFormatTest, RoundTripProposal) {
  ProposalMsg msg;
  msg.channel = 2;
  msg.client_index = 9;
  msg.proposal = MakeProposal();
  const Frame f = RoundTrip(WireMessageType::kProposal, msg.Encode());
  ByteReader r(f.payload);
  auto got = ProposalMsg::Decode(&r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->channel, 2u);
  EXPECT_EQ(got->client_index, 9u);
  EXPECT_EQ(got->proposal.proposal_id, 42u);
  EXPECT_EQ(got->proposal.args, msg.proposal.args);
  EXPECT_EQ(got->proposal.nonce, 0xdeadbeefu);
}

// The endorsement-reply tests go through node::EndorsementReplyToWire and
// EndorsementReplyFromWire, the conversions both meshes use.
TEST(WireFormatTest, RoundTripEndorsementReplyOk) {
  peer::EndorsementResponse response;
  response.rwset = MakeRwset();
  response.endorsement.peer = "A1";
  response.endorsement.org = "orgA";
  response.endorsement.signature.signer = "A1";
  response.endorsement.signature.tag.fill(0x77);
  const EndorsementReplyMsg msg =
      node::EndorsementReplyToWire(5, 42, response);
  EXPECT_EQ(msg.client_index, 5u);
  EXPECT_EQ(msg.proposal_id, 42u);
  const Frame f = RoundTrip(WireMessageType::kEndorsementReply, msg.Encode());
  ByteReader r(f.payload);
  auto got = EndorsementReplyMsg::Decode(&r);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->ok);
  const Result<peer::EndorsementResponse> back =
      node::EndorsementReplyFromWire(std::move(*got));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rwset.reads, response.rwset.reads);
  EXPECT_EQ(back->rwset.writes, response.rwset.writes);
  EXPECT_EQ(back->endorsement.signature, response.endorsement.signature);
}

TEST(WireFormatTest, RoundTripEndorsementReplyError) {
  const std::string reason = "simulation failed: insufficient funds";
  const EndorsementReplyMsg msg =
      node::EndorsementReplyToWire(5, 43, Status::FailedPrecondition(reason));
  const Frame f = RoundTrip(WireMessageType::kEndorsementReply, msg.Encode());
  ByteReader r(f.payload);
  auto got = EndorsementReplyMsg::Decode(&r);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->ok);
  EXPECT_TRUE(got->rwset.reads.empty());
  const Result<peer::EndorsementResponse> back =
      node::EndorsementReplyFromWire(std::move(*got));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(back.status().message(), reason);
}

TEST(WireFormatTest, RoundTripBusy) {
  BusyMsg msg{5, 42, 12500};
  const Frame f = RoundTrip(WireMessageType::kBusy, msg.Encode());
  ByteReader r(f.payload);
  auto got = BusyMsg::Decode(&r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->client_index, 5u);
  EXPECT_EQ(got->proposal_id, 42u);
  EXPECT_EQ(got->retry_after_us, 12500u);
}

TEST(WireFormatTest, RoundTripTransaction) {
  TransactionMsg msg;
  msg.channel = 1;
  msg.tx = MakeTransaction();
  const Frame f = RoundTrip(WireMessageType::kTransaction, msg.Encode());
  ByteReader r(f.payload);
  auto got = TransactionMsg::Decode(&r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->tx.tx_id, msg.tx.tx_id);
  EXPECT_EQ(got->tx.rwset.writes, msg.tx.rwset.writes);
  ASSERT_EQ(got->tx.endorsements.size(), 1u);
  EXPECT_EQ(got->tx.endorsements[0].signature,
            msg.tx.endorsements[0].signature);
}

TEST(WireFormatTest, RoundTripBlock) {
  BlockMsg msg;
  msg.channel = 0;
  msg.block = MakeBlock();
  const Frame f = RoundTrip(WireMessageType::kBlock, msg.Encode());
  ByteReader r(f.payload);
  auto got = BlockMsg::Decode(&r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->block.header.number, 7u);
  EXPECT_EQ(got->block.header.Hash(), msg.block.header.Hash());
  EXPECT_EQ(got->block.transactions.size(), 2u);

  // A block decodes only from exactly its own bytes. The second tail is
  // the tagged commit-schedule section (tag 0xC5, count, one wave per
  // transaction) that older encoders could append.
  const Bytes encoded = msg.block.Encode();
  for (const Bytes& tail : {Bytes{0x00}, Bytes{0xC5, 0x02, 0x00, 0x01}}) {
    Bytes bytes = encoded;
    bytes.insert(bytes.end(), tail.begin(), tail.end());
    ByteReader br(bytes);
    EXPECT_EQ(Block::Decode(&br).status().code(), StatusCode::kDataLoss);
    // Inside a BLOCK message the tail sits within the length-framed block
    // bytes, so the message is refused too.
    Bytes payload;
    ByteWriter w(&payload);
    w.PutU32(0);
    w.PutBytes(bytes);
    ByteReader mr(payload);
    EXPECT_EQ(BlockMsg::Decode(&mr).status().code(), StatusCode::kDataLoss);
  }
}

TEST(WireFormatTest, RoundTripChainInfoAndBlockRequest) {
  ChainInfoMsg ci{3, 812};
  Frame f = RoundTrip(WireMessageType::kChainInfo, ci.Encode());
  ByteReader r1(f.payload);
  auto got_ci = ChainInfoMsg::Decode(&r1);
  ASSERT_TRUE(got_ci.ok());
  EXPECT_EQ(got_ci->channel, 3u);
  EXPECT_EQ(got_ci->height, 812u);

  BlockRequestMsg br{3, 2, 808};
  f = RoundTrip(WireMessageType::kBlockRequest, br.Encode());
  ByteReader r2(f.payload);
  auto got_br = BlockRequestMsg::Decode(&r2);
  ASSERT_TRUE(got_br.ok());
  EXPECT_EQ(got_br->channel, 3u);
  EXPECT_EQ(got_br->peer_index, 2u);
  EXPECT_EQ(got_br->from_number, 808u);
}

TEST(WireFormatTest, RoundTripOutcome) {
  OutcomeMsg msg;
  msg.client = "client_c0_1";
  msg.proposal_id = 42;
  msg.code = TxValidationCode::kMvccConflict;
  const Frame f = RoundTrip(WireMessageType::kOutcome, msg.Encode());
  ByteReader r(f.payload);
  auto got = OutcomeMsg::Decode(&r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->client, msg.client);
  EXPECT_EQ(got->proposal_id, 42u);
  EXPECT_EQ(got->code, TxValidationCode::kMvccConflict);
}

TEST(WireFormatTest, RoundTripStateRequestAndReport) {
  StateRequestMsg req{991};
  Frame f = RoundTrip(WireMessageType::kStateRequest, req.Encode());
  ByteReader r1(f.payload);
  auto got_req = StateRequestMsg::Decode(&r1);
  ASSERT_TRUE(got_req.ok());
  EXPECT_EQ(got_req->token, 991u);

  StateReportMsg rep;
  rep.peer_index = 2;
  rep.token = 991;
  ChannelStateInfo info;
  info.height = 12;
  info.tip_hash.fill(0x3c);
  info.state_fingerprint = "abc123";
  info.num_keys = 2000;
  rep.channels = {info, info};
  f = RoundTrip(WireMessageType::kStateReport, rep.Encode());
  ByteReader r2(f.payload);
  auto got_rep = StateReportMsg::Decode(&r2);
  ASSERT_TRUE(got_rep.ok());
  EXPECT_EQ(got_rep->peer_index, 2u);
  EXPECT_EQ(got_rep->token, 991u);
  ASSERT_EQ(got_rep->channels.size(), 2u);
  EXPECT_TRUE(got_rep->channels[0] == info);
}

TEST(WireFormatTest, ChunkedReassembly) {
  // Three frames, fed at every chunk granularity from 1 to 7 bytes: the
  // decoder must produce the identical frame sequence regardless of how
  // recv() happened to slice the stream.
  Bytes stream;
  AppendFrame(&stream, WireMessageType::kChainInfo,
              ChainInfoMsg{1, 100}.Encode());
  AppendFrame(&stream, WireMessageType::kShutdown, Bytes());
  AppendFrame(&stream, WireMessageType::kBusy, BusyMsg{1, 2, 3}.Encode());

  for (size_t chunk = 1; chunk <= 7; ++chunk) {
    FrameDecoder decoder(1 << 20);
    std::vector<Frame> frames;
    for (size_t off = 0; off < stream.size(); off += chunk) {
      const size_t n = std::min(chunk, stream.size() - off);
      decoder.Feed(stream.data() + off, n);
      Frame f;
      for (;;) {
        auto got = decoder.Next(&f);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        if (!*got) break;
        frames.push_back(f);
      }
    }
    ASSERT_EQ(frames.size(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0].type, static_cast<uint8_t>(WireMessageType::kChainInfo));
    EXPECT_EQ(frames[1].type, static_cast<uint8_t>(WireMessageType::kShutdown));
    EXPECT_EQ(frames[2].type, static_cast<uint8_t>(WireMessageType::kBusy));
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(WireFormatTest, CrcMismatchPoisonsStream) {
  Bytes wire = EncodeFrame(WireMessageType::kBusy, BusyMsg{1, 2, 3}.Encode());
  wire[wire.size() - 1] ^= 0x01;  // Corrupt the CRC itself.
  FrameDecoder decoder(1 << 20);
  decoder.Feed(wire.data(), wire.size());
  Frame f;
  auto got = decoder.Next(&f);
  EXPECT_FALSE(got.ok());
  // Poisoned: even valid follow-up bytes must not produce frames.
  const Bytes good = EncodeFrame(WireMessageType::kShutdown, Bytes());
  decoder.Feed(good.data(), good.size());
  EXPECT_FALSE(decoder.Next(&f).ok());
}

TEST(WireFormatTest, VersionMismatchPoisonsStream) {
  Bytes wire = EncodeFrame(WireMessageType::kBusy, BusyMsg{1, 2, 3}.Encode());
  wire[4] = kWireVersion + 1;
  FrameDecoder decoder(1 << 20);
  decoder.Feed(wire.data(), wire.size());
  Frame f;
  EXPECT_FALSE(decoder.Next(&f).ok());
}

TEST(WireFormatTest, OversizeFrameRejectedBeforeBuffering) {
  // frame_len says 100 MB: the decoder must refuse from the header alone,
  // long before 100 MB of bytes arrive (no attacker-controlled allocation).
  Bytes header = {0x00, 0x00, 0x40, 0x06, kWireVersion,
                  static_cast<uint8_t>(WireMessageType::kBlock), 0, 0};
  FrameDecoder decoder(1 << 20);  // 1 MiB limit.
  decoder.Feed(header.data(), header.size());
  Frame f;
  EXPECT_FALSE(decoder.Next(&f).ok());
}

TEST(WireFormatTest, UndersizeFrameLenRejected) {
  // frame_len below kMinFrameLen can't even hold the fixed fields.
  Bytes wire = {0x03, 0x00, 0x00, 0x00, kWireVersion,
                static_cast<uint8_t>(WireMessageType::kBusy), 0, 0};
  FrameDecoder decoder(1 << 20);
  decoder.Feed(wire.data(), wire.size());
  Frame f;
  EXPECT_FALSE(decoder.Next(&f).ok());
}

TEST(WireFormatTest, UnknownTypePassesFramingLayer) {
  // Framing doesn't police the type byte — an unknown type is a *message*
  // level concern (receiver drops and counts it), so newer peers can add
  // types without breaking older streams.
  const Bytes wire = EncodeFrame(static_cast<WireMessageType>(200), Bytes());
  FrameDecoder decoder(1 << 20);
  decoder.Feed(wire.data(), wire.size());
  Frame f;
  auto got = decoder.Next(&f);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(f.type, 200);
  EXPECT_FALSE(IsKnownWireType(f.type));
}

TEST(WireFormatTest, CorruptPayloadWithValidCrcIsMessageError) {
  // Truncate the payload, then re-frame so length + CRC are self-consistent:
  // framing must accept the frame; only the payload decode may fail. The
  // stream stays usable — the error boundary the transport relies on.
  Bytes payload = StateReportMsg{1, 9, {}}.Encode();
  payload.pop_back();
  const Bytes wire = EncodeFrame(WireMessageType::kStateReport, payload);
  FrameDecoder decoder(1 << 20);
  decoder.Feed(wire.data(), wire.size());
  Frame f;
  auto got = decoder.Next(&f);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  ByteReader r(f.payload);
  EXPECT_FALSE(StateReportMsg::Decode(&r).ok());
  // Next frame on the same decoder still parses.
  const Bytes good = EncodeFrame(WireMessageType::kShutdown, Bytes());
  decoder.Feed(good.data(), good.size());
  got = decoder.Next(&f);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
}

TEST(WireFormatTest, HostileChannelCountRejected) {
  // A report claiming 2^40 channels in a 20-byte payload must be rejected
  // by the count-vs-remaining-bytes guard, not attempted as a reserve().
  Bytes payload;
  ByteWriter w(&payload);
  w.PutU32(0);                  // peer_index
  w.PutVarint(1);               // token
  w.PutVarint(1ull << 40);      // channels: absurd
  ByteReader r(payload);
  EXPECT_FALSE(StateReportMsg::Decode(&r).ok());
}

TEST(WireFormatTest, MalformedBytesSweep) {
  // The ASan sweep: take one recorded BLOCK frame (nested encodings,
  // varints, digests — the richest payload) and (a) truncate it at every
  // length, (b) flip every byte. Every variant must yield a clean Status
  // path: either a framing error, an incomplete-frame stall, or a payload
  // decode error. Crashes and sanitizer reports are the failure mode under
  // test.
  BlockMsg msg;
  msg.channel = 0;
  msg.block = MakeBlock();
  const Bytes wire = EncodeFrame(WireMessageType::kBlock, msg.Encode());

  auto run = [](const Bytes& bytes) {
    FrameDecoder decoder(1 << 20);
    decoder.Feed(bytes.data(), bytes.size());
    Frame f;
    for (;;) {
      auto got = decoder.Next(&f);
      if (!got.ok() || !*got) break;
      ByteReader r(f.payload);
      BlockMsg::Decode(&r).ok();  // Either outcome is fine; no crash.
    }
  };

  for (size_t len = 0; len < wire.size(); ++len) {
    run(Bytes(wire.begin(), wire.begin() + len));
  }
  for (size_t i = 0; i < wire.size(); ++i) {
    Bytes mutated = wire;
    mutated[i] ^= 0xff;
    run(mutated);
  }
  // Flips under a recomputed CRC: corruption that framing *cannot* catch,
  // so every payload byte pattern must be survivable by the decoder.
  const Bytes payload = msg.Encode();
  for (size_t i = 0; i < payload.size(); ++i) {
    Bytes mutated = payload;
    mutated[i] ^= 0xff;
    run(EncodeFrame(WireMessageType::kBlock, mutated));
  }
}

// --- Counted sizes: the in-process mesh's byte measurement ---

/// Asserts that `encode` counted in ByteWriter's size-only mode gives
/// `expected`'s size, and that writing it gives the same bytes.
template <typename Encode>
void ExpectCountedAndWritten(const Encode& encode, const Bytes& expected,
                             const std::string& what) {
  EXPECT_EQ(CountBytes(encode), expected.size()) << what;
  Bytes written;
  ByteWriter w(&written);
  encode(&w);
  EXPECT_EQ(written, expected) << what;
}

template <typename Msg>
void ExpectEncodedSize(const Msg& msg, const std::string& what) {
  EXPECT_EQ(EncodedSize(msg), msg.Encode().size()) << what;
}

TEST(WireFormatTest, CountedSizeEqualsEncodedSizeForEveryType) {
  const std::string big(20000, 'b');  // A three-byte varint length.
  Proposal big_proposal = MakeProposal();
  big_proposal.proposal_id = UINT64_MAX;  // A ten-byte varint.
  big_proposal.client = big;
  big_proposal.args.assign(300, big.substr(0, 200));
  ReadWriteSet big_rwset = MakeRwset();
  for (int i = 0; i < 200; ++i) {
    big_rwset.reads.push_back({big.substr(0, 130), Version{UINT64_MAX, 7}});
    big_rwset.writes.push_back({big.substr(0, 140), big.substr(0, 150),
                                i % 2 == 0});
  }
  big_rwset.writes.push_back({"large value", big, false});
  Transaction big_tx = MakeTransaction();
  big_tx.rwset = big_rwset;
  big_tx.policy_id = big;
  big_tx.endorsements.assign(5, big_tx.endorsements.front());
  Block big_block = MakeBlock();
  big_block.transactions.assign(5, big_tx);
  big_block.SealDataHash();

  for (const Proposal& p : {Proposal{}, MakeProposal(), big_proposal}) {
    EXPECT_EQ(p.ByteSize(), p.Encode().size());
    for (const uint32_t channel : {0u, UINT32_MAX}) {
      const ProposalMsg msg{channel, 7, p};
      ExpectEncodedSize(msg, "PROPOSAL");
    }
  }
  for (const ReadWriteSet& rw : {ReadWriteSet{}, big_rwset}) {
    EXPECT_EQ(rw.ByteSize(), rw.Encode().size());
  }
  for (const Transaction& tx : {Transaction{}, MakeTransaction(), big_tx}) {
    EXPECT_EQ(tx.ByteSize(), tx.Encode().size());
    const TransactionMsg msg{3, tx};
    ExpectEncodedSize(msg, "TRANSACTION");
  }
  for (const Block& block : {Block{}, MakeBlock(), big_block}) {
    EXPECT_EQ(block.ByteSize(), block.Encode().size());
    const BlockMsg msg{2, block};
    ExpectEncodedSize(msg, "BLOCK");
    ExpectCountedAndWritten(
        [&](ByteWriter* w) { BlockMsg::EncodeTo(w, 2, block); },
        msg.Encode(), "BLOCK from borrowed fields");
  }

  // Both arms of an endorsement reply, as the peer builds it from its
  // response.
  peer::EndorsementResponse ok;
  ok.rwset = big_rwset;
  ok.endorsement.peer = big;
  ok.endorsement.signature.tag.fill(0x77);
  const std::vector<Result<peer::EndorsementResponse>> replies = {
      peer::EndorsementResponse{}, ok, Status::FailedPrecondition(""),
      Status::FailedPrecondition(big)};
  for (const Result<peer::EndorsementResponse>& response : replies) {
    const EndorsementReplyMsg msg =
        node::EndorsementReplyToWire(9, UINT64_MAX, response);
    ExpectEncodedSize(msg, "ENDORSEMENT_REPLY");
  }

  for (const std::string& name : {std::string(), big}) {
    ExpectEncodedSize(HelloMsg{NodeRole::kPeer, 3, name}, "HELLO");
    ExpectEncodedSize(
        OutcomeMsg{name, UINT64_MAX, TxValidationCode::kMvccConflict},
        "OUTCOME");
  }
  for (const uint64_t n : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                           UINT64_MAX}) {
    ExpectEncodedSize(BusyMsg{1, n, n}, "BUSY");
    ExpectEncodedSize(ChainInfoMsg{1, n}, "CHAIN_INFO");
    ExpectEncodedSize(BlockRequestMsg{1, 2, n}, "BLOCK_REQUEST");
    ExpectEncodedSize(StateRequestMsg{n}, "STATE_REQUEST");
  }
  StateReportMsg report;
  ExpectEncodedSize(report, "STATE_REPORT");
  report.token = UINT64_MAX;
  report.channels.assign(300, ChannelStateInfo{UINT64_MAX, {}, big, 1u << 20});
  ExpectEncodedSize(report, "STATE_REPORT");
  ExpectEncodedSize(ShutdownMsg{}, "SHUTDOWN");
  EXPECT_EQ(EncodedSize(ShutdownMsg{}), 0u);
}

}  // namespace
}  // namespace fabricpp::proto
