#include "proto/wire_format.h"

#include "proto/crc32.h"

namespace fabricpp::proto {

namespace {

/// Reads back the little-endian u32 ByteWriter::PutU32 produced, from a raw
/// buffer position (the frame decoder peeks before committing bytes).
uint32_t ReadU32At(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// Guards a decoded element count before reserve(): a hostile varint (say
/// 2^60) must produce a decode error, not a std::length_error / OOM abort.
/// Every element costs at least one byte on the wire, so a count exceeding
/// the bytes left is provably garbage.
Status CheckCount(uint64_t count, const ByteReader& r, const char* what) {
  if (count > r.remaining()) {
    return Status::DataLoss(std::string("implausible ") + what +
                            " count in encoded message");
  }
  return Status::OK();
}

Result<crypto::Digest> DecodeDigest(ByteReader* r) {
  crypto::Digest d{};
  for (size_t i = 0; i < d.size(); ++i) {
    FABRICPP_ASSIGN_OR_RETURN(d[i], r->GetU8());
  }
  return d;
}

/// A message's payload as bytes: what its EncodeTo writes.
template <typename Msg>
Bytes EncodeMessage(const Msg& msg) {
  Bytes out;
  ByteWriter w(&out);
  msg.EncodeTo(&w);
  return out;
}

Status ExpectAtEnd(const ByteReader& r, const char* what) {
  if (!r.AtEnd()) {
    return Status::DataLoss(std::string("trailing garbage after ") + what +
                            " payload");
  }
  return Status::OK();
}

}  // namespace

bool IsKnownWireType(uint8_t type) {
  return type >= static_cast<uint8_t>(WireMessageType::kHello) &&
         type <= static_cast<uint8_t>(WireMessageType::kShutdown);
}

std::string_view WireMessageTypeName(WireMessageType type) {
  switch (type) {
    case WireMessageType::kHello:
      return "HELLO";
    case WireMessageType::kProposal:
      return "PROPOSAL";
    case WireMessageType::kEndorsementReply:
      return "ENDORSEMENT_REPLY";
    case WireMessageType::kBusy:
      return "BUSY";
    case WireMessageType::kTransaction:
      return "TRANSACTION";
    case WireMessageType::kBlock:
      return "BLOCK";
    case WireMessageType::kChainInfo:
      return "CHAIN_INFO";
    case WireMessageType::kBlockRequest:
      return "BLOCK_REQUEST";
    case WireMessageType::kOutcome:
      return "OUTCOME";
    case WireMessageType::kStateRequest:
      return "STATE_REQUEST";
    case WireMessageType::kStateReport:
      return "STATE_REPORT";
    case WireMessageType::kShutdown:
      return "SHUTDOWN";
  }
  return "UNKNOWN";
}

void AppendFrame(Bytes* out, WireMessageType type, const Bytes& payload) {
  ByteWriter w(out);
  const uint64_t frame_len = kMinFrameLen - 4 + payload.size() + 4;
  w.PutU32(static_cast<uint32_t>(frame_len));
  const size_t crc_begin = out->size();
  w.PutU8(kWireVersion);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU8(0);
  w.PutU8(0);
  w.PutRaw(payload.data(), payload.size());
  const uint32_t crc =
      Crc32(out->data() + crc_begin, out->size() - crc_begin);
  w.PutU32(crc);
}

Bytes EncodeFrame(WireMessageType type, const Bytes& payload) {
  Bytes out;
  out.reserve(FramedSize(payload.size()));
  AppendFrame(&out, type, payload);
  return out;
}

FrameDecoder::FrameDecoder(uint64_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void FrameDecoder::Feed(const uint8_t* data, size_t size) {
  // Compact the consumed prefix before growing; keeps the buffer bounded by
  // one partial frame plus whatever the last recv delivered.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

Result<bool> FrameDecoder::Next(Frame* out) {
  if (poisoned_) {
    return Status::DataLoss("frame decoder poisoned by earlier stream error");
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < 4) return false;
  const uint8_t* base = buffer_.data() + consumed_;
  const uint64_t frame_len = ReadU32At(base);
  if (frame_len < kMinFrameLen ||
      frame_len + 4 > max_frame_bytes_) {
    poisoned_ = true;
    return Status::DataLoss("frame length " + std::to_string(frame_len) +
                            " outside [" + std::to_string(kMinFrameLen) +
                            ", max_frame_bytes]");
  }
  if (available < 4 + frame_len) return false;
  const uint8_t version = base[4];
  if (version != kWireVersion) {
    poisoned_ = true;
    return Status::DataLoss("unsupported wire version " +
                            std::to_string(version));
  }
  const size_t payload_size = frame_len - kMinFrameLen;
  const uint32_t want_crc = ReadU32At(base + 4 + frame_len - 4);
  const uint32_t got_crc = Crc32(base + 4, frame_len - 4);
  if (want_crc != got_crc) {
    poisoned_ = true;
    return Status::DataLoss("frame CRC mismatch");
  }
  out->type = base[5];
  out->payload.assign(base + kFrameHeaderBytes,
                      base + kFrameHeaderBytes + payload_size);
  consumed_ += 4 + frame_len;
  return true;
}

void HelloMsg::EncodeTo(ByteWriter* w) const {
  w->PutU8(static_cast<uint8_t>(role));
  w->PutU32(index);
  w->PutString(name);
}

Bytes HelloMsg::Encode() const { return EncodeMessage(*this); }

Result<HelloMsg> HelloMsg::Decode(ByteReader* r) {
  HelloMsg msg;
  FABRICPP_ASSIGN_OR_RETURN(const uint8_t role, r->GetU8());
  if (role > static_cast<uint8_t>(NodeRole::kOrderer)) {
    return Status::DataLoss("unknown node role in HELLO");
  }
  msg.role = static_cast<NodeRole>(role);
  FABRICPP_ASSIGN_OR_RETURN(msg.index, r->GetU32());
  FABRICPP_ASSIGN_OR_RETURN(msg.name, r->GetString());
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(*r, "HELLO"));
  return msg;
}

void ProposalMsg::EncodeTo(ByteWriter* w) const {
  w->PutU32(channel);
  w->PutU32(client_index);
  w->PutNested([this](ByteWriter* body) { proposal.EncodeTo(body); });
}

Bytes ProposalMsg::Encode() const { return EncodeMessage(*this); }

Result<ProposalMsg> ProposalMsg::Decode(ByteReader* r) {
  ProposalMsg msg;
  FABRICPP_ASSIGN_OR_RETURN(msg.channel, r->GetU32());
  FABRICPP_ASSIGN_OR_RETURN(msg.client_index, r->GetU32());
  FABRICPP_ASSIGN_OR_RETURN(const Bytes body, r->GetBytes());
  ByteReader pr(body);
  FABRICPP_ASSIGN_OR_RETURN(msg.proposal, Proposal::Decode(&pr));
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(pr, "proposal"));
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(*r, "PROPOSAL"));
  return msg;
}

void EndorsementReplyMsg::EncodeTo(ByteWriter* w) const {
  w->PutU32(client_index);
  w->PutVarint(proposal_id);
  w->PutU8(ok ? 1 : 0);
  if (ok) {
    rwset.EncodeTo(w);
    w->PutString(endorsement.peer);
    w->PutString(endorsement.org);
    w->PutString(endorsement.signature.signer);
    w->PutRaw(endorsement.signature.tag.data(),
              endorsement.signature.tag.size());
  } else {
    w->PutU8(status_code);
    w->PutString(status_message);
  }
}

Bytes EndorsementReplyMsg::Encode() const { return EncodeMessage(*this); }

Result<EndorsementReplyMsg> EndorsementReplyMsg::Decode(ByteReader* r) {
  EndorsementReplyMsg msg;
  FABRICPP_ASSIGN_OR_RETURN(msg.client_index, r->GetU32());
  FABRICPP_ASSIGN_OR_RETURN(msg.proposal_id, r->GetVarint());
  FABRICPP_ASSIGN_OR_RETURN(const uint8_t ok, r->GetU8());
  if (ok > 1) return Status::DataLoss("bad ok flag in ENDORSEMENT_REPLY");
  msg.ok = ok == 1;
  if (msg.ok) {
    FABRICPP_ASSIGN_OR_RETURN(msg.rwset, ReadWriteSet::Decode(r));
    FABRICPP_ASSIGN_OR_RETURN(msg.endorsement.peer, r->GetString());
    FABRICPP_ASSIGN_OR_RETURN(msg.endorsement.org, r->GetString());
    FABRICPP_ASSIGN_OR_RETURN(msg.endorsement.signature.signer,
                              r->GetString());
    for (size_t i = 0; i < msg.endorsement.signature.tag.size(); ++i) {
      FABRICPP_ASSIGN_OR_RETURN(msg.endorsement.signature.tag[i], r->GetU8());
    }
  } else {
    FABRICPP_ASSIGN_OR_RETURN(msg.status_code, r->GetU8());
    FABRICPP_ASSIGN_OR_RETURN(msg.status_message, r->GetString());
  }
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(*r, "ENDORSEMENT_REPLY"));
  return msg;
}

void BusyMsg::EncodeTo(ByteWriter* w) const {
  w->PutU32(client_index);
  w->PutVarint(proposal_id);
  w->PutVarint(retry_after_us);
}

Bytes BusyMsg::Encode() const { return EncodeMessage(*this); }

Result<BusyMsg> BusyMsg::Decode(ByteReader* r) {
  BusyMsg msg;
  FABRICPP_ASSIGN_OR_RETURN(msg.client_index, r->GetU32());
  FABRICPP_ASSIGN_OR_RETURN(msg.proposal_id, r->GetVarint());
  FABRICPP_ASSIGN_OR_RETURN(msg.retry_after_us, r->GetVarint());
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(*r, "BUSY"));
  return msg;
}

void TransactionMsg::EncodeTo(ByteWriter* w) const {
  w->PutU32(channel);
  tx.EncodeTo(w);
}

Bytes TransactionMsg::Encode() const { return EncodeMessage(*this); }

Result<TransactionMsg> TransactionMsg::Decode(ByteReader* r) {
  TransactionMsg msg;
  FABRICPP_ASSIGN_OR_RETURN(msg.channel, r->GetU32());
  FABRICPP_ASSIGN_OR_RETURN(msg.tx, Transaction::Decode(r));
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(*r, "TRANSACTION"));
  return msg;
}

void BlockMsg::EncodeTo(ByteWriter* w) const { EncodeTo(w, channel, block); }

void BlockMsg::EncodeTo(ByteWriter* w, uint32_t channel, const Block& block) {
  w->PutU32(channel);
  w->PutNested([&block](ByteWriter* body) { block.EncodeTo(body); });
}

Bytes BlockMsg::Encode() const { return EncodeMessage(*this); }

Result<BlockMsg> BlockMsg::Decode(ByteReader* r) {
  BlockMsg msg;
  FABRICPP_ASSIGN_OR_RETURN(msg.channel, r->GetU32());
  FABRICPP_ASSIGN_OR_RETURN(const Bytes body, r->GetBytes());
  ByteReader br(body);
  FABRICPP_ASSIGN_OR_RETURN(msg.block, Block::Decode(&br));
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(*r, "BLOCK"));
  return msg;
}

void ChainInfoMsg::EncodeTo(ByteWriter* w) const {
  w->PutU32(channel);
  w->PutVarint(height);
}

Bytes ChainInfoMsg::Encode() const { return EncodeMessage(*this); }

Result<ChainInfoMsg> ChainInfoMsg::Decode(ByteReader* r) {
  ChainInfoMsg msg;
  FABRICPP_ASSIGN_OR_RETURN(msg.channel, r->GetU32());
  FABRICPP_ASSIGN_OR_RETURN(msg.height, r->GetVarint());
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(*r, "CHAIN_INFO"));
  return msg;
}

void BlockRequestMsg::EncodeTo(ByteWriter* w) const {
  w->PutU32(channel);
  w->PutU32(peer_index);
  w->PutVarint(from_number);
}

Bytes BlockRequestMsg::Encode() const { return EncodeMessage(*this); }

Result<BlockRequestMsg> BlockRequestMsg::Decode(ByteReader* r) {
  BlockRequestMsg msg;
  FABRICPP_ASSIGN_OR_RETURN(msg.channel, r->GetU32());
  FABRICPP_ASSIGN_OR_RETURN(msg.peer_index, r->GetU32());
  FABRICPP_ASSIGN_OR_RETURN(msg.from_number, r->GetVarint());
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(*r, "BLOCK_REQUEST"));
  return msg;
}

void OutcomeMsg::EncodeTo(ByteWriter* w) const {
  w->PutString(client);
  w->PutVarint(proposal_id);
  w->PutU8(static_cast<uint8_t>(code));
}

Bytes OutcomeMsg::Encode() const { return EncodeMessage(*this); }

Result<OutcomeMsg> OutcomeMsg::Decode(ByteReader* r) {
  OutcomeMsg msg;
  FABRICPP_ASSIGN_OR_RETURN(msg.client, r->GetString());
  FABRICPP_ASSIGN_OR_RETURN(msg.proposal_id, r->GetVarint());
  FABRICPP_ASSIGN_OR_RETURN(const uint8_t code, r->GetU8());
  if (code > static_cast<uint8_t>(TxValidationCode::kNotValidated)) {
    return Status::DataLoss("unknown validation code in OUTCOME");
  }
  msg.code = static_cast<TxValidationCode>(code);
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(*r, "OUTCOME"));
  return msg;
}

void StateRequestMsg::EncodeTo(ByteWriter* w) const {
  w->PutVarint(token);
}

Bytes StateRequestMsg::Encode() const { return EncodeMessage(*this); }

Result<StateRequestMsg> StateRequestMsg::Decode(ByteReader* r) {
  StateRequestMsg msg;
  FABRICPP_ASSIGN_OR_RETURN(msg.token, r->GetVarint());
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(*r, "STATE_REQUEST"));
  return msg;
}

void StateReportMsg::EncodeTo(ByteWriter* w) const {
  w->PutU32(peer_index);
  w->PutVarint(token);
  w->PutVarint(channels.size());
  for (const ChannelStateInfo& c : channels) {
    w->PutVarint(c.height);
    w->PutRaw(c.tip_hash.data(), c.tip_hash.size());
    w->PutString(c.state_fingerprint);
    w->PutVarint(c.num_keys);
  }
}

Bytes StateReportMsg::Encode() const { return EncodeMessage(*this); }

Result<StateReportMsg> StateReportMsg::Decode(ByteReader* r) {
  StateReportMsg msg;
  FABRICPP_ASSIGN_OR_RETURN(msg.peer_index, r->GetU32());
  FABRICPP_ASSIGN_OR_RETURN(msg.token, r->GetVarint());
  FABRICPP_ASSIGN_OR_RETURN(const uint64_t num_channels, r->GetVarint());
  FABRICPP_RETURN_IF_ERROR(CheckCount(num_channels, *r, "channel"));
  msg.channels.reserve(num_channels);
  for (uint64_t i = 0; i < num_channels; ++i) {
    ChannelStateInfo c;
    FABRICPP_ASSIGN_OR_RETURN(c.height, r->GetVarint());
    FABRICPP_ASSIGN_OR_RETURN(c.tip_hash, DecodeDigest(r));
    FABRICPP_ASSIGN_OR_RETURN(c.state_fingerprint, r->GetString());
    FABRICPP_ASSIGN_OR_RETURN(c.num_keys, r->GetVarint());
    msg.channels.push_back(std::move(c));
  }
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(*r, "STATE_REPORT"));
  return msg;
}

void ShutdownMsg::EncodeTo(ByteWriter* /*w*/) const {}

Bytes ShutdownMsg::Encode() const { return EncodeMessage(*this); }

Result<ShutdownMsg> ShutdownMsg::Decode(ByteReader* r) {
  FABRICPP_RETURN_IF_ERROR(ExpectAtEnd(*r, "SHUTDOWN"));
  return ShutdownMsg{};
}

}  // namespace fabricpp::proto
