#ifndef FABRICPP_PROTO_WIRE_FORMAT_H_
#define FABRICPP_PROTO_WIRE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/identity.h"
#include "crypto/sha256.h"
#include "proto/block.h"
#include "proto/rwset.h"
#include "proto/transaction.h"

namespace fabricpp::proto {

/// The socket wire protocol (DESIGN.md §15). Every node-layer message that
/// crosses a process boundary travels as one frame:
///
///   offset 0  u32  frame_len   — count of every byte after this field
///   offset 4  u8   version     — kWireVersion
///   offset 5  u8   type        — WireMessageType
///   offset 6  u16  reserved    — must be 0
///   offset 8  ...  payload     — frame_len - 8 bytes of message encoding
///   tail      u32  crc32       — IEEE CRC-32 over [version .. payload]
///
/// All fixed-width integers little-endian (ByteWriter convention). A frame
/// with a bad length (< kMinFrameLen or > max_frame_bytes), unknown version,
/// or CRC mismatch is a *stream* error: the connection is poisoned and must
/// be closed, because framing can no longer be trusted. A frame that passes
/// those checks but whose payload fails to decode is a *message* error: the
/// frame is dropped and counted, the stream stays up.

inline constexpr uint8_t kWireVersion = 1;

/// Bytes before the payload (frame_len + version + type + reserved).
inline constexpr uint64_t kFrameHeaderBytes = 8;
/// Total framing overhead added to a payload (header + trailing CRC).
inline constexpr uint64_t kFrameOverheadBytes = kFrameHeaderBytes + 4;
/// Smallest legal frame_len value (empty payload: ver+type+reserved+crc).
inline constexpr uint64_t kMinFrameLen = 8;

/// Registry of node-layer message types. Values are wire-stable: never
/// renumber, only append.
enum class WireMessageType : uint8_t {
  kHello = 1,             ///< Connection handshake: who is dialing.
  kProposal = 2,          ///< Client -> peer: endorse this proposal.
  kEndorsementReply = 3,  ///< Peer -> client: rwset + endorsement, or error.
  kBusy = 4,              ///< Peer/orderer -> client: admission refused.
  kTransaction = 5,       ///< Client -> orderer: endorsed transaction.
  kBlock = 6,             ///< Orderer -> peer: a cut block.
  kChainInfo = 7,         ///< Orderer -> peer: current chain height.
  kBlockRequest = 8,      ///< Peer -> orderer: re-send from this number.
  kOutcome = 9,           ///< Peer/orderer -> client: final validation code.
  kStateRequest = 10,     ///< Load driver -> peer: report your state.
  kStateReport = 11,      ///< Peer -> load driver: heights + fingerprints.
  kShutdown = 12,         ///< Load driver -> cluster: drain and exit.
};

bool IsKnownWireType(uint8_t type);
std::string_view WireMessageTypeName(WireMessageType type);

/// Roles a process can announce in its HELLO. Values are wire-stable.
enum class NodeRole : uint8_t {
  kClientHost = 0,  ///< The load driver hosting every client state machine.
  kPeer = 1,
  kOrderer = 2,
};

/// ---- Framing --------------------------------------------------------------

/// Appends one complete frame (header + payload + CRC) to `out`.
void AppendFrame(Bytes* out, WireMessageType type, const Bytes& payload);
Bytes EncodeFrame(WireMessageType type, const Bytes& payload);

/// Wire bytes a payload of `payload_size` occupies once framed.
inline uint64_t FramedSize(uint64_t payload_size) {
  return payload_size + kFrameOverheadBytes;
}

struct Frame {
  uint8_t type = 0;  ///< Raw type byte; may be unknown to this build.
  Bytes payload;
};

/// Incremental frame reassembly over an untrusted byte stream. Feed()
/// arbitrary chunk boundaries (a frame may arrive one byte at a time or
/// many frames in one recv); Next() pops complete frames.
class FrameDecoder {
 public:
  explicit FrameDecoder(uint64_t max_frame_bytes);

  void Feed(const uint8_t* data, size_t size);

  /// Pops the next complete frame into `out`. Returns true if a frame was
  /// produced, false if more bytes are needed. A Status error means the
  /// stream itself is corrupt (bad length / version / CRC) and the
  /// connection must be dropped; the decoder is poisoned afterwards.
  Result<bool> Next(Frame* out);

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  uint64_t max_frame_bytes_;
  Bytes buffer_;
  size_t consumed_ = 0;
  bool poisoned_ = false;
};

/// ---- Message payloads -----------------------------------------------------
///
/// Each struct encodes to / decodes from the payload section of its frame,
/// and `kType` is the frame type it travels under. EncodeTo writes the
/// payload through a ByteWriter; in the writer's size-only mode it counts
/// it instead (EncodedSize in common/bytes.h). BlockMsg also encodes from a
/// borrowed block, so a sender that shares one block across peers counts
/// its frame without copying it (node::LocalMesh). Decoders treat input as
/// untrusted: any truncation, trailing garbage, or implausible count
/// returns an error Status, never aborts.

struct HelloMsg {
  static constexpr WireMessageType kType = WireMessageType::kHello;
  NodeRole role = NodeRole::kClientHost;
  uint32_t index = 0;  ///< Peer index; 0 for orderer / client host.
  std::string name;    ///< Diagnostic label ("A1", "orderer", "load").

  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<HelloMsg> Decode(ByteReader* r);
};

struct ProposalMsg {
  static constexpr WireMessageType kType = WireMessageType::kProposal;
  uint32_t channel = 0;
  uint32_t client_index = 0;  ///< Global client index (directory order).
  Proposal proposal;

  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<ProposalMsg> Decode(ByteReader* r);
};

/// Peer -> client endorsement outcome. `ok` selects which arm is encoded:
/// a successful simulation carries the rwset + endorsement, a failed one
/// carries the error status.
struct EndorsementReplyMsg {
  static constexpr WireMessageType kType = WireMessageType::kEndorsementReply;
  uint32_t client_index = 0;
  uint64_t proposal_id = 0;
  bool ok = false;
  ReadWriteSet rwset;        ///< Valid iff ok.
  Endorsement endorsement;   ///< Valid iff ok.
  uint8_t status_code = 0;   ///< StatusCode, valid iff !ok.
  std::string status_message;

  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<EndorsementReplyMsg> Decode(ByteReader* r);
};

struct BusyMsg {
  static constexpr WireMessageType kType = WireMessageType::kBusy;
  uint32_t client_index = 0;
  uint64_t proposal_id = 0;
  uint64_t retry_after_us = 0;

  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<BusyMsg> Decode(ByteReader* r);
};

struct TransactionMsg {
  static constexpr WireMessageType kType = WireMessageType::kTransaction;
  uint32_t channel = 0;
  Transaction tx;

  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<TransactionMsg> Decode(ByteReader* r);
};

struct BlockMsg {
  static constexpr WireMessageType kType = WireMessageType::kBlock;
  uint32_t channel = 0;
  Block block;

  void EncodeTo(ByteWriter* w) const;
  static void EncodeTo(ByteWriter* w, uint32_t channel, const Block& block);
  Bytes Encode() const;
  static Result<BlockMsg> Decode(ByteReader* r);
};

struct ChainInfoMsg {
  static constexpr WireMessageType kType = WireMessageType::kChainInfo;
  uint32_t channel = 0;
  uint64_t height = 0;  ///< Highest block number the orderer dispatched.

  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<ChainInfoMsg> Decode(ByteReader* r);
};

struct BlockRequestMsg {
  static constexpr WireMessageType kType = WireMessageType::kBlockRequest;
  uint32_t channel = 0;
  uint32_t peer_index = 0;
  uint64_t from_number = 0;

  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<BlockRequestMsg> Decode(ByteReader* r);
};

/// Final validation outcome for one proposal, routed to the client host.
/// Carries the client *name* (not index) because the orderer's early-abort
/// path only knows the name from the transaction.
struct OutcomeMsg {
  static constexpr WireMessageType kType = WireMessageType::kOutcome;
  std::string client;
  uint64_t proposal_id = 0;
  TxValidationCode code = TxValidationCode::kNotValidated;

  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<OutcomeMsg> Decode(ByteReader* r);
};

struct StateRequestMsg {
  static constexpr WireMessageType kType = WireMessageType::kStateRequest;
  uint64_t token = 0;  ///< Echoed in the report; pairs requests and replies.

  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<StateRequestMsg> Decode(ByteReader* r);
};

struct ChannelStateInfo {
  uint64_t height = 0;             ///< Committed chain height.
  crypto::Digest tip_hash{};       ///< Header hash of the tip block.
  std::string state_fingerprint;   ///< statedb::StateDb::Fingerprint().
  uint64_t num_keys = 0;

  friend bool operator==(const ChannelStateInfo& a, const ChannelStateInfo& b) {
    return a.height == b.height && a.tip_hash == b.tip_hash &&
           a.state_fingerprint == b.state_fingerprint &&
           a.num_keys == b.num_keys;
  }
};

struct StateReportMsg {
  static constexpr WireMessageType kType = WireMessageType::kStateReport;
  uint32_t peer_index = 0;
  uint64_t token = 0;
  std::vector<ChannelStateInfo> channels;

  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<StateReportMsg> Decode(ByteReader* r);
};

struct ShutdownMsg {
  static constexpr WireMessageType kType = WireMessageType::kShutdown;
  void EncodeTo(ByteWriter* w) const;
  Bytes Encode() const;
  static Result<ShutdownMsg> Decode(ByteReader* r);
};

}  // namespace fabricpp::proto

#endif  // FABRICPP_PROTO_WIRE_FORMAT_H_
