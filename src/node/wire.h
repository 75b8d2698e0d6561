#ifndef FABRICPP_NODE_WIRE_H_
#define FABRICPP_NODE_WIRE_H_

#include <cstdint>
#include <utility>

#include "common/result.h"
#include "peer/endorser.h"
#include "proto/wire_format.h"

namespace fabricpp::node {

/// Fixed per-message envelope overhead (headers, signatures) in bytes.
inline constexpr uint64_t kMessageOverhead = 300;

/// Explicit overload refusal from an endorser or the orderer: the node's
/// bounded admission queue is full, so instead of silently dropping the
/// proposal/transaction it tells the client to come back after
/// `retry_after_us`. The client treats this as an abort (kAbortBusy) and
/// resubmits no earlier than the hint — end-to-end backpressure, shedding
/// load back to the edge instead of collapsing the middle.
struct BusyResponse {
  uint64_t proposal_id = 0;
  /// Server-suggested minimum backoff before the retry, microseconds
  /// (config().busy_retry_hint). The client takes the max of this and its
  /// own exponential-backoff delay.
  uint64_t retry_after_us = 0;
};

/// An endorser's reply in its wire form: the effects and signature on
/// success, the status code and message on failure.
inline proto::EndorsementReplyMsg EndorsementReplyToWire(
    uint32_t client_index, uint64_t proposal_id,
    Result<peer::EndorsementResponse> response) {
  proto::EndorsementReplyMsg msg;
  msg.client_index = client_index;
  msg.proposal_id = proposal_id;
  msg.ok = response.ok();
  if (response.ok()) {
    msg.rwset = std::move(response->rwset);
    msg.endorsement = std::move(response->endorsement);
  } else {
    msg.status_code = static_cast<uint8_t>(response.status().code());
    msg.status_message = response.status().message();
  }
  return msg;
}

/// Inverse of EndorsementReplyToWire: what the client's handler receives.
inline Result<peer::EndorsementResponse> EndorsementReplyFromWire(
    proto::EndorsementReplyMsg msg) {
  if (!msg.ok) {
    return Status(static_cast<StatusCode>(msg.status_code),
                  std::move(msg.status_message));
  }
  return peer::EndorsementResponse{std::move(msg.rwset),
                                   std::move(msg.endorsement)};
}

}  // namespace fabricpp::node

#endif  // FABRICPP_NODE_WIRE_H_
