#include "fabric/raft_consensus.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace fabricpp::fabric {

namespace {
constexpr size_t kBlockIdBytes = 12;  // LE32 channel + LE64 number.
}  // namespace

Bytes RaftConsensus::EncodePayload(BlockId id, uint64_t block_bytes) {
  Bytes payload(std::max<uint64_t>(block_bytes, kBlockIdBytes), 0);
  for (int i = 0; i < 4; ++i) {
    payload[i] = static_cast<uint8_t>(id.channel >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    payload[4 + i] = static_cast<uint8_t>(id.number >> (8 * i));
  }
  return payload;
}

bool RaftConsensus::DecodePayload(const Bytes& payload, BlockId* id) {
  if (payload.size() < kBlockIdBytes) return false;
  id->channel = 0;
  id->number = 0;
  for (int i = 0; i < 4; ++i) {
    id->channel |= static_cast<uint32_t>(payload[i]) << (8 * i);
  }
  for (int i = 0; i < 8; ++i) {
    id->number |= static_cast<uint64_t>(payload[4 + i]) << (8 * i);
  }
  return true;
}

RaftConsensus::RaftConsensus(runtime::Runtime* runtime,
                             const FabricConfig& config)
    : lanes_(config.num_channels) {
  std::vector<runtime::Endpoint*> endpoints;
  endpoints.reserve(config.raft_cluster_size);
  for (uint32_t i = 0; i < config.raft_cluster_size; ++i) {
    endpoints.push_back(&runtime->AddEndpoint(StrFormat("raft-%u", i)));
  }
  raft_ = std::make_unique<raft::RaftCluster>(&runtime->transport(),
                                              std::move(endpoints), config.seed,
                                              config.raft_params);
  // Every replica reports every commit (on its own endpoint context); the
  // report is posted to the committed channel's lane endpoint, where the
  // first arrival claims the pending entry and the rest find it gone.
  raft_->SetCommitCallbackOnAll(
      [this](uint64_t /*index*/, const Bytes& payload) {
        BlockId id;
        if (!DecodePayload(payload, &id)) return;
        if (!resolver_ || id.channel >= lanes_.size()) return;
        runtime::Endpoint* lane = resolver_(id.channel);
        if (lane == nullptr) return;
        lane->Post([this, id]() { OnCommit(id); });
      });
}

void RaftConsensus::Submit(uint32_t channel,
                           std::shared_ptr<proto::Block> block,
                           uint64_t block_bytes) {
  // Submit runs on the channel's lane context, so the lane's state is
  // single-writer by construction.
  const uint64_t number = block->header.number;
  lanes_[channel].pending[number] =
      Pending{channel, std::move(block), block_bytes};
  Propose(channel, number, block_bytes);
}

void RaftConsensus::Propose(uint32_t channel, uint64_t number,
                            uint64_t block_bytes) {
  if (halted_.load(std::memory_order_acquire)) return;
  ChannelLane& lane = lanes_[channel];
  if (lane.pending.find(number) == lane.pending.end()) return;  // Committed.
  // No replica-state peeking across endpoints: post a propose-if-leader
  // task to every replica and let the current leader accept it. Duplicate
  // log entries (two replicas briefly both believing, or a retry racing the
  // commit) are deduplicated by the pending-erase on the lane. The entry
  // carries the block's identity and is padded to the block's wire size
  // (replication cost model); the content stays in the lane's pending map.
  raft_->ProposeOnAll(EncodePayload(BlockId{channel, number}, block_bytes));
  // Fixed retry cadence on the lane's own clock: covers both the no-leader
  // window and an accepted entry lost to a leader crash.
  runtime::Endpoint* ep = resolver_ ? resolver_(channel) : nullptr;
  if (ep == nullptr) return;
  ep->clock().Schedule(100 * runtime::kMillisecond,
                       [this, channel, number, block_bytes]() {
                         Propose(channel, number, block_bytes);
                       });
}

void RaftConsensus::OnCommit(BlockId id) {
  ChannelLane& lane = lanes_[id.channel];
  const auto it = lane.pending.find(id.number);
  if (it == lane.pending.end()) return;  // Another replica's post won.
  lane.ready.emplace(id.number, std::move(it->second));
  lane.pending.erase(it);
  // Hold-back delivery: commits can surface out of chain order (an earlier
  // block's entry lost to a leader crash commits later via re-proposal),
  // but the orderer's dispatch contract is chain order per channel.
  while (true) {
    const auto ready_it = lane.ready.find(lane.next_deliver);
    if (ready_it == lane.ready.end()) break;
    Pending pending = std::move(ready_it->second);
    lane.ready.erase(ready_it);
    ++lane.next_deliver;
    deliver_(pending.channel, std::move(pending.block), pending.block_bytes);
  }
}

void RaftConsensus::Halt() {
  halted_.store(true, std::memory_order_release);
  for (uint32_t i = 0; i < raft_->num_nodes(); ++i) {
    raft::RaftNode* node = &raft_->node(i);
    raft_->endpoint(i).Post([node]() { node->Stop(); });
  }
}

}  // namespace fabricpp::fabric
