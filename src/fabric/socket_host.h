#ifndef FABRICPP_FABRIC_SOCKET_HOST_H_
#define FABRICPP_FABRIC_SOCKET_HOST_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "fabric/config.h"
#include "fabric/metrics.h"
#include "fabric/node_slice.h"
#include "node/mesh.h"
#include "node/peer_node.h"
#include "proto/wire_format.h"
#include "runtime/runtime.h"
#include "runtime/socket_transport.h"
#include "runtime/thread_runtime.h"
#include "workload/workload.h"

namespace fabricpp::fabric {

/// Which slice of the network one process hosts under runtime_mode="socket":
/// all clients (the load driver), one peer, or the orderer.
struct SocketRole {
  enum class Kind { kClients, kPeer, kOrderer };
  Kind kind = Kind::kClients;
  uint32_t peer_index = 0;  ///< Valid iff kind == kPeer.

  std::string ToString() const;
};

/// Parses "clients" | "orderer" | "peer:<index>".
Result<SocketRole> ParseSocketRole(const std::string& text);

/// The multi-process composition root (DESIGN.md §15): one SocketHost per
/// process hosts its slice of the network on a ThreadRuntime and stitches
/// the slices together over TCP. NodeSlice builds the slice and is the
/// node::NodeDirectory its nodes look each other up in; SocketHost is the
/// node::Mesh that encodes every cross-node message into a wire frame
/// (proto/wire_format.h) and ships it through runtime::SocketTransport; a
/// received frame is decoded and posted through the same delivery table
/// (node/deliver.h) LocalMesh uses.
///
/// Topology: the orderer listens and dials nobody; each peer listens and
/// dials the orderer; the client host dials every peer and the orderer.
/// Exactly one connection per process pair, both directions multiplexed.
///
/// Measurement: the client host owns the run. RunClients is the measured
/// run of thread-mode FabricNetwork::RunFor (NodeSlice::RunMeasured);
/// outcome frames from the observer peer and the orderer resolve proposals
/// in this host's Metrics, so the RunReport has the same shape and
/// semantics as the in-process modes. Peer/orderer hosts run
/// until a kShutdown frame (or a signal) stops them.
class SocketHost : public node::Mesh {
 public:
  /// `workload` must outlive the host. The config must validate with
  /// runtime_mode="socket" (peer_addresses / orderer_address filled in).
  SocketHost(FabricConfig config, const workload::Workload* workload,
             SocketRole role);
  ~SocketHost() override;

  SocketHost(const SocketHost&) = delete;
  SocketHost& operator=(const SocketHost&) = delete;

  /// Binds the listener (peer/orderer roles) and starts dialing. Returns
  /// the first hard error (e.g. bind failure).
  Status Start();

  /// Port this host's listener bound; 0 for the (dial-only) client host.
  /// Resolves port 0 in the configured address — how tests run whole
  /// clusters in one process on ephemeral ports.
  uint16_t listen_port() const;

  /// Blocks until every route this role dials is connected.
  bool WaitForCluster(uint32_t timeout_ms);

  /// Client host only: runs the standard experiment against the remote
  /// cluster — clients fire for `duration` (wall-clock microseconds),
  /// outcomes are measured in [warmup, duration) — and returns the report.
  /// One call per host, like the thread runtime.
  RunReport RunClients(runtime::TimeMicros duration,
                       runtime::TimeMicros warmup = 0);

  /// Client host only: polls every peer for (height, tip hash, state
  /// fingerprint, key count) per channel until two consecutive rounds
  /// agree (the cluster went quiescent) or `timeout_ms` elapses. Returns
  /// the last round, sorted by peer index; may be shorter than num_peers
  /// on timeout.
  std::vector<proto::StateReportMsg> CollectPeerReports(uint32_t timeout_ms);

  /// Client host only: tells every peer and the orderer to exit.
  void BroadcastShutdown();

  /// Daemon roles: blocks until a kShutdown frame arrives or Stop() is
  /// called. Returns whether a shutdown frame (vs. local Stop) ended it.
  bool WaitForShutdown();

  /// Stops the transport and the runtime. Idempotent; the destructor calls
  /// it too.
  void Stop();

  Metrics& metrics() { return metrics_; }
  runtime::SocketTransport& transport() { return *transport_; }
  /// The nodes this process hosts, as the directory they see.
  NodeSlice& slice() { return slice_; }
  /// The locally hosted peer (peer role only; else nullptr).
  node::PeerNode* local_peer() {
    return slice_.peers().empty() ? nullptr : slice_.peers()[0].get();
  }
  size_t num_peers() const { return slice_.num_peers(); }
  const std::string& default_policy_id() const {
    return slice_.default_policy_id();
  }

  // --- node::Mesh (encode + ship over TCP) ---
  void SendToPeer(runtime::Endpoint& from, uint32_t peer_index,
                  node::PeerMessage msg, uint64_t size_bytes) override;
  void SendToOrderer(runtime::Endpoint& from, node::OrdererMessage msg,
                     uint64_t size_bytes) override;
  void SendToClient(runtime::Endpoint& from, node::ClientMessage msg,
                    uint64_t size_bytes) override;
  bool RoutesToClient(const std::string& client) override;
  void SendBlock(runtime::Endpoint& from, uint32_t peer_index,
                 uint32_t channel, std::shared_ptr<proto::Block> block,
                 uint64_t block_bytes) override;
  void BroadcastBlock(runtime::Endpoint& from, uint32_t channel,
                      std::shared_ptr<proto::Block> block,
                      uint64_t block_bytes) override;

 private:
  /// Encodes + ships one message as a frame of its type and records its
  /// real framed size against the modeled one (Metrics transport counters,
  /// outside RunReport).
  template <typename Message>
  void Ship(const runtime::SocketPeerKey& to, const Message& msg,
            uint64_t modeled_bytes);
  void Ship(const runtime::SocketPeerKey& to, proto::WireMessageType type,
            const Bytes& payload, uint64_t modeled_bytes);

  /// Transport frame dispatch (event-loop thread). Socket-only control
  /// frames are handled here. Any other frame is decoded as a message this
  /// role's nodes handle, routed through the delivery table and posted to
  /// the target's lane. A frame that fails to decode, is meant for another
  /// role, or names a channel, client or peer out of range is dropped and
  /// counted (NoteMessageDropped).
  void HandleFrame(proto::Frame frame);
  /// Client host: posts `msg`'s delivery. An outcome first resolves its
  /// proposal in this host's Metrics. False if `msg` has no route.
  bool DeliverToClient(node::ClientMessage msg);

  /// The routes this role dials, which WaitForCluster waits on: the client
  /// host dials every peer and the orderer, a peer the orderer.
  std::vector<std::pair<runtime::SocketPeerKey, std::string>> Dials() const;

  /// Peer role: periodic anti-entropy — every peer_fetch_retry_interval,
  /// a catch-up probe to the orderer per channel, so a block lost in
  /// flight (or a tail block with no successor to reveal the gap) is
  /// always re-fetched.
  void ArmAntiEntropy();
  /// Peer role: appends each remaining channel's height, tip, fingerprint
  /// and key count to `report`, hopping from lane to lane, then ships it to
  /// the client host.
  void ReportState(proto::StateReportMsg report);

  static runtime::SocketPeerKey OrdererKey() {
    return {proto::NodeRole::kOrderer, 0};
  }
  static runtime::SocketPeerKey ClientsKey() {
    return {proto::NodeRole::kClientHost, 0};
  }
  static runtime::SocketPeerKey PeerKey(uint32_t index) {
    return {proto::NodeRole::kPeer, index};
  }

  FabricConfig config_;
  SocketRole role_;
  Metrics metrics_;
  std::unique_ptr<runtime::ThreadRuntime> runtime_;
  NodeSlice slice_;
  std::unique_ptr<runtime::SocketTransport> transport_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_received_ = false;
  bool stopped_ = false;
  /// State reports keyed by (token, peer_index) — CollectPeerReports waits
  /// here for each polling round to complete.
  uint64_t next_state_token_ = 1;
  std::map<std::pair<uint64_t, uint32_t>, proto::StateReportMsg> reports_;
};

/// A whole socket-mode cluster inside one process, on ephemeral loopback
/// ports: the orderer host binds first, each peer host learns its port,
/// the client host learns everyone's. Every host still has its own
/// ThreadRuntime, Metrics and SocketTransport — only TCP connects them —
/// so this exercises the full multi-process path without fork/exec. Used
/// by tests and bench_runtime; real deployments run fabricpp_node /
/// fabricpp_load instead.
class LocalSocketCluster {
 public:
  /// `base` needs topology/workload knobs only; runtime_mode and the
  /// address lists are filled in here. Aborts on a start failure (test
  /// fixture semantics). `workload` must outlive the cluster.
  LocalSocketCluster(FabricConfig base, const workload::Workload* workload);

  /// Broadcasts shutdown from the client host and stops every host.
  ~LocalSocketCluster();

  LocalSocketCluster(const LocalSocketCluster&) = delete;
  LocalSocketCluster& operator=(const LocalSocketCluster&) = delete;

  SocketHost& clients() { return *clients_; }
  SocketHost& peer(uint32_t index) { return *peers_[index]; }

 private:
  std::unique_ptr<SocketHost> orderer_;
  std::vector<std::unique_ptr<SocketHost>> peers_;
  std::unique_ptr<SocketHost> clients_;
};

}  // namespace fabricpp::fabric

#endif  // FABRICPP_FABRIC_SOCKET_HOST_H_
