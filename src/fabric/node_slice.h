#ifndef FABRICPP_FABRIC_NODE_SLICE_H_
#define FABRICPP_FABRIC_NODE_SLICE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chaincode/chaincode.h"
#include "fabric/config.h"
#include "fabric/metrics.h"
#include "node/client_node.h"
#include "node/consensus.h"
#include "node/mesh.h"
#include "node/node_context.h"
#include "node/orderer_node.h"
#include "node/peer_node.h"
#include "peer/policy.h"
#include "runtime/runtime.h"
#include "runtime/thread_runtime.h"
#include "workload/workload.h"

namespace fabricpp::fabric {

/// Returns `config` if it validates; otherwise logs the error and aborts.
FabricConfig ValidatedOrDie(FabricConfig config);

/// The name of peer `index` in the org-major roster: "A1", "A2", ...,
/// "B1", ... Derivable from the config alone, so every process agrees on
/// it — which is what lets a signature made in one process verify in
/// another.
std::string PeerNameFor(const FabricConfig& config, uint32_t index);

/// How long a thread-runtime run lets the pipeline drain once the clients
/// stop: a batch timeout may still have to fire, and a peer may still be
/// re-fetching a block lost in the shutdown.
runtime::TimeMicros DrainHorizon(const FabricConfig& config);

/// The nodes of the network one composition hosts.
struct SliceRoles {
  /// Names the slice in the abort message of a lookup it cannot serve.
  std::string label;
  /// The hosted peers: indices [first_peer, end_peer).
  uint32_t first_peer = 0;
  uint32_t end_peer = 0;
  bool orderer = false;
  bool clients = false;
};

/// The one builder of the paper's topology (§2, §6.1; DESIGN.md §15): the
/// chaincode registry, the AND(all-orgs) policy, the org-major peer roster
/// with its identity prewarm, one shared genesis, the orderer with its
/// consensus, and the client machine's shards and clients — each only if
/// `roles` hosts it. FabricNetwork builds the whole network through it;
/// SocketHost builds one process's slice. Registrations with the runtime
/// keep one order (client endpoints, peers, orderer, consensus, clients):
/// the simulator's endpoint ids feed its fingerprints.
///
/// It is also the node::NodeDirectory the hosted nodes see. Counts come
/// from the config, so they hold on every slice; looking up a node the
/// slice does not host aborts, naming the slice (node code reaches
/// concrete nodes only through Mesh-delivered tasks, which by construction
/// run where the node lives).
class NodeSlice : public node::NodeDirectory {
 public:
  /// Builds the orderer's consensus backend once the orderer exists; the
  /// caller owns it. Returning nullptr (or passing no factory) selects
  /// solo ordering.
  using ConsensusFactory =
      std::function<node::ConsensusService*(node::OrdererNode&)>;

  /// Every pointer must outlive the slice. `mesh` is only stored here —
  /// it may still be under construction.
  NodeSlice(const FabricConfig* config, const workload::Workload* workload,
            runtime::Runtime* runtime, node::Mesh* mesh, Metrics* metrics,
            SliceRoles roles, const ConsensusFactory& consensus = {});

  NodeSlice(const NodeSlice&) = delete;
  NodeSlice& operator=(const NodeSlice&) = delete;

  const chaincode::ChaincodeRegistry& registry() const { return *registry_; }
  const peer::PolicyRegistry& policies() const { return policies_; }
  /// The hosted peers, in ascending index order.
  const std::vector<std::unique_ptr<node::PeerNode>>& peers() const {
    return peers_;
  }
  /// All clients, channel-major (empty unless the slice hosts clients).
  const std::vector<std::unique_ptr<node::ClientNode>>& clients() const {
    return clients_;
  }
  /// The client machine's first shard (client slices only).
  runtime::Endpoint& client_endpoint() const { return *client_endpoints_[0]; }
  runtime::Executor& client_cpu() const { return *client_cpus_[0]; }

  /// Lets EndorsersFor skip a peer `reachable` reports down (a socket
  /// route to a crashed peer), so proposals go to another peer of the org
  /// instead of queuing for the dead one. Set before any client fires.
  void set_peer_reachable(std::function<bool(uint32_t peer_index)> reachable) {
    peer_reachable_ = std::move(reachable);
  }

  /// Every hosted peer that is up asks the orderer for the blocks it is
  /// missing, each channel on its own lane (under sim: on the shared loop,
  /// at the current time).
  void RequestMissingBlocks();

  /// Additions a composition root makes to the measured run.
  struct RunHooks {
    /// After the epoch reset, before the clients start firing.
    std::function<void()> start;
    /// After the firing deadline, before the final drain.
    std::function<void(runtime::TimeMicros horizon)> settle;
  };

  /// The measured run on a thread runtime (thread and socket modes): reset
  /// the epoch, measure outcomes in [warmup, duration), fire every client
  /// until `duration` (wall-clock microseconds), sleep until then, drain
  /// within DrainHorizon, shut the runtime down — no client timer can race
  /// the report — and record the mailbox-shed total. Aborts on a second
  /// call: the shutdown ends the slice's life.
  void RunMeasured(runtime::ThreadRuntime& runtime,
                   runtime::TimeMicros duration, runtime::TimeMicros warmup,
                   const RunHooks& hooks = {});

  // --- node::NodeDirectory ---
  size_t num_peers() const override;
  node::PeerNode& peer(uint32_t index) override { return HostedPeer(index); }
  const node::PeerNode& peer(uint32_t index) const {
    return HostedPeer(index);
  }
  node::OrdererNode& orderer() override;
  size_t num_clients() const override;
  node::ClientNode& client(uint32_t index) override;
  node::ClientNode* FindClient(const std::string& name) override;
  std::vector<uint32_t> EndorsersFor(uint64_t proposal_id) override;
  const std::string& default_policy_id() const override {
    return default_policy_id_;
  }
  bool IsObserver(const node::PeerNode& peer) const override {
    return peer.index() == 0;
  }

 private:
  /// The hosted peer `index`; aborts if another slice hosts it.
  node::PeerNode& HostedPeer(uint32_t index) const;
  [[noreturn]] void AbortNotHosted(const std::string& what) const;

  const FabricConfig* config_;
  Metrics* metrics_;
  SliceRoles roles_;
  std::unique_ptr<chaincode::ChaincodeRegistry> registry_;
  peer::PolicyRegistry policies_;
  std::string default_policy_id_;
  /// The client machine's endpoint(s): one under sim; thread_client_shards
  /// of them on threads, clients assigned round-robin.
  std::vector<runtime::Endpoint*> client_endpoints_;
  std::vector<runtime::Executor*> client_cpus_;
  std::vector<std::unique_ptr<node::PeerNode>> peers_;
  std::unique_ptr<node::OrdererNode> orderer_;
  node::SoloConsensus solo_consensus_;
  std::vector<std::unique_ptr<node::ClientNode>> clients_;
  std::unordered_map<std::string, node::ClientNode*> clients_by_name_;
  /// Unset: every peer counts as reachable.
  std::function<bool(uint32_t)> peer_reachable_;
  bool ran_ = false;
};

}  // namespace fabricpp::fabric

#endif  // FABRICPP_FABRIC_NODE_SLICE_H_
