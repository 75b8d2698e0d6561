#ifndef FABRICPP_NODE_NODE_CONTEXT_H_
#define FABRICPP_NODE_NODE_CONTEXT_H_

#include <string>
#include <vector>

#include "chaincode/chaincode.h"
#include "fabric/config.h"
#include "fabric/metrics.h"
#include "peer/policy.h"
#include "runtime/runtime.h"
#include "workload/workload.h"

namespace fabricpp::node {

class PeerNode;
class OrdererNode;
class ClientNode;
class Mesh;

/// The composition root's node roster, as seen from inside a node. Nodes
/// look each other up here instead of holding a pointer to the concrete
/// network class — the only coupling between a node and the rest of the
/// system is this interface plus the runtime.
///
/// A reference obtained here is only ever *used* from a task already running
/// on the target's execution context (a delivered message, a timer), so the
/// lookup itself needs no synchronization: the roster is immutable after
/// construction.
class NodeDirectory {
 public:
  virtual ~NodeDirectory() = default;

  /// Cluster-wide peer count. Valid in every composition, including hosts
  /// whose peers live in other processes.
  virtual size_t num_peers() const = 0;
  /// Node lookups. In a multi-process composition only locally hosted
  /// nodes are reachable; the accessors abort on a remote index (node code
  /// reaches concrete nodes only through Mesh-delivered tasks, which by
  /// construction run where the node lives).
  virtual PeerNode& peer(uint32_t index) = 0;
  virtual OrdererNode& orderer() = 0;
  virtual size_t num_clients() const = 0;
  virtual ClientNode& client(uint32_t index) = 0;
  /// Client lookup by name; nullptr for unknown submitters (e.g. externally
  /// injected transactions, or clients hosted by another process).
  virtual ClientNode* FindClient(const std::string& name) = 0;

  /// The peers a proposal with the given id is endorsed by: one peer per
  /// org, rotated by proposal id for load balance. Indices, not pointers —
  /// an endorser may live in another process.
  virtual std::vector<uint32_t> EndorsersFor(uint64_t proposal_id) = 0;

  /// Endorsement policy id used by all transactions.
  virtual const std::string& default_policy_id() const = 0;

  /// Observer peer whose commits feed the metrics (peer 0).
  virtual bool IsObserver(const PeerNode& peer) const = 0;
};

/// Everything a node needs from its surroundings, injected at construction.
/// All pointers outlive the node and are non-null.
struct NodeContext {
  const fabric::FabricConfig* config = nullptr;
  fabric::Metrics* metrics = nullptr;
  const workload::Workload* workload = nullptr;
  const chaincode::ChaincodeRegistry* registry = nullptr;
  const peer::PolicyRegistry* policies = nullptr;
  runtime::Runtime* runtime = nullptr;
  NodeDirectory* directory = nullptr;
  /// Typed message fabric every cross-node send goes through (node/mesh.h).
  Mesh* mesh = nullptr;
};

}  // namespace fabricpp::node

#endif  // FABRICPP_NODE_NODE_CONTEXT_H_
