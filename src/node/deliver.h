#ifndef FABRICPP_NODE_DELIVER_H_
#define FABRICPP_NODE_DELIVER_H_

#include <cstdint>
#include <memory>

#include "node/mesh.h"
#include "node/node_context.h"
#include "proto/block.h"
#include "runtime/runtime.h"

namespace fabricpp::node {

/// Where a node message is handled, and the handler call that handles it.
struct Delivery {
  /// The target's execution context: the lane of the message's channel on
  /// a peer or the orderer, or a client's home endpoint. Null when the
  /// message has no route: it names a channel, client or peer outside the
  /// cluster, or a client nobody hosts here. Such a message is dropped.
  runtime::Endpoint* to = nullptr;
  /// Runs the target's handler; must run on `to`.
  runtime::Task task;
};

/// The delivery table: for every node message, its target lane and the
/// handler it calls. Both meshes route through it — LocalMesh sends the
/// task over the runtime transport, SocketHost posts it after decoding a
/// frame — so each handler is called from here only. The range checks
/// guard the socket path, where messages come from untrusted frames; an
/// in-process message always passes them.
///
/// Targets are looked up in `directory`, which must host them; an outcome
/// for a client it does not know has no route.
Delivery RouteToPeer(NodeDirectory& directory, uint32_t peer_index,
                     PeerMessage msg);
Delivery RouteToOrderer(NodeDirectory& directory, OrdererMessage msg);
Delivery RouteToClient(NodeDirectory& directory, ClientMessage msg);

/// One shared block to `peer`'s lane for `channel` (in range).
Delivery RouteBlock(PeerNode& peer, uint32_t channel,
                    std::shared_ptr<proto::Block> block);

}  // namespace fabricpp::node

#endif  // FABRICPP_NODE_DELIVER_H_
