// Node: packet forwarding + local agent demultiplexing.
//
// Routing is static: Network::compute_routes() installs one next-hop Link
// per reachable destination, the first hop of a hop-count shortest path with
// ties broken by edge insertion order. A *host* — a node whose only out-link
// and only in-link join it to the same neighbour, its gateway — stores just
// that uplink. Every other (transit) node stores a dense table indexed by
// NodeId. Agents bind to ports; an arriving packet addressed to this node is
// handed to the agent bound to its dst_port.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace pert::net {

class Link;
class Network;
class Node;

/// Anything that terminates packets at a node (TCP senders/sinks, app stubs).
class Agent {
 public:
  virtual ~Agent() = default;
  virtual void receive(PacketPtr p) = 0;

  Node* node() const noexcept { return node_; }
  std::int32_t port() const noexcept { return port_; }

 private:
  friend class Node;
  Node* node_ = nullptr;
  std::int32_t port_ = -1;
};

class Node {
 public:
  explicit Node(NodeId id) : id_(id) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const noexcept { return id_; }

  /// Overrides the next hop toward `dst` only (nullptr black-holes it) until
  /// the next Network::compute_routes().
  void set_route(NodeId dst, Link* out);

  /// Next hop toward `dst`; nullptr for this node itself and for
  /// destinations it cannot reach.
  Link* route(NodeId dst) const {
    if (!overrides_.empty()) [[unlikely]]
      return overridden_route(dst);
    return computed_route(dst);
  }

  /// Binds an agent to a local port (one agent per port). Throws
  /// sim::ConfigError for a negative or already-bound port.
  void bind(Agent& a, std::int32_t port);

  /// Handles an arriving packet: local delivery or forwarding.
  void receive(PacketPtr p);

  /// Sends a locally originated packet (fills src if unset).
  void send(PacketPtr p);

  std::uint64_t forwarded() const noexcept { return forwarded_; }
  std::uint64_t delivered() const noexcept { return delivered_; }
  std::uint64_t routing_drops() const noexcept { return routing_drops_; }

 private:
  friend class Network;  // compute_routes() fills the fields below

  /// The route compute_routes() installed, ignoring overrides. A host
  /// reaches exactly what its gateway reaches, plus the gateway itself.
  Link* computed_route(NodeId dst) const {
    if (uplink_)
      return dst != id_ && (dst == gateway_->id_ || gateway_->table(dst))
                 ? uplink_
                 : nullptr;
    return table(dst);
  }
  Link* table(NodeId dst) const {
    const auto i = static_cast<std::size_t>(dst);
    return i < routes_.size() ? routes_[i] : nullptr;
  }
  Link* overridden_route(NodeId dst) const;

  NodeId id_;
  std::vector<Link*> routes_;        // transit: next hop, indexed by NodeId
  Link* uplink_ = nullptr;           // host: the only out-link
  const Node* gateway_ = nullptr;    // host: the uplink's far end
  std::vector<std::pair<NodeId, Link*>> overrides_;  // set_route() entries
  std::unordered_map<std::int32_t, Agent*> ports_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t routing_drops_ = 0;
};

}  // namespace pert::net
