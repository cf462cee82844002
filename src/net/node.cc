#include "net/node.h"

#include <string>
#include <utility>

#include "net/link.h"
#include "sim/validate.h"

namespace pert::net {

void Node::set_route(NodeId dst, Link* out) {
  for (auto& [d, link] : overrides_)
    if (d == dst) {
      link = out;
      return;
    }
  overrides_.emplace_back(dst, out);
}

Link* Node::overridden_route(NodeId dst) const {
  for (const auto& [d, link] : overrides_)
    if (d == dst) return link;
  return computed_route(dst);
}

void Node::bind(Agent& a, std::int32_t port) {
  sim::require_non_negative("Node", "port", port);
  if (ports_.contains(port))
    throw sim::ConfigError(
        "Node: port " + std::to_string(port) + " already bound",
        "component=Node param=port value=" + std::to_string(port) +
            " node=" + std::to_string(id_) + "\n");
  a.node_ = this;
  a.port_ = port;
  ports_[port] = &a;
}

void Node::receive(PacketPtr p) {
  if (p->dst == id_) {
    auto it = ports_.find(p->dst_port);
    if (it == ports_.end()) {
      ++routing_drops_;  // no listener: packet silently dies
      return;
    }
    ++delivered_;
    it->second->receive(std::move(p));
    return;
  }
  if (--p->ttl <= 0) {
    ++routing_drops_;
    return;
  }
  Link* out = route(p->dst);
  if (!out) {
    ++routing_drops_;
    return;
  }
  ++forwarded_;
  out->send(std::move(p));
}

void Node::send(PacketPtr p) {
  if (p->src == kNoNode) p->src = id_;
  if (p->dst == id_) {  // loopback delivery
    receive(std::move(p));
    return;
  }
  Link* out = route(p->dst);
  if (!out) {
    ++routing_drops_;
    return;
  }
  out->send(std::move(p));
}

}  // namespace pert::net
