#include "net/network.h"

#include <cassert>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/validate.h"

namespace pert::net {

namespace {
/// Active shard of the current thread. One variable serves every Network in
/// the process: a thread interleaves shards of at most one sharded network
/// at a time (builders scope with ShardCursor; engine workers set it per
/// round), and unsharded networks never read it.
thread_local int t_shard_cursor = 0;
}  // namespace

int Network::cursor() noexcept { return t_shard_cursor; }
void Network::set_cursor(int s) noexcept { t_shard_cursor = s; }

Network::ShardCursor::ShardCursor(Network& net, int s) : prev_(cursor()) {
  assert(s >= 0 && s < net.num_shards());
  (void)net;
  set_cursor(s);
}

Network::ShardCursor::~ShardCursor() { set_cursor(prev_); }

void Network::set_shards(int n) {
  sim::require_positive("Network", "shards", static_cast<double>(n));
  if (!nodes_.empty() || !links_.empty())
    throw sim::ConfigError(
        "Network: set_shards must precede topology construction",
        "component=Network param=shards nodes=" +
            std::to_string(nodes_.size()) + "\n");
  sharded_ = true;
  shard_scheds_.assign(1, &sched_);
  shard_pools_.assign(1, &pool_);
  for (int s = 1; s < n; ++s) {
    extra_pools_.push_back(std::make_unique<PacketPool>());
    extra_scheds_.push_back(std::make_unique<sim::Scheduler>());
    shard_pools_.push_back(extra_pools_.back().get());
    shard_scheds_.push_back(extra_scheds_.back().get());
  }
  shard_uids_.assign(static_cast<std::size_t>(n), 1);
}

void Network::finalize_shards() {
  if (!sharded_) return;
  assert(!finalized_ && "finalize_shards called twice");
  const int n = num_shards();

  // One channel per ordered shard pair with crossing links, ids assigned by
  // first appearance in link creation order — a pure function of the
  // topology, so event keys match for every thread count.
  std::map<std::pair<int, int>, ShardChannel*> by_pair;
  for (const Edge& e : edges_) {
    const int sf = node_shard_[static_cast<std::size_t>(e.from)];
    const int st = node_shard_[static_cast<std::size_t>(e.to)];
    if (sf == st) continue;
    if (!(e.link->prop_delay() > 0.0))
      throw sim::ConfigError(
          "Network: cross-shard link needs positive propagation delay "
          "(zero lookahead admits no conservative parallelism — keep the "
          "link inside one shard)",
          "component=Network param=prop_delay from_shard=" +
              std::to_string(sf) + " to_shard=" + std::to_string(st) + "\n");
    ShardChannel*& ch = by_pair[{sf, st}];
    if (!ch) {
      channels_.push_back(std::make_unique<ShardChannel>(
          sf, st, static_cast<std::uint32_t>(channels_.size())));
      ch = channels_.back().get();
    }
    ch->note_link_delay(e.link->prop_delay());
    e.link->set_boundary(ch);
  }

  engine_ = std::make_unique<sim::Engine>();
  for (int s = 0; s < n; ++s) {
    // Inbound channels in id order (any fixed order works — final event
    // order is decided by the keys, not drain sequence).
    std::vector<ShardChannel*> in;
    for (const auto& ch : channels_)
      if (ch->to_shard() == s) in.push_back(ch.get());
    sim::Scheduler* sched = shard_scheds_[static_cast<std::size_t>(s)];
    PacketPool* pool = shard_pools_[static_cast<std::size_t>(s)];
    // The drain hook doubles as the shard-entry hook: it pins the cursor so
    // agent callbacks executed afterwards (same engine round, same thread)
    // resolve sched()/make_packet() to this shard.
    engine_->add_shard(sched, [s, in = std::move(in), sched, pool] {
      set_cursor(s);
      for (ShardChannel* ch : in) ch->drain(*sched, *pool);
    });
  }
  for (const auto& ch : channels_)
    engine_->add_dependency(ch->from_shard(), ch->to_shard(),
                            ch->lookahead());
  finalized_ = true;
}

void Network::run_until(sim::Time t) {
  if (!sharded_) {
    sched_.run_until(t);
    return;
  }
  assert(finalized_ && "run_until on a sharded network before finalize_shards");
  engine_->run_until(t, sim_threads_);
  set_cursor(0);  // workers (or the inline path) left it on their last shard
}

std::uint64_t Network::total_dispatched() const {
  if (!sharded_) return sched_.dispatched();
  std::uint64_t total = 0;
  for (const sim::Scheduler* s : shard_scheds_) total += s->dispatched();
  return total;
}

Link* Network::add_link(Node* a, Node* b, double rate_bps, sim::Time delay,
                        std::unique_ptr<Queue> q) {
  if (!a || !b || a == b)
    throw sim::ConfigError(
        "Network: add_link needs two distinct nodes",
        std::string("component=Network param=add_link from=") +
            (a ? std::to_string(a->id()) : "null") +
            " to=" + (b ? std::to_string(b->id()) : "null") + "\n");
  // The transmitter (and its queue) belong to the source node's shard.
  sim::Scheduler& sched =
      sharded_ ? *shard_scheds_[static_cast<std::size_t>(node_shard(a))]
               : sched_;
  links_.push_back(
      std::make_unique<Link>(sched, *b, rate_bps, delay, std::move(q)));
  Link* l = links_.back().get();
  edges_.push_back(Edge{a->id(), b->id(), l});
  return l;
}

std::pair<Link*, Link*> Network::add_duplex(
    Node* a, Node* b, double rate_bps, sim::Time delay,
    const std::function<std::unique_ptr<Queue>()>& make_queue) {
  Link* ab;
  Link* ba;
  {
    ShardCursor at_a(*this, node_shard(a));
    ab = add_link(a, b, rate_bps, delay, make_queue());
  }
  {
    ShardCursor at_b(*this, node_shard(b));
    ba = add_link(b, a, rate_bps, delay, make_queue());
  }
  return {ab, ba};
}

std::pair<Link*, Link*> Network::add_duplex_droptail(Node* a, Node* b,
                                                     double rate_bps,
                                                     sim::Time delay,
                                                     std::int32_t cap) {
  return add_duplex(a, b, rate_bps, delay, [this, cap] {
    return std::make_unique<DropTailQueue>(sched(), cap);
  });
}

void Network::compute_routes() {
  const std::size_t n = nodes_.size();
  const auto at = [](NodeId id) { return static_cast<std::size_t>(id); };

  // Degree census. A host has exactly one out-edge and one in-edge, both to
  // the same neighbour; that edge pair is all it routes over.
  std::vector<std::int32_t> outs(n, 0), ins(n, 0);
  std::vector<const Edge*> last_out(n, nullptr), last_in(n, nullptr);
  for (const Edge& e : edges_) {
    ++outs[at(e.from)];
    last_out[at(e.from)] = &e;
    ++ins[at(e.to)];
    last_in[at(e.to)] = &e;
  }
  std::vector<bool> host(n, false);
  std::vector<NodeId> transit;
  for (std::size_t v = 0; v < n; ++v) {
    host[v] = outs[v] == 1 && ins[v] == 1 &&
              last_out[v]->to == last_in[v]->from;
    Node& node = *nodes_[v];
    node.overrides_.clear();
    if (host[v]) {
      node.uplink_ = last_out[v]->link;
      node.gateway_ = nodes_[at(last_out[v]->to)].get();
      std::vector<Link*>().swap(node.routes_);
    } else {
      node.uplink_ = nullptr;
      node.gateway_ = nullptr;
      node.routes_.assign(n, nullptr);
      transit.push_back(static_cast<NodeId>(v));
    }
  }

  // Reversed transit-to-transit edges, insertion order kept per node:
  // radj[u] lists (v, link v->u).
  std::vector<std::vector<std::pair<NodeId, Link*>>> radj(n);
  for (const Edge& e : edges_)
    if (!host[at(e.from)] && !host[at(e.to)])
      radj[at(e.to)].emplace_back(e.from, e.link);

  // BFS from every transit destination over reversed edges, recording each
  // node's forward next-hop link toward it. Hosts are leaves of such a BFS
  // (reached only from their gateway, they lead back only to it), so
  // skipping them leaves the transit visit order, and thus the tie-break,
  // unchanged. `seen[v] == dst` marks v visited in the BFS from dst.
  std::vector<NodeId> queue(n);
  std::vector<NodeId> seen(n, kNoNode);
  for (const NodeId dst : transit) {
    std::size_t head = 0, tail = 0;
    queue[tail++] = dst;
    seen[at(dst)] = dst;
    while (head < tail) {
      const NodeId u = queue[head++];
      for (const auto [v, link] : radj[at(u)]) {
        if (seen[at(v)] == dst) continue;
        seen[at(v)] = dst;
        nodes_[at(v)]->routes_[at(dst)] = link;
        queue[tail++] = v;
      }
    }
  }

  // Host destinations. A BFS from host h enters only through its gateway g
  // and then runs exactly like the BFS from g, so every transit node routes
  // to h as it routes to g, and g itself takes its link to h.
  for (std::size_t h = 0; h < n; ++h) {
    if (!host[h]) continue;
    const Edge& down = *last_in[h];
    if (host[at(down.from)]) continue;  // an isolated host pair
    for (const NodeId t : transit) {
      auto& row = nodes_[at(t)]->routes_;
      row[h] = row[at(down.from)];
    }
    nodes_[at(down.from)]->routes_[h] = down.link;
  }
}

}  // namespace pert::net
