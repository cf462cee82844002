// Property tests for static routing.
//
// DeliversAlongShortestPaths: on random connected graphs, the installed
// routes deliver every packet along a shortest path (hop count verified
// against an independent BFS).
//
// RoutingOracle: Network::compute_routes() installs exactly the next-hop
// Link* of the reference algorithm below — a BFS from every destination over
// reversed edges, ties broken by edge insertion order — for every (node,
// destination) pair. Hop counts alone would not catch a changed tie-break.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "sim/random.h"

namespace pert::net {
namespace {

class Capture final : public Agent {
 public:
  void receive(PacketPtr p) override {
    ++count;
    last_ttl = p->ttl;
  }
  int count = 0;
  std::int32_t last_ttl = -1;
};

struct RandomGraph {
  Network net;
  std::vector<Node*> nodes;
  std::vector<std::vector<int>> adj;

  RandomGraph(std::uint64_t seed, int n, double extra_edge_prob)
      : net(seed) {
    sim::Rng rng(seed * 1234567 + 1);
    adj.assign(n, {});
    for (int i = 0; i < n; ++i) nodes.push_back(net.add_node());
    // Random spanning tree first (guarantees connectivity)...
    for (int i = 1; i < n; ++i) {
      const int j = static_cast<int>(rng.uniform_int(0, i - 1));
      link(i, j);
    }
    // ...plus random extra edges.
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (!connected(i, j) && rng.bernoulli(extra_edge_prob)) link(i, j);
    net.compute_routes();
  }

  void link(int i, int j) {
    net.add_duplex_droptail(nodes[i], nodes[j], 1e9, 1e-4, 100);
    adj[i].push_back(j);
    adj[j].push_back(i);
  }

  bool connected(int i, int j) const {
    for (int k : adj[i])
      if (k == j) return true;
    return false;
  }

  int bfs_dist(int from, int to) const {
    std::vector<int> dist(adj.size(), std::numeric_limits<int>::max());
    std::queue<int> q;
    dist[from] = 0;
    q.push(from);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int v : adj[u])
        if (dist[v] == std::numeric_limits<int>::max()) {
          dist[v] = dist[u] + 1;
          q.push(v);
        }
    }
    return dist[to];
  }
};

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperty, DeliversAlongShortestPaths) {
  RandomGraph g(GetParam(), 12, 0.15);
  sim::Rng rng(GetParam() + 99);
  for (int trial = 0; trial < 30; ++trial) {
    const int src = static_cast<int>(rng.uniform_int(0, 11));
    int dst = static_cast<int>(rng.uniform_int(0, 11));
    if (dst == src) dst = (dst + 1) % 12;

    auto* cap = g.net.add_agent<Capture>(g.nodes[dst], 1000 + trial);
    auto p = g.net.make_packet();
    p->dst = g.nodes[dst]->id();
    p->dst_port = 1000 + trial;
    p->ttl = 64;
    g.nodes[src]->send(std::move(p));
    g.net.run_until(g.net.now() + 1.0);

    ASSERT_EQ(cap->count, 1) << "src=" << src << " dst=" << dst;
    // Intermediate forwards = path length - 1; each decrements the TTL.
    const int hops_taken = 64 - cap->last_ttl;
    EXPECT_EQ(hops_taken, g.bfs_dist(src, dst) - 1)
        << "src=" << src << " dst=" << dst;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty,
                         ::testing::Values(1, 7, 23, 77, 1001));

/// A network that records its edges in creation order, plus the reference
/// router over them.
struct OracleGraph {
  struct Edge {
    NodeId from, to;
    Link* link;
  };

  Network net{1};
  std::vector<Node*> nodes;
  std::vector<Edge> edges;
  /// set_route() calls made since the last compute_routes().
  std::vector<std::pair<std::pair<NodeId, NodeId>, Link*>> overrides;

  Node* add() {
    nodes.push_back(net.add_node());
    return nodes.back();
  }
  Link* one_way(Node* a, Node* b) {
    Link* l = net.add_link(a, b, 1e9, 1e-4,
                           std::make_unique<DropTailQueue>(net.sched(), 10));
    edges.push_back({a->id(), b->id(), l});
    return l;
  }
  void duplex(Node* a, Node* b) {
    one_way(a, b);
    one_way(b, a);
  }
  /// A degree-1 host hung off `gateway`.
  Node* host(Node* gateway) {
    Node* h = add();
    duplex(h, gateway);
    return h;
  }
  void compute_routes() {
    net.compute_routes();
    overrides.clear();
  }
  void set_route(Node* at, NodeId dst, Link* out) {
    at->set_route(dst, out);
    overrides.push_back({{at->id(), dst}, out});
  }

  /// Per-destination BFS over reversed edges: next[v][dst] is v's first
  /// link toward dst, nullptr when dst == v or dst is unreachable.
  std::vector<std::vector<Link*>> reference() const {
    const std::size_t n = nodes.size();
    std::vector<std::vector<std::pair<NodeId, Link*>>> radj(n);
    for (const Edge& e : edges)
      radj[static_cast<std::size_t>(e.to)].emplace_back(e.from, e.link);
    std::vector<std::vector<Link*>> next(n, std::vector<Link*>(n, nullptr));
    for (std::size_t dst = 0; dst < n; ++dst) {
      std::vector<int> dist(n, std::numeric_limits<int>::max());
      std::queue<NodeId> bfs;
      dist[dst] = 0;
      bfs.push(static_cast<NodeId>(dst));
      while (!bfs.empty()) {
        const NodeId u = bfs.front();
        bfs.pop();
        for (auto [v, link] : radj[static_cast<std::size_t>(u)]) {
          int& dv = dist[static_cast<std::size_t>(v)];
          if (dv != std::numeric_limits<int>::max()) continue;
          dv = dist[static_cast<std::size_t>(u)] + 1;
          next[static_cast<std::size_t>(v)][dst] = link;
          bfs.push(v);
        }
      }
    }
    for (const auto& [at, link] : overrides)
      next[static_cast<std::size_t>(at.first)]
          [static_cast<std::size_t>(at.second)] = link;
    return next;
  }

  /// Compares route(dst) with the reference for every node and every dst,
  /// plus two out-of-range ids. Returns "" on a full match, else the count
  /// and the first mismatches.
  std::string mismatches() const {
    const auto next = reference();
    const auto n = static_cast<NodeId>(nodes.size());
    std::ostringstream os;
    int bad = 0;
    for (NodeId v = 0; v < n; ++v)
      for (NodeId dst = -1; dst <= n; ++dst) {
        const auto& row = next[static_cast<std::size_t>(v)];
        const Link* want =
            dst >= 0 && dst < n ? row[static_cast<std::size_t>(dst)] : nullptr;
        if (nodes[static_cast<std::size_t>(v)]->route(dst) == want) continue;
        if (bad++ < 5) os << " (node " << v << ", dst " << dst << ")";
      }
    if (bad == 0) return "";
    return std::to_string(bad) + " mismatches:" + os.str();
  }

  /// A random core of `routers` nodes with `hosts` degree-1 hosts hung off
  /// it. The core mixes duplex links, one-way links, parallel links, and a
  /// node with two links to one router (same neighbour, but not a host).
  void add_random_core(sim::Rng& rng, int routers, int hosts) {
    const std::size_t base = nodes.size();
    auto pick = [&] {
      return nodes[base + static_cast<std::size_t>(
                              rng.uniform_int(0, routers - 1))];
    };
    for (int i = 0; i < routers; ++i) add();
    for (int i = 1; i < routers; ++i)
      duplex(nodes[base + static_cast<std::size_t>(i)],
             nodes[base + static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
    for (int k = 0; k < routers; ++k) {
      Node* a = pick();
      Node* b = pick();
      if (a == b) continue;
      if (rng.bernoulli(0.5))
        one_way(a, b);
      else
        duplex(a, b);
    }
    for (int i = 0; i < hosts; ++i) host(pick());
    Node* dual = add();
    Node* r = pick();
    duplex(dual, r);
    duplex(dual, r);
    Node* sink = add();
    one_way(pick(), sink);
  }
};

TEST(RoutingOracle, RandomCoresWithManyHosts) {
  for (std::uint64_t seed : {1, 2, 3, 17, 99}) {
    OracleGraph g;
    sim::Rng rng(seed);
    g.add_random_core(rng, 3 + static_cast<int>(seed % 10), 40);
    g.compute_routes();
    EXPECT_EQ(g.mismatches(), "") << "seed " << seed;
  }
}

TEST(RoutingOracle, TwoNodePairs) {
  OracleGraph duplex;
  duplex.host(duplex.add());
  duplex.compute_routes();
  EXPECT_EQ(duplex.mismatches(), "");
  EXPECT_NE(duplex.nodes[0]->route(1), nullptr);

  OracleGraph one_way;
  Node* a = one_way.add();
  one_way.one_way(a, one_way.add());
  one_way.compute_routes();
  EXPECT_EQ(one_way.mismatches(), "");
  EXPECT_EQ(one_way.nodes[1]->route(0), nullptr);
}

TEST(RoutingOracle, DisconnectedComponents) {
  OracleGraph g;
  sim::Rng rng(5);
  g.add_random_core(rng, 6, 10);
  g.add_random_core(rng, 4, 10);
  g.host(g.add());  // an isolated host pair
  g.add();          // an isolated node
  g.compute_routes();
  EXPECT_EQ(g.mismatches(), "");

  // A host with no route toward the other component drops at itself: the
  // packet never reaches its uplink.
  Node* from = g.nodes[6];  // first host of the first core
  Node* to = g.nodes.back();
  ASSERT_EQ(from->route(to->id()), nullptr);
  auto p = g.net.make_packet();
  p->dst = to->id();
  from->send(std::move(p));
  EXPECT_EQ(from->routing_drops(), 1u);
  g.net.run_until(1.0);
  for (Node* n : g.nodes) EXPECT_EQ(n->forwarded(), 0u);
}

TEST(RoutingOracle, OverrideOnAHostChangesOnlyThatDestination) {
  OracleGraph g;
  sim::Rng rng(11);
  g.add_random_core(rng, 5, 12);
  g.compute_routes();
  Node* h = g.nodes[5];  // a host
  Node* router = g.nodes[0];
  const NodeId victim = g.nodes[7]->id();
  Link* saved = h->route(victim);
  ASSERT_NE(saved, nullptr);
  g.set_route(h, victim, nullptr);
  EXPECT_EQ(h->route(victim), nullptr);
  EXPECT_EQ(g.mismatches(), "");

  // Overriding a router does not change what its hosts reach.
  g.set_route(router, g.nodes[8]->id(), nullptr);
  g.set_route(router, g.nodes[9]->id(), g.edges.front().link);
  EXPECT_EQ(g.mismatches(), "");

  // Restoring the saved link heals it; recomputing discards every override.
  g.set_route(h, victim, saved);
  EXPECT_EQ(g.mismatches(), "");
  g.compute_routes();
  EXPECT_EQ(g.mismatches(), "");
}

TEST(RoutingOracle, RecomputeAfterAddingHosts) {
  OracleGraph g;
  Node* r1 = g.add();
  Node* r2 = g.add();
  g.duplex(r1, r2);
  for (int i = 0; i < 8; ++i) {
    g.host(r1);
    g.host(r2);
  }
  g.compute_routes();
  ASSERT_EQ(g.mismatches(), "");

  // Dumbbell::add_flows: more host pairs, then a second compute_routes().
  for (int i = 0; i < 4; ++i) {
    g.host(r1);
    g.host(r2);
  }
  // A former host grows a host of its own and becomes transit.
  g.host(g.nodes[2]);
  g.compute_routes();
  EXPECT_EQ(g.mismatches(), "");
}

}  // namespace
}  // namespace pert::net
