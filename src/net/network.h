// Network: the simulation container.
//
// Owns the scheduler, the RNG, and every node/link/agent (C++ Core Guidelines
// R.3: everything else holds non-owning raw pointers into this container).
// Provides topology construction, deterministic shortest-path routing, and
// the run loop.
//
// Sharding (parallel engine): set_shards(n) partitions the simulation into n
// shards, each with its own Scheduler, PacketPool, and uid space, run
// concurrently by sim::Engine with link propagation delays as the lookahead
// (see net/pdes.h and docs/performance.md). A thread-local *shard cursor*
// routes sched()/make_packet()/now() to the active shard: during topology
// construction the builder scopes each component with ShardCursor, and at
// run time each engine worker sets the cursor before touching a shard. An
// unsharded Network (the default, and the only mode the classic seed path
// exercises) never consults the cursor beyond one predictable branch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/pdes.h"
#include "net/pool.h"
#include "net/queue.h"
#include "sim/engine.h"
#include "sim/random.h"
#include "sim/scheduler.h"

namespace pert::net {

class Network {
 public:
  explicit Network(std::uint64_t seed = 1) : rng_(seed) {}

  /// Scheduler of the *active shard* (thread-local cursor; shard 0 — the
  /// only shard of an unsharded network — when no cursor is set).
  sim::Scheduler& sched() noexcept {
    return sharded_ ? *shard_scheds_[cursor()] : sched_;
  }
  sim::Rng& rng() noexcept { return rng_; }
  sim::Time now() const noexcept {
    return sharded_ ? shard_scheds_[cursor()]->now() : sched_.now();
  }

  // ---- Sharding (parallel engine) ----

  /// Partitions the simulation into `n` shards (call before building any
  /// topology). Shard 0 is the network's own scheduler/pool; shards 1..n-1
  /// get their own. Components constructed while a ShardCursor scopes shard
  /// s belong to s: their events run on s's scheduler, possibly on a
  /// different thread than any other shard's.
  void set_shards(int n);
  bool sharded() const noexcept { return sharded_; }
  int num_shards() const noexcept {
    return sharded_ ? static_cast<int>(shard_scheds_.size()) : 1;
  }

  /// Scopes construction (or any direct access) to one shard: while alive,
  /// sched()/make_packet()/now() on this thread address shard `s`.
  class ShardCursor {
   public:
    ShardCursor(Network& net, int s);
    ~ShardCursor();
    ShardCursor(const ShardCursor&) = delete;
    ShardCursor& operator=(const ShardCursor&) = delete;

   private:
    int prev_;
  };

  /// Shard owning a node (0 for every node of an unsharded network).
  int node_shard(const Node* n) const {
    return sharded_ ? node_shard_[static_cast<std::size_t>(n->id())] : 0;
  }

  /// Call once after the topology is complete (and before run_until): walks
  /// every link, routes cross-shard ones through per-shard-pair channels
  /// (lookahead = min propagation delay over the pair's links; zero-delay
  /// cross-shard links are a ConfigError), and assembles the engine.
  void finalize_shards();

  /// Worker threads for sharded runs (clamped to [1, num_shards()] by the
  /// engine). Results are byte-identical for every value; 1 is the oracle.
  void set_sim_threads(int threads) noexcept { sim_threads_ = threads; }
  int sim_threads() const noexcept { return sim_threads_; }

  Node* add_node() {
    nodes_.push_back(std::make_unique<Node>(static_cast<NodeId>(nodes_.size())));
    if (sharded_) node_shard_.push_back(cursor());
    return nodes_.back().get();
  }

  Node* node(NodeId id) const { return nodes_.at(static_cast<std::size_t>(id)).get(); }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }

  /// Every link in creation order (monitors and invariant checkers walk all
  /// queues through this).
  std::vector<Link*> links() const {
    std::vector<Link*> out;
    out.reserve(links_.size());
    for (const auto& l : links_) out.push_back(l.get());
    return out;
  }

  /// Adds a unidirectional link a -> b with the given queue discipline.
  /// The link's transmitter runs on a's shard — the queue must have been
  /// constructed under that shard's cursor. Throws sim::ConfigError unless
  /// a and b are two distinct nodes.
  Link* add_link(Node* a, Node* b, double rate_bps, sim::Time delay,
                 std::unique_ptr<Queue> q);

  /// Adds a duplex link (two unidirectional links with independent queues
  /// from the factory). Returns {a->b, b->a}. Each factory call runs under
  /// the cursor of that direction's source shard, so factories should build
  /// queues against sched().
  std::pair<Link*, Link*> add_duplex(
      Node* a, Node* b, double rate_bps, sim::Time delay,
      const std::function<std::unique_ptr<Queue>()>& make_queue);

  /// Convenience duplex with DropTail queues of `cap` packets each way.
  std::pair<Link*, Link*> add_duplex_droptail(Node* a, Node* b,
                                              double rate_bps, sim::Time delay,
                                              std::int32_t cap);

  /// Computes hop-count shortest paths (ties broken by edge insertion order)
  /// and installs next-hop routes on every node, discarding set_route()
  /// overrides. Call after topology changes. Hosts get an uplink, transit
  /// nodes a dense table: O(R·N) time and memory for R transit nodes, since
  /// only transit destinations need a BFS.
  void compute_routes();

  /// Registers an agent (owned by the network); binds it to node:port when
  /// `at` is non-null (pass nullptr to bind later).
  template <class T, class... Args>
  T* add_agent(Node* at, std::int32_t port, Args&&... args) {
    auto a = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = a.get();
    if (at) at->bind(*raw, port);
    agents_.push_back(std::move(a));
    return raw;
  }

  /// Hands out a packet with a unique uid, recycled from the pool when
  /// possible (steady-state simulation allocates no packets). Sharded
  /// networks draw from the active shard's pool, with the shard index in
  /// the uid's top byte so uids stay globally unique across uid spaces.
  PacketPtr make_packet() {
    if (!sharded_) {
      auto p = pool_.acquire();
      p->uid = next_uid_++;
      return p;
    }
    const int s = cursor();
    auto p = shard_pools_[s]->acquire();
    p->uid = (static_cast<std::uint64_t>(s) << 56) | shard_uids_[s]++;
    return p;
  }

  /// The packet recycling pool (stats inspection; tests assert steady-state
  /// allocation-freedom through this). Cursor-routed when sharded.
  PacketPool& packet_pool() noexcept {
    return sharded_ ? *shard_pools_[cursor()] : pool_;
  }

  /// Runs to time t (inclusive). Sharded networks run the parallel engine
  /// with sim_threads() workers; finalize_shards() must have been called.
  void run_until(sim::Time t);

  /// Events dispatched across all shards (== sched().dispatched() when
  /// unsharded). Deterministic for any thread count.
  std::uint64_t total_dispatched() const;

  /// Per-shard engine synchronization counters (see sim::Engine::stats);
  /// empty until finalize_shards() has built the engine. Only `events` is
  /// deterministic across thread counts, so keep these out of reports.
  std::vector<sim::Engine::ShardStats> engine_stats() const {
    return engine_ ? engine_->stats() : std::vector<sim::Engine::ShardStats>{};
  }

 private:
  struct Edge {
    NodeId from, to;
    Link* link;
  };

  /// Active shard for this thread (always 0 when unsharded). Out of line:
  /// the thread_local lives in network.cc.
  static int cursor() noexcept;
  static void set_cursor(int s) noexcept;

  /// Declared first so it is destroyed last: packets still held by queues,
  /// links, agents, or pending scheduler events release into a live pool
  /// during teardown.
  PacketPool pool_;
  /// Pools of shards 1..n-1 — same teardown rule, so they precede the
  /// schedulers and containers below.
  std::vector<std::unique_ptr<PacketPool>> extra_pools_;
  sim::Scheduler sched_;
  std::vector<std::unique_ptr<sim::Scheduler>> extra_scheds_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Edge> edges_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::uint64_t next_uid_ = 1;

  // ---- sharded-mode state (empty and untouched when !sharded_) ----
  bool sharded_ = false;
  bool finalized_ = false;
  int sim_threads_ = 1;
  std::vector<sim::Scheduler*> shard_scheds_;  // [0] = &sched_
  std::vector<PacketPool*> shard_pools_;       // [0] = &pool_
  std::vector<std::uint64_t> shard_uids_;
  std::vector<int> node_shard_;  // indexed by NodeId
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  std::unique_ptr<sim::Engine> engine_;
};

}  // namespace pert::net
