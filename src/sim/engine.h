// Conservative parallel discrete-event engine.
//
// Runs N shards — each an independent Scheduler with its own event heap —
// concurrently on worker threads, synchronized null-message/LBTS-style by
// *lookahead*: every cross-shard dependency declares a minimum latency L
// (for the network layer, the propagation delay of the links crossing the
// boundary), which guarantees an event executed at time t on the producer
// shard can influence the consumer no earlier than t + L.
//
// Protocol, per shard, per round:
//
//   1. horizon = min over inbound dependencies of (peer_clock + lookahead)
//      (acquire-load of each peer's published clock; +inf with no inbound)
//   2. drain()  — import every visible cross-shard message into the local
//      scheduler (the transport lives in the net layer; see net/pdes.h)
//   3. limit = min(horizon, executed + q), where q, the publication period,
//      is kPublishFraction of the shard's smallest inbound lookahead
//   4. run_until_exclusive(limit) — execute strictly below the limit
//   5. publish own clock = limit (release-store)
//
// Why chunk at q instead of running straight to the horizon: a shard that
// runs to the horizon publishes once per round, so on a chain its
// neighbours see it jump by up to two lookaheads at a time. The shards then
// leapfrog — even and odd shards take turns while the other half waits on
// them, and the run uses about half its workers. Publishing every q keeps
// neighbours within about q of each other, so they run at the same time.
//
// Safety: a peer release-publishes clock c only after pushing every message
// it produced below c, and the consumer acquire-loads c before draining, so
// when the consumer executes up to min(c_i + L_i) every message that could
// land in that range is already in its heap. Running only to limit <=
// horizon is safe a fortiori. Step 5's release pairs with step 1's acquire
// on the other side for messages produced in step 4.
//
// Liveness: the globally earliest shard always has horizon strictly above
// its own clock (lookaheads are required positive), and q > 0, so its limit
// is above its clock too: some shard makes progress in every round. Workers
// owning several shards round-robin them, one chunk per shard per pass, and
// yield briefly when a full pass makes no progress.
//
// Termination: once limit > T (which implies horizon > T, as limit <=
// horizon), every message with arrival <= T is already visible (future
// arrivals are >= horizon), so the shard drains once more, runs inclusively
// to T, publishes +inf, and is done. A shard thus finishes after at least
// (T - start) / q rounds that make progress.
//
// Determinism: the engine decides only *when* a shard may run, never the
// order of its events — that is fixed by each scheduler's (time, key)
// comparator, with cross-shard messages keyed by (channel, message index)
// in the drain callbacks (see Scheduler::schedule_at_keyed). Results are
// therefore byte-identical for any worker count, including 1.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sim/scheduler.h"
#include "sim/time.h"

namespace pert::sim {

class Engine {
 public:
  /// Publication period q as a fraction of a shard's smallest inbound
  /// lookahead (see the header comment). Chosen by A/B from {1/2, 1/4,
  /// 1/8} on the Fig. 11 chain; docs/performance.md has the numbers.
  static constexpr double kPublishFraction = 0.5;

  /// Synchronization counters of one shard, cumulative over every
  /// run_until call. `events` is deterministic; the rest depend on thread
  /// timing except at one worker, where every count is a function of the
  /// scenario.
  struct ShardStats {
    std::uint64_t rounds = 0;       // protocol rounds (step calls)
    std::uint64_t idle_rounds = 0;  // rounds that could not advance the clock
    std::uint64_t yields = 0;       // owning worker yielded, this shard blocked
    std::uint64_t events = 0;       // events this shard dispatched
  };

  /// Registers a shard. `drain` imports all currently visible cross-shard
  /// messages into `sched` (keyed; see header comment) and is only ever
  /// called from the worker thread owning the shard. Returns the shard id.
  int add_shard(Scheduler* sched, std::function<void()> drain);

  /// Declares that shard `to` can receive events from shard `from` no
  /// earlier than `lookahead` seconds after they are produced. Lookahead
  /// must be strictly positive — a zero-latency boundary admits no
  /// conservative parallelism and must stay inside one shard.
  void add_dependency(int from, int to, Time lookahead);

  std::size_t num_shards() const noexcept { return shards_.size(); }

  /// Per-shard counters, indexed by shard id. Call between run_until calls.
  std::vector<ShardStats> stats() const;

  /// Runs every shard through simulated time T (inclusive, matching
  /// Scheduler::run_until) on `threads` workers. Shards are distributed
  /// round-robin across workers; threads are clamped to [1, num_shards()].
  /// Blocks until all shards complete; workers are joined on return.
  /// A callback exception on any shard aborts the run and rethrows here.
  void run_until(Time T, int threads);

 private:
  struct Dep {
    const std::atomic<Time>* peer_clock;
    Time lookahead;
  };

  /// A shard's published clock on a cache line of its own: neighbours poll
  /// it every round, and a line shared with another heap object would be
  /// invalidated by unrelated writes (glibc's smallest chunk is 32 bytes,
  /// so a plain heap-allocated atomic does not get a line to itself).
  struct alignas(64) Clock {
    std::atomic<Time> t{0.0};
  };

  /// Cache-line aligned: every field but `clock` is written by the owning
  /// worker every round, so two shards owned by different workers must not
  /// share a line.
  struct alignas(64) Shard {
    Scheduler* sched = nullptr;
    std::function<void()> drain;
    std::vector<Dep> inbound;
    /// Published guarantee: this shard will never again produce a message
    /// from an event below this time. Read with acquire by consumers,
    /// written with release. Heap-held so the vector of shards can grow.
    std::unique_ptr<Clock> clock;
    Time period = std::numeric_limits<Time>::infinity();  // q (see above)
    Time executed = 0.0;  // exclusive upper bound already run (worker-local)
    bool done = false;    // worker-local
    ShardStats stats;     // worker-local
  };

  /// One synchronization round for shard s. Returns true when the shard
  /// made progress (ran events or finished).
  bool step(Shard& s, Time T);

  std::vector<Shard> shards_;
};

}  // namespace pert::sim
