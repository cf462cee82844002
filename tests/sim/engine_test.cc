// Direct tests of the parallel engine (sim::Engine) and its channel
// (sim::SpscQueue), without the network layer: synthetic shards pass keyed
// tokens through SPSC channels the way net/pdes.h passes packets.
//
// The engine's contract is that it decides only *when* a shard runs, never
// the order of its events, so a shard's dispatch log must be identical for
// every worker count. Event times sit on a 2^-10 s grid so that equal-time
// ties between local and cross-shard events are common, and the lookahead
// is a grid multiple so the run exercises deliveries landing exactly on a
// horizon.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/errors.h"
#include "sim/scheduler.h"
#include "sim/spsc.h"

namespace pert::sim {
namespace {

constexpr Time kTick = 1.0 / 1024;      // event-time grid
constexpr Time kLookahead = 8 * kTick;  // every boundary's latency

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// One dispatched event: (time, token, hop).
using Log = std::vector<std::tuple<Time, std::uint64_t, int>>;

// Shards passing tokens along directed edges. Each event logs itself and
// then, by a hash of (token, hop), either reschedules the token locally a
// few ticks later or sends it over one of its shard's out-edges, arriving
// one lookahead plus a few ticks later. Tokens are conserved, so the load
// stays constant, and every decision is a function of the event alone.
class TokenModel {
 public:
  TokenModel(int shards, const std::vector<std::pair<int, int>>& edges,
             int tokens_per_shard)
      : shards_(static_cast<std::size_t>(shards)) {
    for (const auto& [from, to] : edges) {
      const auto id = static_cast<std::uint32_t>(channels_.size());
      channels_.push_back(std::make_unique<Channel>());
      channels_.back()->id = id;
      shards_[static_cast<std::size_t>(from)].out.push_back(
          channels_.back().get());
      shards_[static_cast<std::size_t>(to)].in.push_back(
          channels_.back().get());
    }
    for (int s = 0; s < shards; ++s) {
      Shard& sh = shards_[static_cast<std::size_t>(s)];
      engine_.add_shard(&sh.sched, [this, s] { drain(s); });
      for (int k = 0; k < tokens_per_shard; ++k) {
        const std::uint64_t token =
            static_cast<std::uint64_t>(s) * 1000 + static_cast<std::uint64_t>(k);
        sh.sched.schedule_at(static_cast<Time>(k % 4) * kTick,
                             [this, s, token] { fire(s, token, 0); });
      }
    }
    for (const auto& [from, to] : edges) engine_.add_dependency(from, to, kLookahead);
  }
  // The engine's drain hooks and the scheduled events hold `this`.
  TokenModel(const TokenModel&) = delete;
  TokenModel& operator=(const TokenModel&) = delete;

  Engine& engine() { return engine_; }
  const Log& log(int s) const { return shards_[static_cast<std::size_t>(s)].log; }
  std::uint64_t dispatched(int s) const {
    return shards_[static_cast<std::size_t>(s)].sched.dispatched();
  }

  /// Makes the first event at or after `t` on shard `s` throw.
  void throw_at(int s, Time t) { shards_[static_cast<std::size_t>(s)].throw_at = t; }

 private:
  struct Msg {
    Time t;
    std::uint64_t token;
    int hop;
  };
  struct Channel {
    SpscQueue<Msg> q;
    std::uint32_t id = 0;
    std::uint64_t popped = 0;
  };
  struct Shard {
    Scheduler sched;
    std::vector<Channel*> in, out;
    Log log;
    Time throw_at = -1;
  };

  void fire(int s, std::uint64_t token, int hop) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    const Time now = sh.sched.now();
    if (sh.throw_at >= 0 && now >= sh.throw_at)
      throw std::runtime_error("injected failure");
    sh.log.emplace_back(now, token, hop);
    const std::uint64_t h = mix(token * 7919 + static_cast<std::uint64_t>(hop));
    const Time extra = static_cast<Time>(h % 4) * kTick;
    if (sh.out.empty() || (h >> 8) % 3 == 0) {
      sh.sched.schedule_at(now + kTick + extra,
                           [this, s, token, hop] { fire(s, token, hop + 1); });
    } else {
      Channel* ch = sh.out[(h >> 16) % sh.out.size()];
      ch->q.push(Msg{now + kLookahead + extra, token, hop + 1});
    }
  }

  void drain(int s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    for (Channel* ch : sh.in) {
      while (Msg* m = ch->q.front()) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(ch->id + 1) << 32) | ch->popped++;
        sh.sched.schedule_at_keyed(
            m->t, key, [this, s, token = m->token, hop = m->hop] {
              fire(s, token, hop);
            });
        ch->q.pop();
      }
    }
  }

  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<Channel>> channels_;
  Engine engine_;
};

// Bidirectional 3-shard chain 0 <-> 1 <-> 2.
const std::vector<std::pair<int, int>> kChain = {{0, 1}, {1, 0}, {1, 2}, {2, 1}};
// Star: hub 0 with leaves 1..4, both directions.
const std::vector<std::pair<int, int>> kStar = {
    {0, 1}, {1, 0}, {0, 2}, {2, 0}, {0, 3}, {3, 0}, {0, 4}, {4, 0}};

std::vector<Log> run_model(int shards, const std::vector<std::pair<int, int>>& edges,
                           int threads, const std::vector<Time>& windows) {
  TokenModel m(shards, edges, 6);
  for (const Time t : windows) m.engine().run_until(t, threads);
  std::vector<Log> logs;
  for (int s = 0; s < shards; ++s) logs.push_back(m.log(s));
  return logs;
}

TEST(Engine, ChainDispatchLogsIdenticalForEveryWorkerCount) {
  const std::vector<Log> oracle = run_model(3, kChain, 1, {1.0});
  for (const Log& l : oracle) ASSERT_GT(l.size(), 500u);
  for (int threads = 2; threads <= 4; ++threads)
    EXPECT_EQ(run_model(3, kChain, threads, {1.0}), oracle)
        << threads << " workers";
}

TEST(Engine, StarDispatchLogsIdenticalForEveryWorkerCount) {
  const std::vector<Log> oracle = run_model(5, kStar, 1, {1.0});
  for (const Log& l : oracle) ASSERT_GT(l.size(), 300u);
  // Tokens really cross the hub: some leaf logs a token born on another leaf.
  bool crossed = false;
  for (const auto& [t, token, hop] : oracle[1]) crossed |= token / 1000 >= 2;
  EXPECT_TRUE(crossed);
  for (int threads = 2; threads <= 4; ++threads)
    EXPECT_EQ(run_model(5, kStar, threads, {1.0}), oracle)
        << threads << " workers";
}

TEST(Engine, BackToBackWindowsMatchOneRun) {
  const std::vector<Log> oracle = run_model(3, kChain, 1, {1.0});
  // Window ends off the event grid and on it, split among worker counts.
  for (int threads = 1; threads <= 4; ++threads)
    EXPECT_EQ(run_model(3, kChain, threads, {0.3, 0.5, 0.50001, 1.0}), oracle)
        << threads << " workers";
}

TEST(Engine, RunUntilAtOrBelowCurrentTimeIsANoOp) {
  const std::vector<Log> oracle = run_model(3, kChain, 1, {1.0});
  for (int threads : {1, 3}) {
    TokenModel m(3, kChain, 6);
    m.engine().run_until(0.5, threads);
    std::vector<std::uint64_t> before;
    for (int s = 0; s < 3; ++s) before.push_back(m.dispatched(s));
    m.engine().run_until(0.5, threads);
    m.engine().run_until(0.25, threads);
    for (int s = 0; s < 3; ++s)
      EXPECT_EQ(m.dispatched(s), before[static_cast<std::size_t>(s)]);
    // And the engine resumes from where it really was.
    m.engine().run_until(1.0, threads);
    for (int s = 0; s < 3; ++s) EXPECT_EQ(m.log(s), oracle[static_cast<std::size_t>(s)]);
  }
}

TEST(Engine, ExceptionOnOneShardRethrowsFromRunUntil) {
  for (int threads = 1; threads <= 3; ++threads) {
    TokenModel m(3, kChain, 6);
    m.throw_at(1, 0.4);
    // The other workers must observe the abort and drain out, or this hangs.
    EXPECT_THROW(m.engine().run_until(1.0, threads), std::runtime_error)
        << threads << " workers";
  }
}

TEST(Engine, NonPositiveLookaheadIsAConfigError) {
  Scheduler a, b;
  Engine e;
  e.add_shard(&a, nullptr);
  e.add_shard(&b, nullptr);
  EXPECT_THROW(e.add_dependency(0, 1, 0.0), ConfigError);
  EXPECT_THROW(e.add_dependency(0, 1, -1e-3), ConfigError);
}

TEST(Engine, OneWorkerPublishesEveryPeriod) {
  // At one worker every count is a function of the scenario: each shard
  // advances at most q = kPublishFraction * lookahead per progressing
  // round, so reaching T takes at least T / q of them, and the single
  // worker always finds a shard that can advance, so it never yields.
  const Time T = 1.0;
  const Time q = Engine::kPublishFraction * kLookahead;
  TokenModel a(3, kChain, 6);
  TokenModel b(3, kChain, 6);
  a.engine().run_until(T, 1);
  b.engine().run_until(T, 1);
  const std::vector<Engine::ShardStats> sa = a.engine().stats();
  const std::vector<Engine::ShardStats> sb = b.engine().stats();
  ASSERT_EQ(sa.size(), 3u);
  for (std::size_t s = 0; s < sa.size(); ++s) {
    EXPECT_GE(static_cast<double>(sa[s].rounds - sa[s].idle_rounds), T / q)
        << "shard " << s;
    EXPECT_EQ(sa[s].yields, 0u);
    EXPECT_EQ(sa[s].events, a.dispatched(static_cast<int>(s)));
    EXPECT_EQ(sa[s].rounds, sb[s].rounds);
    EXPECT_EQ(sa[s].idle_rounds, sb[s].idle_rounds);
  }
}

TEST(Engine, EventCountsAreIndependentOfWorkerCount) {
  TokenModel one(5, kStar, 6);
  TokenModel four(5, kStar, 6);
  one.engine().run_until(1.0, 1);
  four.engine().run_until(1.0, 4);
  const auto s1 = one.engine().stats();
  const auto s4 = four.engine().stats();
  ASSERT_EQ(s1.size(), s4.size());
  for (std::size_t s = 0; s < s1.size(); ++s) EXPECT_EQ(s1[s].events, s4[s].events);
}

// ---- SpscQueue ----

TEST(SpscQueue, CrossesChunkBoundariesInOrder) {
  SpscQueue<int, 64> q;
  EXPECT_EQ(q.front(), nullptr);
  int next_pop = 0;
  int next_push = 0;
  // Uneven push/pop bursts so the consumer retires chunks while the
  // producer is mid-chunk, and meets an exactly full chunk with no
  // successor yet.
  for (int burst : {63, 1, 64, 65, 130, 7}) {
    for (int i = 0; i < burst; ++i) q.push(next_push++);
    while (int* v = q.front()) {
      EXPECT_EQ(*v, next_pop++);
      q.pop();
    }
    EXPECT_EQ(next_pop, next_push);
  }
}

struct Counted {
  static inline int live = 0;
  int v;
  explicit Counted(int x) : v(x) { ++live; }
  Counted(Counted&& o) noexcept : v(o.v) { ++live; }
  Counted(const Counted&) = delete;
  ~Counted() { --live; }
};

TEST(SpscQueue, DestroysUnconsumedElements) {
  Counted::live = 0;
  {
    SpscQueue<Counted, 64> q;
    for (int i = 0; i < 150; ++i) q.push(Counted(i));
    for (int i = 0; i < 70; ++i) {  // past the first chunk
      ASSERT_NE(q.front(), nullptr);
      EXPECT_EQ(q.front()->v, i);
      q.pop();
    }
    EXPECT_EQ(Counted::live, 80);
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(SpscQueue, TwoThreadStressKeepsOrder) {
  constexpr std::uint64_t kN = 200000;
  SpscQueue<std::uint64_t, 64> q;
  std::atomic<bool> ok{true};
  std::thread consumer([&] {
    std::uint64_t expect = 0;
    while (expect < kN) {
      if (std::uint64_t* v = q.front()) {
        if (*v != expect) ok.store(false);
        ++expect;
        q.pop();
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 0; i < kN; ++i) q.push(i);
  consumer.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(q.front(), nullptr);
}

}  // namespace
}  // namespace pert::sim
