#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "sim/validate.h"

namespace pert::sim {

namespace {
constexpr Time kInf = std::numeric_limits<Time>::infinity();
}  // namespace

int Engine::add_shard(Scheduler* sched, std::function<void()> drain) {
  assert(sched != nullptr);
  Shard s;
  s.sched = sched;
  s.drain = std::move(drain);
  s.clock = std::make_unique<Clock>();
  shards_.push_back(std::move(s));
  return static_cast<int>(shards_.size()) - 1;
}

void Engine::add_dependency(int from, int to, Time lookahead) {
  assert(from >= 0 && static_cast<std::size_t>(from) < shards_.size());
  assert(to >= 0 && static_cast<std::size_t>(to) < shards_.size());
  assert(from != to && "a shard has zero lookahead to itself");
  require_positive("Engine", "lookahead", lookahead);
  Shard& s = shards_[static_cast<std::size_t>(to)];
  s.inbound.push_back(
      Dep{&shards_[static_cast<std::size_t>(from)].clock->t, lookahead});
  s.period = std::min(s.period, kPublishFraction * lookahead);
}

std::vector<Engine::ShardStats> Engine::stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const Shard& s : shards_) out.push_back(s.stats);
  return out;
}

bool Engine::step(Shard& s, Time T) {
  ++s.stats.rounds;
  // 1. Read peer clocks (acquire) to establish the safe execution horizon.
  Time horizon = kInf;
  for (const Dep& d : s.inbound) {
    const Time h = d.peer_clock->load(std::memory_order_acquire) + d.lookahead;
    if (h < horizon) horizon = h;
  }
  // 2. Import everything those peers pushed before publishing their clocks.
  if (s.drain) s.drain();
  // 3. Run at most one publication period at a time, so neighbours see this
  //    clock move every q rather than jump a whole horizon per round.
  const Time limit = std::min(horizon, s.executed + s.period);
  const std::uint64_t before = s.sched->dispatched();
  // 4/5. Run below the limit, then publish the new guarantee.
  if (limit > T) {
    // Final round: horizon >= limit > T, so all arrivals <= T are visible
    // (future ones are >= horizon); finish inclusively at T.
    s.sched->run_until(T);
    // run_until is inclusive: nothing at or below T remains. A call with T
    // below what already ran leaves the shard where it was.
    s.executed = std::max(s.executed, T);
    s.clock->t.store(kInf, std::memory_order_release);
    s.done = true;
  } else if (limit > s.executed) {
    s.sched->run_until_exclusive(limit);
    s.executed = limit;
    s.clock->t.store(limit, std::memory_order_release);
  } else {
    ++s.stats.idle_rounds;
    return false;  // peers have not advanced since our last round
  }
  s.stats.events += s.sched->dispatched() - before;
  return true;
}

void Engine::run_until(Time T, int threads) {
  const int n = static_cast<int>(shards_.size());
  if (n == 0) return;
  if (threads < 1) threads = 1;
  if (threads > n) threads = n;

  // First worker-thread failure wins; others drain out via the abort flag.
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto work = [&](int worker) {
    // Round-robin ownership: worker w drives shards w, w+threads, ...
    // Each shard is touched by exactly one thread, so all per-shard state
    // except the published clock stays unsynchronized.
    std::vector<Shard*> mine;
    for (int i = worker; i < n; i += threads)
      mine.push_back(&shards_[static_cast<std::size_t>(i)]);
    try {
      std::size_t remaining = mine.size();
      while (remaining > 0 && !abort.load(std::memory_order_relaxed)) {
        bool progressed = false;
        for (Shard* s : mine) {
          if (s->done) continue;
          if (step(*s, T)) {
            progressed = true;
            if (s->done) --remaining;
          }
        }
        // No shard of ours could advance: peers on other workers hold the
        // minimum clock. Yield instead of spinning hot; this keeps
        // oversubscribed runs from thrashing.
        if (!progressed && remaining > 0) {
          for (Shard* s : mine)
            if (!s->done) ++s->stats.yields;
          std::this_thread::yield();
        }
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      abort.store(true, std::memory_order_relaxed);
      // Unblock peers waiting on this shard's clock: publish +inf so their
      // horizons open up and they observe the abort flag promptly.
      for (Shard* s : mine)
        if (!s->done) s->clock->t.store(kInf, std::memory_order_release);
    }
  };

  if (threads == 1) {
    // Inline on the caller thread: no thread startup, and — important for
    // the determinism oracle — agent callbacks run on the same thread that
    // built the topology, so thread_local shard cursors behave identically
    // to construction time.
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) pool.emplace_back(work, w);
    for (auto& t : pool) t.join();
  }

  // Reset published clocks for a potential follow-up run_until (measurement
  // windows run the engine repeatedly over successive intervals).
  for (Shard& s : shards_) {
    s.done = false;
    s.clock->t.store(s.executed, std::memory_order_relaxed);
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pert::sim
