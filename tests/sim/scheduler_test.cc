#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "sim/random.h"
#include "sim/timer.h"

namespace pert::sim {
namespace {

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.run_next());
}

TEST(Scheduler, DispatchesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3.0);
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s.schedule_at(1.0, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleInUsesCurrentTime) {
  Scheduler s;
  double fired_at = -1;
  s.schedule_at(5.0, [&] {
    s.schedule_in(2.5, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  s.schedule_at(10.0, [] {});
  s.run();
  double fired_at = -1;
  s.schedule_at(1.0, [&] { fired_at = s.now(); });  // in the past
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Scheduler, CancelPreventsDispatch) {
  Scheduler s;
  bool ran = false;
  auto id = s.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, CancelAfterRunReturnsFalse) {
  Scheduler s;
  auto id = s.schedule_at(1.0, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, NullEventIdNeverCancels) {
  Scheduler s;
  EXPECT_FALSE(s.cancel(Scheduler::EventId{}));
}

TEST(Scheduler, RunUntilAdvancesClockWithoutEvents) {
  Scheduler s;
  s.run_until(42.0);
  EXPECT_DOUBLE_EQ(s.now(), 42.0);
}

TEST(Scheduler, RunUntilDispatchesOnlyUpToBoundary) {
  Scheduler s;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0})
    s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  s.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(s.now(), 2.5);
  EXPECT_EQ(s.pending(), 2u);
  s.run_until(10.0);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Scheduler, BoundaryEventIncludedInRunUntil) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(2.0, [&] { ran = true; });
  s.run_until(2.0);
  EXPECT_TRUE(ran);
}

TEST(Scheduler, RunMaxEventsBounds) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 10; ++i) s.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending(), 7u);
}

TEST(Scheduler, DispatchedCounterCounts) {
  Scheduler s;
  for (int i = 0; i < 5; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.dispatched(), 5u);
}

TEST(Scheduler, EventsScheduledDuringDispatchRun) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_in(0.001, recurse);
  };
  s.schedule_at(0.0, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_NEAR(s.now(), 0.099, 1e-9);
}

class SchedulerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerPropertyTest, RandomEventsDispatchSorted) {
  Rng rng(GetParam());
  Scheduler s;
  std::vector<double> fired;
  std::vector<Scheduler::EventId> ids;
  for (int i = 0; i < 500; ++i)
    ids.push_back(
        s.schedule_at(rng.uniform(0, 100), [&] { fired.push_back(s.now()); }));
  // Cancel a random third of them.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (rng.bernoulli(1.0 / 3)) cancelled += s.cancel(ids[i]);
  s.run();
  EXPECT_EQ(fired.size(), 500u - cancelled);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

// --- slot-pool regression tests: pending() accounting and stale handles ---

TEST(Scheduler, PendingTracksScheduleCancelRescheduleInterleavings) {
  Scheduler s;
  auto a = s.schedule_at(1.0, [] {});
  auto b = s.schedule_at(2.0, [] {});
  auto c = s.schedule_at(3.0, [] {});
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_TRUE(s.cancel(b));
  EXPECT_EQ(s.pending(), 2u);  // eager removal: no lazy-cancel residue
  auto d = s.schedule_at(1.5, [] {});  // may recycle b's slot
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_FALSE(s.cancel(b));  // stale handle stays dead after slot reuse
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_TRUE(s.cancel(a));
  EXPECT_TRUE(s.cancel(c));
  EXPECT_TRUE(s.cancel(d));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.run_next());
}

TEST(Scheduler, StaleHandleNeverCancelsARecycledSlot) {
  Scheduler s;
  auto a = s.schedule_at(1.0, [] {});
  ASSERT_TRUE(s.cancel(a));
  // Keep scheduling until every free slot has been recycled at least once.
  bool ran = false;
  std::vector<Scheduler::EventId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(s.schedule_at(1.0, [&ran] { ran = true; }));
  EXPECT_FALSE(s.cancel(a)) << "handle from a cancelled event must stay dead";
  EXPECT_EQ(s.pending(), 8u) << "stale cancel must not remove a newer event";
  s.run();
  EXPECT_TRUE(ran);
  // Handles of already-run events are stale too, even after their slots are
  // reused by newer pending events.
  bool ran2 = false;
  auto fresh = s.schedule_at(2.0, [&ran2] { ran2 = true; });
  for (auto id : ids) EXPECT_FALSE(s.cancel(id));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_TRUE(s.cancel(fresh));
  s.run();
  EXPECT_FALSE(ran2);
}

TEST(Scheduler, CancelFromInsideACallback) {
  Scheduler s;
  bool b_ran = false, c_ran = false;
  Scheduler::EventId b, c;
  s.schedule_at(1.0, [&] {
    EXPECT_TRUE(s.cancel(b));  // same-time, later-seq event
    EXPECT_TRUE(s.cancel(c));  // future event
    EXPECT_EQ(s.pending(), 0u);
  });
  b = s.schedule_at(1.0, [&] { b_ran = true; });
  c = s.schedule_at(2.0, [&] { c_ran = true; });
  s.run();
  EXPECT_FALSE(b_ran);
  EXPECT_FALSE(c_ran);
  EXPECT_EQ(s.dispatched(), 1u);
}

TEST(Scheduler, CancellingOwnEventFromItsCallbackReturnsFalse) {
  Scheduler s;
  Scheduler::EventId self;
  bool checked = false;
  self = s.schedule_at(1.0, [&] {
    checked = true;
    EXPECT_FALSE(s.cancel(self)) << "a running event is no longer pending";
  });
  s.run();
  EXPECT_TRUE(checked);
}

TEST(Scheduler, RescheduleAfterCancelKeepsFifoTieBreak) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1.0, [&] { order.push_back(0); });
  auto mid = s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(1.0, [&] { order.push_back(2); });
  s.cancel(mid);
  // Re-scheduled at the same time: new seq, so it fires *after* survivors.
  s.schedule_at(1.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
}

TEST(Scheduler, SchedulingFromCallbackWhileSlotsRecycle) {
  // Dispatch loops that schedule follow-ups exercise slot recycling under a
  // growing-and-shrinking heap; the count and final clock pin correctness.
  Scheduler s;
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    s.schedule_at(1.0 + i * 0.5, [&s, &fired] {
      ++fired;
      s.schedule_in(0.25, [&fired] { ++fired; });
    });
  }
  s.run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, MoveOnlyCallbackCaptures) {
  Scheduler s;
  auto payload = std::make_unique<int>(99);
  int seen = 0;
  s.schedule_at(1.0, [p = std::move(payload), &seen] { seen = *p; });
  s.run();
  EXPECT_EQ(seen, 99);
}

TEST_P(SchedulerPropertyTest, PendingMatchesReferenceUnderRandomOps) {
  Rng rng(GetParam());
  Scheduler s;
  std::vector<Scheduler::EventId> live;
  std::size_t expected = 0;
  int fired = 0;
  for (int step = 0; step < 2000; ++step) {
    const double u = rng.uniform();
    if (u < 0.5) {
      live.push_back(s.schedule_in(rng.uniform(0, 10), [&fired] { ++fired; }));
      ++expected;
    } else if (u < 0.8 && !live.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform(0, static_cast<double>(live.size())));
      const auto i = idx < live.size() ? idx : live.size() - 1;
      if (s.cancel(live[i])) --expected;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      if (s.run_next()) --expected;
    }
    ASSERT_EQ(s.pending(), expected);
  }
  while (s.run_next()) --expected;
  EXPECT_EQ(expected, 0u);
  EXPECT_EQ(s.pending(), 0u);
}

// --- exact-order oracle: the whole (time, key) dispatch sequence ---
//
// RandomEventsDispatchSorted only sees dispatch *times*, and the batch twin
// test compares the scheduler with itself. This oracle replays a seeded mix
// of schedules (quantized times that force ties, explicit schedule_at_keyed
// keys, past times that clamp, schedules from inside callbacks) and cancels
// (from the middle of a deep heap, and from inside a drained batch) against a
// std::set of (t, key, id), and requires every dispatched event to be the
// set's minimum at that moment, through run_next, run_until and
// run_until_exclusive. Several thousand events stay pending, so sifts cross
// six or more levels of the 4-ary heap.
class SchedulerOracle {
 public:
  explicit SchedulerOracle(std::uint64_t seed) : rng_(seed) {}

  static constexpr std::size_t kHold = 6000;  // initial population

  void run() {
    for (std::size_t i = 0; i < kHold; ++i)
      schedule(draw_time(), rng_.bernoulli(0.2));
    for (int round = 0; round < 60; ++round) {
      driver_ops();
      switch (round % 3) {
        case 0: {
          for (int i = 0; i < 300; ++i) {
            const bool had = !model_.empty();
            const std::uint64_t before = fired_;
            ASSERT_EQ(s_.run_next(), had);
            ASSERT_EQ(fired_, before + (had ? 1 : 0));
          }
          break;
        }
        case 1: {
          const Time bound = next_bound();
          s_.run_until(bound);
          ASSERT_TRUE(model_.empty() || std::get<0>(*model_.begin()) > bound);
          ASSERT_EQ(s_.now(), bound);
          break;
        }
        default: {
          const Time bound = next_bound();
          const Time was = s_.now();
          s_.run_until_exclusive(bound);
          ASSERT_TRUE(model_.empty() ||
                      std::get<0>(*model_.begin()) >= bound);
          ASSERT_GE(s_.now(), was);
          ASSERT_LT(s_.now(), bound);
          break;
        }
      }
      ASSERT_EQ(s_.pending(), model_.size());
      ASSERT_EQ(mismatches_, 0u) << "first wrong dispatch: #" << first_bad_;
      min_pending_ = std::min(min_pending_, model_.size());
    }
    spawning_ = false;
    while (s_.run_next()) {
    }
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(s_.pending(), 0u);
  }

  std::uint64_t mismatches() const { return mismatches_; }
  std::uint64_t first_bad() const { return first_bad_; }
  std::uint64_t fired() const { return fired_; }
  std::uint64_t batch_cancels() const { return batch_cancels_; }
  std::uint64_t keyed() const { return keyed_; }
  std::size_t min_pending() const { return min_pending_; }

 private:
  using Key = std::tuple<Time, std::uint64_t, std::size_t>;
  static constexpr double kGrid = 16.0;  // ticks per second; exact in binary

  // Half the events land on a coarse absolute grid (heavy ties; grid points
  // behind the clock clamp to now), half at continuous offsets.
  Time draw_time() {
    const Time t = s_.now() + rng_.uniform(0.0, 4.0);
    return rng_.bernoulli(0.5) ? std::floor(t * kGrid) / kGrid : t;
  }

  // Unique explicit key below kLocalLane: random high bits, counter low bits.
  std::uint64_t draw_key() {
    return (rng_.uniform_int(0, (1ull << 31) - 1) << 24) | keyed_++;
  }

  void schedule(Time t, bool keyed) {
    const std::size_t id = handles_.size();
    const Time at = t < s_.now() ? s_.now() : t;
    const std::uint64_t key =
        keyed ? draw_key() : Scheduler::kLocalLane | ++local_seq_;
    auto cb = [this, id] { on_fire(id); };
    handles_.push_back(keyed ? s_.schedule_at_keyed(t, key, std::move(cb))
                             : s_.schedule_at(t, std::move(cb)));
    keys_.emplace_back(at, key, id);
    done_.push_back(false);
    model_.insert(keys_.back());
  }

  void cancel(std::size_t id) {
    const bool ok = s_.cancel(handles_[id]);
    if (ok != !done_[id]) note_mismatch();
    if (ok) {
      done_[id] = true;
      model_.erase(keys_[id]);
    }
  }

  void note_mismatch() {
    if (mismatches_++ == 0) first_bad_ = fired_;
  }

  void on_fire(std::size_t id) {
    ++fired_;
    if (model_.empty() || *model_.begin() != keys_[id] ||
        s_.now() != std::get<0>(keys_[id]) || done_[id])
      note_mismatch();
    done_[id] = true;
    model_.erase(keys_[id]);
    if (!spawning_) return;
    // Cancel a pending event due at this instant: inside run_until it sits
    // drained in the current batch, inside run_next it is still in the heap.
    bool replace = false;
    if (rng_.bernoulli(0.3)) {
      auto it = model_.lower_bound(Key{s_.now(), 0, 0});
      for (auto hops = rng_.uniform_int(0, 3);
           hops > 0 && it != model_.end() && std::next(it) != model_.end() &&
           std::get<0>(*std::next(it)) == s_.now();
           --hops)
        ++it;
      if (it != model_.end() && std::get<0>(*it) == s_.now()) {
        ++batch_cancels_;
        cancel(std::get<2>(*it));
        replace = true;
      }
    }
    // Follow-ups: 0-2 children (one on average, plus one replacing a
    // cancelled event, so the population holds), some at this very instant
    // (a later batch). Keyed ones go strictly into the future: a keyed event
    // at this instant would sort before the rest of the drained batch, and
    // the parallel engine only imports keyed events between run calls.
    const double u = rng_.uniform();
    const int kids = (u < 0.2 ? 0 : u < 0.8 ? 1 : 2) + (replace ? 1 : 0);
    for (int k = 0; k < kids; ++k) {
      if (rng_.bernoulli(0.15)) {
        schedule(s_.now(), false);
      } else if (rng_.bernoulli(0.2)) {
        const Time t = std::floor(s_.now() * kGrid) / kGrid +
                       static_cast<Time>(rng_.uniform_int(1, 64)) / kGrid;
        schedule(t, true);
      } else {
        schedule(draw_time(), false);
      }
    }
    // A handle of an event that already ran (this one) must stay dead.
    if (rng_.bernoulli(0.05)) cancel(id);
  }

  // Schedules and cancels from outside any callback. A victim is the first
  // live event at or after a random instant, so it sits anywhere in the
  // heap; every tenth cancel reuses a random, usually stale, handle.
  void driver_ops() {
    for (int i = 0; i < 60; ++i) {
      const bool past = rng_.bernoulli(0.1);
      schedule(past ? s_.now() - 1.0 : draw_time(), rng_.bernoulli(0.3));
    }
    for (int i = 0; i < 40; ++i) {
      if (i % 10 == 0) {
        cancel(static_cast<std::size_t>(
            rng_.uniform_int(0, handles_.size() - 1)));
        continue;
      }
      const auto it = model_.lower_bound(Key{draw_time(), 0, 0});
      if (it != model_.end()) cancel(std::get<2>(*it));
    }
  }

  Time next_bound() {
    const Time t = s_.now() + rng_.uniform(0.2, 0.6);
    return rng_.bernoulli(0.5) ? std::floor(t * kGrid) / kGrid : t;
  }

  Rng rng_;
  Scheduler s_;
  std::vector<Scheduler::EventId> handles_;
  std::vector<Key> keys_;
  std::vector<bool> done_;  // ran or cancelled
  std::set<Key> model_;
  std::uint64_t local_seq_ = 0;
  std::uint64_t keyed_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t batch_cancels_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t first_bad_ = 0;
  std::size_t min_pending_ = std::numeric_limits<std::size_t>::max();
  bool spawning_ = true;
};

TEST_P(SchedulerPropertyTest, DispatchSequenceMatchesOrderedSetOracle) {
  SchedulerOracle oracle(GetParam());
  oracle.run();
  EXPECT_EQ(oracle.mismatches(), 0u) << "first wrong dispatch: #"
                                     << oracle.first_bad();
  EXPECT_GE(oracle.min_pending(), 5000u) << "heap too shallow to test sifts";
  EXPECT_GT(oracle.fired(), 30000u);
  EXPECT_GT(oracle.batch_cancels(), 1000u);
  EXPECT_GT(oracle.keyed(), 1000u);
}

TEST(Timer, FiresOnce) {
  Scheduler s;
  int fires = 0;
  Timer t(s, [&] { ++fires; });
  t.schedule_in(1.0);
  EXPECT_TRUE(t.pending());
  s.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RescheduleReplacesPendingFire) {
  Scheduler s;
  std::vector<double> at;
  Timer t(s, [&] { at.push_back(s.now()); });
  t.schedule_in(1.0);
  t.schedule_in(2.0);  // replaces the 1.0 fire
  s.run();
  EXPECT_EQ(at, std::vector<double>{2.0});
}

TEST(Timer, CancelStopsFire) {
  Scheduler s;
  int fires = 0;
  Timer t(s, [&] { ++fires; });
  t.schedule_in(1.0);
  t.cancel();
  s.run();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, CanRescheduleItselfFromCallback) {
  Scheduler s;
  int fires = 0;
  Timer* tp = nullptr;
  Timer t(s, [&] {
    if (++fires < 5) tp->schedule_in(1.0);
  });
  tp = &t;
  t.schedule_in(1.0);
  s.run();
  EXPECT_EQ(fires, 5);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Timer, DestructionCancelsPendingFire) {
  Scheduler s;
  int fires = 0;
  {
    Timer t(s, [&] { ++fires; });
    t.schedule_in(1.0);
  }
  s.run();
  EXPECT_EQ(fires, 0);
}

}  // namespace
}  // namespace pert::sim
