// Discrete-event scheduler.
//
// A 4-ary min-heap of (time, key) keyed events over a generation-tagged slot
// pool. Ties in time are broken by insertion order (monotonic sequence
// numbers), which makes every run fully deterministic for a given seed and
// call sequence.
//
// Design notes (the allocation-free, cache-resident hot path):
//   - Each heap entry carries its event's full sort key next to the slot
//     index: Entry{t, seq, slot}, 24 bytes. Sifts compare entries that sit
//     side by side in heap_ and never touch the slot pool, so a sift_down
//     level reads two or three adjacent cache lines, not four scattered
//     slots. See docs/performance.md for the A/B and the layouts rejected.
//     The key is stored only in the entry; a slot holds what dispatch and
//     cancel need (generation, heap position, callback).
//   - Events live in recycled slots, and each slot records its entry's heap
//     position, so cancel() removes the event eagerly in O(log4 n) with no
//     hashing and pending() is a plain O(1) size read.
//   - Handles are (slot, generation) pairs. A slot's generation bumps on
//     every acquire and release, so a stale EventId — the event ran, was
//     cancelled, or its slot was recycled — can never cancel a later event.
//   - Callbacks are move-only sim::UniqueFunction with 48 bytes of inline
//     storage: scheduling a typical event (a `this` pointer plus a few words
//     of capture, or an in-flight PacketPtr) performs zero heap allocations
//     once the slot pool has reached its high-water mark.
//
// Tie-break key layout (64 bits): locally scheduled events carry
// kLocalLane | <monotonic counter>, so same-time local events dispatch in
// schedule order exactly as before. Events imported from another shard of a
// parallel run are scheduled through schedule_at_keyed() with an explicit
// (channel, message) key below kLocalLane — their order at a timestamp is a
// pure function of topology, never of when a worker thread drained them, and
// they always dispatch before local events at the same instant. Single-shard
// runs never create keyed events and are byte-identical to prior builds.
//
// Same-timestamp dispatch is batched: run_batch() drains the whole run of
// events sharing the earliest timestamp off the heap in one pop loop, then
// dispatches them back-to-back through a small reusable buffer. Heap
// maintenance and callback execution stop interleaving at high event density
// (ACK bursts, synchronized starts), while cancellation keeps exact
// semantics: an event cancelled by an earlier callback in its own batch is
// skipped, precisely as the unbatched loop would have skipped it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace.h"
#include "sim/function.h"
#include "sim/time.h"

namespace pert::sim {

class Scheduler {
 public:
  using Callback = UniqueFunction<void()>;

  /// High bit of the tie-break key: set for locally scheduled events.
  /// Explicit keys passed to schedule_at_keyed must stay below this, so
  /// boundary events dispatch before local ones at the same timestamp.
  static constexpr std::uint64_t kLocalLane = 1ull << 63;

  /// Opaque handle to a scheduled event; default-constructed handles are
  /// "null" and never match a live event.
  class EventId {
   public:
    EventId() = default;
    bool valid() const noexcept { return gen_ != 0; }

   private:
    friend class Scheduler;
    EventId(std::uint32_t slot, std::uint32_t gen) noexcept
        : slot_(slot), gen_(gen) {}
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;  // odd = was live when issued; 0 = null handle
  };

  /// Current simulation time. Monotonically non-decreasing.
  Time now() const noexcept { return now_; }

  /// Schedules `cb` to run at absolute time `t` (clamped to now()).
  EventId schedule_at(Time t, Callback cb);

  /// Schedules `cb` at absolute time `t` with an explicit tie-break key
  /// (must be < kLocalLane). Used by the parallel engine for cross-shard
  /// events: the key encodes (channel, message index), so same-time ordering
  /// is independent of when the message was drained from its channel.
  EventId schedule_at_keyed(Time t, std::uint64_t key, Callback cb);

  /// Schedules `cb` to run `delay` seconds from now (delay clamped to >= 0).
  EventId schedule_in(Time delay, Callback cb) {
    // A negative delay clamps to "now", but a non-finite delay must not:
    // NaN > 0 is false, so the clamp alone would silently turn a NaN delay
    // into zero. Forward it so schedule_at's finite guard rejects it.
    const bool non_finite = !(delay - delay == 0.0);
    return schedule_at(delay > 0 || non_finite ? now_ + delay : now_,
                       std::move(cb));
  }

  /// Cancels a pending event. Returns true iff the event was still pending
  /// (including events drained into the current dispatch batch but not yet
  /// run — exactly the events the unbatched loop could still cancel).
  bool cancel(EventId id);

  /// Pops and dispatches the earliest event. Returns false when none is left.
  bool run_next();

  /// Drains every event sharing the earliest timestamp and dispatches the
  /// run back-to-back. Dispatch order is identical to repeated run_next().
  /// Returns the number of events dispatched (0 when the queue is empty).
  std::size_t run_batch();

  /// Dispatches every event with time <= t, then advances the clock to t.
  void run_until(Time t);

  /// Dispatches every event with time strictly < t. Does NOT advance the
  /// clock to t: the parallel engine advances a shard to a safety horizon
  /// that is not a simulated instant of its own.
  void run_until_exclusive(Time t);

  /// Time of the earliest pending event; +infinity when none is pending.
  Time next_time() const noexcept;

  /// Dispatches events until the queue is empty or `max_events` were run.
  /// Returns the number of events dispatched.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Number of pending (non-cancelled, not-yet-dispatched) events. O(1):
  /// cancellation removes events eagerly, and events drained into the
  /// current batch still count until they actually run.
  std::size_t pending() const noexcept { return heap_.size() + batch_live_; }

  /// Total events dispatched so far (for micro-benchmarks and sanity checks).
  std::uint64_t dispatched() const noexcept { return dispatched_; }

  /// Runaway guard: dispatching more than this many consecutive events
  /// without simulated time advancing throws sim::StallError (a zero-delay
  /// event loop would otherwise hang the process without ever reaching a
  /// time-based watchdog). 0 disables the guard.
  void set_instant_event_limit(std::uint64_t limit) noexcept {
    instant_event_limit_ = limit;
  }
  std::uint64_t instant_event_limit() const noexcept {
    return instant_event_limit_;
  }

  /// Attaches a tracer for dispatch-level events (not owned; may be null).
  /// Emits "sched.dispatch" (kDebug) per dispatched event with the pending
  /// count — a firehose series, off unless debug tracing is requested.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

 private:
  /// heap_pos value for events drained into the current dispatch batch:
  /// live (cancellable) but no longer heap residents.
  static constexpr std::int32_t kInBatch = -2;

  /// One heap resident: the event's sort key and the slot it lives in.
  struct Entry {
    Time t;
    std::uint64_t seq;   // tie-break key (lane bit | counter, or explicit)
    std::uint32_t slot;
  };

  struct Slot {
    std::uint32_t gen = 0;       // odd while scheduled, even while free
    std::int32_t heap_pos = -1;  // index into heap_, -1 free, kInBatch drained
    Callback cb;
  };

  /// True when entry `a` dispatches before entry `b`.
  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  void heap_set(std::size_t pos, const Entry& e) noexcept {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = static_cast<std::int32_t>(pos);
  }
  /// Move `e` from the hole at `pos` towards the root (sift_up) or the
  /// leaves (sift_down) until the heap property holds, then store it.
  void sift_up(std::size_t pos, Entry e) noexcept;
  void sift_down(std::size_t pos, Entry e) noexcept;
  /// Removes the heap entry at `pos`, restoring the heap property.
  void heap_erase(std::size_t pos) noexcept;

  /// Returns a slot to the free list (bumps generation, drops the callback).
  void release_slot(std::uint32_t idx);

  /// Numeric sentinel: a NaN time would fail every heap comparison and
  /// silently corrupt event ordering (and NaN delays slip through the
  /// negative-delay clamp in schedule_in, since NaN compares false). One
  /// predictable branch inline; the throw stays out of line.
  void require_finite(Time t) const {
    if (!(t - t == 0.0)) throw_non_finite(t);  // NaN and +-inf, no libm call
  }
  [[noreturn]] void throw_non_finite(Time t) const;

  EventId emplace(Time t, std::uint64_t seq, Callback cb);

  /// Shared guts of run_next / run_batch: clock + stall accounting, slot
  /// release, dispatch trace, callback invocation for the event in `idx`,
  /// due at `t` (the time of the entry it was popped from).
  void dispatch_slot(std::uint32_t idx, Time t);

  std::vector<Slot> slots_;         // slot pool (high-water-mark sized)
  std::vector<std::uint32_t> free_; // recycled slot indices
  std::vector<Entry> heap_;         // 4-ary min-heap of live events
  /// Reusable (slot, generation) scratch for run_batch; generation detects
  /// cancellation (or slot reuse) between drain and dispatch.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> batch_;
  /// Drained-but-not-yet-run events of the current batch (pending() term).
  std::size_t batch_live_ = 0;
  obs::Tracer* tracer_ = nullptr;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
  /// Consecutive dispatches with now_ unchanged (runaway detection).
  std::uint64_t instant_streak_ = 0;
  std::uint64_t instant_event_limit_ = 20'000'000;
};

}  // namespace pert::sim
