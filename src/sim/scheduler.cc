#include "sim/scheduler.h"

#include <cassert>
#include <limits>
#include <string>
#include <utility>

#include "sim/errors.h"

namespace pert::sim {

namespace {
// 4-ary heap: shallower than binary for the same size, so dispatch does
// fewer cache-missing levels; the 4-way min scan is branch-cheap.
constexpr std::size_t kArity = 4;
}  // namespace

// The sifts take the moving entry by value and are inlined into their
// callers, so it stays in registers. Copying a 24-byte entry through memory
// right after storing it field by field defeats store-to-load forwarding;
// an out-of-line sift_up that did so cost BM_SchedulerCancel about 20%.
inline void Scheduler::sift_up(std::size_t pos, Entry e) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_set(pos, heap_[parent]);
    pos = parent;
  }
  heap_set(pos, e);
}

inline void Scheduler::sift_down(std::size_t pos, Entry e) noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], e)) break;
    heap_set(pos, heap_[best]);
    pos = best;
  }
  heap_set(pos, e);
}

inline void Scheduler::heap_erase(std::size_t pos) noexcept {
  assert(pos < heap_.size());
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  const Entry moved = heap_[last];
  heap_.pop_back();
  // The moved-in element may need to travel either direction.
  if (pos > 0 && before(moved, heap_[(pos - 1) / kArity]))
    sift_up(pos, moved);
  else
    sift_down(pos, moved);
}

void Scheduler::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.gen += 1;  // odd -> even: any outstanding EventId for this slot is stale
  s.heap_pos = -1;
  s.cb = nullptr;
  free_.push_back(idx);
}

Scheduler::EventId Scheduler::emplace(Time t, std::uint64_t seq, Callback cb) {
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.gen += 1;  // even -> odd: live
  s.cb = std::move(cb);
  const Entry e{t, seq, idx};
  heap_.push_back(e);
  sift_up(heap_.size() - 1, e);  // records the entry's heap_pos in the slot
  return EventId{idx, s.gen};
}

void Scheduler::throw_non_finite(Time t) const {
  throw NumericError(
      "Scheduler: scheduled time is not finite",
      "now=" + std::to_string(now_) + " t=" + std::to_string(t) +
          " pending=" + std::to_string(pending()) + "\n");
}

Scheduler::EventId Scheduler::schedule_at(Time t, Callback cb) {
  assert(cb && "scheduling an empty callback");
  require_finite(t);
  if (t < now_) t = now_;
  return emplace(t, kLocalLane | next_seq_++, std::move(cb));
}

Scheduler::EventId Scheduler::schedule_at_keyed(Time t, std::uint64_t key,
                                                Callback cb) {
  assert(cb && "scheduling an empty callback");
  assert(key < kLocalLane && "explicit keys live below the local lane");
  require_finite(t);
  if (t < now_) t = now_;
  return emplace(t, key, std::move(cb));
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  assert(id.slot_ < slots_.size());
  Slot& s = slots_[id.slot_];
  // Generation mismatch: the event already ran or was cancelled (and the
  // slot possibly recycled for a newer event this handle must not touch).
  if (s.gen != id.gen_) return false;
  if (s.heap_pos == kInBatch) {
    // Drained into the current dispatch batch but not yet run. Releasing the
    // slot bumps its generation, so the batch loop skips it — exactly the
    // events repeated run_next() could still cancel at this point.
    assert(batch_live_ > 0);
    --batch_live_;
    release_slot(id.slot_);
    return true;
  }
  assert(s.heap_pos >= 0);
  heap_erase(static_cast<std::size_t>(s.heap_pos));
  release_slot(id.slot_);
  return true;
}

void Scheduler::dispatch_slot(std::uint32_t idx, Time t) {
  Slot& s = slots_[idx];
  assert(t >= now_);
  if (t > now_) {
    instant_streak_ = 0;
  } else if (instant_event_limit_ != 0 &&
             ++instant_streak_ > instant_event_limit_) {
    throw StallError(
        "scheduler: " + std::to_string(instant_streak_) +
            " consecutive events at t=" + std::to_string(now_) +
            " without time advancing (zero-delay event loop?)",
        "pending events: " + std::to_string(pending()) +
            "\ndispatched: " + std::to_string(dispatched_) +
            "\nsim time: " + std::to_string(now_));
  }
  now_ = t;
  // Move the callback out and free the slot *before* invoking: the callback
  // may schedule (growing slots_) or cancel, and must see itself as done.
  Callback cb = std::move(s.cb);
  release_slot(idx);
  ++dispatched_;
  if (tracer_ && tracer_->wants(obs::Category::kSched, obs::Severity::kDebug))
    tracer_->instant(now_, obs::Category::kSched, obs::Severity::kDebug,
                     "sched.dispatch", 0, "pending",
                     static_cast<double>(pending()));
  cb();
}

bool Scheduler::run_next() {
  if (heap_.empty()) return false;
  const Entry top = heap_[0];
  heap_erase(0);
  dispatch_slot(top.slot, top.t);
  return true;
}

std::size_t Scheduler::run_batch() {
  if (heap_.empty()) return 0;
  // Singleton fast path: most instants host exactly one event, and going
  // through the batch buffer would only add bookkeeping.
  const Entry top = heap_[0];
  {
    const std::size_t n = heap_.size();
    const std::size_t first = 1;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    bool tie = false;
    for (std::size_t c = first; c < last; ++c)
      if (heap_[c].t == top.t) {
        tie = true;
        break;
      }
    if (!tie) {
      heap_erase(0);
      dispatch_slot(top.slot, top.t);
      return 1;
    }
  }
  // Drain the whole same-timestamp run off the heap in one pop loop. Slots
  // stay live (heap_pos = kInBatch) so cancel() keeps exact semantics; the
  // generation snapshot detects cancellation before dispatch.
  const Time t = top.t;
  batch_.clear();
  while (!heap_.empty() && heap_[0].t == t) {
    const std::uint32_t idx = heap_[0].slot;
    heap_erase(0);
    slots_[idx].heap_pos = kInBatch;
    batch_.emplace_back(idx, slots_[idx].gen);
  }
  batch_live_ = batch_.size();
  std::size_t ran = 0;
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const auto [idx, gen] = batch_[i];
    if (slots_[idx].gen != gen) continue;  // cancelled mid-batch
    --batch_live_;
    dispatch_slot(idx, t);
    ++ran;
  }
  assert(batch_live_ == 0);
  return ran;
}

void Scheduler::run_until(Time t) {
  while (!heap_.empty() && heap_[0].t <= t) run_batch();
  if (now_ < t) now_ = t;
}

void Scheduler::run_until_exclusive(Time t) {
  while (!heap_.empty() && heap_[0].t < t) run_batch();
}

Time Scheduler::next_time() const noexcept {
  return heap_.empty() ? std::numeric_limits<Time>::infinity()
                       : heap_[0].t;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && run_next()) ++n;
  return n;
}

}  // namespace pert::sim
