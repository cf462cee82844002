// Timing wrappers the traced benchmark run installs through the library's
// public registries: a queue discipline that times every enqueue/dequeue of
// the discipline it wraps, and congestion-control modules that time every
// per-packet hook of the module they wrap. Both forward everything else
// untouched, so a wrapped cell must reproduce the unwrapped cell's digest.
//
// Timings are kept per thread (parallel-engine workers call into queues and
// senders concurrently) and folded into process-wide totals when a worker
// exits; read them only between Network::run_until calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/queue.h"
#include "tcp/cc_ops.h"
#include "tcp/tcp_sender.h"

namespace perfbench {

/// Calls and summed wall time of one instrumented call site.
struct Tally {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

enum class Site : int { kEnqueue, kDequeue, kCcHook, kCount };

/// Every thread's tally for `site`: exited workers plus the calling thread.
Tally tally(Site site);

/// Registers "timed-droptail" and "timed-red" (net::QdiscRegistry) and
/// "timed-pert" and "timed-sack" (tcp::CcRegistry). Idempotent.
void register_timing_wrappers();

/// Clears the tallies and the lists of built queues and senders; call
/// before building a wrapped scenario.
void reset_wrapper_state();

/// Queues and senders the wrapper factories built since the last reset:
/// the scenario's bottleneck queues and all of its senders.
const std::vector<const pert::net::Queue*>& timed_queues();
const std::vector<const pert::tcp::TcpSender*>& timed_senders();

/// Queue discipline wrapper: times the inner discipline's enqueue() and
/// dequeue() and forwards every observer to it.
class TimedQueue final : public pert::net::Queue {
 public:
  TimedQueue(pert::sim::Scheduler& sched,
             std::unique_ptr<pert::net::Queue> inner);

  void enqueue(pert::net::PacketPtr p) override;
  pert::net::PacketPtr dequeue() override;
  std::int32_t len_pkts() const noexcept override {
    return inner_->len_pkts();
  }
  std::int64_t len_bytes() const noexcept override {
    return inner_->len_bytes();
  }
  Stats snapshot() const override { return inner_->snapshot(); }
  std::string numeric_violation() const override {
    return inner_->numeric_violation();
  }
  double avg_estimate() const override { return inner_->avg_estimate(); }
  void set_tracer(pert::obs::Tracer* tracer,
                  std::uint32_t id) noexcept override {
    Queue::set_tracer(tracer, id);
    inner_->set_tracer(tracer, id);
  }

 private:
  std::unique_ptr<pert::net::Queue> inner_;
};

/// `ops` with every non-null per-packet hook replaced by a trampoline that
/// times the original; null hooks stay null (null selects the sender's
/// built-in behaviour). init/release/invariant_check pass through untimed.
/// Only tables whose hooks belong to core::pert_ops are supported; any
/// other non-null hook throws std::invalid_argument.
pert::tcp::CongestionOps timed_pert_ops(pert::tcp::CongestionOps ops);

}  // namespace perfbench
