// Self-test of the timing wrappers (perfbench_driver --self-test): the
// wrappers must change nothing but the tallies, so the traced run measures
// the same simulation as the timed run.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/pert_params.h"
#include "core/pert_sender.h"
#include "net/pool.h"
#include "sim/scheduler.h"
#include "wrappers.h"

namespace {

namespace net = pert::net;
namespace tcp = pert::tcp;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

// A discipline whose every observer returns a recognisable value.
class FakeQueue final : public net::Queue {
 public:
  using Queue::Queue;
  void enqueue(net::PacketPtr) override { ++enqueued; }
  net::PacketPtr dequeue() override {
    ++dequeued;
    return nullptr;
  }
  std::int32_t len_pkts() const noexcept override { return 7; }
  std::int64_t len_bytes() const noexcept override { return 7000; }
  Stats snapshot() const override {
    Stats s;
    s.arrivals = 42;
    s.departures = 30;
    s.drops = 5;
    s.early_drops = 5;
    s.ecn_marks = 3;
    s.len_integral = 1.5;
    return s;
  }
  std::string numeric_violation() const override { return "fake violation"; }
  double avg_estimate() const override { return 3.25; }

  int enqueued = 0, dequeued = 0;
};

void queue_wrapper_forwards() {
  pert::sim::Scheduler sched;
  auto fake = std::make_unique<FakeQueue>(sched, 64);
  FakeQueue& inner = *fake;
  perfbench::reset_wrapper_state();
  perfbench::TimedQueue q(sched, std::move(fake));

  expect(q.len_pkts() == 7, "qdisc wrapper forwards len_pkts");
  expect(q.len_bytes() == 7000, "qdisc wrapper forwards len_bytes");
  expect(q.avg_estimate() == 3.25, "qdisc wrapper forwards avg_estimate");
  expect(q.numeric_violation() == "fake violation",
         "qdisc wrapper forwards numeric_violation");
  const net::Queue::Stats s = q.snapshot();
  expect(s.arrivals == 42 && s.departures == 30 && s.drops == 5 &&
             s.ecn_marks == 3 && s.len_integral == 1.5,
         "qdisc wrapper forwards snapshot");
  expect(q.capacity_pkts() == 64, "qdisc wrapper keeps the capacity");

  net::PacketPool pool;
  q.enqueue(pool.acquire());
  (void)q.dequeue();
  expect(inner.enqueued == 1 && inner.dequeued == 1,
         "qdisc wrapper passes enqueue/dequeue through");
  expect(perfbench::tally(perfbench::Site::kEnqueue).calls == 1 &&
             perfbench::tally(perfbench::Site::kDequeue).calls == 1,
         "qdisc wrapper counts one call each");

  int drops_seen = 0;
  q.on_drop = [&drops_seen](const net::Packet&, pert::sim::Time) {
    ++drops_seen;
  };
  inner.on_drop(net::Packet{}, 0.0);
  expect(drops_seen == 1, "qdisc wrapper relays the inner on_drop hook");
}

void cc_wrapper_keeps_nulls() {
  const pert::core::PertParams params;
  const tcp::CongestionOps in = pert::core::pert_ops(params);
  const tcp::CongestionOps out = perfbench::timed_pert_ops(in);
  auto same_nullness = [](auto a, auto b) {
    return (a == nullptr) == (b == nullptr);
  };
  expect(same_nullness(in.on_rtt_sample, out.on_rtt_sample) &&
             same_nullness(in.on_owd_sample, out.on_owd_sample) &&
             same_nullness(in.ack_event, out.ack_event) &&
             same_nullness(in.on_ack, out.on_ack) &&
             same_nullness(in.on_loss_event, out.on_loss_event) &&
             same_nullness(in.on_ecn, out.on_ecn) &&
             same_nullness(in.ssthresh, out.ssthresh) &&
             same_nullness(in.cwnd_event, out.cwnd_event),
         "cc wrapper leaves null hooks null and non-null hooks non-null");
  expect(in.on_ack == nullptr && in.on_ecn == nullptr,
         "pert's ops table leaves on_ack/on_ecn null (built-in behaviour)");
  expect(out.on_rtt_sample != in.on_rtt_sample,
         "cc wrapper replaces the non-null on_rtt_sample hook");
  expect(out.init == in.init && out.release == in.release &&
             out.invariant_check == in.invariant_check &&
             out.priv_size == in.priv_size && out.init_arg == in.init_arg,
         "cc wrapper passes init/release/invariant_check/priv through");

  const tcp::CongestionOps empty;
  const tcp::CongestionOps empty_out = perfbench::timed_pert_ops(empty);
  expect(empty_out.on_rtt_sample == nullptr && empty_out.on_ack == nullptr &&
             empty_out.ssthresh == nullptr,
         "cc wrapper of SACK's empty table stays empty");

  tcp::CongestionOps foreign = in;
  foreign.on_ack = [](tcp::CcHost&, void*, std::int64_t) {};
  bool threw = false;
  try {
    (void)perfbench::timed_pert_ops(foreign);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "cc wrapper rejects a hook it cannot forward");
}

}  // namespace

int self_test() {
  queue_wrapper_forwards();
  cc_wrapper_keeps_nulls();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
