#include "wrappers.h"

#include <array>
#include <chrono>
#include <mutex>
#include <stdexcept>

#include "core/pert_params.h"
#include "core/pert_sender.h"
#include "net/network.h"
#include "net/qdisc_registry.h"
#include "tcp/cc_registry.h"

namespace perfbench {

namespace net = pert::net;
namespace tcp = pert::tcp;
namespace core = pert::core;

namespace {

constexpr int kSites = static_cast<int>(Site::kCount);
using Clock = std::chrono::steady_clock;

// Tallies of threads that have exited (engine workers live for one
// run_until call).
struct Totals {
  std::mutex mu;
  std::array<Tally, kSites> sum{};
};
Totals g_totals;

struct LocalTallies {
  std::array<Tally, kSites> t{};
  ~LocalTallies() {
    const std::lock_guard<std::mutex> lock(g_totals.mu);
    for (int i = 0; i < kSites; ++i) {
      g_totals.sum[i].calls += t[i].calls;
      g_totals.sum[i].ns += t[i].ns;
    }
  }
};
thread_local LocalTallies t_local;

class Stopwatch {
 public:
  explicit Stopwatch(Site site) : site_(site), t0_(Clock::now()) {}
  ~Stopwatch() {
    Tally& t = t_local.t[static_cast<int>(site_)];
    ++t.calls;
    t.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0_)
            .count());
  }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  Site site_;
  Clock::time_point t0_;
};

// Built during scenario construction, which runs on the calling thread.
std::vector<const net::Queue*> g_queues;
std::vector<const tcp::TcpSender*> g_senders;

// The function pointers of the PERT module; the trampolines call these.
const tcp::CongestionOps& pert_inner() {
  static const tcp::CongestionOps ops = [] {
    tcp::CongestionOps o = core::pert_ops(core::PertParams{});
    o.init_arg = nullptr;  // pointed at the temporary above
    return o;
  }();
  return ops;
}

void t_rtt(tcp::CcHost& h, void* priv, double rtt) {
  const Stopwatch sw(Site::kCcHook);
  pert_inner().on_rtt_sample(h, priv, rtt);
}
void t_owd(tcp::CcHost& h, void* priv, double owd) {
  const Stopwatch sw(Site::kCcHook);
  pert_inner().on_owd_sample(h, priv, owd);
}
void t_ack_event(tcp::CcHost& h, void* priv, const tcp::CcAck& a) {
  const Stopwatch sw(Site::kCcHook);
  pert_inner().ack_event(h, priv, a);
}
void t_on_ack(tcp::CcHost& h, void* priv, std::int64_t newly) {
  const Stopwatch sw(Site::kCcHook);
  pert_inner().on_ack(h, priv, newly);
}
void t_loss(tcp::CcHost& h, void* priv) {
  const Stopwatch sw(Site::kCcHook);
  pert_inner().on_loss_event(h, priv);
}
void t_ecn(tcp::CcHost& h, void* priv) {
  const Stopwatch sw(Site::kCcHook);
  pert_inner().on_ecn(h, priv);
}
double t_ssthresh(tcp::CcHost& h, void* priv) {
  const Stopwatch sw(Site::kCcHook);
  return pert_inner().ssthresh(h, priv);
}
void t_cwnd_event(tcp::CcHost& h, void* priv, tcp::CcEvent e) {
  const Stopwatch sw(Site::kCcHook);
  pert_inner().cwnd_event(h, priv, e);
}

template <class Fn>
void swap_hook(Fn& hook, Fn inner, Fn timed, const char* name) {
  if (hook == nullptr) return;
  if (hook != inner)
    throw std::invalid_argument(std::string("timed_pert_ops: hook ") + name +
                                " is not the PERT module's");
  hook = timed;
}

std::unique_ptr<net::Queue> wrap_queue(const char* inner,
                                       const net::QdiscContext& ctx) {
  auto q = std::make_unique<TimedQueue>(
      *ctx.sched, net::QdiscRegistry::instance().make(inner, ctx));
  g_queues.push_back(q.get());
  return q;
}

std::unique_ptr<net::Queue> make_timed_droptail(const net::QdiscContext& c) {
  return wrap_queue("droptail", c);
}
std::unique_ptr<net::Queue> make_timed_red(const net::QdiscContext& c) {
  return wrap_queue("red", c);
}

tcp::TcpSender* make_timed_pert(const tcp::CcContext& ctx) {
  const auto* pp = static_cast<const core::PertParams*>(ctx.pert_params);
  // Outlives the sender's constructor, which is where init reads it.
  const core::PertParams params = pp != nullptr ? *pp : core::PertParams{};
  tcp::TcpSender* s = ctx.net->add_agent<tcp::TcpSender>(
      nullptr, 0, *ctx.net, ctx.tcp, ctx.flow,
      timed_pert_ops(core::pert_ops(params)));
  g_senders.push_back(s);
  return s;
}

// SACK's ops table is empty, so there is nothing to time: the wrapper only
// records the sender.
tcp::TcpSender* make_timed_sack(const tcp::CcContext& ctx) {
  tcp::TcpSender* s =
      ctx.net->add_agent<tcp::TcpSender>(nullptr, 0, *ctx.net, ctx.tcp,
                                         ctx.flow);
  g_senders.push_back(s);
  return s;
}

}  // namespace

Tally tally(Site site) {
  const int i = static_cast<int>(site);
  const std::lock_guard<std::mutex> lock(g_totals.mu);
  return {g_totals.sum[i].calls + t_local.t[i].calls,
          g_totals.sum[i].ns + t_local.t[i].ns};
}

void reset_wrapper_state() {
  {
    const std::lock_guard<std::mutex> lock(g_totals.mu);
    g_totals.sum = {};
  }
  t_local.t = {};
  g_queues.clear();
  g_senders.clear();
}

const std::vector<const net::Queue*>& timed_queues() { return g_queues; }
const std::vector<const tcp::TcpSender*>& timed_senders() { return g_senders; }

void register_timing_wrappers() {
  static const net::QdiscRegistrar droptail(
      {"timed-droptail", "droptail with per-call timing", false,
       &make_timed_droptail});
  static const net::QdiscRegistrar red(
      {"timed-red", "red with per-call timing", true, &make_timed_red});
  static const tcp::CcRegistrar pert(
      {"timed-pert", "pert with per-hook timing", false, &make_timed_pert});
  static const tcp::CcRegistrar sack(
      {"timed-sack", "sack, senders recorded", false, &make_timed_sack});
}

TimedQueue::TimedQueue(pert::sim::Scheduler& sched,
                       std::unique_ptr<net::Queue> inner)
    : Queue(sched, inner->capacity_pkts()), inner_(std::move(inner)) {
  // The link installs its hooks on the outer queue; relay the inner
  // discipline's.
  inner_->on_drop = [this](const net::Packet& p, pert::sim::Time t) {
    if (on_drop) on_drop(p, t);
  };
  inner_->on_ready = [this] {
    if (on_ready) on_ready();
  };
}

void TimedQueue::enqueue(net::PacketPtr p) {
  const Stopwatch sw(Site::kEnqueue);
  inner_->enqueue(std::move(p));
}

net::PacketPtr TimedQueue::dequeue() {
  const Stopwatch sw(Site::kDequeue);
  return inner_->dequeue();
}

tcp::CongestionOps timed_pert_ops(tcp::CongestionOps ops) {
  const tcp::CongestionOps& in = pert_inner();
  swap_hook(ops.on_rtt_sample, in.on_rtt_sample, &t_rtt, "on_rtt_sample");
  swap_hook(ops.on_owd_sample, in.on_owd_sample, &t_owd, "on_owd_sample");
  swap_hook(ops.ack_event, in.ack_event, &t_ack_event, "ack_event");
  swap_hook(ops.on_ack, in.on_ack, &t_on_ack, "on_ack");
  swap_hook(ops.on_loss_event, in.on_loss_event, &t_loss, "on_loss_event");
  swap_hook(ops.on_ecn, in.on_ecn, &t_ecn, "on_ecn");
  swap_hook(ops.ssthresh, in.ssthresh, &t_ssthresh, "ssthresh");
  swap_hook(ops.cwnd_event, in.cwnd_event, &t_cwnd_event, "cwnd_event");
  return ops;
}

}  // namespace perfbench
