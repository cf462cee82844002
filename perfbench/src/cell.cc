#include "cell.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "exp/dumbbell.h"
#include "exp/multi_bottleneck.h"
#include "runner/runner.h"
#include "runner/seed.h"

namespace perfbench {

namespace exp = pert::exp;
namespace net = pert::net;
namespace runner = pert::runner;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kChainLinkBps = 150e6;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double rss_mb() {
  std::ifstream f("/proc/self/statm");
  long pages = 0, resident = 0;
  f >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

QueueCounts& operator+=(QueueCounts& a, const net::Queue::Stats& s) {
  a.arrivals += s.arrivals;
  a.departures += s.departures;
  a.drops += s.drops;
  a.marks += s.ecn_marks;
  return a;
}

QueueCounts operator-(const QueueCounts& a, const QueueCounts& b) {
  return {a.arrivals - b.arrivals, a.departures - b.departures,
          a.drops - b.drops, a.marks - b.marks};
}

Tally operator-(const Tally& a, const Tally& b) {
  return {a.calls - b.calls, a.ns - b.ns};
}

// Exact work counters of the whole network plus the wrapped layers.
struct Counters {
  std::uint64_t events = 0, forwarded = 0, pool_allocs = 0;
  QueueCounts links, bottleneck;
  std::uint64_t timeouts = 0, loss_events = 0, early_responses = 0;
  Tally enqueue, dequeue, cc_hook;
};

Counters read_counters(net::Network& n) {
  Counters c;
  c.events = n.total_dispatched();
  for (const net::Link* l : n.links()) c.links += l->queue().snapshot();
  for (std::size_t id = 0; id < n.num_nodes(); ++id)
    c.forwarded += n.node(static_cast<net::NodeId>(id))->forwarded();
  for (int s = 0; s < n.num_shards(); ++s) {
    const net::Network::ShardCursor at(n, s);
    c.pool_allocs += n.packet_pool().stats().allocations;
  }
  for (const net::Queue* q : timed_queues()) c.bottleneck += q->snapshot();
  for (const pert::tcp::TcpSender* s : timed_senders()) {
    const auto& st = s->flow_stats();
    c.timeouts += static_cast<std::uint64_t>(st.timeouts);
    c.loss_events += static_cast<std::uint64_t>(st.loss_events);
    c.early_responses += static_cast<std::uint64_t>(st.early_responses);
  }
  c.enqueue = tally(Site::kEnqueue);
  c.dequeue = tally(Site::kDequeue);
  c.cc_hook = tally(Site::kCcHook);
  return c;
}

std::uint64_t link_departures(const net::Network& n) {
  std::uint64_t total = 0;
  for (const net::Link* l : n.links()) total += l->queue().snapshot().departures;
  return total;
}

std::uint64_t pending_events(net::Network& n) {
  std::uint64_t total = 0;
  for (int s = 0; s < n.num_shards(); ++s) {
    const net::Network::ShardCursor at(n, s);
    total += n.sched().pending();
  }
  return total;
}

// Accumulates the bytes of every simulated result into the digest and
// applies the per-slice range checks.
class Gate {
 public:
  void add(double v, const char* what) {
    if (!std::isfinite(v)) fail(std::string(what) + " is not finite");
    char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    bytes_.append(b, sizeof v);
  }
  void add(std::uint64_t v) {
    char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    bytes_.append(b, sizeof v);
  }
  // Utilisation, Jain's index and drop rate are fractions; `slack` widens
  // the upper end (see utilization_slack).
  void fraction(double v, const char* what, double slack = 0.0) {
    add(v, what);
    if (v < 0.0 || v > 1.0 + slack + 1e-9)
      fail(std::string(what) + " = " + std::to_string(v) +
           " outside [0, 1]");
  }
  void fail(const std::string& why) {
    if (error_.empty()) error_ = why;
  }
  const std::string& error() const { return error_; }
  std::string digest() const {
    char b[17];
    std::snprintf(b, sizeof b, "%016llx",
                  static_cast<unsigned long long>(runner::fnv1a64(bytes_)));
    return b;
  }

 private:
  std::string bytes_;
  std::string error_;
};

// Window utilisation counts the bytes of transmissions that complete in the
// window, so a packet already on the wire when the window opens counts whole:
// the value may exceed 1 by one packet's serialisation time over the window.
double utilization_slack(double link_bps, double window) {
  return pert::tcp::TcpConfig{}.seg_bytes() * 8.0 / (link_bps * window);
}

void measure_slice(exp::Dumbbell& d, double t0, double len, Gate& g) {
  const exp::WindowMetrics m = d.measure_window(t0, len);
  g.add(m.duration, "duration");
  g.add(m.avg_queue_pkts, "avg_queue_pkts");
  g.add(m.norm_queue, "norm_queue");
  g.fraction(m.drop_rate, "drop_rate");
  g.fraction(m.utilization, "utilization",
             utilization_slack(d.config().bottleneck_bps, len));
  g.fraction(m.jain, "jain");
  g.add(m.agg_goodput_bps, "agg_goodput_bps");
  for (std::uint64_t v :
       {m.drops, m.congestion_drops, m.overflow_drops, m.injected_drops,
        m.ecn_marks, m.early_responses, m.timeouts, m.loss_events})
    g.add(v);
  for (std::int32_t i = 0; i < d.num_fwd(); ++i)
    g.add(d.flow_goodput(i), "flow goodput");
}

void measure_slice(exp::MultiBottleneck& mb, double t0, double len,
                   Gate& g) {
  for (const exp::HopMetrics& h : mb.measure_window(t0, len)) {
    g.add(h.avg_queue_pkts, "hop avg_queue_pkts");
    g.add(h.norm_queue, "hop norm_queue");
    g.fraction(h.drop_rate, "hop drop_rate");
    g.fraction(h.utilization, "hop utilization",
               utilization_slack(kChainLinkBps, len));
    g.fraction(h.jain, "hop jain");
  }
}

exp::SchemeSpec scheme(const Workload& w, const CellOptions& o) {
  const std::string prefix = o.wrapped ? "timed-" : "";
  return exp::SchemeSpec(w.name, prefix + w.cc, prefix + w.qdisc, w.ecn);
}

// Engine worker threads of the cell; 0 for the classic path.
std::int32_t engine_threads(const Workload& w, const CellOptions& o) {
  return o.sim_threads > 0 ? o.sim_threads : w.sim_threads;
}

// The engine runs without the watchdog, as it requires.
template <class Config>
void set_threads(Config& cfg, const Workload& w, const CellOptions& o) {
  if (const std::int32_t threads = engine_threads(w, o); threads > 0) {
    cfg.sim_threads = threads;
    cfg.watchdog.enabled = false;
  }
}

std::unique_ptr<exp::Dumbbell> build_dumbbell(
    const Workload& w, const CellOptions& o, std::uint64_t seed,
    const std::atomic<bool>* cancel) {
  exp::DumbbellConfig cfg;
  cfg.scheme = scheme(w, o);
  cfg.bottleneck_bps = 150e6;
  cfg.rtt = 0.060;
  cfg.num_fwd_flows = w.fwd_flows;
  cfg.num_rev_flows = w.rev_flows;
  cfg.num_web_sessions = w.web_sessions;
  cfg.start_window = w.start_window;
  cfg.seed = seed;
  cfg.watchdog.cancel = cancel;
  set_threads(cfg, w, o);
  return std::make_unique<exp::Dumbbell>(cfg);
}

std::unique_ptr<exp::MultiBottleneck> build_chain(
    const Workload& w, const CellOptions& o, std::uint64_t seed,
    const std::atomic<bool>* cancel) {
  exp::MultiBottleneckConfig cfg;
  cfg.scheme = scheme(w, o);
  cfg.num_routers = 6;
  cfg.hosts_per_cloud = w.hosts_per_cloud;
  cfg.router_link_bps = kChainLinkBps;
  cfg.router_link_delay = 0.005;
  cfg.access_bps = 1e9;
  cfg.access_delay = 0.005;
  cfg.start_window = w.start_window;
  cfg.seed = seed;
  cfg.watchdog.cancel = cancel;
  set_threads(cfg, w, o);
  return std::make_unique<exp::MultiBottleneck>(cfg);
}

// Host contention on a shared VM differs per CPU and moves slowly: a
// single-threaded run that the scheduler leaves on one CPU reads that CPU's
// luck for the whole run, a run spread over all of them reads their median.
// So each cell is pinned to the next allowed CPU in turn, and an engine cell
// gets every allowed CPU back after its build (the engine's workers inherit
// the mask). If the mask cannot be read or set, cells run where the
// scheduler puts them.
const cpu_set_t& allowed_cpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof s, &s) != 0) CPU_ZERO(&s);
    return s;
  }();
  return allowed;
}

void pin_to_next_cpu() {
  static int next = 0;
  const cpu_set_t& allowed = allowed_cpus();
  const int n = CPU_COUNT(&allowed);
  if (n == 0) return;
  int k = next++ % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && k-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)sched_setaffinity(0, sizeof one, &one);
      return;
    }
  }
}

void unpin() {
  const cpu_set_t& allowed = allowed_cpus();
  if (CPU_COUNT(&allowed) > 0)
    (void)sched_setaffinity(0, sizeof allowed, &allowed);
}

// The job body: every phase of one cell, with a span at each boundary.
template <class Scenario>
void run_phases(const Workload& w, const CellOptions& o,
                const runner::Job& job, CellResult& r) {
  const auto t_body = Clock::now();
  Gate gate;
  {
    const double rss0 = rss_mb();
    auto t = Clock::now();
    std::unique_ptr<Scenario> s;
    if constexpr (std::is_same_v<Scenario, exp::Dumbbell>)
      s = build_dumbbell(w, o, job.seed, job.cancel.flag());
    else
      s = build_chain(w, o, job.seed, job.cancel.flag());
    r.build_s = since(t);
    r.build_rss_mb = rss_mb() - rss0;
    if (engine_threads(w, o) > 0) unpin();
    net::Network& n = s->network();
    r.nodes = n.num_nodes();
    if (o.build_only) {
      s.reset();
      r.body_s = since(t_body);
      return;
    }

    t = Clock::now();
    n.run_until(w.warmup);
    r.warmup_s = since(t);

    t = Clock::now();
    const Counters c0 = read_counters(n);
    r.collect_s = since(t);

    std::uint64_t pkts = c0.links.departures;
    for (std::int32_t k = 0; k < w.slices; ++k) {
      t = Clock::now();
      measure_slice(*s, w.warmup + k * w.slice, w.slice, gate);
      const double wall = since(t);
      r.measure_s += wall;
      r.slice_s.push_back(wall);
      const std::uint64_t now = link_departures(n);
      r.slice_pkts.push_back(now - pkts);
      pkts = now;
      r.pending_max = std::max(r.pending_max, pending_events(n));
    }

    t = Clock::now();
    const Counters c1 = read_counters(n);
    r.events = c1.events - c0.events;
    r.forwarded = c1.forwarded - c0.forwarded;
    r.pool_allocs = c1.pool_allocs - c0.pool_allocs;
    r.links = c1.links - c0.links;
    r.bottleneck = c1.bottleneck - c0.bottleneck;
    r.timeouts = c1.timeouts - c0.timeouts;
    r.loss_events = c1.loss_events - c0.loss_events;
    r.early_responses = c1.early_responses - c0.early_responses;
    r.enqueue = c1.enqueue - c0.enqueue;
    r.dequeue = c1.dequeue - c0.dequeue;
    r.cc_hook = c1.cc_hook - c0.cc_hook;
    // Conservation on every queue: arrivals = departures + drops + backlog.
    for (const net::Link* l : n.links())
      if (std::string v = l->queue().conservation_violation(); !v.empty())
        gate.fail("queue conservation: " + v);
    r.collect_s += since(t);
  }  // teardown
  r.body_s = since(t_body);
  r.digest = gate.digest();
  if (!gate.error().empty())
    throw std::runtime_error("correctness gate: " + gate.error());
}

}  // namespace

std::optional<Workload> find_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "dumbbell-pert-1k") {
    w.cc = "pert";
    w.qdisc = "droptail";
    w.fwd_flows = tiny ? 20 : 1000;
  } else if (name == "dumbbell-web-red") {
    w.cc = "sack";
    w.qdisc = "red";
    w.ecn = true;
    w.fwd_flows = tiny ? 5 : 50;
    w.rev_flows = tiny ? 2 : 10;
    w.web_sessions = tiny ? 10 : 500;
  } else if (name == "chain-pert-4t") {
    w.topo = Topology::kChain;
    w.cc = "pert";
    w.qdisc = "droptail";
    w.hosts_per_cloud = tiny ? 3 : 20;
    w.sim_threads = 4;
  } else {
    return std::nullopt;
  }
  if (tiny) {
    w.start_window = 0.5;
    w.warmup = 1.0;
    w.slice = 0.5;
    w.slices = 2;
  }
  return w;
}

CellResult run_cell(const Workload& w, const CellOptions& o) {
  pin_to_next_cpu();
  if (o.wrapped) {
    register_timing_wrappers();
    malloc_trim(0);
  }
  reset_wrapper_state();
  CellResult r;
  runner::Job job;
  job.key = "perfbench/" + w.name;
  job.seed = runner::derive_seed(o.seed, job.key);
  job.run = [&w, &o, &r](const runner::Job& cell) {
    if (w.topo == Topology::kChain)
      run_phases<exp::MultiBottleneck>(w, o, cell, r);
    else
      run_phases<exp::Dumbbell>(w, o, cell, r);
    return runner::JobOutput{};
  };
  runner::RunnerOptions ro;
  ro.threads = 1;
  ro.progress = false;
  ro.name = "perfbench";
  runner::ExperimentRunner exec(ro);
  const auto t = Clock::now();
  const runner::RunReport report = exec.run({job});
  r.cell_s = since(t);
  const runner::JobResult& jr = report.results.at(0);
  r.ok = jr.ok;
  if (!jr.ok)
    r.error = std::string(runner::to_string(jr.status)) + ": " + jr.error;
  return r;
}

}  // namespace perfbench
