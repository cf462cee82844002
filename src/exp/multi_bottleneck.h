// Multi-bottleneck chain (paper Figure 10): routers R1..R6 in a line; each
// router has a cloud of hosts. Cloud i sends to cloud i+1 (i = 1..5), and
// cloud 1 additionally sends long-haul traffic to cloud 6, so every inter-
// router link is a potential bottleneck shared by one-hop and six-hop flows.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/dumbbell.h"
#include "exp/scheme.h"
#include "net/network.h"

namespace pert::exp {

struct MultiBottleneckConfig {
  /// End-host CC module + hop-queue discipline + ECN. Assignable from a
  /// legacy `Scheme` enumerator or a parse_scheme_spec() result.
  SchemeSpec scheme = Scheme::kPert;
  std::int32_t num_routers = 6;
  std::int32_t hosts_per_cloud = 20;
  double router_link_bps = 150e6;
  double router_link_delay = 0.005;
  double access_bps = 1e9;
  double access_delay = 0.005;
  std::int32_t buffer_pkts = 0;  ///< 0 = BDP of one router hop
  double start_window = 50.0;
  std::uint64_t seed = 1;
  tcp::TcpConfig tcp;
  core::PertParams pert;
  /// Simulation watchdog (invariants + stall detector); enabled by default.
  sim::WatchdogOptions watchdog;
  /// Observability (tracing, metric registry, sampling). Off by default.
  obs::ObsConfig obs;
  /// Parallel engine worker threads. 0 (default) = classic single-scheduler
  /// path. >= 1 shards the chain one-shard-per-router-cloud (router i plus
  /// every host homed on it) and runs the conservative engine with the
  /// router-link propagation delay as lookahead; requires
  /// router_link_delay > 0. Results are byte-identical for every value.
  std::int32_t sim_threads = 0;

  /// Rejects an out-of-domain chain topology with sim::ConfigError before
  /// any node is built, including the nested TCP/PERT configs.
  void validate() const;
};

struct HopMetrics {
  double avg_queue_pkts = 0;
  double norm_queue = 0;
  double drop_rate = 0;
  double utilization = 0;
  double jain = 0;  ///< over the flows whose path starts at this hop
};

class MultiBottleneck {
 public:
  explicit MultiBottleneck(MultiBottleneckConfig cfg);

  /// Runs warmup then a measurement window; returns one entry per router
  /// pair (R1-R2, ..., R5-R6).
  std::vector<HopMetrics> measure_window(sim::Time warmup, sim::Time measure);

  net::Network& network() noexcept { return net_; }
  std::int32_t num_hops() const {
    return static_cast<std::int32_t>(hop_links_.size());
  }

  /// The installed watchdog, or nullptr when cfg.watchdog.enabled is false.
  sim::InvariantChecker* watchdog() noexcept { return checker_.get(); }

  /// The scenario's observability hub (tracer, registry, probes).
  obs::Observability& obs() noexcept { return obs_; }
  const obs::Observability& obs() const noexcept { return obs_; }

  /// Installs a probe (not owned); samples carry the hop index as their id.
  void add_probe(obs::Probe* p) { obs_.add_probe(p); }

 private:
  tcp::TcpSender* make_sender(net::FlowId flow);
  std::unique_ptr<net::Queue> make_queue();
  void sample_tick();
  void maybe_start_sampler();

  MultiBottleneckConfig cfg_;
  net::Network net_;
  std::int32_t buffer_pkts_ = 0;
  std::vector<net::Node*> routers_;
  std::vector<net::Link*> hop_links_;  ///< forward direction R_i -> R_{i+1}
  /// senders grouped by source hop: index 0..4 = cloud i -> cloud i+1,
  /// index 5 = cloud 1 -> cloud 6 long-haul.
  std::vector<std::vector<tcp::TcpSender*>> groups_;
  std::unique_ptr<sim::InvariantChecker> checker_;

  obs::Observability obs_;
  /// One recorder per hop, replacing the old ad-hoc q0/l0/acked0 snapshot
  /// vectors inside run().
  std::vector<WindowRecorder> recorders_;
  sim::Timer sampler_;
  bool sampler_started_ = false;
};

}  // namespace pert::exp
