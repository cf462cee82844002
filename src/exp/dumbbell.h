// Single-bottleneck (dumbbell) scenario builder + windowed measurement.
//
// Two routers joined by the bottleneck; every long-term flow and web session
// gets its own source and sink node on private access links, so per-flow RTTs
// are set by access-link delays exactly as in the paper's Section 2.2 setup.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pert_params.h"
#include "exp/scheme.h"
#include "exp/window_metrics.h"
#include "exp/window_recorder.h"
#include "net/impairment.h"
#include "net/network.h"
#include "obs/obs.h"
#include "sim/timer.h"
#include "sim/watchdog.h"
#include "tcp/tcp_sender.h"
#include "tcp/tcp_sink.h"
#include "traffic/web_session.h"

namespace pert::exp {

struct DumbbellConfig {
  /// End-host CC module + bottleneck discipline + ECN. Assignable from a
  /// legacy `Scheme` enumerator or a parse_scheme_spec() result.
  SchemeSpec scheme = Scheme::kPert;
  double bottleneck_bps = 150e6;
  /// End-to-end two-way propagation delay for flows without an explicit RTT.
  double rtt = 0.060;
  /// Per-flow RTTs for forward long-term flows; empty = all use `rtt`.
  std::vector<double> flow_rtts;
  std::int32_t num_fwd_flows = 10;
  std::int32_t num_rev_flows = 0;
  std::int32_t num_web_sessions = 0;
  /// 0 = auto: BDP in packets, at least 2x the number of flows (paper rule).
  std::int32_t buffer_pkts = 0;
  /// Access links run at this multiple of the bottleneck rate (>= 2).
  double access_multiplier = 4.0;
  /// Long-term flow start times are uniform in [0, start_window).
  double start_window = 50.0;
  /// Added to every flow/web start time: shifting the whole scenario later
  /// by a constant must not change what happens (the time-origin-shift
  /// metamorphic relation; callers add the same offset to warmup).
  double start_offset = 0.0;
  std::uint64_t seed = 1;
  /// First FlowId assigned; flow ids are labels carried in packets and must
  /// never influence control flow (the relabeling metamorphic relation).
  std::int32_t flow_id_base = 0;
  tcp::TcpConfig tcp;            ///< seg size etc.; ecn set per scheme
  core::PertParams pert;         ///< PERT knobs (ablations override)
  traffic::WebParams web;
  /// PI designs are derived from these bounds (both router PI and PERT/PI).
  double pi_target_delay = 0.003;
  /// Gain scale applied to the PERT/PI end-host controller design. Higher
  /// gain tracks the target delay tighter but worsens fairness (flows with
  /// a biased min-RTT estimate respond unequally); 0.5 balances the two and
  /// reproduces the paper's "slightly worse fairness at low RTT".
  double pert_pi_gain_boost = 0.5;
  /// Sampling frequency of the PERT/PI end-host controller (paper: 170 Hz).
  /// A config knob (not a constant) so time-rescaled twin scenarios can
  /// scale every time dimension consistently.
  double pert_pi_sample_hz = 170.0;
  /// Mix: fraction of forward long-term flows using plain SACK instead of
  /// the scheme under test (co-existence ablation). 0 = none.
  double nonproactive_fraction = 0.0;
  /// Non-congestion impairments applied to the forward bottleneck (loss,
  /// reordering, jitter, bit errors) and link flaps on the forward link.
  /// Default: none. Impairment randomness comes from a stream forked off the
  /// scenario RNG only when enabled, so clean runs are byte-identical to
  /// pre-impairment builds.
  net::ImpairmentConfig impair;
  /// Simulation watchdog (invariants + stall detector); enabled by default
  /// in every scenario. `watchdog.cancel` may point at a runner cancellation
  /// flag for cooperative wall-clock timeouts.
  sim::WatchdogOptions watchdog;
  /// Observability: structured tracing, metric registry, and the sampling
  /// cadence. Off by default; un-observed runs schedule no extra events and
  /// are byte-identical to pre-observability builds.
  obs::ObsConfig obs;
  /// Parallel engine worker threads. 0 (default) = the classic
  /// single-scheduler path, byte-identical to previous builds. >= 1
  /// partitions the topology into two router shards (one per bottleneck
  /// direction; the bottleneck propagation delay is their lookahead) plus
  /// kFlowShards endpoint shards (a fixed layout, independent of the
  /// thread count) and runs the
  /// conservative engine — results are byte-identical for every value, with
  /// sim_threads=1 as the oracle. Incompatible with web sessions, dynamic
  /// add_flows, the watchdog, and observability (see docs/performance.md).
  std::int32_t sim_threads = 0;

  /// Rejects an out-of-domain topology with sim::ConfigError before any
  /// node is built, including the nested TCP/PERT/impairment configs —
  /// a bad scenario must fail at construction, not mid-run.
  void validate() const;
};

class Dumbbell {
 public:
  /// Endpoint shards of a sharded (sim_threads >= 1) dumbbell. Fixed — NOT
  /// derived from sim_threads — so the event-key streams, and therefore the
  /// results, are identical whether 1 or 8 workers execute them.
  static constexpr std::int32_t kFlowShards = 8;

  explicit Dumbbell(DumbbellConfig cfg);

  /// Advances to `warmup`, then measures until `warmup + measure`.
  WindowMetrics measure_window(sim::Time warmup, sim::Time measure);

  net::Network& network() noexcept { return net_; }
  net::Queue& fwd_queue() noexcept { return *fwd_queue_; }
  net::Link& fwd_link() noexcept { return *fwd_link_; }
  tcp::TcpSender& fwd_sender(std::int32_t i) { return *fwd_senders_.at(i); }
  std::int32_t num_fwd() const {
    return static_cast<std::int32_t>(fwd_senders_.size());
  }
  const DumbbellConfig& config() const noexcept { return cfg_; }
  std::int32_t buffer_pkts() const noexcept { return buffer_pkts_; }

  /// The installed watchdog, or nullptr when cfg.watchdog.enabled is false.
  sim::InvariantChecker* watchdog() noexcept { return checker_.get(); }

  /// The scenario's observability hub (tracer, registry, probes).
  obs::Observability& obs() noexcept { return obs_; }
  const obs::Observability& obs() const noexcept { return obs_; }

  /// Installs a probe (not owned); it receives the periodic sample stream
  /// ("queue.len", "queue.delay", "tcp.cwnd", "tcp.srtt") and every trace
  /// event passing the tracer's filters.
  void add_probe(obs::Probe* p) { obs_.add_probe(p); }

  /// Goodput (acked payload bits/s) of forward flow i over the last
  /// measure_window(). Valid after measure_window().
  double flow_goodput(std::int32_t i) const { return goodputs_.at(i); }

  /// Creates and starts one more cohort of `n` forward flows at time `at`
  /// (dynamic-behavior experiment). Returns indices of the new flows.
  std::vector<std::int32_t> add_flows(std::int32_t n, sim::Time at);

  /// Stops flow i (no more data after current window drains): used to model
  /// departures in the dynamic experiment.
  void stop_flow(std::int32_t i);

  /// Acked packet count of flow i (for externally-managed measurement).
  std::int64_t flow_acked(std::int32_t i) const {
    return fwd_senders_.at(i)->snd_una();
  }

 private:
  std::unique_ptr<net::Queue> make_bottleneck_queue();
  tcp::TcpSender* make_sender(net::FlowId flow, bool force_sack);
  /// Periodic observability sample; self-rescheduling while active.
  void sample_tick();
  /// Starts the sampling timer once, iff anything is listening. Called at
  /// the head of measure_window() so probes installed after construction
  /// still get samples; never called on un-observed runs, keeping them
  /// event-for-event identical to pre-observability builds.
  void maybe_start_sampler();
  /// Builds one source/sink pair with the given one-way access delays and
  /// returns the started sender.
  tcp::TcpSender* add_flow_path(net::Node* edge_src, net::Node* edge_dst,
                                double rtt, net::FlowId flow, sim::Time start,
                                bool force_sack, bool reverse);

  DumbbellConfig cfg_;
  net::Network net_;
  net::Node* r1_ = nullptr;  ///< left router
  net::Node* r2_ = nullptr;  ///< right router
  net::Link* fwd_link_ = nullptr;
  net::Queue* fwd_queue_ = nullptr;
  std::int32_t buffer_pkts_ = 0;
  double bottleneck_delay_ = 0;

  std::vector<tcp::TcpSender*> fwd_senders_;
  std::vector<tcp::TcpSink*> fwd_sinks_;
  std::vector<tcp::TcpSender*> rev_senders_;
  std::vector<tcp::TcpSender*> web_senders_;
  std::vector<std::unique_ptr<traffic::WebSession>> web_sessions_;
  std::vector<double> goodputs_;
  net::FlowId next_flow_ = 0;
  /// Round-robin cursor assigning each flow path to an endpoint shard.
  std::int32_t next_flow_shard_ = 0;
  std::unique_ptr<sim::InvariantChecker> checker_;

  obs::Observability obs_;
  WindowRecorder recorder_;
  sim::Timer sampler_;
  bool sampler_started_ = false;
};

}  // namespace pert::exp
