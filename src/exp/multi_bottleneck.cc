#include "exp/multi_bottleneck.h"

#include <algorithm>

#include "exp/invariants.h"
#include "net/qdisc_registry.h"
#include "sim/validate.h"
#include "stats/stats.h"
#include "tcp/cc_registry.h"

namespace pert::exp {

namespace {
constexpr std::int32_t kPort = 1;
}

void MultiBottleneckConfig::validate() const {
  ensure_scheme_modules();
  if (tcp::CcRegistry::instance().find(scheme.cc) == nullptr ||
      net::QdiscRegistry::instance().find(scheme.qdisc) == nullptr)
    throw sim::ConfigError(
        "MultiBottleneckConfig: unknown scheme '" + scheme.cc + "/" +
            scheme.qdisc + "'",
        "component=MultiBottleneckConfig param=scheme\n");
  // Below 3 routers there is no "middle" hop and the long-haul group
  // degenerates into the one-hop group; the chain topology needs >= 3.
  sim::require_at_least("MultiBottleneckConfig", "num_routers", num_routers, 3);
  sim::require_at_least("MultiBottleneckConfig", "hosts_per_cloud",
                        hosts_per_cloud, 1);
  sim::require_positive("MultiBottleneckConfig", "router_link_bps",
                        router_link_bps);
  sim::require_non_negative("MultiBottleneckConfig", "router_link_delay",
                            router_link_delay);
  sim::require_positive("MultiBottleneckConfig", "access_bps", access_bps);
  sim::require_non_negative("MultiBottleneckConfig", "access_delay",
                            access_delay);
  sim::require_at_least("MultiBottleneckConfig", "buffer_pkts", buffer_pkts,
                        0);
  sim::require_non_negative("MultiBottleneckConfig", "start_window",
                            start_window);
  sim::require_at_least("MultiBottleneckConfig", "sim_threads", sim_threads,
                        0);
  if (sim_threads > 0) {
    // Router links are the shard boundaries: their propagation delay is the
    // engine's lookahead and must be strictly positive.
    sim::require_positive("MultiBottleneckConfig", "router_link_delay",
                          router_link_delay);
    if (obs.any())
      throw sim::ConfigError(
          "MultiBottleneckConfig: observability is not supported with "
          "sim_threads > 0",
          "component=MultiBottleneckConfig param=obs sim_threads=" +
              std::to_string(sim_threads) + "\n");
  }
  tcp.validate();
  pert.validate();
}

MultiBottleneck::MultiBottleneck(MultiBottleneckConfig cfg)
    : cfg_(cfg),
      net_(cfg.seed),
      obs_(cfg.obs),
      sampler_(net_.sched(), [this] { sample_tick(); }) {
  cfg_.validate();
  if (cfg_.sim_threads > 0) {
    net_.set_shards(cfg_.num_routers);  // one shard per router cloud
    net_.set_sim_threads(cfg_.sim_threads);
  }
  cfg_.tcp.ecn = cfg_.scheme.ecn;

  const double seg_bytes = cfg_.tcp.seg_bytes();
  // Longest path RTT: access + all router hops + access, both ways.
  const double path_delay =
      2.0 * (2.0 * cfg_.access_delay +
             (cfg_.num_routers - 1) * cfg_.router_link_delay);
  if (cfg_.buffer_pkts > 0) {
    buffer_pkts_ = cfg_.buffer_pkts;
  } else {
    buffer_pkts_ = static_cast<std::int32_t>(std::max(
        {cfg_.router_link_bps * path_delay / (8.0 * seg_bytes),
         2.0 * cfg_.hosts_per_cloud * 2.0, 10.0}));
  }

  // Shard layout: router i, its hop queues, and every host homed on it live
  // in shard i (shard 0 when unsharded — the cursor is then a no-op). Only
  // the router-to-router links cross shards.
  const auto shard_of = [this](std::int32_t r) {
    return net_.sharded() ? r : 0;
  };

  for (std::int32_t i = 0; i < cfg_.num_routers; ++i) {
    net::Network::ShardCursor at_r(net_, shard_of(i));
    routers_.push_back(net_.add_node());
  }
  for (std::int32_t i = 0; i + 1 < cfg_.num_routers; ++i) {
    {
      net::Network::ShardCursor at_r(net_, shard_of(i));
      hop_links_.push_back(
          net_.add_link(routers_[i], routers_[i + 1], cfg_.router_link_bps,
                        cfg_.router_link_delay, make_queue()));
    }
    {
      net::Network::ShardCursor at_r(net_, shard_of(i + 1));
      net_.add_link(routers_[i + 1], routers_[i], cfg_.router_link_bps,
                    cfg_.router_link_delay, make_queue());
    }
  }

  net::FlowId flow = 0;
  // Groups 0..n-2: cloud i -> cloud i+1. Last group: cloud 0 -> last cloud.
  groups_.resize(static_cast<std::size_t>(cfg_.num_routers));
  auto add_group = [&](std::int32_t src_r, std::int32_t dst_r,
                       std::size_t group) {
    for (std::int32_t h = 0; h < cfg_.hosts_per_cloud; ++h) {
      net::Node* src;
      net::Node* dst;
      {
        net::Network::ShardCursor at_src(net_, shard_of(src_r));
        src = net_.add_node();
      }
      {
        net::Network::ShardCursor at_dst(net_, shard_of(dst_r));
        dst = net_.add_node();
      }
      // Access links are intra-shard by construction; add_duplex scopes each
      // direction's queue to its source shard.
      net_.add_duplex_droptail(src, routers_[src_r], cfg_.access_bps,
                               cfg_.access_delay, buffer_pkts_);
      net_.add_duplex_droptail(routers_[dst_r], dst, cfg_.access_bps,
                               cfg_.access_delay, buffer_pkts_);
      {
        net::Network::ShardCursor at_dst(net_, shard_of(dst_r));
        net_.add_agent<tcp::TcpSink>(dst, kPort, net_, cfg_.tcp);
      }
      net::Network::ShardCursor at_src(net_, shard_of(src_r));
      tcp::TcpSender* s = make_sender(flow++);
      src->bind(*s, kPort);
      s->connect(dst->id(), kPort);
      s->start(net_.rng().uniform(0.0, cfg_.start_window));
      groups_[group].push_back(s);
    }
  };
  for (std::int32_t i = 0; i + 1 < cfg_.num_routers; ++i)
    add_group(i, i + 1, static_cast<std::size_t>(i));
  add_group(0, cfg_.num_routers - 1,
            static_cast<std::size_t>(cfg_.num_routers - 1));

  net_.compute_routes();
  net_.finalize_shards();

  // The watchdog polls cross-shard state from one shard-0 timer; skip it
  // under the parallel engine (every sim_threads value skips, so the
  // determinism oracle matches).
  if (!net_.sharded())
    checker_ = install_standard_invariants(
        net_,
        [this] {
          std::vector<const tcp::TcpSender*> all;
          for (const auto& g : groups_)
            for (auto* s : g) all.push_back(s);
          return all;
        },
        cfg_.watchdog);

  // Wire the tracer through every layer (behavior-neutral when disabled).
  // Hop links and their queues report under the hop index.
  net_.sched().set_tracer(&obs_.tracer());
  for (std::size_t h = 0; h < hop_links_.size(); ++h)
    hop_links_[h]->set_tracer(&obs_.tracer(),
                              static_cast<std::uint32_t>(h));
  for (auto& g : groups_)
    for (auto* s : g) s->set_tracer(&obs_.tracer());
  recorders_.resize(hop_links_.size());
}

std::unique_ptr<net::Queue> MultiBottleneck::make_queue() {
  net::QdiscContext qc;
  qc.sched = &net_.sched();
  qc.capacity_pkts = buffer_pkts_;
  qc.link_bps = cfg_.router_link_bps;
  qc.pps = cfg_.router_link_bps / (8.0 * cfg_.tcp.seg_bytes());
  qc.ecn = cfg_.scheme.ecn;
  qc.n_flows = cfg_.hosts_per_cloud;
  // The chain keeps the historical hop-queue design point: rtt_max 200 ms
  // and a quarter-buffer backlog target, with no clamp note.
  qc.rtt_max = 0.2;
  qc.q_ref = buffer_pkts_ / 4.0;
  qc.q_ref_requested = qc.q_ref;
  qc.fork_rng = [this] { return net_.rng().fork(); };
  return net::QdiscRegistry::instance().make(cfg_.scheme.qdisc, qc);
}

tcp::TcpSender* MultiBottleneck::make_sender(net::FlowId flow) {
  tcp::CcContext cx;
  cx.net = &net_;
  cx.tcp = cfg_.tcp;
  cx.flow = flow;
  cx.pps = cfg_.router_link_bps / (8.0 * cfg_.tcp.seg_bytes());
  cx.n_flows = cfg_.hosts_per_cloud;
  // Historical chain design point: PERT/PI and PERT/REM controllers are
  // designed for a 200 ms RTT bound with their default target delay,
  // sampling frequency, and gain (no DumbbellConfig-style knobs here).
  cx.rtt_max = 0.2;
  cx.pert_params = &cfg_.pert;
  return tcp::CcRegistry::instance().make(cfg_.scheme.cc, cx);
}

void MultiBottleneck::maybe_start_sampler() {
  if (sampler_started_ || !obs_.sampling_active()) return;
  // validate() rejects observed sharded configs; this catches probes added
  // after construction, which would race the sampler across shards.
  if (net_.sharded())
    throw sim::ConfigError(
        "MultiBottleneck: observability sampling is not supported with "
        "sim_threads > 0",
        "component=MultiBottleneck param=obs\n");
  sampler_started_ = true;
  sampler_.schedule_in(obs_.config().sample_interval);
}

void MultiBottleneck::sample_tick() {
  const double t = net_.now();
  obs::Tracer& tr = obs_.tracer();
  for (std::size_t h = 0; h < hop_links_.size(); ++h) {
    const auto id = static_cast<std::uint32_t>(h);
    const double qlen =
        static_cast<double>(hop_links_[h]->queue().len_pkts());
    const double qdelay =
        qlen * cfg_.tcp.seg_bytes() * 8.0 / cfg_.router_link_bps;
    obs_.sample(t, "queue.len", id, qlen);
    obs_.sample(t, "queue.delay", id, qdelay);
    if (tr.wants(obs::Category::kQueue, obs::Severity::kInfo))
      tr.counter(t, obs::Category::kQueue, obs::Severity::kInfo,
                 "queue.delay", id, qdelay);
  }
  sampler_.schedule_in(obs_.config().sample_interval);
}

std::vector<HopMetrics> MultiBottleneck::measure_window(sim::Time warmup,
                                                        sim::Time measure) {
  maybe_start_sampler();
  net_.run_until(warmup);
  for (std::size_t h = 0; h < hop_links_.size(); ++h)
    recorders_[h].begin(hop_links_[h]->queue(), *hop_links_[h], groups_[h],
                        net_.now());

  net_.run_until(warmup + measure);

  std::vector<HopMetrics> out;
  for (std::size_t h = 0; h < hop_links_.size(); ++h) {
    const WindowMetrics w =
        recorders_[h].end(buffer_pkts_, cfg_.router_link_bps, net_.now());
    HopMetrics m;
    m.avg_queue_pkts = w.avg_queue_pkts;
    m.norm_queue = w.norm_queue;
    m.drop_rate = w.drop_rate;
    m.utilization = w.utilization;
    // Fairness over the one-hop group whose path starts at this hop.
    m.jain = w.jain;
    out.push_back(m);

    if (obs_.config().metrics) {
      const std::string hop = "hop" + std::to_string(h);
      obs::MetricRegistry& reg = obs_.registry();
      reg.counter("window." + hop + ".drops").add(w.drops);
      reg.gauge("window." + hop + ".avg_queue_pkts").set(w.avg_queue_pkts);
      reg.gauge("window." + hop + ".utilization").set(w.utilization);
      reg.gauge("window." + hop + ".jain").set(w.jain);
    }
  }
  return out;
}

}  // namespace pert::exp
