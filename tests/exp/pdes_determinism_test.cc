// The parallel engine's whole contract: sim_threads is a *performance* knob.
// Reports from a sharded scenario must be identical — field for field, flow
// for flow — whatever the worker-thread count, with sim_threads=1 (the same
// sharded event streams, executed inline) as the oracle. These tests pin
// that contract at the scenario level; tools/check_pdes.sh pins it at the
// report-byte level in CI.
#include <gtest/gtest.h>

#include <vector>

#include "exp/dumbbell.h"
#include "exp/multi_bottleneck.h"
#include "sim/errors.h"

namespace pert::exp {
namespace {

DumbbellConfig dumbbell_cfg(std::int32_t threads) {
  DumbbellConfig c;
  c.scheme = Scheme::kPert;
  c.bottleneck_bps = 20e6;
  c.rtt = 0.060;
  c.num_fwd_flows = 12;  // > kFlowShards: several flows share a shard
  c.num_rev_flows = 2;
  c.start_window = 1.0;
  c.seed = 7;
  c.sim_threads = threads;
  return c;
}

TEST(PdesDeterminism, DumbbellResultsIndependentOfThreadCount) {
  Dumbbell d1(dumbbell_cfg(1));
  Dumbbell d4(dumbbell_cfg(4));
  const WindowMetrics m1 = d1.measure_window(2.0, 3.0);
  const WindowMetrics m4 = d4.measure_window(2.0, 3.0);
  EXPECT_EQ(m1, m4);
  ASSERT_EQ(d1.num_fwd(), d4.num_fwd());
  for (std::int32_t i = 0; i < d1.num_fwd(); ++i)
    EXPECT_EQ(d1.flow_goodput(i), d4.flow_goodput(i)) << "flow " << i;

  // A second window re-enters the engine after a completed run — the
  // shard clocks must rewind to the new horizon, not stay pinned at +inf.
  const WindowMetrics n1 = d1.measure_window(5.0, 2.0);
  const WindowMetrics n4 = d4.measure_window(5.0, 2.0);
  EXPECT_EQ(n1, n4);
  EXPECT_GT(n1.agg_goodput_bps, 0.0);
}

TEST(PdesDeterminism, DumbbellMixedSchemesStayDeterministic) {
  // The SACK/PERT co-existence mix exercises both sender types under the
  // sharded engine.
  DumbbellConfig c1 = dumbbell_cfg(1);
  c1.nonproactive_fraction = 0.5;
  DumbbellConfig c4 = dumbbell_cfg(4);
  c4.nonproactive_fraction = 0.5;
  Dumbbell d1(c1);
  Dumbbell d4(c4);
  EXPECT_EQ(d1.measure_window(2.0, 3.0), d4.measure_window(2.0, 3.0));
}

MultiBottleneckConfig chain_cfg(std::int32_t threads) {
  MultiBottleneckConfig c;
  c.scheme = Scheme::kPert;
  c.num_routers = 3;
  c.hosts_per_cloud = 3;
  c.router_link_bps = 20e6;
  c.start_window = 1.0;
  c.seed = 11;
  c.sim_threads = threads;
  return c;
}

TEST(PdesDeterminism, MultiBottleneckResultsIndependentOfThreadCount) {
  MultiBottleneck m1(chain_cfg(1));
  MultiBottleneck m2(chain_cfg(2));
  const std::vector<HopMetrics> h1 = m1.measure_window(2.0, 3.0);
  const std::vector<HopMetrics> h2 = m2.measure_window(2.0, 3.0);
  ASSERT_EQ(h1.size(), h2.size());
  for (std::size_t i = 0; i < h1.size(); ++i) {
    EXPECT_EQ(h1[i].avg_queue_pkts, h2[i].avg_queue_pkts) << "hop " << i;
    EXPECT_EQ(h1[i].norm_queue, h2[i].norm_queue) << "hop " << i;
    EXPECT_EQ(h1[i].drop_rate, h2[i].drop_rate) << "hop " << i;
    EXPECT_EQ(h1[i].utilization, h2[i].utilization) << "hop " << i;
    EXPECT_EQ(h1[i].jain, h2[i].jain) << "hop " << i;
  }
}

TEST(PdesDeterminism, EngineStatsPinThePublicationPeriod) {
  // At one worker every engine count is deterministic: each router-cloud
  // shard advances at most q = kPublishFraction * router_link_delay per
  // progressing round, so reaching T takes at least T / q such rounds.
  // Event counts match for every worker count.
  MultiBottleneck m1(chain_cfg(1));
  MultiBottleneck m2(chain_cfg(2));
  EXPECT_EQ(m1.network().engine_stats().size(), 3u);
  const double T = 2.0;
  m1.network().run_until(T);
  m2.network().run_until(T);
  const auto s1 = m1.network().engine_stats();
  const auto s2 = m2.network().engine_stats();
  ASSERT_EQ(s1.size(), 3u);
  ASSERT_EQ(s2.size(), 3u);
  const double q = sim::Engine::kPublishFraction * chain_cfg(1).router_link_delay;
  std::uint64_t events = 0;
  for (std::size_t s = 0; s < s1.size(); ++s) {
    EXPECT_GE(static_cast<double>(s1[s].rounds - s1[s].idle_rounds), T / q)
        << "shard " << s;
    EXPECT_EQ(s1[s].events, s2[s].events) << "shard " << s;
    events += s1[s].events;
  }
  EXPECT_EQ(events, m1.network().total_dispatched());
}

TEST(PdesDeterminism, ShardedRunActuallyMovesTraffic) {
  // Guard against a vacuous oracle: the sharded run must do real work.
  Dumbbell d(dumbbell_cfg(2));
  const WindowMetrics m = d.measure_window(2.0, 3.0);
  EXPECT_GT(m.agg_goodput_bps, 1e6);
  EXPECT_GT(m.utilization, 0.5);
}

TEST(PdesDeterminism, IncompatibleFeaturesAreRejectedUpFront) {
  DumbbellConfig web = dumbbell_cfg(2);
  web.num_web_sessions = 3;
  EXPECT_THROW(DumbbellConfig{web}.validate(), sim::ConfigError);

  DumbbellConfig obs = dumbbell_cfg(2);
  obs.obs.metrics = true;
  EXPECT_THROW(DumbbellConfig{obs}.validate(), sim::ConfigError);

  Dumbbell d(dumbbell_cfg(2));
  EXPECT_THROW(d.add_flows(2, 1.0), sim::ConfigError);
}

}  // namespace
}  // namespace pert::exp
