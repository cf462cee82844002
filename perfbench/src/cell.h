// The benchmark's workloads and the execution of one cell of a workload.
//
// A cell is one scenario run through runner::ExperimentRunner with one
// thread: build, warmup, a measured window run as a fixed number of
// measure_window() slices, and metric collection. The benchmark records a
// span (wall time) at each of those call boundaries and reads the library's
// exact work counters before and after the measured window.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wrappers.h"

namespace perfbench {

enum class Topology { kDumbbell, kChain };

struct Workload {
  std::string name;
  Topology topo = Topology::kDumbbell;
  std::string cc;     ///< tcp::CcRegistry key
  std::string qdisc;  ///< net::QdiscRegistry key
  bool ecn = false;
  std::int32_t fwd_flows = 0;     ///< dumbbell
  std::int32_t rev_flows = 0;     ///< dumbbell
  std::int32_t web_sessions = 0;  ///< dumbbell
  std::int32_t hosts_per_cloud = 0;  ///< chain
  /// The scenario config's sim_threads; 0 keeps the config default.
  std::int32_t sim_threads = 0;
  double start_window = 2.0;
  double warmup = 5.0;
  double slice = 5.0;       ///< simulated seconds per measure_window() call
  std::int32_t slices = 4;  ///< measured window = slices * slice
  /// The parallel engine can run this scenario (no web sessions).
  bool engine_capable() const { return web_sessions == 0; }
};

/// The workload called `name` at full size, or shrunk to a few flows and a
/// few simulated seconds for the self-test. Nothing when the name is unknown.
std::optional<Workload> find_workload(const std::string& name, bool tiny);

struct CellOptions {
  std::uint64_t seed = 1;
  /// Build with the timing wrappers ("timed-<cc>", "timed-<qdisc>") and
  /// return memory to the OS first, so the build's RSS growth is visible.
  bool wrapped = false;
  /// >= 1: run on the parallel engine with this many threads (the watchdog
  /// is switched off, as the engine requires). 0: the workload's own path.
  std::int32_t sim_threads = 0;
  /// Stop after the constructor: a set-up sample without a simulation.
  bool build_only = false;
};

/// Exact counters summed over a set of queues.
struct QueueCounts {
  std::uint64_t arrivals = 0, departures = 0, drops = 0, marks = 0;
};

struct CellResult {
  bool ok = false;
  std::string error;  ///< runner error or correctness-gate failure
  std::string digest;  ///< hash of every slice's metrics and goodputs

  // Spans, wall seconds.
  double cell_s = 0;     ///< ExperimentRunner::run
  double body_s = 0;     ///< the job body, teardown included
  double build_s = 0;    ///< scenario constructor
  double warmup_s = 0;   ///< run to the end of warmup
  double measure_s = 0;  ///< sum of the measured slices
  double collect_s = 0;  ///< counter reads and correctness checks
  double build_rss_mb = 0;  ///< RSS growth across the constructor

  /// Per measured slice (Workload::slice simulated seconds): wall seconds
  /// and link transmissions (departures summed over every link).
  std::vector<double> slice_s;
  std::vector<std::uint64_t> slice_pkts;

  // Counters; "window" ones are deltas over the measured window.
  std::uint64_t nodes = 0;
  std::uint64_t events = 0;       ///< window: events dispatched
  std::uint64_t forwarded = 0;    ///< window: Node::forwarded() summed
  std::uint64_t pool_allocs = 0;  ///< window: packet pool misses
  std::uint64_t pending_max = 0;  ///< max pending events at slice ends
  QueueCounts links;              ///< window: every link's queue
  QueueCounts bottleneck;         ///< window: wrapped queues only
  std::uint64_t timeouts = 0, loss_events = 0,
                early_responses = 0;  ///< window: wrapped senders only
  Tally enqueue, dequeue, cc_hook;    ///< window: wrapper timings
};

/// Runs one cell. Never throws for a failure inside the simulation: the
/// runner's JobStatus and the correctness gate land in ok/error.
CellResult run_cell(const Workload& w, const CellOptions& o);

}  // namespace perfbench
