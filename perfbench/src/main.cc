// perfbench_driver: runs one benchmark workload for a wall-clock budget and
// prints one JSON record as its last line of output (perfbench/run.py turns
// it into the benchmark result).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--digests FILE] [--tiny] [--perturb-digest]
//   perfbench_driver --self-test
//
// --trace 0 repeats plain cells of the workload and reports the end-to-end
// metrics (medians over cells). --trace 1 repeats a cycle of one plain
// reference cell, one cell built with the timing wrappers, and the cells the
// parallel-engine ratios need, and reports the per-layer metrics.
//
// Correctness gate: every cell checks its own ranges and queue conservation
// (cell.cc); the cells of a run must reproduce one digest per path (Tally),
// and when FILE pins a digest for this workload and seed, that one.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cell.h"
#include "runner/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int self_test();  // selftest.cc

namespace {

using perfbench::CellResult;
using perfbench::Workload;
using pert::runner::JsonValue;
using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double median_of(const std::vector<CellResult>& cells, F f) {
  std::vector<double> v;
  for (const CellResult& c : cells) v.push_back(f(c));
  return median(v);
}

double per(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Cells of one path must all reproduce the same digest: the pinned one,
// or else the first successful cell's. The classic scheduler and the
// parallel engine order simultaneous events differently, so a dumbbell's
// engine cells are held to their own digest (sim_threads=1 is the engine's
// oracle). Failures are counted and their reasons kept.
struct Tally {
  std::string expected;         ///< the workload's own path
  std::string engine_expected;  ///< dumbbell engine cells
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  /// `digest` is null for a set-up-only cell, which has no results.
  void check(CellResult& c, const std::string& label, std::string* digest) {
    ++attempted;
    if (c.ok && digest != nullptr) {
      if (digest->empty()) *digest = c.digest;
      if (c.digest != *digest) {
        c.ok = false;
        c.error = "digest " + c.digest + " != expected " + *digest;
      }
    }
    if (!c.ok) {
      ++failed;
      errors.push_back(label + ": " + c.error);
    }
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string digests;
  bool tiny = false;
  bool perturb = false;
  bool self_test = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value());
    else if (k == "--digests") a.digests = value();
    else if (k == "--tiny") a.tiny = true;
    else if (k == "--perturb-digest") a.perturb = true;
    else if (k == "--self-test") a.self_test = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a.self_test || !a.workload.empty();
}

// The digest pinned for (workload, seed) at full size, or "".
std::string pinned_digest(const Args& a) {
  if (a.digests.empty() || a.tiny) return {};
  std::ifstream f(a.digests);
  if (!f) throw std::runtime_error("cannot read " + a.digests);
  std::stringstream ss;
  ss << f.rdbuf();
  const JsonValue all = JsonValue::parse(ss.str());
  const JsonValue* w = all.find(a.workload);
  if (w == nullptr) return {};
  const JsonValue* d = w->find(std::to_string(a.seed));
  return d == nullptr ? std::string() : d->as_string();
}

JsonValue counters(const CellResult& c) {
  return JsonValue::Object{
      {"exp.nodes", JsonValue(std::uint64_t{c.nodes})},
      {"sim.events", JsonValue(c.events)},
      {"net.link_tx", JsonValue(c.links.departures)},
      {"net.queue.arrivals", JsonValue(c.links.arrivals)},
      {"net.queue.drops", JsonValue(c.links.drops)},
      {"net.queue.marks", JsonValue(c.links.marks)},
      {"net.forwarded", JsonValue(c.forwarded)},
      {"net.pool.allocs", JsonValue(c.pool_allocs)},
  };
}

// Median self time of each span of a cell: the phases the job body times,
// the body's remainder (teardown) and the runner's share of the cell.
JsonValue spans(const std::vector<CellResult>& cells) {
  return JsonValue::Object{
      {"build_s", median_of(cells, [](auto& c) { return c.build_s; })},
      {"warmup_s", median_of(cells, [](auto& c) { return c.warmup_s; })},
      {"measure_s", median_of(cells, [](auto& c) { return c.measure_s; })},
      {"collect_s", median_of(cells, [](auto& c) { return c.collect_s; })},
      {"teardown_s", median_of(cells,
                               [](auto& c) {
                                 return c.body_s - c.build_s - c.warmup_s -
                                        c.measure_s - c.collect_s;
                               })},
      {"runner_s", median_of(cells, [](auto& c) { return c.cell_s - c.body_s; })},
  };
}

// VmHWM, the peak resident set of this address space. getrusage's
// ru_maxrss is not used: Linux carries it across execve, so it would report
// the launching process's peak when that is larger.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Set-up-only builds spend at most this share of the budget: set-up is the
// cheapest part of a cell, so without them a run has few set-up samples.
constexpr double kSetupShare = 0.05;
constexpr std::size_t kMaxSetupSamples = 30;

// --trace 0: set-up samples, then plain cells while the next one fits in
// the budget (at least one).
JsonValue timed_run(const Workload& w, const Args& a, Tally& t,
                    JsonValue& extra) {
  const auto t0 = Clock::now();
  std::vector<double> setups;
  do {
    CellResult c = perfbench::run_cell(w, {.seed = a.seed, .build_only = true});
    t.check(c, "set-up " + std::to_string(setups.size()), nullptr);
    setups.push_back(c.build_s);
  } while (seconds_since(t0) < kSetupShare * a.seconds &&
           setups.size() < kMaxSetupSamples);

  std::vector<CellResult> cells;
  do {
    CellResult c = perfbench::run_cell(w, {.seed = a.seed});
    t.check(c, "cell " + std::to_string(cells.size()), &t.expected);
    setups.push_back(c.build_s);
    cells.push_back(std::move(c));
  } while (seconds_since(t0) + cells.back().cell_s <= a.seconds);

  // The measured-window rates are medians over every measured slice of the
  // run, which gives four samples per cell where a short run has only a
  // handful of cells.
  std::vector<double> sim_rates, pkt_rates;
  for (const CellResult& c : cells)
    for (std::size_t k = 0; k < c.slice_s.size(); ++k) {
      sim_rates.push_back(w.slice / c.slice_s[k]);
      pkt_rates.push_back(static_cast<double>(c.slice_pkts[k]) / c.slice_s[k]);
    }

  extra.set("counters", counters(cells.front()));
  extra.set("spans", spans(cells));
  extra.set("cells", JsonValue(std::uint64_t{cells.size()}));
  extra.set("slices", JsonValue(std::uint64_t{sim_rates.size()}));
  JsonValue::Array measure(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) measure[i] = cells[i].measure_s;
  extra.set("setup_samples", JsonValue(std::uint64_t{setups.size()}));
  extra.set("cell_measure_s", measure);
  return JsonValue::Object{
      {"setup_s", median(setups)},
      {"wall_s", median_of(cells, [](auto& c) { return c.cell_s; })},
      {"sim_s_per_wall_s", median(sim_rates)},
      {"pkts_per_s", median(pkt_rates)},
      {"peak_rss_mb", peak_rss_mb()},
  };
}

// --trace 1: cycles of reference, wrapped and engine cells while the next
// cycle fits in the budget (at least one).
JsonValue traced_run(const Workload& w, const Args& a, Tally& t,
                     JsonValue& extra) {
  std::vector<CellResult> ref, wrapped, all;
  std::vector<double> speedup, serial_ratio;
  const auto t0 = Clock::now();
  double cycle_s = 0;
  do {
    const auto t_cycle = Clock::now();
    const std::string cycle = "cycle " + std::to_string(ref.size()) + " ";
    CellResult r = perfbench::run_cell(w, {.seed = a.seed});
    t.check(r, cycle + "reference", &t.expected);
    CellResult x = perfbench::run_cell(w, {.seed = a.seed, .wrapped = true});
    t.check(x, cycle + "wrapped", &t.expected);
    if (w.topo == perfbench::Topology::kChain) {
      // The chain's own path is the engine at w.sim_threads.
      CellResult one = perfbench::run_cell(w, {.seed = a.seed, .sim_threads = 1});
      t.check(one, cycle + "sim_threads=1", &t.expected);
      speedup.push_back(one.measure_s / r.measure_s);
      serial_ratio.push_back(one.measure_s / r.measure_s);
      all.push_back(std::move(one));
    } else if (w.engine_capable()) {
      CellResult one = perfbench::run_cell(w, {.seed = a.seed, .sim_threads = 1});
      t.check(one, cycle + "sim_threads=1", &t.engine_expected);
      CellResult four = perfbench::run_cell(w, {.seed = a.seed, .sim_threads = 4});
      t.check(four, cycle + "sim_threads=4", &t.engine_expected);
      speedup.push_back(one.measure_s / four.measure_s);
      serial_ratio.push_back(one.measure_s / r.measure_s);
      all.push_back(std::move(one));
      all.push_back(std::move(four));
    } else {
      // Web sessions keep this dumbbell off the engine: sim_threads is not
      // selectable, so both ratios compare the default path with itself.
      speedup.push_back(1.0);
      serial_ratio.push_back(1.0);
    }
    all.push_back(r);
    all.push_back(x);
    ref.push_back(std::move(r));
    wrapped.push_back(std::move(x));
    cycle_s = seconds_since(t_cycle);
  } while (seconds_since(t0) + cycle_s <= a.seconds);

  const CellResult& r = ref.front();
  const CellResult& x = wrapped.front();
  const double measure = median_of(ref, [](auto& c) { return c.measure_s; });
  extra.set("counters", counters(r));
  extra.set("spans", spans(ref));
  extra.set("wrapped_spans", spans(wrapped));
  extra.set("cells", JsonValue(std::uint64_t{all.size()}));
  extra.set("engine_ratios_measured",
            JsonValue(w.topo == perfbench::Topology::kChain ||
                      w.engine_capable()));
  return JsonValue::Object{
      {"exp.build_s", median_of(ref, [](auto& c) { return c.build_s; })},
      {"exp.build_rss_mb",
       median_of(wrapped, [](auto& c) { return c.build_rss_mb; })},
      {"exp.nodes", static_cast<double>(r.nodes)},
      {"sim.events", static_cast<double>(r.events)},
      {"sim.events_per_pkt", per(r.events, r.links.departures)},
      {"sim.ns_per_event", measure * 1e9 / static_cast<double>(r.events)},
      {"sim.pending_max", static_cast<double>(r.pending_max)},
      {"sim.engine.speedup", median(speedup)},
      {"sim.engine.serial_ratio", median(serial_ratio)},
      {"net.qdisc.enqueue_ns", median_of(wrapped,
                                         [](auto& c) {
                                           return per(c.enqueue.ns,
                                                      c.enqueue.calls);
                                         })},
      {"net.qdisc.dequeue_ns", median_of(wrapped,
                                         [](auto& c) {
                                           return per(c.dequeue.ns,
                                                      c.dequeue.calls);
                                         })},
      {"net.qdisc.arrivals", static_cast<double>(x.bottleneck.arrivals)},
      {"net.qdisc.drops", static_cast<double>(x.bottleneck.drops)},
      {"net.qdisc.marks", static_cast<double>(x.bottleneck.marks)},
      {"net.forwarded", static_cast<double>(r.forwarded)},
      {"net.pool.allocs", static_cast<double>(r.pool_allocs)},
      {"tcp.cc.calls", static_cast<double>(x.cc_hook.calls)},
      {"tcp.cc.ns_per_call", median_of(wrapped,
                                       [](auto& c) {
                                         return per(c.cc_hook.ns,
                                                    c.cc_hook.calls);
                                       })},
      {"tcp.timeouts", static_cast<double>(x.timeouts)},
      {"tcp.loss_events", static_cast<double>(x.loss_events)},
      {"core.early_responses", static_cast<double>(x.early_responses)},
      {"runner.overhead_ms",
       median_of(all, [](auto& c) { return (c.cell_s - c.body_s) * 1e3; })},
      {"trace.overhead_s",
       median_of(wrapped, [](auto& c) { return c.cell_s; }) -
           median_of(ref, [](auto& c) { return c.cell_s; })},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    if (!parse(argc, argv, a)) {
      std::cerr << "usage: perfbench_driver --workload NAME --seed N "
                   "--seconds S --trace 0|1 [--digests FILE] [--tiny] "
                   "[--perturb-digest] | --self-test\n";
      return 2;
    }
    if (a.self_test) return self_test();
    const std::optional<Workload> w = perfbench::find_workload(a.workload,
                                                               a.tiny);
    if (!w) {
      std::cerr << "unknown workload " << a.workload << "\n";
      return 2;
    }
    Tally t;
    t.expected = pinned_digest(a);
    const bool pinned = !t.expected.empty();
    if (a.perturb) t.expected = pinned ? t.expected + "-perturbed" : "perturbed";

    JsonValue extra = JsonValue::Object{};
    const JsonValue metrics =
        a.trace != 0 ? traced_run(*w, a, t, extra) : timed_run(*w, a, t, extra);

    JsonValue errors = JsonValue::Array{};
    for (const std::string& e : t.errors) {
      std::cerr << "perfbench: " << e << "\n";
      errors.as_array().push_back(JsonValue(e));
    }
    JsonValue rec = JsonValue::Object{
        {"workload", JsonValue(a.workload)},
        {"seed", JsonValue(a.seed)},
        {"trace", JsonValue(a.trace)},
        {"size", JsonValue(a.tiny ? "tiny" : "full")},
        {"compiler", JsonValue(compiler())},
        {"build_type", JsonValue(PERFBENCH_BUILD_TYPE)},
        {"digest", JsonValue(t.expected)},
        {"engine_digest", JsonValue(t.engine_expected)},
        {"digest_pinned", JsonValue(pinned && !a.perturb)},
        {"attempted", JsonValue(t.attempted)},
        {"failed", JsonValue(t.failed)},
        {"errors", errors},
        {"metrics", metrics},
    };
    for (const auto& [k, v] : extra.as_object()) rec.set(k, v);
    std::cout << rec.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
