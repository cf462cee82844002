// String-keyed registry of congestion-control modules.
//
// A module registers a `CcInfo` — name, one-line summary, ECN preference,
// and a factory building a started-ready sender from a `CcContext` — and
// from then on `scheme=<name>/<qdisc>` resolves it from the CLI with no
// enum to extend. Topology builders (Dumbbell, MultiBottleneck) fill the
// context with their derived path constants (capacity, flow-count bound,
// RTT bound, target delay) so a module's controller design sees exactly the
// numbers the hard-wired switch used to compute.
//
// Registration happens two ways:
//   - built-in modules (sack, vegas, cubic, dctcp + the PERT family via
//     core::register_pert_cc_modules) are registered lazily on first
//     instance() access, which is immune to static-library dead-stripping;
//   - out-of-tree modules use a file-scope `CcRegistrar` (static
//     self-registration) in their own TU.
// Duplicate names are a sim::ConfigError — silently shadowing a scheme
// would corrupt every comparison that names it.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/network.h"
#include "tcp/tcp_config.h"

namespace pert::tcp {

class TcpSender;

/// Everything a module factory may need to build one sender. The topology
/// builder owns the referenced objects; the context is consumed during
/// construction only.
struct CcContext {
  net::Network* net = nullptr;
  /// Sender config with `ecn` already set for this flow.
  TcpConfig tcp;
  net::FlowId flow = 0;

  // --- path constants for controller designs (Theorem 2 etc.) ---
  double pps = 0.0;            ///< bottleneck capacity, packets/second
  double n_flows = 1.0;        ///< lower bound on competing flows
  double rtt_max = 0.2;        ///< upper bound on RTT, seconds
  double target_delay = 0.003; ///< queueing-delay target, seconds
  double gain_boost = 1.0;     ///< PERT/PI gain scale (DumbbellConfig knob)
  double sample_hz = 170.0;    ///< end-host controller sampling frequency

  /// PERT knobs (const core::PertParams*) when the builder carries them;
  /// opaque here because tcp/ cannot depend on core/. Null for builders
  /// without PERT configuration — the pert module then uses defaults.
  const void* pert_params = nullptr;
};

/// Factory: constructs the sender as a scheduler agent owned by `ctx.net`
/// (net->add_agent), returns the non-owning pointer.
using CcFactory = TcpSender* (*)(const CcContext& ctx);

struct CcInfo {
  std::string name;     ///< registry key, e.g. "cubic"
  std::string summary;  ///< one line for the `schemes` listing
  /// Module wants ECN-capable transport by default (DCTCP); a scheme spec
  /// may still override per combination.
  bool wants_ecn = false;
  CcFactory make = nullptr;
};

class CcRegistry {
 public:
  /// The process-wide registry; built-ins are registered on first access.
  static CcRegistry& instance();

  /// Registers a module. Throws sim::ConfigError for an empty/duplicate
  /// name or a null factory.
  void add(CcInfo info);

  /// Looks up a module; nullptr when unknown. The pointee is stable (the
  /// registry only grows).
  const CcInfo* find(const std::string& name) const;

  /// All registered modules, sorted by name.
  std::vector<CcInfo> list() const;

  /// Registered names, sorted (did-you-mean candidate set).
  std::vector<std::string> names() const;

  /// The closest registered name to `name`, or "" when none is plausible.
  std::string suggestion_for(const std::string& name) const;

  /// find() + factory call; unknown names throw sim::ConfigError with a
  /// did-you-mean suggestion when one exists.
  TcpSender* make(const std::string& name, const CcContext& ctx) const;

 private:
  CcRegistry() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<CcInfo>> modules_;  ///< stable pointees
};

/// File-scope static self-registration:
///   static const tcp::CcRegistrar reg({"mycc", "...", false, &make_mycc});
struct CcRegistrar {
  explicit CcRegistrar(CcInfo info) {
    CcRegistry::instance().add(std::move(info));
  }
};

}  // namespace pert::tcp
