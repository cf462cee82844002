// PERT: Probabilistic Early Response TCP emulating gentle RED (Section 3).
//
// On every ACK the sender updates srtt_0.99, maps the estimated queueing
// delay through the emulated RED curve to a response probability, and — at
// most once per RTT — performs a 35% multiplicative decrease. Packet losses
// keep the sender's built-in SACK fast-retransmit/recovery response (the
// module leaves those hooks null). Implemented as a CongestionOps module;
// `PertSender` is the typed wrapper exposing the legacy accessors.
#pragma once

#include <utility>

#include "core/pert_params.h"
#include "core/response_curve.h"
#include "core/srtt_estimator.h"
#include "sim/random.h"
#include "tcp/tcp_sender.h"

namespace pert::core {

/// Per-flow PERT state (the module's private-state slot).
struct PertState {
  /// "Never responded yet": far enough in the past that the once-per-RTT
  /// guard passes on the first opportunity.
  static constexpr sim::Time kNeverEarly = -1e18;

  PertParams params;
  SrttEstimator estimator;
  ResponseCurve curve;
  sim::Rng rng;
  sim::Time last_early = kNeverEarly;  ///< time of the last early response
  sim::Time last_adapt = 0.0;
  int trace_region = 0;  ///< last T_min/T_max region reported to the tracer
};

/// The ops table. init forks the network RNG (same construction-time
/// position as the legacy member initializer); same init_arg lifetime
/// contract as cubic_ops.
tcp::CongestionOps pert_ops(const PertParams& params);

class PertSender final : public tcp::TcpSender {
 public:
  PertSender(net::Network& net, tcp::TcpConfig cfg, net::FlowId flow,
             PertParams params = {})
      : tcp::TcpSender(net, std::move(cfg), flow, pert_ops(params)) {}

  const SrttEstimator& estimator() const noexcept {
    return state().estimator;
  }
  const PertParams& params() const noexcept { return state().params; }
  /// Current pmax (moves only when the adaptive extension is on).
  double cur_pmax() const noexcept { return state().curve.pmax(); }
  /// Current per-ACK response probability (diagnostics).
  double response_probability() const {
    return state().curve.probability(state().estimator.queueing_delay());
  }

 private:
  const PertState& state() const noexcept {
    return *static_cast<const PertState*>(cc_priv());
  }
  PertState& state() noexcept { return *static_cast<PertState*>(cc_priv()); }

  friend class SentinelTestPeer;  // NaN-injection tests for the sentinel layer
};

}  // namespace pert::core
