#include "core/pi_emulation.h"

#include <cmath>
#include <new>

namespace pert::core {

PiEmuDesign PiEmuDesign::for_path(double capacity_pps, double n_min,
                                  double rtt_max, double tq_ref,
                                  double sample_hz, double gain_boost) {
  sim::require_positive("PiEmuDesign::for_path", "capacity_pps", capacity_pps);
  sim::require_positive("PiEmuDesign::for_path", "n_min", n_min);
  sim::require_positive("PiEmuDesign::for_path", "rtt_max", rtt_max);
  sim::require_positive("PiEmuDesign::for_path", "tq_ref", tq_ref);
  sim::require_positive("PiEmuDesign::for_path", "sample_hz", sample_hz);
  sim::require_positive("PiEmuDesign::for_path", "gain_boost", gain_boost);
  PiEmuDesign d;
  d.tq_ref = tq_ref;
  d.sample_interval = 1.0 / sample_hz;
  // Theorem 2 (eq. (21)): zero of the controller at the TCP window pole.
  const double m = 2.0 * n_min / (rtt_max * rtt_max * capacity_pps);
  // Delay-based loop gain carries C^2 (not C^3 as in router TCP/PI).
  const double gain = std::pow(rtt_max, 3) * capacity_pps * capacity_pps /
                      (4.0 * n_min * n_min);
  const double k =
      gain_boost * m * std::sqrt(rtt_max * rtt_max * m * m + 1.0) / gain;
  d.a = k / m + k * d.sample_interval / 2.0;
  d.b = k / m - k * d.sample_interval / 2.0;
  return d;
}

namespace {

PertPiState& st(void* priv) { return *static_cast<PertPiState*>(priv); }

/// Periodic controller update (the timer callback). Re-derives the state
/// from the sender's priv blob — both addresses are stable for the
/// sender's lifetime.
void pi_sample(tcp::TcpSender& sender, PertPiState& s) {
  tcp::CcHost h(sender);
  if (s.estimator.ready()) {
    s.pi.update(s.estimator.queueing_delay());
    if (obs::Tracer* tr = h.tracer();
        tr && tr->wants(obs::Category::kPert, obs::Severity::kInfo)) {
      tr->counter(h.now(), obs::Category::kPert, obs::Severity::kInfo,
                  "pert_pi.prob", h.trace_id(), s.pi.probability());
      tr->counter(h.now(), obs::Category::kPert, obs::Severity::kInfo,
                  "pert_pi.tq", h.trace_id(), s.estimator.queueing_delay());
    }
  }
  s.sample_timer.schedule_in(s.pi.design().sample_interval);
}

void pert_pi_init(tcp::CcHost& h, void* priv) {
  const auto& cfg = *static_cast<const PertPiConfig*>(h.ops().init_arg);
  tcp::TcpSender* sender = &h.sender();
  cfg.design.validate();
  sim::require_in("PertPiSender", "srtt_alpha", cfg.srtt_alpha, 0.0, 1.0);
  sim::require_less("PertPiSender", "srtt_alpha", cfg.srtt_alpha, "1", 1.0);
  // Brace-init evaluates left to right, reproducing the legacy member
  // order: controller, estimator, RNG fork, then the timer.
  auto* s = new (priv) PertPiState{
      PiEmulator(cfg.design), SrttEstimator(cfg.srtt_alpha),
      h.net().rng().fork(),
      sim::Timer(h.net().sched(), [sender, priv] {
        pi_sample(*sender, *static_cast<PertPiState*>(priv));
      })};
  s->sample_timer.schedule_in(cfg.design.sample_interval);
}

void pert_pi_release(void* priv) { st(priv).~PertPiState(); }

void pert_pi_on_rtt_sample(tcp::CcHost& h, void* priv, double rtt) {
  auto& s = st(priv);
  s.estimator.add_sample(rtt);
  const double p = s.pi.probability();
  if (p <= 0.0 || !s.rng.bernoulli(p)) return;
  if (h.in_recovery() || h.cwnd() <= 2.0) return;
  if (h.now() - s.last_early < rtt) return;  // once per RTT
  h.multiplicative_decrease(s.pi.design().early_beta);
  s.last_early = h.now();
  h.note_early_response();
}

std::string pert_pi_invariants(const tcp::TcpSender& /*sender*/,
                               const void* priv) {
  const auto& s = *static_cast<const PertPiState*>(priv);
  if (std::string v = s.pi.numeric_violation(); !v.empty()) return v;
  if (std::string v = s.estimator.numeric_violation(); !v.empty()) return v;
  return {};
}

}  // namespace

tcp::CongestionOps pert_pi_ops(const PertPiConfig& cfg) {
  tcp::CongestionOps ops;
  ops.name = "pert-pi";
  ops.priv_size = sizeof(PertPiState);
  ops.init_arg = &cfg;
  ops.init = &pert_pi_init;
  ops.release = &pert_pi_release;
  ops.on_rtt_sample = &pert_pi_on_rtt_sample;
  ops.invariant_check = &pert_pi_invariants;
  return ops;
}

}  // namespace pert::core
