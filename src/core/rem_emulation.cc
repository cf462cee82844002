#include "core/rem_emulation.h"

#include <new>

namespace pert::core {

namespace {

PertRemState& st(void* priv) { return *static_cast<PertRemState*>(priv); }

/// Periodic price update (the timer callback).
void rem_sample(PertRemState& s) {
  if (s.estimator.ready()) s.rem.update(s.estimator.queueing_delay());
  s.sample_timer.schedule_in(s.rem.design().sample_interval);
}

void pert_rem_init(tcp::CcHost& h, void* priv) {
  const auto& cfg = *static_cast<const PertRemConfig*>(h.ops().init_arg);
  cfg.design.validate();
  sim::require_in("PertRemSender", "srtt_alpha", cfg.srtt_alpha, 0.0, 1.0);
  sim::require_less("PertRemSender", "srtt_alpha", cfg.srtt_alpha, "1", 1.0);
  // Brace-init evaluates left to right, reproducing the legacy member
  // order: price machine, estimator, RNG fork, then the timer.
  auto* s = new (priv) PertRemState{
      RemEmulator(cfg.design), SrttEstimator(cfg.srtt_alpha),
      h.net().rng().fork(),
      sim::Timer(h.net().sched(),
                 [priv] { rem_sample(*static_cast<PertRemState*>(priv)); })};
  s->sample_timer.schedule_in(cfg.design.sample_interval);
}

void pert_rem_release(void* priv) { st(priv).~PertRemState(); }

void pert_rem_on_rtt_sample(tcp::CcHost& h, void* priv, double rtt) {
  auto& s = st(priv);
  s.estimator.add_sample(rtt);
  const double p = s.rem.probability();
  if (p <= 0.0 || !s.rng.bernoulli(p)) return;
  if (h.in_recovery() || h.cwnd() <= 2.0) return;
  if (h.now() - s.last_early < rtt) return;  // once per RTT
  h.multiplicative_decrease(s.rem.design().early_beta);
  s.last_early = h.now();
  h.note_early_response();
}

std::string pert_rem_invariants(const tcp::TcpSender& /*sender*/,
                                const void* priv) {
  const auto& s = *static_cast<const PertRemState*>(priv);
  if (std::string v = s.rem.numeric_violation(); !v.empty()) return v;
  if (std::string v = s.estimator.numeric_violation(); !v.empty()) return v;
  return {};
}

}  // namespace

tcp::CongestionOps pert_rem_ops(const PertRemConfig& cfg) {
  tcp::CongestionOps ops;
  ops.name = "pert-rem";
  ops.priv_size = sizeof(PertRemState);
  ops.init_arg = &cfg;
  ops.init = &pert_rem_init;
  ops.release = &pert_rem_release;
  ops.on_rtt_sample = &pert_rem_on_rtt_sample;
  ops.invariant_check = &pert_rem_invariants;
  return ops;
}

}  // namespace pert::core
