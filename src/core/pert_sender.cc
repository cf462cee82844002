#include "core/pert_sender.h"

#include <algorithm>
#include <new>
#include <string>

#include "sim/sentinel.h"

namespace pert::core {

namespace {

PertState& st(void* priv) { return *static_cast<PertState*>(priv); }

void pert_init(tcp::CcHost& h, void* priv) {
  const auto* arg = static_cast<const PertParams*>(h.ops().init_arg);
  PertParams params = arg != nullptr ? *arg : PertParams{};
  params.validate();
  // Brace-init evaluates left to right, reproducing the legacy member
  // order: params, estimator, curve, then the RNG fork.
  new (priv) PertState{params, SrttEstimator(params.srtt_alpha),
                       ResponseCurve(params), h.net().rng().fork()};
}

void pert_release(void* priv) { st(priv).~PertState(); }

void maybe_adapt_pmax(tcp::CcHost& h, PertState& s) {
  // Self-configuring pro-activeness (Section 7 / Feng et al. [12]): if the
  // smoothed queueing delay sits above T_max the response is too timid —
  // additively raise pmax; below T_min it may be too aggressive —
  // multiplicatively decay it. Mirrors Adaptive RED's steering of max_p.
  if (h.now() - s.last_adapt < s.params.adapt_interval) return;
  s.last_adapt = h.now();
  const double tq = s.estimator.queueing_delay();
  double pmax = s.curve.pmax();
  if (tq > s.params.tmax_offset)
    pmax = std::min(s.params.pmax_max, pmax + std::min(0.01, pmax / 4.0));
  else if (tq < s.params.tmin_offset)
    pmax = std::max(s.params.pmax_min, pmax * 0.9);
  s.curve.set_pmax(pmax);
  if (obs::Tracer* tr = h.tracer();
      tr && tr->wants(obs::Category::kPert, obs::Severity::kInfo))
    tr->counter(h.now(), obs::Category::kPert, obs::Severity::kInfo,
                "pert.pmax", h.trace_id(), pmax);
}

void maybe_early_response(tcp::CcHost& h, PertState& s, double rtt) {
  if (!s.estimator.ready()) return;
  if (s.params.adaptive_pmax) maybe_adapt_pmax(h, s);
  const double tq = s.estimator.queueing_delay();
  obs::Tracer* tr = h.tracer();
  if (tr && tr->wants(obs::Category::kPert, obs::Severity::kInfo)) {
    tr->counter(h.now(), obs::Category::kPert, obs::Severity::kInfo,
                "pert.srtt99", h.trace_id(), s.estimator.srtt());
    tr->counter(h.now(), obs::Category::kPert, obs::Severity::kInfo,
                "pert.tq", h.trace_id(), tq);
    // 0 = below T_min (no response), 1 = between (probabilistic ramp),
    // 2 = above T_max (gentle / saturated region).
    const int region = tq < s.curve.tmin() ? 0 : (tq < s.curve.tmax() ? 1 : 2);
    if (region != s.trace_region) {
      s.trace_region = region;
      tr->instant(h.now(), obs::Category::kPert, obs::Severity::kInfo,
                  "pert.region", h.trace_id(), "region",
                  static_cast<double>(region), "tq", tq);
    }
  }
  const double p = s.curve.probability(tq);
  // Tracing never perturbs the RNG stream: the draw below happens with the
  // exact same call order whether or not a tracer is attached.
  const bool respond = p > 0.0 && s.rng.bernoulli(p);
  if (p > 0.0 && tr && tr->wants(obs::Category::kPert, obs::Severity::kDebug))
    tr->instant(h.now(), obs::Category::kPert, obs::Severity::kDebug,
                "pert.draw", h.trace_id(), "p", p, "respond",
                respond ? 1.0 : 0.0);
  if (!respond) return;
  // The effect of a reduction is not visible for one RTT; never respond
  // proactively while loss recovery is already reducing the window, and
  // keep the ACK clock alive at tiny windows.
  if (h.in_recovery()) return;
  if (h.cwnd() <= s.params.min_cwnd_for_response) return;
  if (s.params.limit_once_per_rtt && h.now() - s.last_early < rtt) return;
  h.multiplicative_decrease(s.params.early_beta);
  s.last_early = h.now();
  h.note_early_response();
  if (tr && tr->wants(obs::Category::kPert, obs::Severity::kInfo))
    tr->instant(h.now(), obs::Category::kPert, obs::Severity::kInfo,
                "pert.early_response", h.trace_id(), "p", p, "cwnd",
                h.cwnd());
}

void pert_on_rtt_sample(tcp::CcHost& h, void* priv, double rtt) {
  auto& s = st(priv);
  if (!s.params.use_one_way_delay) s.estimator.add_sample(rtt);
  maybe_early_response(h, s, rtt);
}

void pert_on_owd_sample(tcp::CcHost& /*h*/, void* priv, double owd) {
  auto& s = st(priv);
  if (s.params.use_one_way_delay) s.estimator.add_sample(owd);
}

std::string pert_invariants(const tcp::TcpSender& /*sender*/,
                            const void* priv) {
  const auto& s = *static_cast<const PertState*>(priv);
  if (std::string v = s.estimator.numeric_violation(); !v.empty()) return v;
  if (std::string v =
          sim::bounded_violation("pert.pmax", s.curve.pmax(), 0.0, 1.0);
      !v.empty())
    return v;
  return {};
}

}  // namespace

tcp::CongestionOps pert_ops(const PertParams& params) {
  tcp::CongestionOps ops;
  ops.name = "pert";
  ops.priv_size = sizeof(PertState);
  ops.init_arg = &params;
  ops.init = &pert_init;
  ops.release = &pert_release;
  ops.on_rtt_sample = &pert_on_rtt_sample;
  ops.on_owd_sample = &pert_on_owd_sample;
  ops.invariant_check = &pert_invariants;
  return ops;
}

}  // namespace pert::core
