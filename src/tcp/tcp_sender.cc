#include "tcp/tcp_sender.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "sim/sentinel.h"

namespace pert::tcp {

TcpSender::TcpSender(net::Network& net, TcpConfig cfg, net::FlowId flow)
    : TcpSender(net, cfg, flow, CongestionOps{}) {}

TcpSender::TcpSender(net::Network& net, TcpConfig cfg, net::FlowId flow,
                     const CongestionOps& ops)
    : net_(&net),
      cfg_(cfg),
      flow_(flow),
      ops_(ops),
      rto_timer_(net.sched(), [this] { on_rto(); }) {
  cfg_.validate();
  cwnd_ = cfg_.initial_cwnd;
  ssthresh_ = cfg_.initial_ssthresh;
  rto_ = cfg_.initial_rto;
  // Module init runs at the end of construction — the point where a CC
  // subclass's member initializers used to run, so RNG forks and timer
  // schedules happen in the legacy order.
  if (ops_.priv_size > 0) {
    const std::size_t n = (ops_.priv_size + sizeof(std::max_align_t) - 1) /
                          sizeof(std::max_align_t);
    cc_priv_ = std::make_unique<std::max_align_t[]>(n);
  }
  if (ops_.init) {
    CcHost h(*this);
    ops_.init(h, cc_priv());
  }
  ops_.init_arg = nullptr;  // construction-only; never leave it dangling
}

TcpSender::~TcpSender() {
  if (ops_.release && cc_priv_) ops_.release(cc_priv_.get());
}

void TcpSender::connect(net::NodeId dst, std::int32_t dst_port) {
  dst_ = dst;
  dst_port_ = dst_port;
}

void TcpSender::start(sim::Time at) {
  assert(dst_ != net::kNoNode && "connect() before start()");
  net_->sched().schedule_at(at, [this] { try_send(); });
}

void TcpSender::start_transfer(std::int64_t pkts, bool fresh_slow_start) {
  assert(pkts > 0);
  if (infinite_) {
    infinite_ = false;
    app_limit_ = next_seq_;
  }
  app_limit_ += pkts;
  complete_fired_ = false;
  if (fresh_slow_start) {
    cwnd_ = cfg_.initial_cwnd;
    ssthresh_ = cfg_.initial_ssthresh;
    dispatch_cwnd_event(CcEvent::kRestartTransfer);
  }
  try_send();
}

void TcpSender::receive(net::PacketPtr p) {
  if (!p->is_ack || p->flow != flow_) return;
  ++st_.acks_rx;

  if (p->ts_echo != sim::kNever) {
    const double sample = now() - p->ts_echo;
    if (sample >= 0) {
      update_rtt(sample);
      if (on_rtt_sample) on_rtt_sample(sample, now());
      if (ops_.on_rtt_sample) {
        CcHost h(*this);
        ops_.on_rtt_sample(h, cc_priv(), sample);
      }
    }
    if (p->ts_rx != sim::kNever && p->ts_rx >= p->ts_echo) {
      if (ops_.on_owd_sample) {
        CcHost h(*this);
        ops_.on_owd_sample(h, cc_priv(), p->ts_rx - p->ts_echo);
      }
    }
  }

  if (ops_.ack_event) {
    CcHost h(*this);
    CcAck a;
    a.newly = std::max<std::int64_t>(0, p->ack - snd_una_);
    a.ece = p->ece;
    ops_.ack_event(h, cc_priv(), a);
  }

  if (cfg_.ecn && p->ece) handle_ece();
  if (cfg_.sack && p->n_sack > 0) process_sack(*p);

  if (p->ack > snd_una_) {
    handle_new_ack(p->ack);
  } else if (p->ack == snd_una_ && has_data_outstanding()) {
    handle_dupack();
  }

  try_send();
  check_complete();
}

void TcpSender::update_rtt(double sample) {
  min_rtt_ = std::min(min_rtt_, sample);
  if (srtt_ < 0) {
    srtt_ = sample;
    rttvar_ = sample / 2.0;
  } else {
    const double err = sample - srtt_;
    srtt_ += err / 8.0;
    rttvar_ += (std::abs(err) - rttvar_) / 4.0;
  }
  rto_ = std::clamp(srtt_ + 4.0 * rttvar_, cfg_.min_rto, cfg_.max_rto);
  backoff_ = 1;
  if (tracer_ && tracer_->wants(obs::Category::kTcp, obs::Severity::kDebug)) {
    tracer_->counter(now(), obs::Category::kTcp, obs::Severity::kDebug,
                     "tcp.srtt", trace_id(), srtt_);
    tracer_->counter(now(), obs::Category::kTcp, obs::Severity::kDebug,
                     "tcp.cwnd", trace_id(), cwnd_);
  }
}

void TcpSender::handle_ece() {
  // One reduction per window of data (RFC 3168); recovery already reduced.
  if (in_recovery_ || next_seq_ <= ece_reduce_point_) return;
  if (ops_.on_ecn) {
    CcHost h(*this);
    ops_.on_ecn(h, cc_priv());
  } else {
    multiplicative_decrease(cfg_.loss_beta);
  }
  ece_reduce_point_ = next_seq_;
  pending_cwr_ = true;
  ++st_.ecn_responses;
  if (tracer_ && tracer_->wants(obs::Category::kTcp, obs::Severity::kInfo))
    tracer_->instant(now(), obs::Category::kTcp, obs::Severity::kInfo,
                     "tcp.ecn_response", trace_id(), "cwnd", cwnd_);
}

void TcpSender::multiplicative_decrease(double beta) {
  assert(beta > 0 && beta < 1);
  cwnd_ = std::max(1.0, cwnd_ * (1.0 - beta));
  ssthresh_ = std::max(2.0, cwnd_);
}

void TcpSender::process_sack(const net::Packet& ack) {
  for (std::int32_t i = 0; i < ack.n_sack; ++i) {
    const net::SackBlock& b = ack.sack[i];
    const std::int64_t lo = std::max(b.start, snd_una_);
    const std::int64_t hi = std::min(b.end, next_seq_);
    for (std::int64_t s = lo; s < hi; ++s) {
      std::uint8_t& f = flag(s);
      if (!(f & kSacked)) {
        // A sacked packet's original copy left the network.
        if (in_recovery_ && !(f & kLost)) --pipe_;
        f |= kSacked;
      }
    }
    highest_sacked_end_ = std::max(highest_sacked_end_, hi);
  }
  if (in_recovery_) advance_lost_marking();
}

void TcpSender::advance_lost_marking() {
  lost_hwm_ = std::max(lost_hwm_, snd_una_);
  for (; lost_hwm_ < highest_sacked_end_; ++lost_hwm_) {
    std::uint8_t& f = flag(lost_hwm_);
    if ((f & (kSacked | kLost)) == 0) {
      f |= kLost;
      --pipe_;
    }
  }
  if (pipe_ < 0) pipe_ = 0;
}

void TcpSender::rebuild_pipe() {
  // Mark losses below the highest SACK, then count what is still in flight.
  for (std::int64_t s = std::max(snd_una_, lost_hwm_);
       s < highest_sacked_end_; ++s) {
    std::uint8_t& f = flag(s);
    if ((f & (kSacked | kLost)) == 0) f |= kLost;
  }
  lost_hwm_ = std::max(lost_hwm_, highest_sacked_end_);
  pipe_ = 0;
  for (std::int64_t s = snd_una_; s < next_seq_; ++s) pipe_ += counted(flag(s));
}

void TcpSender::handle_new_ack(std::int64_t ack) {
  assert(ack <= next_seq_);
  const std::int64_t newly = ack - snd_una_;
  if (in_recovery_ && (cfg_.sack || rto_recovery_)) {
    // Everything below the cumulative ack has left the network.
    for (std::int64_t s = snd_una_; s < ack; ++s) pipe_ -= counted(flag(s));
    if (pipe_ < 0) pipe_ = 0;
  }
  sb_.erase(sb_.begin(), sb_.begin() + static_cast<std::ptrdiff_t>(newly));
  snd_una_ = ack;
  if (scan_ < snd_una_) scan_ = snd_una_;
  if (lost_hwm_ < snd_una_) lost_hwm_ = snd_una_;
  if (highest_sacked_end_ < snd_una_) highest_sacked_end_ = snd_una_;
  dupacks_ = 0;
  restart_rto_timer();

  if (in_recovery_) {
    if (ack >= recovery_point_) {
      exit_recovery();
      return;
    }
    if (rto_recovery_) {
      // Post-timeout resend proceeds under normal slow start.
      dispatch_ack(newly);
    } else if (!cfg_.sack) {
      // NewReno partial ack: retransmit the next hole, deflate by the
      // amount acked, re-inflate by one for the retransmission.
      cwnd_ = std::max(1.0, newreno_base_cwnd_ - static_cast<double>(newly) + 1.0);
      newreno_base_cwnd_ = cwnd_;
      send_segment(snd_una_, /*rexmit=*/true);
    }
    return;
  }
  dispatch_ack(newly);
}

void TcpSender::dispatch_ack(std::int64_t newly) {
  if (ops_.on_ack) {
    CcHost h(*this);
    ops_.on_ack(h, cc_priv(), newly);
    return;
  }
  default_reno_ack(newly);
}

void TcpSender::default_reno_ack(std::int64_t newly) {
  for (std::int64_t i = 0; i < newly; ++i) {
    if (cwnd_ < ssthresh_)
      cwnd_ += 1.0;  // slow start
    else
      cwnd_ += 1.0 / cwnd_;  // congestion avoidance
  }
  cwnd_ = std::min(cwnd_, cfg_.max_cwnd);
}

void TcpSender::dispatch_loss_event() {
  if (ops_.on_loss_event) {
    CcHost h(*this);
    ops_.on_loss_event(h, cc_priv());
  }
}

void TcpSender::dispatch_cwnd_event(CcEvent e) {
  if (ops_.cwnd_event) {
    CcHost h(*this);
    ops_.cwnd_event(h, cc_priv(), e);
  }
}

void TcpSender::handle_dupack() {
  ++dupacks_;
  if (in_recovery_) {
    if (!cfg_.sack && !rto_recovery_) cwnd_ += 1.0;  // NewReno inflation
    return;  // SACK pipe is maintained by process_sack()
  }
  if (dupacks_ >= cfg_.dupthresh) enter_recovery();
}

void TcpSender::enter_recovery() {
  ++st_.loss_events;
  if (on_loss_event) on_loss_event(now());
  dispatch_loss_event();  // cwnd still holds its pre-loss value here

  in_recovery_ = true;
  rto_recovery_ = false;
  recovery_point_ = next_seq_;
  double target = cwnd_ * (1.0 - cfg_.loss_beta);
  if (ops_.ssthresh) {
    CcHost h(*this);
    target = ops_.ssthresh(h, cc_priv());
  }
  ssthresh_ = std::max(2.0, target);
  cwnd_ = ssthresh_;
  scan_ = snd_una_;
  if (tracer_ && tracer_->wants(obs::Category::kTcp, obs::Severity::kInfo))
    tracer_->instant(now(), obs::Category::kTcp, obs::Severity::kInfo,
                     "tcp.enter_recovery", trace_id(), "cwnd", cwnd_,
                     "recovery_point", static_cast<double>(recovery_point_));

  if (cfg_.sack) {
    rebuild_pipe();
    // try_send() (caller) retransmits holes as pipe allows; guarantee the
    // first hole goes out immediately even if pipe >= cwnd.
    if (pipe_ >= static_cast<std::int64_t>(cwnd_)) {
      const std::int64_t hole = next_hole();
      if (hole >= 0) {
        send_segment(hole, /*rexmit=*/true);
        ++pipe_;
      }
    }
  } else {
    newreno_base_cwnd_ = cwnd_;
    send_segment(snd_una_, /*rexmit=*/true);
    cwnd_ += static_cast<double>(dupacks_);  // inflate by dupacks seen
  }
  dispatch_cwnd_event(CcEvent::kEnterRecovery);
}

void TcpSender::exit_recovery() {
  in_recovery_ = false;
  rto_recovery_ = false;
  cwnd_ = ssthresh_;
  pipe_ = 0;
  dupacks_ = 0;
  if (tracer_ && tracer_->wants(obs::Category::kTcp, obs::Severity::kInfo))
    tracer_->instant(now(), obs::Category::kTcp, obs::Severity::kInfo,
                     "tcp.exit_recovery", trace_id(), "cwnd", cwnd_);
  dispatch_cwnd_event(CcEvent::kExitRecovery);
}

void TcpSender::on_rto() {
  if (!has_data_outstanding()) return;
  ++st_.timeouts;
  if (tracer_ && tracer_->wants(obs::Category::kTcp, obs::Severity::kWarn))
    tracer_->instant(now(), obs::Category::kTcp, obs::Severity::kWarn,
                     "tcp.rto", trace_id(), "backoff",
                     static_cast<double>(backoff_), "outstanding",
                     static_cast<double>(next_seq_ - snd_una_));
  if (on_loss_event) on_loss_event(now());
  dispatch_loss_event();  // cwnd still holds its pre-timeout value here

  // Every module keeps the flightsize/2 RTO rule (observe kRto to react).
  ssthresh_ = std::max(2.0, static_cast<double>(next_seq_ - snd_una_) / 2.0);
  cwnd_ = 1.0;
  dupacks_ = 0;

  // Go-back-N: clear SACK state (RFC 6675 §5.1), deem everything
  // outstanding lost, and resend from snd_una under slow start, driven by
  // the recovery hole-scan.
  std::fill(sb_.begin(), sb_.end(), std::uint8_t{kLost});
  highest_sacked_end_ = snd_una_;
  lost_hwm_ = next_seq_;
  in_recovery_ = true;
  rto_recovery_ = true;
  recovery_point_ = next_seq_;
  pipe_ = 0;
  scan_ = snd_una_;

  backoff_ = std::min(backoff_ * 2, 64);
  rto_timer_.schedule_in(std::min(rto_ * backoff_, cfg_.max_rto));
  dispatch_cwnd_event(CcEvent::kRto);
  try_send();
}

std::int64_t TcpSender::next_hole() {
  const std::int64_t bound =
      rto_recovery_ ? recovery_point_ : highest_sacked_end_;
  while (scan_ < bound && scan_ < next_seq_) {
    if ((flag(scan_) & (kSacked | kRexmit)) == 0) return scan_;
    ++scan_;
  }
  return -1;
}

void TcpSender::try_send() {
  const auto wnd = std::min(static_cast<std::int64_t>(cwnd_),
                            static_cast<std::int64_t>(cfg_.rwnd));
  std::int64_t burst_budget =
      cfg_.max_burst > 0 ? cfg_.max_burst
                         : std::numeric_limits<std::int64_t>::max();
  if (in_recovery_ && (cfg_.sack || rto_recovery_)) {
    while (pipe_ < wnd && burst_budget-- > 0) {
      const std::int64_t hole = next_hole();
      if (hole >= 0) {
        send_segment(hole, /*rexmit=*/true);
        ++pipe_;
        continue;
      }
      if (next_seq_ < app_limit_) {
        send_segment(next_seq_, /*rexmit=*/false);
        ++next_seq_;
        sb_.push_back(0);
        ++pipe_;
        continue;
      }
      break;
    }
  } else {
    // RFC 3042 limited transmit: the first two dupacks each permit one new
    // segment beyond cwnd to keep the ACK clock alive.
    std::int64_t wnd_eff = wnd;
    if (cfg_.limited_transmit && !in_recovery_)
      wnd_eff += std::min<std::int64_t>(dupacks_, 2);
    while (next_seq_ - snd_una_ < wnd_eff && next_seq_ < app_limit_ &&
           burst_budget-- > 0) {
      send_segment(next_seq_, /*rexmit=*/false);
      ++next_seq_;
      sb_.push_back(0);
    }
  }
  if (has_data_outstanding() && !rto_timer_.pending()) restart_rto_timer();
}

void TcpSender::send_segment(std::int64_t seq, bool rexmit) {
  auto p = net_->make_packet();
  p->flow = flow_;
  p->dst = dst_;
  p->dst_port = dst_port_;
  p->src_port = port();
  p->size_bytes = cfg_.seg_bytes();
  p->seq = seq;
  p->is_ack = false;
  p->ecn = cfg_.ecn ? net::Ecn::Ect0 : net::Ecn::NotEct;
  p->ts_echo = now();
  if (pending_cwr_) {
    p->cwr = true;
    pending_cwr_ = false;
  }
  if (rexmit && seq >= snd_una_ && seq < next_seq_) flag(seq) |= kRexmit;

  ++st_.data_pkts_sent;
  if (rexmit) ++st_.rexmits;
  node()->send(std::move(p));
}

void TcpSender::restart_rto_timer() {
  rto_timer_.cancel();
  if (has_data_outstanding())
    rto_timer_.schedule_in(std::min(rto_ * backoff_, cfg_.max_rto));
}

void TcpSender::check_complete() {
  if (infinite_ || complete_fired_ || snd_una_ < app_limit_) return;
  complete_fired_ = true;
  if (on_transfer_complete) on_transfer_complete();
}

std::string TcpSender::invariant_violation() const {
  // Generous ceiling: no scenario in this repo reaches a million-packet
  // window; anything near it means runaway window growth.
  constexpr double kCwndCeiling = 1e6;
  if (!std::isfinite(cwnd_) || cwnd_ < 1.0 - 1e-9)
    return "cwnd out of range: " + std::to_string(cwnd_);
  if (cwnd_ > kCwndCeiling)
    return "cwnd exceeds ceiling: " + std::to_string(cwnd_);
  if (!std::isfinite(ssthresh_) || ssthresh_ < 1.0 - 1e-9)
    return "ssthresh out of range: " + std::to_string(ssthresh_);
  if (snd_una_ < 0 || next_seq_ < snd_una_)
    return "sequence space inconsistent: snd_una=" + std::to_string(snd_una_) +
           " next_seq=" + std::to_string(next_seq_);
  if (srtt_ >= 0 && (!std::isfinite(srtt_) || srtt_ < 0))
    return "srtt corrupt: " + std::to_string(srtt_);
  if (!std::isfinite(rto_) || rto_ <= 0)
    return "rto out of range: " + std::to_string(rto_);
  if (pipe_ < 0) return "negative pipe: " + std::to_string(pipe_);
  // Counter sentinels: cumulative sequence/packet counters saturating would
  // flip windowed-metric deltas negative long before wrapping.
  if (std::string v = sim::counter_violation("tcp.snd_una", snd_una_);
      !v.empty())
    return v;
  if (std::string v =
          sim::counter_violation("tcp.data_pkts_sent", st_.data_pkts_sent);
      !v.empty())
    return v;
  if (ops_.invariant_check)
    if (std::string v = ops_.invariant_check(*this, cc_priv()); !v.empty())
      return v;
  return {};
}

std::string TcpSender::state_line() const {
  std::ostringstream out;
  out << "flow " << flow_ << ": cwnd=" << cwnd_ << " ssthresh=" << ssthresh_
      << " una=" << snd_una_ << " next=" << next_seq_
      << (in_recovery_ ? " RECOVERY" : "") << " srtt=" << srtt_
      << " rto=" << rto_ << " timeouts=" << st_.timeouts
      << " loss_events=" << st_.loss_events;
  return out.str();
}

}  // namespace pert::tcp
