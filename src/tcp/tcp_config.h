// Shared TCP configuration knobs.
#pragma once

#include <cstdint>

#include "sim/validate.h"

namespace pert::tcp {

struct TcpConfig {
  std::int32_t seg_payload = 1000;   ///< payload bytes per segment
  std::int32_t header_bytes = 40;    ///< TCP/IP header overhead on the wire
  std::int32_t ack_bytes = 40;       ///< on-wire ACK size
  double initial_cwnd = 2.0;         ///< packets
  double initial_ssthresh = 1e12;    ///< packets (effectively unbounded)
  bool sack = true;                  ///< SACK loss recovery (else NewReno)
  bool ecn = false;                  ///< ECN-capable transport (RFC 3168)
  double loss_beta = 0.5;            ///< multiplicative decrease on loss/ECE
  std::int32_t dupthresh = 3;        ///< dupacks before fast retransmit
  double min_rto = 0.2;              ///< seconds (ns-2 default minrto_)
  double max_rto = 60.0;             ///< seconds
  double max_cwnd = 1e9;             ///< packets; cap for pathological cases
  double rwnd = 1e9;                 ///< receiver window, packets
  /// Max segments sent back-to-back per ACK event (ns-2 maxburst_);
  /// 0 disables the limit.
  std::int32_t max_burst = 0;
  /// RFC 3042 limited transmit: the first two dupacks may trigger new data.
  bool limited_transmit = false;
  /// Receiver acks every Nth packet (1 = every packet, ns-2 default;
  /// 2 = RFC 1122 delayed ACKs with the delack timer below). Out-of-order
  /// arrivals and ECN-CE are always acked immediately.
  std::int32_t ack_every = 1;
  double delack_timeout = 0.1;       ///< seconds (below min_rto, no races)
  /// RTO before the first RTT sample (RFC 6298 suggests 1 s; ns-2 uses 3 s).
  double initial_rto = 3.0;

  std::int32_t seg_bytes() const noexcept { return seg_payload + header_bytes; }

  /// Rejects out-of-domain knobs with sim::ConfigError. Called by TcpSender
  /// at construction (covering every CC variant that subclasses it).
  void validate() const {
    sim::require_at_least("TcpConfig", "seg_payload", seg_payload, 1);
    sim::require_at_least("TcpConfig", "header_bytes", header_bytes, 0);
    sim::require_at_least("TcpConfig", "ack_bytes", ack_bytes, 1);
    sim::require_positive("TcpConfig", "initial_cwnd", initial_cwnd);
    sim::require_positive("TcpConfig", "initial_ssthresh", initial_ssthresh);
    sim::require_prob("TcpConfig", "loss_beta", loss_beta);
    sim::require_less("TcpConfig", "loss_beta", loss_beta, "1", 1.0);
    sim::require_at_least("TcpConfig", "dupthresh", dupthresh, 1);
    sim::require_positive("TcpConfig", "min_rto", min_rto);
    sim::require_le("TcpConfig", "min_rto", min_rto, "max_rto", max_rto);
    sim::require_positive("TcpConfig", "max_cwnd", max_cwnd);
    sim::require_positive("TcpConfig", "rwnd", rwnd);
    sim::require_at_least("TcpConfig", "max_burst", max_burst, 0);
    sim::require_at_least("TcpConfig", "ack_every", ack_every, 1);
    sim::require_positive("TcpConfig", "delack_timeout", delack_timeout);
    sim::require_positive("TcpConfig", "initial_rto", initial_rto);
  }
};

}  // namespace pert::tcp
