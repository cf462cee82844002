// Pluggable congestion control: a value-semantic ops table in the style of
// Linux's `struct tcp_congestion_ops`.
//
// A congestion-control module is a set of free functions plus a POD-ish
// private-state struct; `TcpSender` owns one `CongestionOps` value and a
// type-erased private-state slot, and dispatches through the table at the
// exact points where the old virtual `cc_*` hooks fired. A null hook keeps
// the sender's built-in behavior (Reno growth, `loss_beta` reductions), so
// the empty table *is* the paper's SACK sender and migrated modules are
// event-for-event identical to their former subclass implementations.
//
// Modules interact with the sender through `CcHost` (tcp/tcp_sender.h), a
// narrow facade over the sender's congestion surface: cwnd/ssthresh
// references, the clock, the RNG owner, tracing, and the
// multiplicative-decrease helper. Private state is placement-constructed by
// `init` into a slot sized by `priv_size` and lives there, beside nothing
// else, for the sender's lifetime.
//
// See docs/extending.md for a worked example (the CUBIC module).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace pert::tcp {

class TcpSender;
class CcHost;

/// Window-affecting sender events a module may want to observe. Dispatched
/// after the sender's own bookkeeping for the event has run.
enum class CcEvent : std::uint8_t {
  kEnterRecovery,    ///< fast-retransmit recovery entered (window reduced)
  kExitRecovery,     ///< recovery point acked (cwnd = ssthresh)
  kRto,              ///< retransmission timeout fired (cwnd = 1)
  kRestartTransfer,  ///< start_transfer(fresh_slow_start=true) reset cwnd
};

/// Per-ACK event record for modules that need every ACK, not only the
/// window-growth call (DCTCP's marked-byte accounting). Fired before the
/// ECE/loss handling of the ACK it describes.
struct CcAck {
  std::int64_t newly = 0;  ///< cumulatively acked packets (0 for a dupack)
  bool ece = false;        ///< ACK carried an ECN echo
};

/// The ops table. Every hook may be null; null means "keep the built-in
/// behavior" (documented per hook). Hooks receive the host facade and the
/// module's private-state slot (null when priv_size == 0).
struct CongestionOps {
  /// Registry key and display name ("sack", "cubic", ...).
  const char* name = "sack";

  /// Bytes of private state to reserve (max_align_t aligned). 0 = none.
  std::size_t priv_size = 0;

  /// Module-specific construction argument, forwarded untouched to init().
  /// Valid ONLY during construction — the table outlives the pointee, so
  /// init() must copy what it needs into the private state.
  const void* init_arg = nullptr;

  /// Placement-constructs private state. Runs at the end of the TcpSender
  /// constructor — the exact point where subclass member-initializers used
  /// to run, so RNG forks and timer schedules happen in the legacy order.
  void (*init)(CcHost&, void* priv) = nullptr;

  /// Placement-destroys private state (from ~TcpSender).
  void (*release)(void* priv) = nullptr;

  /// Every valid RTT sample, before any window action. Null: ignore.
  void (*on_rtt_sample)(CcHost&, void* priv, double rtt) = nullptr;

  /// Every valid one-way forward-delay sample. Null: ignore.
  void (*on_owd_sample)(CcHost&, void* priv, double owd) = nullptr;

  /// Every ACK (new or duplicate), before ECE/loss handling. Null: ignore.
  void (*ack_event)(CcHost&, void* priv, const CcAck&) = nullptr;

  /// Window growth for `newly` cumulatively acked packets outside recovery.
  /// Null: built-in Reno (slow start +1/ack, CA +1/cwnd per ack, capped at
  /// config().max_cwnd).
  void (*on_ack)(CcHost&, void* priv, std::int64_t newly) = nullptr;

  /// Loss detected (fast-retransmit entry or RTO), before any window
  /// reduction — cwnd still holds its pre-loss value. Null: ignore.
  void (*on_loss_event)(CcHost&, void* priv) = nullptr;

  /// ECN response, after the once-per-window gate. Null: built-in
  /// multiplicative_decrease(config().loss_beta).
  void (*on_ecn)(CcHost&, void* priv) = nullptr;

  /// Slow-start threshold on fast-retransmit entry; the sender applies
  /// ssthresh = max(2, value) and cwnd = ssthresh. Null: built-in
  /// cwnd * (1 - config().loss_beta). (RTO keeps the built-in flightsize/2
  /// rule for every module; observe CcEvent::kRto to react.)
  double (*ssthresh)(CcHost&, void* priv) = nullptr;

  /// Window-affecting event notification. Null: ignore.
  void (*cwnd_event)(CcHost&, void* priv, CcEvent) = nullptr;

  /// Module-state extension of TcpSender::invariant_violation(): "" while
  /// healthy, else a message naming the rotted state. Polled by the
  /// watchdog, never on the hot path. Null: no extra checks.
  std::string (*invariant_check)(const TcpSender&, const void* priv) = nullptr;
};

}  // namespace pert::tcp
