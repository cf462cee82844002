// Scheme descriptors: which congestion-control module runs at the end hosts,
// which queue discipline runs at the bottleneck, and whether the combination
// uses ECN.
//
// The paper compares nine fixed combinations; those survive as the `Scheme`
// enum plus an implicit conversion to `SchemeSpec`, so `cfg.scheme =
// Scheme::kPert` and every recorded seed keep working unchanged. New
// combinations need no enum edit: `parse_scheme_spec("cubic/codel")` resolves
// both names against tcp::CcRegistry and net::QdiscRegistry, with
// did-you-mean suggestions for typos.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "sim/errors.h"

namespace pert::exp {

/// The nine fixed end-host + queue combinations compared in the paper.
/// Kept for compatibility: every test and driver that names a paper scheme
/// does so through this enum; `SchemeSpec` is the open-ended superset.
enum class Scheme {
  kSackDroptail,  ///< SACK senders, DropTail bottleneck
  kSackRedEcn,    ///< ECN-enabled SACK, Adaptive-RED bottleneck with ECN
  kSackPiEcn,     ///< ECN-enabled SACK, PI bottleneck with ECN
  kSackRemEcn,    ///< ECN-enabled SACK, REM bottleneck with ECN (extension)
  kSackAvqEcn,    ///< ECN-enabled SACK, AVQ bottleneck with ECN (extension)
  kVegas,         ///< TCP Vegas, DropTail bottleneck
  kPert,          ///< PERT (RED emulation), DropTail bottleneck
  kPertPi,        ///< PERT/PI (PI emulation), DropTail bottleneck
  kPertRem,       ///< PERT/REM (REM emulation), DropTail bottleneck (ext.)
};

constexpr std::string_view to_string(Scheme s) {
  switch (s) {
    case Scheme::kSackDroptail: return "Sack/Droptail";
    case Scheme::kSackRedEcn: return "Sack/RED-ECN";
    case Scheme::kSackPiEcn: return "Sack/PI-ECN";
    case Scheme::kSackRemEcn: return "Sack/REM-ECN";
    case Scheme::kSackAvqEcn: return "Sack/AVQ-ECN";
    case Scheme::kVegas: return "Vegas";
    case Scheme::kPert: return "PERT";
    case Scheme::kPertPi: return "PERT-PI";
    case Scheme::kPertRem: return "PERT-REM";
  }
  throw sim::ConfigError("to_string(Scheme): value outside the enumeration",
                         "a Scheme was forged from an out-of-range integer");
}

/// The paper scheme a legacy command-line name denotes ("sack" and
/// "sack-droptail" both give kSackDroptail), or nullopt for any other text.
std::optional<Scheme> legacy_scheme(std::string_view name);

/// Canonical legacy name of a paper scheme: its first alias ("sack" for
/// kSackDroptail). Throws sim::ConfigError for a value outside the
/// enumeration.
std::string_view legacy_name(Scheme s);

/// An open-ended scheme: a congestion-control module name (tcp::CcRegistry
/// key), a queue-discipline name (net::QdiscRegistry key), and the ECN bit
/// for the combination. Equality ignores the display string — two specs are
/// the same scheme when they build the same simulation.
struct SchemeSpec {
  std::string display = "Sack/Droptail";  ///< table/report label
  std::string cc = "sack";                ///< tcp::CcRegistry key
  std::string qdisc = "droptail";         ///< net::QdiscRegistry key
  bool ecn = false;          ///< senders ECN-capable & discipline marks

  SchemeSpec() = default;
  SchemeSpec(std::string display, std::string cc, std::string qdisc, bool ecn)
      : display(std::move(display)),
        cc(std::move(cc)),
        qdisc(std::move(qdisc)),
        ecn(ecn) {}

  /// Implicit on purpose: `cfg.scheme = Scheme::kPert` and the nine recorded
  /// paper schemes must keep compiling and produce byte-identical runs.
  SchemeSpec(Scheme s);  // NOLINT(google-explicit-constructor)

  /// Does the spec place an AQM at the bottleneck router?
  bool router_aqm() const noexcept { return qdisc != "droptail"; }
};

inline bool operator==(const SchemeSpec& a, const SchemeSpec& b) noexcept {
  return a.cc == b.cc && a.qdisc == b.qdisc && a.ecn == b.ecn;
}
inline bool operator!=(const SchemeSpec& a, const SchemeSpec& b) noexcept {
  return !(a == b);
}

/// Display label; overloads to_string(Scheme) so call sites printing a
/// config's scheme work for both representations.
inline const std::string& to_string(const SchemeSpec& s) noexcept {
  return s.display;
}

/// Registers every in-tree congestion-control module and queue discipline
/// (idempotent; thread-safe). Called by the topology builders and the
/// scheme parser before their first registry lookup — out-of-tree modules
/// using CcRegistrar/QdiscRegistrar are independent of it.
void ensure_scheme_modules();

/// Parses a scheme string. Accepts the nine legacy paper names
/// (pert | pert-pi | pert-rem | vegas | sack | sack-droptail | sack-red |
/// sack-pi | sack-rem | sack-avq) and free-form "cc/qdisc" combinations
/// ("cubic/codel", "dctcp/red+ecn"), where an optional "+ecn" / "-ecn"
/// suffix overrides the default (ECN on when the CC module wants it or the
/// discipline can mark). Unknown names throw sim::ConfigError with a
/// did-you-mean suggestion.
SchemeSpec parse_scheme_spec(std::string_view text);

}  // namespace pert::exp
