#include "exp/scheme.h"

#include <mutex>
#include <utility>
#include <vector>

#include "core/cc_pert_modules.h"
#include "net/qdisc_registry.h"
#include "sim/suggest.h"
#include "tcp/cc_registry.h"

namespace pert::exp {

SchemeSpec::SchemeSpec(Scheme s) {
  switch (s) {
    case Scheme::kSackDroptail:
      *this = SchemeSpec{"Sack/Droptail", "sack", "droptail", false};
      return;
    case Scheme::kSackRedEcn:
      *this = SchemeSpec{"Sack/RED-ECN", "sack", "red", true};
      return;
    case Scheme::kSackPiEcn:
      *this = SchemeSpec{"Sack/PI-ECN", "sack", "pi", true};
      return;
    case Scheme::kSackRemEcn:
      *this = SchemeSpec{"Sack/REM-ECN", "sack", "rem", true};
      return;
    case Scheme::kSackAvqEcn:
      *this = SchemeSpec{"Sack/AVQ-ECN", "sack", "avq", true};
      return;
    case Scheme::kVegas:
      *this = SchemeSpec{"Vegas", "vegas", "droptail", false};
      return;
    case Scheme::kPert:
      *this = SchemeSpec{"PERT", "pert", "droptail", false};
      return;
    case Scheme::kPertPi:
      *this = SchemeSpec{"PERT-PI", "pert-pi", "droptail", false};
      return;
    case Scheme::kPertRem:
      *this = SchemeSpec{"PERT-REM", "pert-rem", "droptail", false};
      return;
  }
  throw sim::ConfigError("SchemeSpec: Scheme value outside the enumeration",
                         "a Scheme was forged from an out-of-range integer");
}

void ensure_scheme_modules() {
  static std::once_flag once;
  std::call_once(once, [] {
    // instance() registers the layer's own built-ins; the PERT family lives
    // in core/ (layering: tcp/ cannot depend on core/) and is added here.
    tcp::CcRegistry::instance();
    net::QdiscRegistry::instance();
    core::register_pert_cc_modules();
  });
}

namespace {

/// Legacy paper scheme names accepted since the first CLI, one or more
/// aliases per scheme; the first alias is the canonical spelling. New
/// combinations use the "cc/qdisc" grammar instead of growing this table.
const std::pair<std::string_view, Scheme> kLegacyNames[] = {
    {"pert", Scheme::kPert},
    {"pert-pi", Scheme::kPertPi},
    {"pert-rem", Scheme::kPertRem},
    {"vegas", Scheme::kVegas},
    {"sack", Scheme::kSackDroptail},
    {"sack-droptail", Scheme::kSackDroptail},
    {"sack-red", Scheme::kSackRedEcn},
    {"sack-pi", Scheme::kSackPiEcn},
    {"sack-rem", Scheme::kSackRemEcn},
    {"sack-avq", Scheme::kSackAvqEcn},
};

[[noreturn]] void throw_unknown(const std::string& what,
                                const std::string& name,
                                std::vector<std::string> candidates) {
  const std::string hint = sim::closest_match(name, candidates);
  std::string msg = "unknown " + what + ": '" + name + "'";
  if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
  std::string known = "known names:";
  for (const std::string& c : candidates) known += " " + c;
  throw sim::ConfigError(msg, known);
}

}  // namespace

std::optional<Scheme> legacy_scheme(std::string_view name) {
  for (const auto& [alias, scheme] : kLegacyNames)
    if (name == alias) return scheme;
  return std::nullopt;
}

std::string_view legacy_name(Scheme s) {
  for (const auto& [alias, scheme] : kLegacyNames)
    if (scheme == s) return alias;
  throw sim::ConfigError("legacy_name(Scheme): value outside the enumeration",
                         "a Scheme was forged from an out-of-range integer");
}

SchemeSpec parse_scheme_spec(std::string_view text) {
  if (const std::optional<Scheme> legacy = legacy_scheme(text))
    return SchemeSpec(*legacy);

  ensure_scheme_modules();
  auto& ccs = tcp::CcRegistry::instance();
  auto& qds = net::QdiscRegistry::instance();

  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    // Not a legacy name and not a combination: suggest across both the
    // legacy table and the CC module names (a bare module name is the most
    // common near-miss for "cc/qdisc").
    std::vector<std::string> candidates;
    for (const auto& [name, scheme] : kLegacyNames)
      candidates.emplace_back(name);
    for (const std::string& n : ccs.names()) candidates.push_back(n);
    throw_unknown("scheme (expected a paper scheme name or 'cc/qdisc')",
                  std::string(text), std::move(candidates));
  }

  const std::string cc(text.substr(0, slash));
  std::string_view rest = text.substr(slash + 1);
  bool ecn_forced = false, ecn_value = false;
  if (rest.size() > 4 && rest.substr(rest.size() - 4) == "+ecn") {
    ecn_forced = true;
    ecn_value = true;
    rest.remove_suffix(4);
  } else if (rest.size() > 4 && rest.substr(rest.size() - 4) == "-ecn") {
    ecn_forced = true;
    ecn_value = false;
    rest.remove_suffix(4);
  }
  const std::string qdisc(rest);

  const tcp::CcInfo* ci = ccs.find(cc);
  if (ci == nullptr)
    throw_unknown("congestion-control module", cc, ccs.names());
  const net::QdiscInfo* qi = qds.find(qdisc);
  if (qi == nullptr) throw_unknown("queue discipline", qdisc, qds.names());

  const bool ecn = ecn_forced ? ecn_value : (ci->wants_ecn || qi->marks_ecn);
  std::string display = cc + "/" + qdisc;
  if (ecn) display += "+ecn";
  return SchemeSpec{std::move(display), cc, qdisc, ecn};
}

}  // namespace pert::exp
