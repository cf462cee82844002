// SchemeSpec / registry-backed scheme parsing.
//
// The closed exp::Scheme enum survives as a compat shim: every paper name
// must map to exactly the descriptor the enum constructor builds, and a
// dumbbell configured through the parsed spec must reproduce the enum-
// configured run bit for bit. Free-form cc/qdisc combos, the +ecn/-ecn
// suffix, and did-you-mean diagnostics are pinned here too.
#include "exp/scheme.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/dumbbell.h"
#include "sim/errors.h"

namespace pert::exp {
namespace {

TEST(SchemeEnum, ToStringThrowsOutsideTheEnumeration) {
  EXPECT_THROW(to_string(static_cast<Scheme>(99)), sim::ConfigError);
}

TEST(SchemeEnum, LegacyNamesRoundTripThroughTheCanonicalAlias) {
  const Scheme all[] = {Scheme::kSackDroptail, Scheme::kSackRedEcn,
                        Scheme::kSackPiEcn,    Scheme::kSackRemEcn,
                        Scheme::kSackAvqEcn,   Scheme::kVegas,
                        Scheme::kPert,         Scheme::kPertPi,
                        Scheme::kPertRem};
  for (Scheme s : all) EXPECT_EQ(legacy_scheme(legacy_name(s)), s);
  EXPECT_EQ(legacy_name(Scheme::kSackDroptail), "sack");
  EXPECT_EQ(legacy_scheme("sack-droptail"), Scheme::kSackDroptail);
  EXPECT_EQ(legacy_scheme("cubic/codel"), std::nullopt);
  EXPECT_EQ(legacy_scheme("PERT"), std::nullopt);
  EXPECT_THROW(legacy_name(static_cast<Scheme>(99)), sim::ConfigError);
}

TEST(SchemeSpec, NinePaperNamesMapToEnumDescriptors) {
  const std::vector<std::pair<std::string, Scheme>> names = {
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
  for (const auto& [name, scheme] : names) {
    const SchemeSpec parsed = parse_scheme_spec(name);
    const SchemeSpec direct(scheme);
    EXPECT_EQ(parsed, direct) << name;
    EXPECT_EQ(parsed.display, direct.display) << name;
    EXPECT_EQ(parsed.router_aqm(), direct.router_aqm()) << name;
  }
}

TEST(SchemeSpec, EnumComparisonWorksThroughImplicitConversion) {
  SchemeSpec s = Scheme::kPert;
  EXPECT_EQ(s, Scheme::kPert);
  EXPECT_NE(s, Scheme::kVegas);
  EXPECT_EQ(std::string(to_string(s)), std::string(to_string(Scheme::kPert)));
}

TEST(SchemeSpec, FreeFormDefaultsEcnFromModules) {
  // A marking qdisc turns ECN on by default...
  const SchemeSpec cc = parse_scheme_spec("cubic/codel");
  EXPECT_EQ(cc.cc, "cubic");
  EXPECT_EQ(cc.qdisc, "codel");
  EXPECT_TRUE(cc.ecn);
  EXPECT_EQ(cc.display, "cubic/codel+ecn");
  EXPECT_TRUE(cc.router_aqm());
  // ...droptail leaves it off...
  const SchemeSpec sd = parse_scheme_spec("sack/droptail");
  EXPECT_FALSE(sd.ecn);
  EXPECT_FALSE(sd.router_aqm());
  EXPECT_EQ(sd.display, "sack/droptail");
  // ...and a wants-ecn sender (DCTCP) turns it on even over droptail.
  EXPECT_TRUE(parse_scheme_spec("dctcp/droptail").ecn);
}

TEST(SchemeSpec, EcnSuffixOverridesTheDefault) {
  EXPECT_FALSE(parse_scheme_spec("sack/codel-ecn").ecn);
  EXPECT_TRUE(parse_scheme_spec("sack/droptail+ecn").ecn);
  EXPECT_TRUE(parse_scheme_spec("cubic/pie+ecn").ecn);
}

TEST(SchemeSpec, UnknownNamesThrowWithDidYouMean) {
  try {
    parse_scheme_spec("pertt");
    FAIL() << "unknown scheme must throw";
  } catch (const sim::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("pert"), std::string::npos);
  }
  try {
    parse_scheme_spec("cubic/codell");
    FAIL() << "unknown qdisc must throw";
  } catch (const sim::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("codel"), std::string::npos);
  }
  EXPECT_THROW(parse_scheme_spec("nosuchcc/droptail"), sim::ConfigError);
  EXPECT_THROW(parse_scheme_spec(""), sim::ConfigError);
}

TEST(SchemeSpec, ParsedSpecReproducesEnumRunBitForBit) {
  // The heart of the compat shim: for every migrated paper scheme, a
  // dumbbell built from the parsed descriptor must be event-for-event the
  // run the enum produced (same RNG forks, same factories, same metrics).
  const std::vector<std::pair<std::string, Scheme>> names = {
      {"pert", Scheme::kPert},         {"pert-pi", Scheme::kPertPi},
      {"pert-rem", Scheme::kPertRem},  {"vegas", Scheme::kVegas},
      {"sack-droptail", Scheme::kSackDroptail},
      {"sack-red", Scheme::kSackRedEcn},
      {"sack-pi", Scheme::kSackPiEcn}, {"sack-rem", Scheme::kSackRemEcn},
      {"sack-avq", Scheme::kSackAvqEcn},
  };
  for (const auto& [name, scheme] : names) {
    DumbbellConfig cfg;
    cfg.num_fwd_flows = 2;
    cfg.bottleneck_bps = 10e6;
    cfg.rtt = 0.04;
    cfg.seed = 13;

    cfg.scheme = scheme;
    Dumbbell via_enum(cfg);
    const WindowMetrics a = via_enum.measure_window(2.0, 3.0);
    const std::uint64_t events_a = via_enum.network().sched().dispatched();

    cfg.scheme = parse_scheme_spec(name);
    Dumbbell via_spec(cfg);
    const WindowMetrics b = via_spec.measure_window(2.0, 3.0);
    const std::uint64_t events_b = via_spec.network().sched().dispatched();

    EXPECT_EQ(a, b) << name << ": metrics diverge between enum and spec";
    EXPECT_EQ(events_a, events_b)
        << name << ": event counts diverge between enum and spec";
  }
}

TEST(SchemeSpec, FreeFormComboRunsEndToEnd) {
  DumbbellConfig cfg;
  cfg.scheme = parse_scheme_spec("cubic/codel");
  cfg.num_fwd_flows = 2;
  cfg.bottleneck_bps = 10e6;
  cfg.rtt = 0.04;
  cfg.seed = 5;
  Dumbbell d(cfg);
  const WindowMetrics m = d.measure_window(3.0, 4.0);
  EXPECT_GT(m.utilization, 0.3);
  EXPECT_GT(m.ecn_marks, 0);
}

TEST(SchemeSpec, ValidateRejectsUnknownModulesWithSuggestion) {
  DumbbellConfig cfg;
  cfg.scheme = SchemeSpec("typo", "cubbic", "droptail", false);
  EXPECT_THROW(cfg.validate(), sim::ConfigError);
  cfg.scheme = SchemeSpec("typo", "cubic", "coddel", false);
  EXPECT_THROW(cfg.validate(), sim::ConfigError);
}

}  // namespace
}  // namespace pert::exp
