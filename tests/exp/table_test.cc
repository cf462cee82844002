#include "exp/table.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "exp/scheme.h"

namespace pert::exp {
namespace {

TEST(Table, AlignsColumnsToWidestCell) {
  Table t({"a", "long-header"});
  t.row({"wide-cell-content", "x"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header line, separator, one row.
  EXPECT_NE(out.find("a                  long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell-content  x"), std::string::npos);
}

TEST(Table, MissingCellsRenderEmpty) {
  Table t({"x", "y", "z"});
  t.row({"1"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1"), std::string::npos);  // no crash, row present
}

TEST(Table, SeparatorMatchesWidth) {
  Table t({"ab", "cd"});
  t.row({"1", "2"});
  std::ostringstream os;
  t.print(os);
  std::istringstream is(os.str());
  std::string header, sep;
  std::getline(is, header);
  std::getline(is, sep);
  EXPECT_EQ(sep.find_first_not_of('-'), std::string::npos);
  EXPECT_GE(sep.size(), 4u);
}

TEST(Fmt, FormatsWithSpec) {
  EXPECT_EQ(fmt(1.23456, "%.2f"), "1.23");
  EXPECT_EQ(fmt(1e-5, "%.1e"), "1.0e-05");
  EXPECT_EQ(fmt(42, "%g"), "42");
}

TEST(Scheme, NamesAreUniqueAndStable) {
  const Scheme all[] = {Scheme::kSackDroptail, Scheme::kSackRedEcn,
                        Scheme::kSackPiEcn,    Scheme::kSackRemEcn,
                        Scheme::kSackAvqEcn,   Scheme::kVegas,
                        Scheme::kPert,         Scheme::kPertPi,
                        Scheme::kPertRem};
  std::set<std::string_view> names;
  for (Scheme s : all) {
    const auto n = to_string(s);
    EXPECT_NE(n, "?");
    EXPECT_TRUE(names.insert(n).second) << "duplicate name " << n;
  }
}

TEST(Scheme, RouterAqmClassification) {
  EXPECT_TRUE(SchemeSpec(Scheme::kSackRedEcn).router_aqm());
  EXPECT_TRUE(SchemeSpec(Scheme::kSackPiEcn).router_aqm());
  EXPECT_TRUE(SchemeSpec(Scheme::kSackRemEcn).router_aqm());
  EXPECT_TRUE(SchemeSpec(Scheme::kSackAvqEcn).router_aqm());
  EXPECT_FALSE(SchemeSpec(Scheme::kPert).router_aqm());
  EXPECT_FALSE(SchemeSpec(Scheme::kPertPi).router_aqm());
  EXPECT_FALSE(SchemeSpec(Scheme::kPertRem).router_aqm());
  EXPECT_FALSE(SchemeSpec(Scheme::kVegas).router_aqm());
  EXPECT_FALSE(SchemeSpec(Scheme::kSackDroptail).router_aqm());
  // ECN-capable senders exactly where the router marks.
  for (Scheme s : {Scheme::kSackRedEcn, Scheme::kSackPiEcn})
    EXPECT_TRUE(SchemeSpec(s).ecn);
  EXPECT_FALSE(SchemeSpec(Scheme::kPert).ecn);
}

}  // namespace
}  // namespace pert::exp
