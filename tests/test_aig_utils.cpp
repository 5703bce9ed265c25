/// \file test_aig_utils.cpp
/// \brief Tests for the AIG reporting utilities.

#include <gtest/gtest.h>

#include <sstream>

#include "aig/aig_utils.hpp"
#include "gen/arith.hpp"

namespace simsweep {
namespace {

TEST(AigUtils, Stats) {
  const aig::Aig a = gen::ripple_adder(4);
  const aig::AigStats s = aig::compute_stats(a);
  EXPECT_EQ(s.num_pis, 8u);
  EXPECT_EQ(s.num_pos, 5u);
  EXPECT_EQ(s.num_ands, a.num_ands());
  EXPECT_GT(s.max_level, 3u);
  EXPECT_EQ(s.num_dangling, 0u);
  EXPECT_GT(s.avg_fanout, 0.9);
  EXPECT_NE(aig::stats_line(a).find("pi=8"), std::string::npos);
}

TEST(AigUtils, StatsCountsDanglingAndConstPos) {
  aig::Aig a(2);
  a.add_and(a.pi_lit(0), a.pi_lit(1));  // dangling
  a.add_po(aig::kLitFalse);
  const aig::AigStats s = aig::compute_stats(a);
  EXPECT_EQ(s.num_dangling, 1u);
  EXPECT_EQ(s.num_const_pos, 1u);
}

TEST(AigUtils, DotExport) {
  aig::Aig a(2);
  const aig::Lit g = a.add_and(a.pi_lit(0), aig::lit_not(a.pi_lit(1)));
  a.add_po(aig::lit_not(g));
  std::ostringstream os;
  aig::write_dot(a, os);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph aig"), std::string::npos);
  EXPECT_NE(dot.find("x0"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
}

}  // namespace
}  // namespace simsweep
