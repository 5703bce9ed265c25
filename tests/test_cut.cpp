/// \file test_cut.cpp
/// \brief Tests for cuts, priority-cut enumeration (Table I criteria,
/// similarity), enumeration levels (Eq. 2) and the checking pass (Alg. 2).

#include <gtest/gtest.h>

#include <algorithm>

#include "aig/aig_analysis.hpp"
#include "cut/checking_pass.hpp"
#include "cut/common_cuts.hpp"
#include "cut/cut_enum.hpp"
#include "cut/cut_set.hpp"
#include "fault/governor.hpp"
#include "sim/ec_manager.hpp"
#include "test_util.hpp"

namespace simsweep::cut {
namespace {

using aig::Aig;
using aig::Lit;
using aig::Var;

TEST(Cut, TrivialAndEquality) {
  const Cut a = Cut::trivial(5);
  EXPECT_EQ(a.size, 1u);
  EXPECT_EQ(a.leaves[0], 5u);
  EXPECT_EQ(a, Cut::trivial(5));
  EXPECT_FALSE(a == Cut::trivial(6));
}

TEST(Cut, MergeRespectsBound) {
  Cut a = Cut::trivial(1), b = Cut::trivial(2), out;
  ASSERT_TRUE(merge_cuts(a, b, 2, out));
  EXPECT_EQ(out.size, 2u);
  EXPECT_EQ(out.leaves[0], 1u);
  EXPECT_EQ(out.leaves[1], 2u);
  Cut c = Cut::trivial(3);
  EXPECT_FALSE(merge_cuts(out, c, 2, c));
}

TEST(Cut, MergeDeduplicatesSharedLeaves) {
  Cut a, b, out;
  a.size = 2; a.leaves = {1, 3}; a.sign = (1u << 1) | (1u << 3);
  b.size = 2; b.leaves = {3, 7}; b.sign = (1u << 3) | (1u << 7);
  ASSERT_TRUE(merge_cuts(a, b, 3, out));
  EXPECT_EQ(out.size, 3u);
  EXPECT_EQ(out.leaves[0], 1u);
  EXPECT_EQ(out.leaves[1], 3u);
  EXPECT_EQ(out.leaves[2], 7u);
}

TEST(Cut, SubsetAndJaccard) {
  Cut a, b;
  a.size = 2; a.leaves = {1, 3}; a.sign = (1u << 1) | (1u << 3);
  b.size = 3; b.leaves = {1, 3, 7}; b.sign = a.sign | (1u << 7);
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_EQ(a.intersection_size(b), 2u);
  EXPECT_DOUBLE_EQ(a.jaccard(b), 2.0 / 3.0);
}

TEST(CutSet, DominationFiltering) {
  CutSet s;
  Cut big;
  big.size = 3; big.leaves = {1, 2, 3};
  big.sign = (1u << 1) | (1u << 2) | (1u << 3);
  s.add(big);
  EXPECT_EQ(s.size(), 1u);
  // A subset dominates: the superset is evicted.
  Cut small;
  small.size = 2; small.leaves = {1, 2}; small.sign = (1u << 1) | (1u << 2);
  s.add(small);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], small);
  // Re-adding the dominated cut is a no-op.
  s.add(big);
  EXPECT_EQ(s.size(), 1u);
}

TEST(EnumerationLevels, MatchesPaperEquation) {
  // Eq. 2: a non-representative waits for its representative.
  Aig a(2);
  const Lit x = a.pi_lit(0), y = a.pi_lit(1);
  const Lit f = a.add_and(x, y);                 // level 1 node
  const Lit g = a.add_and(a.add_or(x, y), f);    // == f, deeper
  const Var vf = aig::lit_var(f), vg = aig::lit_var(g);
  // add_and normalizes fanin order; pick the fanin that is not f.
  const Var v_or = aig::lit_var(a.fanin0(vg)) == vf
                       ? aig::lit_var(a.fanin1(vg))
                       : aig::lit_var(a.fanin0(vg));

  std::vector<Var> repr_of(a.num_nodes(), kNoRepr);
  const auto el_plain = enumeration_levels(a, repr_of);
  EXPECT_EQ(el_plain[vf], 1u);
  EXPECT_EQ(el_plain[v_or], 1u);
  EXPECT_EQ(el_plain[vg], 2u);

  // Now make f the representative of the OR node (artificial but legal:
  // el(or) must rise above el(f)).
  repr_of[v_or] = vf;
  const auto el = enumeration_levels(a, repr_of);
  EXPECT_EQ(el[v_or], 2u);  // 1 + max(el(pis), el(f)=1)
  EXPECT_EQ(el[vg], 3u);
}

/// Checks the defining property of a cut: removing the cut nodes
/// disconnects every PI from the root.
bool is_real_cut(const Aig& a, Var root, const Cut& c) {
  std::vector<Var> stops(c.leaves.begin(), c.leaves.begin() + c.size);
  if (std::count(stops.begin(), stops.end(), root)) return true;  // trivial
  const auto cone = aig::tfi_cone(a, {root}, stops);
  for (Var v : cone)
    if (a.is_pi(v)) return false;
  return true;
}

class CutEnumProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CutEnumProperty, AllEnumeratedCutsAreRealCuts) {
  const Aig a = testutil::random_aig(8, 100, 4, GetParam());
  EnumParams ep;
  ep.cut_size = 6;
  ep.num_cuts = 6;
  PriorityCuts pc(a, ep);
  const CutScorer scorer(a, Pass::kFanout);
  for (Var v = a.num_pis() + 1; v < a.num_nodes(); ++v) {
    pc.compute_node(v, scorer, nullptr);
    for (const Cut& c : pc.cuts(v).cuts()) {
      ASSERT_LE(c.size, 6u);
      ASSERT_TRUE(std::is_sorted(c.leaves.begin(),
                                 c.leaves.begin() + c.size));
      ASSERT_TRUE(is_real_cut(a, v, c)) << "node " << v;
    }
    ASSERT_LE(pc.cuts(v).size(), 6u);
  }
}

TEST_P(CutEnumProperty, LocalFunctionOverCutMatchesGlobal) {
  // Composing the local function with the cut functions must reproduce
  // the global function (checked pointwise on all 2^pis patterns).
  const Aig a = testutil::random_aig(6, 60, 2, GetParam() + 50);
  EnumParams ep;
  ep.cut_size = 4;
  ep.num_cuts = 4;
  PriorityCuts pc(a, ep);
  const CutScorer scorer(a, Pass::kSmallLevel);
  for (Var v = a.num_pis() + 1; v < a.num_nodes(); ++v)
    pc.compute_node(v, scorer, nullptr);
  for (Var v = a.num_pis() + 1; v < a.num_nodes(); v += 7) {
    for (const Cut& c : pc.cuts(v).cuts()) {
      std::vector<Var> leaves(c.leaves.begin(), c.leaves.begin() + c.size);
      const tt::TruthTable local =
          aig::cone_truth_table(a, aig::make_lit(v), leaves);
      for (std::uint64_t p = 0; p < 64; ++p) {
        std::uint64_t idx = 0;
        for (unsigned j = 0; j < leaves.size(); ++j)
          idx |= static_cast<std::uint64_t>(
                     testutil::eval_lit(a, aig::make_lit(leaves[j]), p))
                 << j;
        ASSERT_EQ(local.get_bit(idx),
                  testutil::eval_lit(a, aig::make_lit(v), p));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutEnumProperty,
                         ::testing::Values(81, 82, 83));

TEST(CutScorer, PassOrderings) {
  // Construct a graph with controlled fanouts/levels.
  Aig a(4);
  const Lit g1 = a.add_and(a.pi_lit(0), a.pi_lit(1));  // level 1
  const Lit g2 = a.add_and(g1, a.pi_lit(2));           // level 2
  a.add_po(g2);
  a.add_po(g1);
  a.add_po(g1);  // g1 has 3 fanouts, g2 has 1

  Cut cut_g1 = Cut::trivial(aig::lit_var(g1));
  Cut cut_g2 = Cut::trivial(aig::lit_var(g2));

  const CutScorer s1(a, Pass::kFanout);
  EXPECT_TRUE(s1.better(cut_g1, cut_g2));   // larger fanout wins
  const CutScorer s2(a, Pass::kSmallLevel);
  EXPECT_TRUE(s2.better(cut_g1, cut_g2));   // smaller level wins
  const CutScorer s3(a, Pass::kLargeLevel);
  EXPECT_TRUE(s3.better(cut_g2, cut_g1));   // larger level wins
  // Size tie-breaker: equal main metric, smaller cut preferred.
  Cut both;
  merge_cuts(cut_g1, cut_g2, 4, both);
  // avg level of {g1,g2} = 1.5; a singleton of level 1.5 impossible, so
  // compare under kFanout with equal fanout: {g2} (fanout 1) vs both
  // (avg (3+1)/2 = 2) — fanout differs; just assert determinism instead.
  EXPECT_NE(s1.better(cut_g2, both), s1.better(both, cut_g2));
}

TEST(CutScorer, SimilarityMetric) {
  CutSet target;
  Cut c1; c1.size = 2; c1.leaves = {1, 2}; c1.sign = 6;
  Cut c2; c2.size = 2; c2.leaves = {2, 3}; c2.sign = 12;
  target.add(c1);
  target.add(c2);
  Cut q; q.size = 2; q.leaves = {1, 2}; q.sign = 6;
  // s(q, P) = 1 (vs c1) + 1/3 (vs c2).
  EXPECT_DOUBLE_EQ(CutScorer::similarity(q, target), 1.0 + 1.0 / 3.0);
}

TEST(CommonCuts, PairCutsAreCutsOfBothRoots) {
  const Aig a = testutil::random_aig(8, 120, 4, 84);
  EnumParams ep;
  ep.cut_size = 5;
  ep.num_cuts = 5;
  PriorityCuts pc(a, ep);
  const CutScorer scorer(a, Pass::kFanout);
  for (Var v = a.num_pis() + 1; v < a.num_nodes(); ++v)
    pc.compute_node(v, scorer, nullptr);
  // Take arbitrary AND-node pairs.
  const Var u = a.num_pis() + static_cast<Var>(a.num_ands() / 2);
  const Var v = static_cast<Var>(a.num_nodes() - 1);
  for (const Cut& c : common_cuts(pc, scorer, u, v, 8)) {
    ASSERT_TRUE(is_real_cut(a, u, c));
    ASSERT_TRUE(is_real_cut(a, v, c));
    ASSERT_LE(c.size, 5u);
  }
}

TEST(CommonCuts, ConstantReprUsesNodeCuts) {
  const Aig a = testutil::random_aig(6, 40, 2, 85);
  EnumParams ep;
  PriorityCuts pc(a, ep);
  const CutScorer scorer(a, Pass::kFanout);
  for (Var v = a.num_pis() + 1; v < a.num_nodes(); ++v)
    pc.compute_node(v, scorer, nullptr);
  const Var v = static_cast<Var>(a.num_nodes() - 1);
  const auto cuts = common_cuts(pc, scorer, 0, v, 8);
  EXPECT_FALSE(cuts.empty());
  for (const Cut& c : cuts) ASSERT_TRUE(is_real_cut(a, v, c));
}

TEST(CheckingPass, ProvesStructurallyDistinctEquivalences) {
  // n = (f&g)|(f&h) vs m = f&(g|h): equal, provable over the cut {f,g,h}.
  Aig a(6);
  const Lit f = a.add_and(a.pi_lit(0), a.pi_lit(1));
  const Lit g = a.add_or(a.pi_lit(2), a.pi_lit(3));
  const Lit h = a.add_xor(a.pi_lit(4), a.pi_lit(5));
  const Lit n = a.add_or(a.add_and(f, g), a.add_and(f, h));
  const Lit m = a.add_and(f, a.add_or(g, h));
  a.add_po(n);
  a.add_po(m);
  std::vector<PairTask> tasks{
      PairTask{std::min(aig::lit_var(n), aig::lit_var(m)),
               std::max(aig::lit_var(n), aig::lit_var(m)),
               aig::lit_compl(n) != aig::lit_compl(m)}};
  PassParams params;
  const PassResult r = run_checking_pass(a, tasks, Pass::kFanout, params);
  EXPECT_EQ(r.proved[0], 1u);
  EXPECT_GT(r.stats.common_cuts, 0u);
}

TEST(CheckingPass, DoesNotProveInequivalentPairs) {
  // Soundness under SDC-free conditions: an inequivalent pair must never
  // be "proved". Random pairs, oracle = exact truth tables.
  const Aig a = testutil::random_aig(7, 120, 4, 86);
  std::vector<PairTask> tasks;
  for (Var v = a.num_pis() + 5; v + 3 < a.num_nodes(); v += 9)
    tasks.push_back(PairTask{v, v + 3, false});
  PassParams params;
  const PassResult r = run_checking_pass(a, tasks, Pass::kSmallLevel,
                                         params);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!r.proved[i]) continue;
    const tt::TruthTable tu =
        aig::global_truth_table(a, aig::make_lit(tasks[i].repr,
                                                 tasks[i].phase));
    const tt::TruthTable tv =
        aig::global_truth_table(a, aig::make_lit(tasks[i].node));
    ASSERT_EQ(tu, tv) << "unsound local proof for pair " << i;
  }
}

TEST(CheckingPass, TinyBufferForcesManyFlushes) {
  const Aig a = testutil::random_aig(8, 150, 4, 87);
  // Pair every class-mate from a quick partial simulation.
  sim::EcManager ec;
  const auto bank = sim::PatternBank::random(a.num_pis(), 2, 3);
  ec.build(a, sim::simulate(a, bank));
  std::vector<PairTask> tasks;
  for (const sim::CandidatePair& p : ec.candidate_pairs())
    if (a.is_and(p.node)) tasks.push_back(PairTask{p.repr, p.node, p.phase});
  if (tasks.empty()) GTEST_SKIP() << "no candidate pairs in random AIG";

  PassParams big;
  PassParams tiny;
  tiny.buffer_capacity = 4;
  const PassResult rb = run_checking_pass(a, tasks, Pass::kFanout, big);
  const PassResult rt = run_checking_pass(a, tasks, Pass::kFanout, tiny);
  EXPECT_GE(rt.stats.flushes, rb.stats.flushes);
  EXPECT_EQ(rb.proved, rt.proved);  // buffer size must not change results
}

TEST(CheckingPass, OversizedGroupIsSplitAcrossFlushes) {
  // S2 regression: one pair's common-cut group can exceed the WHOLE
  // buffer capacity (buffer_capacity < max_cuts_per_pair). The pass must
  // split the group across flushes instead of overrunning the bound.
  const Aig a = testutil::random_aig(8, 150, 4, 87);
  sim::EcManager ec;
  const auto bank = sim::PatternBank::random(a.num_pis(), 2, 3);
  ec.build(a, sim::simulate(a, bank));
  std::vector<PairTask> tasks;
  for (const sim::CandidatePair& p : ec.candidate_pairs())
    if (a.is_and(p.node)) tasks.push_back(PairTask{p.repr, p.node, p.phase});
  if (tasks.empty()) GTEST_SKIP() << "no candidate pairs in random AIG";

  PassParams big;
  PassParams tiny;
  tiny.buffer_capacity = 2;  // < max_cuts_per_pair (8)
  ASSERT_LT(tiny.buffer_capacity, tiny.max_cuts_per_pair);
  const PassResult rb = run_checking_pass(a, tasks, Pass::kFanout, big);
  const PassResult rt = run_checking_pass(a, tasks, Pass::kFanout, tiny);
  // The bounded-buffer contract: the high-water mark never exceeds the
  // configured capacity, even while a single group is larger than it.
  EXPECT_LE(rt.stats.peak_buffered, tiny.buffer_capacity);
  EXPECT_GT(rt.stats.group_splits, 0u);
  EXPECT_EQ(rb.stats.group_splits, 0u);
  EXPECT_LE(rb.stats.peak_buffered, big.buffer_capacity);
  EXPECT_EQ(rb.proved, rt.proved);  // splitting must not change results
}

TEST(CheckingPassDetail, ExpiredDeadlineFlushCountsAbandonedChecks) {
  // S4 regression: a flush whose exhaustive batch hits the deadline drops
  // its in-flight windows — that loss must surface in the ladder's
  // units_abandoned, not silently vanish behind deadline_expired.
  Aig a(6);
  const Lit f = a.add_and(a.pi_lit(0), a.pi_lit(1));
  const Lit g = a.add_or(a.pi_lit(2), a.pi_lit(3));
  const Lit h = a.add_xor(a.pi_lit(4), a.pi_lit(5));
  const Lit n = a.add_or(a.add_and(f, g), a.add_and(f, h));
  const Lit m = a.add_and(f, a.add_or(g, h));
  a.add_po(n);
  a.add_po(m);
  std::vector<PairTask> tasks{
      PairTask{std::min(aig::lit_var(n), aig::lit_var(m)),
               std::max(aig::lit_var(n), aig::lit_var(m)),
               aig::lit_compl(n) != aig::lit_compl(m)}};
  Cut c01, cut;
  merge_cuts(Cut::trivial(aig::lit_var(f)), Cut::trivial(aig::lit_var(g)), 3,
             c01);
  merge_cuts(c01, Cut::trivial(aig::lit_var(h)), 3, cut);
  std::vector<detail::BufEntry> buffer{detail::BufEntry{0, cut}};
  std::vector<std::uint8_t> proved(1, 0);

  PassParams params;
  params.sim_params.stop =
      fault::StopToken().until(fault::StopToken::now_plus(-1.0));
  exhaustive::Ladder ladder(params.sim_params.memory_words);
  PassStats stats;
  detail::flush_buffer(a, tasks, buffer, proved, params, ladder, stats);
  EXPECT_TRUE(stats.deadline_expired);
  EXPECT_EQ(ladder.state().units_abandoned, 1u);
  EXPECT_EQ(ladder.state().deadline_expiries, 1u);
  EXPECT_EQ(proved[0], 0u);
  EXPECT_TRUE(buffer.empty());

  // Control: the same flush under no deadline proves the pair and
  // abandons nothing.
  std::vector<detail::BufEntry> buffer2{detail::BufEntry{0, cut}};
  std::vector<std::uint8_t> proved2(1, 0);
  PassParams params2;
  exhaustive::Ladder ladder2(params2.sim_params.memory_words);
  PassStats stats2;
  detail::flush_buffer(a, tasks, buffer2, proved2, params2, ladder2, stats2);
  EXPECT_FALSE(stats2.deadline_expired);
  EXPECT_EQ(ladder2.state().units_abandoned, 0u);
  EXPECT_EQ(proved2[0], 1u);
  EXPECT_EQ(ladder2.state().faults_recovered, 0u);
  EXPECT_EQ(ladder2.state().ladder_steps, 0u);
}

}  // namespace
}  // namespace simsweep::cut
