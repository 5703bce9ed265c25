/// \file test_sim_ec.cpp
/// \brief Tests for partial simulation, pattern banks, level schedules,
/// CEX collection and equivalence-class management.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "sim/ec_manager.hpp"
#include "sim/partial_sim.hpp"
#include "test_util.hpp"

namespace simsweep::sim {
namespace {

using aig::Aig;
using aig::Lit;
using aig::Var;

/// Appends `n` pseudo-random word-columns to the bank, one per call (the
/// CEX-absorption shape).
void append_random_columns(PatternBank& bank, std::size_t n,
                           std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<Word> col(bank.num_pis());
    for (Word& w : col) w = rng.next64();
    bank.append_words(col);
  }
}

TEST(PatternBank, RandomDeterministicPerSeed) {
  const PatternBank a = PatternBank::random(4, 3, 9);
  const PatternBank b = PatternBank::random(4, 3, 9);
  const PatternBank c = PatternBank::random(4, 3, 10);
  bool all_equal = true, any_diff_c = false;
  for (unsigned pi = 0; pi < 4; ++pi)
    for (std::size_t w = 0; w < 3; ++w) {
      all_equal &= a.word(pi, w) == b.word(pi, w);
      any_diff_c |= a.word(pi, w) != c.word(pi, w);
    }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_c);
}

TEST(PatternBank, AppendAndTruncate) {
  PatternBank bank(3, 2);
  bank.word(1, 0) = 0xAA;
  bank.append_words({1, 2, 3});
  EXPECT_EQ(bank.num_words(), 3u);
  EXPECT_EQ(bank.word(1, 0), 0xAAu);
  EXPECT_EQ(bank.word(0, 2), 1u);
  EXPECT_EQ(bank.word(2, 2), 3u);
  bank.truncate_front(2);
  EXPECT_EQ(bank.num_words(), 2u);
  // Oldest word dropped: word 0 is the former word 1.
  EXPECT_EQ(bank.word(0, 1), 1u);
  EXPECT_EQ(bank.word(2, 1), 3u);
}

// The IncrementalSim* suite names below are kept from the file these
// tests moved from, so their test ids stay stable.

TEST(IncrementalSimBank, AppendIsAmortizedNotPerWord) {
  PatternBank bank(8, 1);
  const std::size_t kAppends = 1000;
  append_random_columns(bank, kAppends, 11);
  EXPECT_EQ(bank.num_words(), 1 + kAppends);
  // Regression for the O(pis×words)-per-append bug: growth must be
  // geometric, so ~1000 appends reallocate O(log n) times, not ~1000.
  EXPECT_LE(bank.reallocations(), 16u);
  EXPECT_GE(bank.reallocations(), 1u);
}

TEST(IncrementalSimBank, AppendGroupsMatchesRepeatedAppendWords) {
  std::vector<std::vector<Word>> groups;
  Rng rng(12);
  for (int g = 0; g < 17; ++g) {
    std::vector<Word> col(5);
    for (Word& w : col) w = rng.next64();
    groups.push_back(col);
  }
  PatternBank one_by_one(5, 2);
  for (const auto& g : groups) one_by_one.append_words(g);
  PatternBank batched(5, 2);
  batched.append_groups(groups);
  // append_bank splices a whole bank's words in the same order.
  PatternBank tail(5, 0);
  tail.append_groups(groups);
  PatternBank spliced(5, 2);
  spliced.append_bank(tail);
  ASSERT_EQ(batched.num_words(), one_by_one.num_words());
  ASSERT_EQ(spliced.num_words(), one_by_one.num_words());
  for (unsigned pi = 0; pi < 5; ++pi)
    for (std::size_t w = 0; w < batched.num_words(); ++w) {
      ASSERT_EQ(batched.word(pi, w), one_by_one.word(pi, w));
      ASSERT_EQ(spliced.word(pi, w), one_by_one.word(pi, w));
    }
  // The batch reserves once up front, so it can never reallocate more
  // often than the one-by-one path.
  EXPECT_LE(batched.reallocations(), one_by_one.reallocations());
}

TEST(IncrementalSimBank, TruncateFrontSlidesTheStreamWindow) {
  PatternBank bank(3, 4);
  Rng rng(13);
  for (unsigned pi = 0; pi < 3; ++pi)
    for (std::size_t w = 0; w < 4; ++w) bank.word(pi, w) = rng.next64();
  const Word keep2 = bank.word(1, 2);
  const Word keep3 = bank.word(1, 3);
  EXPECT_EQ(bank.truncate_front(2), 2u);
  EXPECT_EQ(bank.num_words(), 2u);
  EXPECT_EQ(bank.word(1, 0), keep2);  // old column 2 is the new column 0
  EXPECT_EQ(bank.truncate_front(2), 0u);  // already fits: no-op
  EXPECT_EQ(bank.truncate_front(1), 1u);
  EXPECT_EQ(bank.word(1, 0), keep3);
}

TEST(CexCollector, PacksAssignmentsIntoBits) {
  CexCollector c(4);
  c.add({{0, true}, {2, true}});
  c.add({{1, true}});
  EXPECT_EQ(c.num_cexes(), 2u);
  PatternBank bank(4, 0);
  c.flush_into(bank);
  EXPECT_TRUE(c.empty());
  ASSERT_EQ(bank.num_words(), 1u);
  EXPECT_EQ(bank.word(0, 0) & 3, 1u);  // CEX0: pi0=1; CEX1: pi0=0
  EXPECT_EQ(bank.word(1, 0) & 3, 2u);  // CEX0: pi1=0; CEX1: pi1=1
  EXPECT_EQ(bank.word(2, 0) & 3, 1u);
  EXPECT_EQ(bank.word(3, 0) & 3, 0u);
}

TEST(CexCollector, SpillsIntoMultipleWords) {
  CexCollector c(2);
  for (int i = 0; i < 70; ++i) c.add({{0, true}});
  PatternBank bank(2, 0);
  c.flush_into(bank);
  EXPECT_EQ(bank.num_words(), 2u);
  EXPECT_EQ(bank.word(0, 0), ~Word{0});
  EXPECT_EQ(bank.word(0, 1), (Word{1} << 6) - 1);  // 6 leftover CEXs
}

TEST(Simulate, MatchesReferenceEvaluator) {
  const Aig a = testutil::random_aig(6, 80, 4, 77);
  const PatternBank bank = PatternBank::random(6, 2, 5);
  const Signatures sigs = simulate(a, bank);
  ASSERT_EQ(sigs.num_words, 2u);
  for (Var v = 0; v < a.num_nodes(); ++v) {
    for (unsigned bit = 0; bit < 128; bit += 17) {
      const std::size_t w = bit / 64;
      std::vector<bool> pis(6);
      for (unsigned i = 0; i < 6; ++i)
        pis[i] = (bank.word(i, w) >> (bit % 64)) & 1;
      const bool expect =
          v == 0 ? false : a.evaluate_lit(aig::make_lit(v), pis);
      ASSERT_EQ(static_cast<bool>((sigs.word(v, w) >> (bit % 64)) & 1),
                expect)
          << "node " << v << " bit " << bit;
    }
  }
}

TEST(Simulate, ComplementedFanins) {
  Aig a(2);
  const Lit g = a.add_and(aig::lit_not(a.pi_lit(0)), a.pi_lit(1));
  a.add_po(g);
  PatternBank bank(2, 1);
  bank.word(0, 0) = 0b0101;
  bank.word(1, 0) = 0b0011;
  const Signatures sigs = simulate(a, bank);
  EXPECT_EQ(sigs.word(aig::lit_var(g), 0) & 0xF, 0b0010u);
}

// ---------------------------------------------------------------------------
// Level schedule: one counting sort shared by every consumer.
// ---------------------------------------------------------------------------

TEST(IncrementalSimSchedule, MatchesComputeLevelsAndOrdersByLevel) {
  const Aig a = testutil::random_aig(8, 200, 4, 21);
  const aig::LevelSchedule s = aig::build_level_schedule(a);
  EXPECT_TRUE(s.matches(a));
  EXPECT_EQ(s.levels, aig::compute_levels(a));
  // order[offset[l]..offset[l+1]) must enumerate exactly the AND nodes of
  // level l, each AND node exactly once.
  std::vector<std::uint8_t> seen(a.num_nodes(), 0);
  for (std::uint32_t l = 1; l <= s.max_level; ++l) {
    for (std::size_t k = s.offset[l]; k < s.offset[l + 1]; ++k) {
      const Var v = s.order[k];
      ASSERT_TRUE(a.is_and(v));
      ASSERT_EQ(s.levels[v], l);
      ASSERT_FALSE(seen[v]);
      seen[v] = 1;
    }
  }
  std::size_t covered = 0;
  for (Var v = 0; v < a.num_nodes(); ++v) covered += seen[v];
  EXPECT_EQ(covered, a.num_ands());
  // A schedule goes stale with the AIG shape. AND(last node, pi0) cannot
  // already exist (no node has the topologically-last node as a fanin),
  // so this add genuinely grows the graph past the strash.
  Aig b = a;
  b.add_and(aig::make_lit(static_cast<Var>(b.num_nodes() - 1)), b.pi_lit(0));
  ASSERT_GT(b.num_nodes(), a.num_nodes());
  EXPECT_FALSE(s.matches(b));
}

TEST(IncrementalSimSchedule, SimulateWithScheduleIsBitIdentical) {
  const Aig a = testutil::random_aig(10, 300, 4, 22);
  const PatternBank bank = PatternBank::random(a.num_pis(), 6, 23);
  const aig::LevelSchedule s = aig::build_level_schedule(a);
  const Signatures plain = simulate(a, bank);
  const Signatures sched = simulate(a, bank, &s);
  EXPECT_EQ(plain.num_words, sched.num_words);
  EXPECT_EQ(plain.words, sched.words);
}

TEST(EcManager, GroupsEqualSignatures) {
  Aig a(3);
  const Lit x = a.pi_lit(0), y = a.pi_lit(1);
  const Lit f1 = a.add_and(x, y);
  const Lit f2 = a.add_and(a.add_or(x, y), f1);  // == f1
  const Lit g = a.add_xor(x, y);
  a.add_po(f2);
  a.add_po(g);
  const PatternBank bank = PatternBank::random(3, 4, 3);
  EcManager ec;
  ec.build(a, simulate(a, bank));
  bool found = false;
  for (const auto& cls : ec.classes()) {
    const bool has1 = std::count(cls.begin(), cls.end(), aig::lit_var(f1));
    const bool has2 = std::count(cls.begin(), cls.end(), aig::lit_var(f2));
    if (has1 && has2) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(EcManager, DetectsComplementedEquivalence) {
  // XOR and XNOR are both AND-rooted nodes here (OR-rooted functions are
  // complemented AND literals in an AIG), with complementary functions.
  Aig a(2);
  const Lit x = a.pi_lit(0), y = a.pi_lit(1);
  const Lit f = a.add_xor(x, y);                 // node computes x ^ y
  const Lit g = a.add_xor(x, aig::lit_not(y));   // node computes !(x ^ y)
  a.add_po(f);
  a.add_po(g);
  const PatternBank bank = PatternBank::random(2, 4, 3);
  EcManager ec;
  ec.build(a, simulate(a, bank));
  const Var vf = aig::lit_var(f), vg = aig::lit_var(g);
  bool same_class = false;
  for (const auto& cls : ec.classes())
    if (std::count(cls.begin(), cls.end(), vf) &&
        std::count(cls.begin(), cls.end(), vg)) {
      same_class = true;
      EXPECT_NE(ec.phase(vf), ec.phase(vg));
    }
  EXPECT_TRUE(same_class);
}

TEST(EcManager, CandidatePairsUseMinIdRepresentative) {
  const Aig a = testutil::random_aig(5, 60, 3, 42);
  const PatternBank bank = PatternBank::random(5, 1, 4);
  EcManager ec;
  ec.build(a, simulate(a, bank));
  for (const CandidatePair& p : ec.candidate_pairs())
    ASSERT_LT(p.repr, p.node);
}

TEST(EcManager, NeverSeparatesTrulyEquivalentNodes) {
  // Soundness of build+refine: nodes with equal (or complementary) global
  // functions must stay in one class no matter the patterns.
  const Aig a = testutil::random_aig(5, 60, 3, 43);
  const PatternBank bank = PatternBank::random(5, 2, 4);
  EcManager ec;
  ec.build(a, simulate(a, bank));
  ec.refine(simulate(a, PatternBank::random(5, 2, 99)));

  std::vector<tt::TruthTable> tts;
  for (Var v = 0; v < a.num_nodes(); ++v)
    tts.push_back(aig::global_truth_table(a, aig::make_lit(v)));
  std::vector<int> class_of(a.num_nodes(), -1);
  for (std::size_t c = 0; c < ec.classes().size(); ++c)
    for (Var v : ec.classes()[c]) class_of[v] = static_cast<int>(c);
  for (Var u = 0; u < a.num_nodes(); ++u)
    for (Var v = u + 1; v < a.num_nodes(); ++v)
      if (tts[u] == tts[v] || tts[u] == ~tts[v]) {
        ASSERT_TRUE(class_of[u] >= 0 && class_of[u] == class_of[v])
            << "equivalent nodes " << u << "," << v << " separated";
      }
}

TEST(EcManager, RefineSplitsOnDistinguishingPattern) {
  Aig a(2);
  const Lit x = a.pi_lit(0), y = a.pi_lit(1);
  const Lit f = a.add_and(x, y);
  const Lit g = a.add_or(x, y);
  a.add_po(f);
  a.add_po(g);
  // A bank where x==y on every pattern: AND and OR look identical.
  PatternBank bank(2, 1);
  bank.word(0, 0) = 0b0110;
  bank.word(1, 0) = 0b0110;
  EcManager ec;
  ec.build(a, simulate(a, bank));
  const Var vf = aig::lit_var(f), vg = aig::lit_var(g);
  auto same_class = [&] {
    for (const auto& cls : ec.classes())
      if (std::count(cls.begin(), cls.end(), vf) &&
          std::count(cls.begin(), cls.end(), vg))
        return true;
    return false;
  };
  ASSERT_TRUE(same_class());
  PatternBank refine_bank(2, 1);
  refine_bank.word(0, 0) = 1;
  refine_bank.word(1, 0) = 0;
  ec.refine(simulate(a, refine_bank));
  EXPECT_FALSE(same_class());
}

TEST(EcManager, MarkProvedSuppressesPair) {
  const Aig a = testutil::random_aig(5, 60, 3, 44);
  const PatternBank bank = PatternBank::random(5, 1, 4);
  EcManager ec;
  ec.build(a, simulate(a, bank));
  auto pairs = ec.candidate_pairs();
  ASSERT_FALSE(pairs.empty());
  const Var victim = pairs[0].node;
  ec.mark_proved(victim);
  for (const CandidatePair& p : ec.candidate_pairs())
    ASSERT_NE(p.node, victim);
}

TEST(EcManager, ConstantClassContainsConstLikeNodes) {
  Aig a(2);
  const Lit x = a.pi_lit(0);
  const Lit y = a.pi_lit(1);
  // Semantically-constant node strashing cannot fold:
  // (x & y) & (x & !y) == 0.
  const Lit g = a.add_and(a.add_and(x, y), a.add_and(x, aig::lit_not(y)));
  a.add_po(g);
  const PatternBank bank = PatternBank::random(2, 4, 5);
  EcManager ec;
  ec.build(a, simulate(a, bank));
  bool with_const = false;
  for (const auto& cls : ec.classes())
    if (std::count(cls.begin(), cls.end(), Var{0}) &&
        std::count(cls.begin(), cls.end(), aig::lit_var(g)))
      with_const = true;
  EXPECT_TRUE(with_const);
}

TEST(EcManager, RefineWithAppendedWordsMatchesFreshBuild) {
  // The engine's G-phase refinement: each CEX round simulates only its
  // new words, refines the live classes with them and appends them to
  // the bank. Refinement (equal on the old words, then equal on the new
  // ones) is the same partition as equality over every word, so the
  // candidate pairs must equal a fresh build over the whole bank.
  const Aig a = testutil::random_aig(8, 220, 4, 41);
  PatternBank bank = PatternBank::random(a.num_pis(), 4, 42);
  EcManager ec;
  ec.build(a, simulate(a, bank));
  const auto to_tuples = [](const std::vector<CandidatePair>& ps) {
    std::vector<std::tuple<Var, Var, bool>> out;
    for (const CandidatePair& p : ps) out.emplace_back(p.repr, p.node, p.phase);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (int round = 0; round < 4; ++round) {
    PatternBank new_words(a.num_pis(), 0);
    append_random_columns(new_words, 2 + round, 43 + round);
    ec.refine(simulate(a, new_words));
    bank.append_bank(new_words);
    EcManager fresh;
    fresh.build(a, simulate(a, bank));
    ASSERT_EQ(to_tuples(ec.candidate_pairs()),
              to_tuples(fresh.candidate_pairs()))
        << "round " << round;
  }
  EXPECT_EQ(ec.stats().builds, 1u);
  EXPECT_EQ(ec.stats().refines, 4u);
}

}  // namespace
}  // namespace simsweep::sim
