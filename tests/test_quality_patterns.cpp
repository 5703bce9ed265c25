/// \file test_quality_patterns.cpp
/// \brief Tests for simulation-guided pattern generation.

#include "sim/quality_patterns.hpp"

#include <gtest/gtest.h>

#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "engine/engine.hpp"
#include "opt/resyn.hpp"
#include "test_util.hpp"

namespace simsweep::sim {
namespace {

using aig::Aig;

TEST(QualityPatterns, ClassCountMonotone) {
  const Aig a = testutil::random_aig(10, 200, 5, 500);
  QualityParams p;
  p.base_words = 1;
  p.candidate_rounds = 12;
  p.max_words = 6;
  QualityStats stats;
  const PatternBank bank = quality_patterns(a, p, &stats);
  EXPECT_GE(stats.classes_after, stats.classes_before);
  EXPECT_LE(stats.candidates_kept, stats.candidates_tried);
  EXPECT_LE(bank.num_words(), p.max_words);
  EXPECT_GE(bank.num_words(), p.base_words);
  // The returned bank really has the reported class count.
  EXPECT_EQ(count_signature_classes(a, bank), stats.classes_after);
}

TEST(QualityPatterns, CountClassesNeverSplitsTrueEquivalences) {
  // Class count is upper-bounded by the number of distinct global
  // functions (up to complement): no bank can do better.
  const Aig a = testutil::random_aig(6, 60, 3, 501);
  std::size_t distinct = 0;
  {
    std::vector<tt::TruthTable> seen;
    for (aig::Var v = 0; v < a.num_nodes(); ++v) {
      const tt::TruthTable t = aig::global_truth_table(a, aig::make_lit(v));
      bool found = false;
      for (const auto& s : seen)
        if (s == t || s == ~t) found = true;
      if (!found) {
        seen.push_back(t);
        ++distinct;
      }
    }
  }
  QualityParams p;
  p.base_words = 2;
  p.candidate_rounds = 16;
  p.max_words = 10;
  const PatternBank bank = quality_patterns(a, p);
  EXPECT_LE(count_signature_classes(a, bank), distinct);
}

TEST(QualityPatterns, ImprovesOrMatchesRandomOfSameSize) {
  const Aig a = testutil::random_aig(12, 300, 6, 502);
  QualityParams p;
  p.base_words = 1;
  p.candidate_rounds = 10;
  p.max_words = 4;
  const PatternBank quality = quality_patterns(a, p);
  const PatternBank random =
      PatternBank::random(a.num_pis(), quality.num_words(), p.seed);
  EXPECT_GE(count_signature_classes(a, quality),
            count_signature_classes(a, random));
}

TEST(QualityPatterns, EngineFlagStaysSound) {
  const Aig a = testutil::random_aig(8, 120, 5, 503);
  const Aig b = opt::resyn_light(a);
  engine::EngineParams p;
  p.k_P = 16;
  p.k_p = 10;
  p.k_g = 10;
  p.quality_patterns = true;
  const engine::EngineResult r = engine::SimCecEngine(p).check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
}

TEST(QualityPatterns, LocalOnlyEngineEntersWithTheQualityBank) {
  // With the G phase off the first L phase builds the bank; it must be
  // the same quality bank the G phase would have built, not a plain
  // random one.
  const Aig a = testutil::random_aig(12, 300, 6, 502);
  const Aig miter = aig::make_miter(a, opt::resyn_light(a));
  engine::EngineParams p;
  p.sim_words = 1;  // leaves quality_patterns room to add words
  p.enable_po_phase = false;
  p.enable_global_phase = false;
  p.quality_patterns = true;
  const engine::EngineResult r = engine::SimCecEngine(p).check_miter(miter);
  ASSERT_TRUE(r.bank.has_value());

  QualityParams qp;
  qp.base_words = p.sim_words;
  qp.max_words = p.sim_words + 4;
  qp.seed = p.seed;
  const PatternBank expected = quality_patterns(miter, qp);
  ASSERT_GT(expected.num_words(), p.sim_words);  // not the random base
  ASSERT_EQ(r.bank->num_pis(), expected.num_pis());
  ASSERT_EQ(r.bank->num_words(), expected.num_words());
  for (std::size_t w = 0; w < expected.num_words(); ++w)
    for (unsigned pi = 0; pi < expected.num_pis(); ++pi)
      EXPECT_EQ(r.bank->word(pi, w), expected.word(pi, w));
}

}  // namespace
}  // namespace simsweep::sim
