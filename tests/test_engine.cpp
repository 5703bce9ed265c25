/// \file test_engine.cpp
/// \brief Tests for the simulation-based CEC engine (paper §III).

#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "aig/aig_analysis.hpp"
#include "common/random.hpp"
#include "gen/arith.hpp"
#include "opt/balance.hpp"
#include "opt/resyn.hpp"
#include "test_util.hpp"
#include "obs/metric_names.hpp"

namespace simsweep::engine {
namespace {

using aig::Aig;

/// Engine parameters sized for small test circuits.
EngineParams small_params() {
  EngineParams p;
  p.k_P = 16;
  p.k_p = 10;
  p.k_g = 10;
  p.k_l = 6;
  p.memory_words = 1 << 16;
  return p;
}

TEST(Engine, TrivialMiters) {
  const SimCecEngine eng(small_params());
  Aig zero(2);
  zero.add_po(aig::kLitFalse);
  EXPECT_EQ(eng.check_miter(zero).verdict, Verdict::kEquivalent);
  Aig one(2);
  one.add_po(aig::kLitTrue);
  EXPECT_EQ(eng.check_miter(one).verdict, Verdict::kNotEquivalent);
  Aig empty(3);
  EXPECT_EQ(eng.check_miter(empty).verdict, Verdict::kEquivalent);
}

TEST(Engine, ProvesOptimizedCopyEquivalent) {
  const Aig a = testutil::random_aig(8, 120, 5, 200);
  const Aig b = opt::resyn2(a);
  const SimCecEngine eng(small_params());
  const EngineResult r = eng.check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_DOUBLE_EQ(r.stats.reduction_percent(), 100.0);
}

TEST(Engine, DisprovesMutantWithValidCex) {
  const Aig a = testutil::random_aig(8, 120, 5, 203);
  const Aig b = testutil::mutate(a, 204);
  if (aig::brute_force_equivalent(a, b)) GTEST_SKIP() << "mutation no-op";
  const SimCecEngine eng(small_params());
  const EngineResult r = eng.check(a, b);
  ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
  if (r.cex) {
    EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
  }
}

class EngineOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineOracle, VerdictMatchesBruteForce) {
  // The central soundness/completeness property on random small miters.
  // Any kEquivalent/kNotEquivalent verdict must agree with brute force;
  // kUndecided is allowed (incomplete method) but sound.
  const Aig a = testutil::random_aig(8, 100, 6, GetParam());
  const Aig b = (GetParam() % 2 == 0) ? opt::resyn_light(a)
                                      : testutil::mutate(a, GetParam() + 1);
  const bool equivalent = aig::brute_force_equivalent(a, b);
  const SimCecEngine eng(small_params());
  const EngineResult r = eng.check(a, b);
  if (r.verdict == Verdict::kEquivalent) {
    EXPECT_TRUE(equivalent);
  }
  if (r.verdict == Verdict::kNotEquivalent) {
    EXPECT_FALSE(equivalent);
  }
  // With 8 PIs everything is simulatable: the verdict must be decisive.
  EXPECT_NE(r.verdict, Verdict::kUndecided);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOracle,
                         ::testing::Values(210, 211, 212, 213, 214, 215,
                                           216, 217, 218, 219));

TEST(Engine, OneShotPoCheckingSolvesSmallSupports) {
  // All PO supports <= k_P: the P phase alone must finish the miter.
  const Aig a = gen::ripple_adder(6);            // 12 PIs
  const Aig b = gen::kogge_stone_adder(6);
  EngineParams p = small_params();
  p.k_P = 16;                                    // one-shot covers 12
  p.enable_global_phase = false;                 // force P to do the work
  p.max_local_phases = 0;
  const SimCecEngine eng(p);
  const EngineResult r = eng.check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  // Structural hashing may fold some miter POs to constants before the
  // phase runs; the P phase proves exactly the remaining ones.
  std::size_t nonconst_pos = 0;
  const Aig miter = aig::make_miter(a, b);
  for (aig::Lit po : miter.pos()) nonconst_pos += aig::lit_var(po) != 0;
  EXPECT_EQ(r.stats.pos_proved, nonconst_pos);
  EXPECT_GT(r.stats.po_seconds, 0.0);
}

TEST(Engine, PoPhaseFindsCex) {
  const Aig a = gen::ripple_adder(5);
  Aig b = gen::ripple_adder(5);
  // Break sum bit 3 in a way the miter cannot fold structurally
  // (a plain inversion folds the XOR to constant 1 and yields no CEX).
  b.set_po(3, b.add_and(b.po(3), b.pi_lit(0)));
  const SimCecEngine eng(small_params());
  const EngineResult r = eng.check(a, b);
  ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
  ASSERT_TRUE(r.cex.has_value());
  EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
}

TEST(Engine, GlobalPhaseReducesMiter) {
  // Disable P and L so only G runs, on a multiplier pair whose internal
  // nodes have small supports.
  const Aig a = gen::array_multiplier(4);
  const Aig b = gen::wallace_multiplier(4);
  EngineParams p = small_params();
  p.enable_po_phase = false;
  p.max_local_phases = 0;
  const SimCecEngine eng(p);
  const EngineResult r = eng.check(a, b);
  // 8-PI miter: G phase checks everything including the PO-drivers'
  // classes with the constant; full proof expected.
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GT(r.stats.pairs_proved_global, 0u);
}

TEST(Engine, LocalPhaseProvesLargeSupportPairs) {
  // Wide adder: supports up to 2n exceed k_g, so G cannot prove the upper
  // bits; local checking must. Keep k_P tiny so P cannot either.
  const Aig a = gen::ripple_adder(12);  // 24 PIs
  const Aig b = opt::balance(a);
  EngineParams p = small_params();
  p.k_P = 6;
  p.k_p = 6;
  p.k_g = 6;
  const SimCecEngine eng(p);
  const EngineResult r = eng.check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
}

TEST(Engine, UndecidedReturnsReducedSoundMiter) {
  // Cripple every phase: the engine must give up but the reduced miter it
  // returns must be equisatisfiable with the original.
  const Aig a = testutil::random_aig(12, 250, 6, 220);
  const Aig b = opt::resyn_light(a);
  EngineParams p = small_params();
  p.k_P = 4;
  p.k_p = 3;
  p.k_g = 3;
  p.k_l = 3;
  p.max_local_phases = 1;
  const SimCecEngine eng(p);
  const EngineResult r = eng.check(a, b);
  if (r.verdict == Verdict::kUndecided) {
    // The reduced miter must still be all-zero (a and b are equivalent,
    // and reduction only merges proven facts): sample patterns.
    EXPECT_EQ(r.reduced.num_pis(), a.num_pis());
    Rng rng(7);
    for (int t = 0; t < 64; ++t) {
      std::vector<bool> pis(r.reduced.num_pis());
      for (auto&& x : pis) x = rng.flip();
      for (bool v : r.reduced.evaluate(pis)) ASSERT_FALSE(v);
    }
  } else {
    EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  }
}

TEST(Engine, SnapshotsCaptured) {
  const Aig a = testutil::random_aig(8, 100, 4, 221);
  const Aig b = opt::resyn_light(a);
  EngineParams p = small_params();
  p.capture_snapshots = true;
  const SimCecEngine eng(p);
  const EngineResult r = eng.check(a, b);
  ASSERT_GE(r.snapshots.size(), 1u);
  EXPECT_EQ(r.snapshots[0].first, "P");
  // Snapshots preserve the PI interface.
  for (const auto& [name, snap] : r.snapshots)
    EXPECT_EQ(snap.num_pis(), a.num_pis());
}

TEST(Engine, PhaseBreakdownSumsReasonably) {
  const Aig a = testutil::random_aig(8, 150, 5, 222);
  const Aig b = opt::resyn_light(a);
  const SimCecEngine eng(small_params());
  const EngineResult r = eng.check(a, b);
  const double phases = r.stats.po_seconds + r.stats.global_seconds +
                        r.stats.local_seconds;
  EXPECT_LE(phases, r.stats.total_seconds + 1e-6);
  EXPECT_GT(r.stats.total_seconds, 0.0);
  // other_seconds completes the partition of the total: P + G + L + other
  // must account for the whole run (other covers simulation init, EC
  // building and rebuilds — the bug fixed here left it always 0).
  EXPECT_GE(r.stats.other_seconds, 0.0);
  EXPECT_NEAR(phases + r.stats.other_seconds, r.stats.total_seconds, 1e-6);
}

TEST(Engine, ReportCountsPhaseWork) {
  // A multiplier pair pushes work through all the instrumented modules:
  // exhaustive windows in P/G, EC building and refinement, cut passes in
  // L, rebuilds between phases. The report counters must witness it.
  const Aig a = gen::array_multiplier(4);
  const Aig b = gen::wallace_multiplier(4);
  EngineParams p = small_params();
  p.enable_po_phase = false;  // force G and L to do all the work
  p.k_P = 10;                 // escalation ceiling ≥ 8 PIs: still decisive
  p.k_p = 4;
  p.k_g = 5;
  const SimCecEngine eng(p);
  const EngineResult r = eng.check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  const obs::Snapshot& s = r.report;
  EXPECT_FALSE(s.empty());
  // Exhaustive simulator: batches ran and simulated words.
  EXPECT_GT(s.count(obs::metric::kExhaustiveBatches), 0u);
  EXPECT_GT(s.count(obs::metric::kExhaustiveWordsSimulated), 0u);
  EXPECT_GT(s.count(obs::metric::kExhaustiveWindows), 0u);
  // EC manager: classes were built from signatures.
  EXPECT_GT(s.count(obs::metric::kEcBuilds), 0u);
  EXPECT_GT(s.count(obs::metric::kEcClassesBuilt), 0u);
  // Partial simulator: pattern banks were simulated.
  EXPECT_GT(s.count(obs::metric::kPartialSimSimulateCalls), 0u);
  EXPECT_GT(s.count(obs::metric::kPartialSimPatternWords), 0u);
  // Miter manager: proved pairs were merged by rebuilds.
  EXPECT_GT(s.count(obs::metric::kMiterRebuilds), 0u);
  EXPECT_EQ(s.count(obs::metric::kMiterAndsRemoved),
            s.count(obs::metric::kMiterAndsBefore) - s.count(obs::metric::kMiterAndsAfter));
  // Cut generator: at least one Table I pass ran with enumerated cuts.
  EXPECT_GT(s.count("cut.pass1.runs") + s.count("cut.pass2.runs") +
                s.count("cut.pass3.runs"),
            0u);
  // Engine gauges mirror EngineStats.
  EXPECT_DOUBLE_EQ(s.value(obs::metric::kEngineTotalSeconds), r.stats.total_seconds);
  EXPECT_DOUBLE_EQ(s.value(obs::metric::kEnginePairsProvedGlobal),
                   static_cast<double>(r.stats.pairs_proved_global));
  EXPECT_DOUBLE_EQ(s.value(obs::metric::kEnginePairsProvedLocal),
                   static_cast<double>(r.stats.pairs_proved_local));
  // Thread pool gauges are always published (workers may be 0 on a
  // single-CPU host, so assert presence, not magnitude).
  EXPECT_NE(s.find(obs::metric::kPoolWorkers), nullptr);
  EXPECT_NE(s.find(obs::metric::kPoolJobs), nullptr);
}

TEST(Engine, WindowMergingDoesNotChangeVerdicts) {
  const Aig a = testutil::random_aig(9, 140, 5, 223);
  const Aig b = opt::resyn_light(a);
  EngineParams pm = small_params();
  pm.window_merging = true;
  EngineParams pn = small_params();
  pn.window_merging = false;
  const EngineResult rm = SimCecEngine(pm).check(a, b);
  const EngineResult rn = SimCecEngine(pn).check(a, b);
  EXPECT_EQ(rm.verdict, rn.verdict);
}

TEST(Engine, PassAblationStillSound) {
  const Aig a = testutil::random_aig(9, 140, 5, 224);
  const Aig b = opt::resyn_light(a);
  const bool equivalent = aig::brute_force_equivalent(a, b);
  for (unsigned pass = 0; pass < 3; ++pass) {
    EngineParams p = small_params();
    p.local_passes = {pass == 0, pass == 1, pass == 2};
    const EngineResult r = SimCecEngine(p).check(a, b);
    if (r.verdict != Verdict::kUndecided) {
      EXPECT_EQ(r.verdict == Verdict::kEquivalent, equivalent);
    }
  }
}

TEST(Engine, CancellationYieldsUndecided) {
  const Aig a = testutil::random_aig(10, 200, 5, 225);
  const Aig b = opt::resyn_light(a);
  const Aig m = aig::make_miter(a, b);
  if (aig::miter_proved(m)) GTEST_SKIP() << "strash already solved it";
  std::atomic<bool> cancel{true};
  EngineParams p = small_params();
  p.stop = fault::StopToken(&cancel);
  const EngineResult r = SimCecEngine(p).check_miter(m);
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
}

TEST(Engine, ArithmeticCrossImplementations) {
  // Classic CEC pairs: different adder/multiplier architectures.
  const SimCecEngine eng(small_params());
  EXPECT_EQ(eng.check(gen::ripple_adder(5), gen::kogge_stone_adder(5))
                .verdict,
            Verdict::kEquivalent);
  EXPECT_EQ(eng.check(gen::array_multiplier(3), gen::wallace_multiplier(3))
                .verdict,
            Verdict::kEquivalent);
}

}  // namespace
}  // namespace simsweep::engine
