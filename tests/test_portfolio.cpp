/// \file test_portfolio.cpp
/// \brief Tests for the combined (engine + SAT) and portfolio checkers.

#include "portfolio/portfolio.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/resume.hpp"
#include "common/timer.hpp"
#include "gen/arith.hpp"
#include "gen/suite.hpp"
#include "opt/resyn.hpp"
#include "sweep/parallel_sweeper.hpp"
#include "test_util.hpp"
#include "obs/metric_names.hpp"

namespace simsweep::portfolio {
namespace {

using aig::Aig;

CombinedParams small_combined() {
  CombinedParams p;
  p.engine.k_P = 16;
  p.engine.k_p = 10;
  p.engine.k_g = 10;
  p.engine.k_l = 6;
  p.engine.memory_words = 1 << 16;
  return p;
}

/// The doubled-`doublings` Table II miter of `family` vs its resyn2 copy.
Aig suite_miter(const char* family, unsigned doublings) {
  gen::SuiteParams sp;
  sp.doublings = doublings;
  const gen::BenchCase c = gen::make_case(family, sp);
  return aig::make_miter(c.original, c.optimized);
}

/// The report of a crashed run whose engine had not reduced `miter` yet.
obs::Snapshot untouched_report(const Aig& miter) {
  obs::Registry reg;
  const double ands = static_cast<double>(miter.num_ands());
  reg.set(obs::metric::kEngineInitialAnds, ands);
  reg.set(obs::metric::kEngineFinalAnds, ands);
  reg.set(obs::metric::kEnginePosTotal, static_cast<double>(miter.num_pos()));
  return reg.snapshot();
}

/// Wall seconds of `fn()`, result destruction included.
template <typename Fn>
double seconds_of(Fn&& fn) {
  const Timer t;
  fn();
  return t.seconds();
}

TEST(Combined, EngineAloneSolvesEasyCase) {
  const Aig a = gen::ripple_adder(5);
  const Aig b = gen::kogge_stone_adder(5);
  const CombinedResult r = combined_check(a, b, small_combined());
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_FALSE(r.used_sat);  // 10-PI supports fit the one-shot P phase
  EXPECT_DOUBLE_EQ(r.reduction_percent, 100.0);
}

TEST(Combined, SatFinishesWhatEngineLeaves) {
  // Cripple the engine so it must hand a residue to the SAT sweeper.
  const Aig a = testutil::random_aig(12, 260, 6, 300);
  const Aig b = opt::resyn_light(a);
  if (aig::miter_proved(aig::make_miter(a, b)))
    GTEST_SKIP() << "strash solved it";
  CombinedParams p = small_combined();
  p.engine.k_P = 4;
  p.engine.k_p = 3;
  p.engine.k_g = 3;
  p.engine.k_l = 3;
  p.engine.max_local_phases = 1;
  const CombinedResult r = combined_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  // Either the engine managed alone or SAT ran; both are acceptable, but
  // the timing columns must be consistent with the path taken.
  if (r.used_sat) {
    EXPECT_GT(r.sat_seconds, 0.0);
  }
}

TEST(Combined, DisproofPropagates) {
  const Aig a = testutil::random_aig(8, 120, 5, 304);
  const Aig b = testutil::mutate(a, 305);
  if (aig::brute_force_equivalent(a, b)) GTEST_SKIP() << "mutation no-op";
  const CombinedResult r = combined_check(a, b, small_combined());
  ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
  if (r.cex) {
    EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
  }
}

class CombinedOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CombinedOracle, AlwaysDecidesSmallMitersCorrectly) {
  const Aig a = testutil::random_aig(8, 110, 5, GetParam());
  const Aig b = (GetParam() % 2) ? testutil::mutate(a, GetParam() + 5)
                                 : opt::resyn_light(a);
  const bool equivalent = aig::brute_force_equivalent(a, b);
  const CombinedResult r = combined_check(a, b, small_combined());
  ASSERT_NE(r.verdict, Verdict::kUndecided);
  EXPECT_EQ(r.verdict == Verdict::kEquivalent, equivalent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CombinedOracle,
                         ::testing::Values(310, 311, 312, 313, 314, 315));

TEST(Combined, InterleavedRewritingMergesAttemptStats) {
  // Regression: with interleave_rewriting, the flow report's engine.*
  // totals must cover ALL engine attempts. The bug merged only
  // total_seconds and initial_ands, dropping the first attempt's
  // proved-pair counters.
  const Aig a = testutil::random_aig(12, 260, 6, 340);
  const Aig b = opt::resyn_light(a);
  if (aig::miter_proved(aig::make_miter(a, b)))
    GTEST_SKIP() << "strash solved it";
  CombinedParams p = small_combined();
  // Cripple the engine so the first attempt leaves a residue (forcing a
  // second, rewritten attempt) while still proving some pairs.
  p.engine.k_P = 4;
  p.engine.k_p = 3;
  p.engine.k_g = 4;
  p.engine.k_l = 4;
  p.engine.max_local_phases = 1;
  p.engine.escalate_global = false;

  // Baseline: the first attempt alone.
  const engine::SimCecEngine eng(p.engine);
  const engine::EngineResult first =
      eng.check_miter(aig::make_miter(a, b));
  if (first.verdict != Verdict::kUndecided)
    GTEST_SKIP() << "crippled engine still decided the miter";
  const std::size_t first_proved = first.stats.pairs_proved_global +
                                   first.stats.pairs_proved_local +
                                   first.stats.pos_proved;

  p.interleave_rewriting = true;
  p.max_rewrite_rounds = 1;
  const CombinedResult r = combined_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_EQ(r.report.count(obs::metric::kEngineAttempts), 2u);
  // Chain totals: at least the first attempt's work is in there, the
  // chain is measured against the original miter, and the phase-time
  // partition covers both attempts.
  const auto v = [&](const char* name) { return r.report.value(name); };
  EXPECT_GE(v(obs::metric::kEnginePairsProvedGlobal) +
                v(obs::metric::kEnginePairsProvedLocal) +
                v(obs::metric::kEnginePosProved),
            static_cast<double>(first_proved));
  EXPECT_DOUBLE_EQ(v(obs::metric::kEngineInitialAnds),
                   static_cast<double>(first.stats.initial_ands));
  EXPECT_GE(v(obs::metric::kEngineLocalPhases),
            static_cast<double>(first.stats.local_phases));
  // Time totals are noisy across runs; only their structure is checked:
  // the chain total must itself partition into phases + other.
  EXPECT_GT(v(obs::metric::kEngineTotalSeconds), 0.0);
  EXPECT_NEAR(v(obs::metric::kEnginePoSeconds) +
                  v(obs::metric::kEngineGlobalSeconds) +
                  v(obs::metric::kEngineLocalSeconds) +
                  v(obs::metric::kEngineOtherSeconds),
              v(obs::metric::kEngineTotalSeconds), 1e-6);
  // The result's Table II columns are read from the same totals.
  EXPECT_DOUBLE_EQ(r.engine_seconds, v(obs::metric::kEngineTotalSeconds));
  EXPECT_DOUBLE_EQ(r.reduction_percent,
                   v(obs::metric::kEngineReductionPercent));
}

TEST(Combined, SweeperGetsRemainingBudgetNotFullBudget) {
  // Regression (deadline plumbing, DESIGN.md §2.4): engine.time_limit is
  // the budget of the WHOLE combined flow. The SAT fallback used to be
  // handed the full budget again, so a combined run could legally take
  // twice its nominal limit. Now the sweeper's effective time_limit is
  // the budget *minus* the engine's elapsed time (floored at a small
  // epsilon), and CombinedResult records it for inspection.
  const Aig a = testutil::random_aig(12, 260, 6, 300);
  const Aig b = opt::resyn_light(a);
  if (aig::miter_proved(aig::make_miter(a, b)))
    GTEST_SKIP() << "strash solved it";
  CombinedParams p = small_combined();
  // Disable every engine phase so the undecided residue — and therefore
  // the SAT fallback — is guaranteed, making the budget check
  // deterministic.
  p.engine.enable_po_phase = false;
  p.engine.enable_global_phase = false;
  p.engine.max_local_phases = 0;
  p.engine.escalate_global = false;
  p.engine.time_limit = 30.0;  // generous: the engine spends a sliver of it
  const CombinedResult r = combined_check(a, b, p);
  ASSERT_TRUE(r.used_sat);
  EXPECT_GT(r.sweeper_time_limit, 0.0);
  EXPECT_LE(r.sweeper_time_limit, p.engine.time_limit);
  // The remaining budget is the total minus what the engine consumed.
  EXPECT_LE(r.sweeper_time_limit, p.engine.time_limit - r.engine_seconds + 0.5);

  // A caller-set sweeper limit tighter than the remaining budget wins.
  CombinedParams tight = p;
  tight.sweeper.time_limit = 1e-6;
  const CombinedResult rt = combined_check(a, b, tight);
  ASSERT_TRUE(rt.used_sat);
  EXPECT_LE(rt.sweeper_time_limit, 1e-6);
  EXPECT_EQ(rt.verdict, Verdict::kUndecided);  // no time to decide

  // Unbounded flow: no clamping happens and the field stays 0.
  CombinedParams unbounded = p;
  unbounded.engine.time_limit = 0;
  const CombinedResult ru = combined_check(a, b, unbounded);
  ASSERT_TRUE(ru.used_sat);
  EXPECT_DOUBLE_EQ(ru.sweeper_time_limit, 0.0);
}

TEST(Combined, ExhaustedBudgetShortCircuitsAttempts) {
  // Regression (expired-budget dribble): remaining() used to floor the
  // remainder at 0.05 s, so a spent budget still granted every
  // interleaved-rewriting round and the SAT fallback a 50 ms slice each —
  // up to max_rewrite_rounds+1 extra attempts past the deadline. With the
  // fix, a budget exhausted by the first engine attempt stops the flow
  // cold: exactly ONE engine attempt, no rewrite rounds, no sweeper.
  const Aig a = testutil::random_aig(12, 260, 6, 300);
  const Aig b = opt::resyn_light(a);
  if (aig::miter_proved(aig::make_miter(a, b)))
    GTEST_SKIP() << "strash solved it";
  CombinedParams p = small_combined();
  p.engine.enable_po_phase = false;
  p.engine.enable_global_phase = false;
  p.engine.max_local_phases = 0;
  p.engine.escalate_global = false;
  p.engine.time_limit = 1e-6;  // gone before the first attempt returns
  p.interleave_rewriting = true;
  p.max_rewrite_rounds = 5;  // pre-fix: 5 bonus rounds + the sweeper
  const CombinedResult r = combined_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
  EXPECT_EQ(r.report.count(obs::metric::kEngineAttempts), 1u);
  EXPECT_FALSE(r.used_sat);
  EXPECT_DOUBLE_EQ(r.sat_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.sweeper_time_limit, 0.0);
}

TEST(Combined, ResumedRunChargesElapsedAgainstDeadline) {
  // Regression (deadline plumbing x checkpoint/resume, DESIGN.md §2.8):
  // a resumed run restores the snapshot's wall-clock and charges it
  // against engine.time_limit, so the SAT fallback receives only the TRUE
  // remainder of the original budget — not the full budget restarted.
  // Here the "crashed" run had burned 80% of a 30 s budget; the resumed
  // leg's sweeper may see at most the remaining 6 s.
  const Aig a = testutil::random_aig(12, 260, 6, 300);
  const Aig b = opt::resyn_light(a);
  if (aig::miter_proved(aig::make_miter(a, b)))
    GTEST_SKIP() << "strash solved it";

  ckpt::CheckpointedParams cp;
  cp.combined = small_combined();
  // Same phase gating as above: the SAT fallback is guaranteed.
  cp.combined.engine.enable_po_phase = false;
  cp.combined.engine.enable_global_phase = false;
  cp.combined.engine.max_local_phases = 0;
  cp.combined.engine.escalate_global = false;
  cp.combined.engine.time_limit = 30.0;
  cp.checkpoint_path = ::testing::TempDir() + "simsweep_budget.ckpt";
  std::remove(cp.checkpoint_path.c_str());
  std::remove((cp.checkpoint_path + ".prev").c_str());

  // Hand-craft the crashed run's engine-boundary snapshot: 24 s already
  // spent, miter untouched.
  const aig::Aig miter = aig::make_miter(a, b);
  ckpt::Snapshot snap;
  snap.stage = ckpt::Stage::kEngine;
  snap.fingerprint = ckpt::run_fingerprint(miter, cp.combined);
  snap.elapsed_seconds = 24.0;
  snap.boundary = "G";
  snap.miter = miter;
  snap.report = untouched_report(miter);
  const std::vector<std::uint8_t> bytes = ckpt::serialize(snap);
  {
    std::ofstream out(cp.checkpoint_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  const ckpt::CheckpointedResult r =
      ckpt::checked_combined_check_miter(miter, cp);
  EXPECT_TRUE(r.resumed);
  ASSERT_TRUE(r.combined.used_sat);
  EXPECT_GT(r.combined.sweeper_time_limit, 0.0);
  EXPECT_LE(r.combined.sweeper_time_limit, 6.0);
}

/// Resumes the 12-PI random pair of the budget tests from a hand-crafted
/// `stage` snapshot that already spent 31 s of a 30 s budget.
ckpt::CheckpointedResult resume_overspent(ckpt::Stage stage,
                                          const char* tag) {
  const Aig a = testutil::random_aig(12, 260, 6, 300);
  const Aig b = opt::resyn_light(a);
  ckpt::CheckpointedParams cp;
  cp.combined = small_combined();
  cp.combined.engine.time_limit = 30.0;
  cp.checkpoint_path = ::testing::TempDir() + tag;
  std::remove(cp.checkpoint_path.c_str());
  std::remove((cp.checkpoint_path + ".prev").c_str());

  const aig::Aig miter = aig::make_miter(a, b);
  ckpt::Snapshot snap;
  snap.stage = stage;
  snap.fingerprint = ckpt::run_fingerprint(miter, cp.combined);
  snap.elapsed_seconds = 31.0;
  snap.boundary = stage == ckpt::Stage::kEngine ? "G" : "round";
  snap.miter = miter;
  snap.report = untouched_report(miter);
  const std::vector<std::uint8_t> bytes = ckpt::serialize(snap);
  {
    std::ofstream out(cp.checkpoint_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  return ckpt::checked_combined_check_miter(miter, cp);
}

TEST(Combined, OverspentEngineSnapshotRunsNothing) {
  // Regression (resume budget dribble): the resumed budget used to be
  // floored at 0.05 s, so an over-spent snapshot still ran an engine
  // attempt (which decides this pair in its P phase) and a 50 ms sweep.
  // The restored deadline is now already expired.
  const ckpt::CheckpointedResult r =
      resume_overspent(ckpt::Stage::kEngine, "simsweep_overspent_engine.ckpt");
  ASSERT_TRUE(r.resumed);
  EXPECT_EQ(r.combined.verdict, Verdict::kUndecided);
  EXPECT_DOUBLE_EQ(r.combined.report.value(obs::metric::kEnginePosProved), 0.0);
  EXPECT_DOUBLE_EQ(r.combined.report.value(obs::metric::kEngineLocalPhases),
                   0.0);
  EXPECT_DOUBLE_EQ(r.combined.report.value(obs::metric::kEnginePoSeconds), 0.0);
  EXPECT_FALSE(r.combined.used_sat);
  EXPECT_EQ(r.combined.sweeper_stats.sat_calls, 0u);
}

TEST(Combined, OverspentSweepSnapshotRunsNothing) {
  const ckpt::CheckpointedResult r =
      resume_overspent(ckpt::Stage::kSweep, "simsweep_overspent_sweep.ckpt");
  ASSERT_TRUE(r.resumed);
  EXPECT_EQ(r.combined.verdict, Verdict::kUndecided);
  EXPECT_FALSE(r.combined.used_sat);
  EXPECT_EQ(r.combined.sweeper_stats.sat_calls, 0u);
  EXPECT_DOUBLE_EQ(r.combined.sweeper_time_limit, 0.0);
}

// ---------------------------------------------------------------------------
// Exact-overrun regressions (DESIGN.md §2.4): every arm returns within its
// time_limit plus a small bounded latency, on a suite miter it cannot
// decide in twice that time.
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
/// Sanitizer builds only: instrumented code runs several times slower
/// between two polls and in teardown.
constexpr double kStopLatency = 0.5;
#else
constexpr double kStopLatency = 0.1;
#endif
constexpr double kArmLimit = 0.5;

TEST(Overrun, EngineStopsAtTimeLimit) {
  const Aig m = suite_miter("hyp", 0);
  engine::EngineParams p;
  p.time_limit = kArmLimit;
  EXPECT_LE(seconds_of([&] { engine::SimCecEngine(p).check_miter(m); }),
            kArmLimit + kStopLatency);
}

TEST(Overrun, SatSweeperStopsAtTimeLimit) {
  const Aig m = suite_miter("sqrt", 1);
  sweep::SweeperParams p;
  p.time_limit = kArmLimit;
  EXPECT_LE(seconds_of([&] { sweep::SatSweeper(p).check_miter(m); }),
            kArmLimit + kStopLatency);
}

TEST(Overrun, ShardedSweepStopsAtTimeLimit) {
  const Aig m = suite_miter("multiplier", 0);
  sweep::SweeperParams p;
  p.num_threads = 4;
  p.time_limit = kArmLimit;
  EXPECT_LE(seconds_of([&] { sweep::sweep_miter(m, p); }),
            kArmLimit + kStopLatency);
}

TEST(Overrun, CombinedStopsAtTimeLimit) {
  const Aig m = suite_miter("hyp", 0);
  CombinedParams p;
  p.engine.time_limit = kArmLimit;
  EXPECT_LE(seconds_of([&] { combined_check_miter(m, p); }),
            kArmLimit + kStopLatency);
}

TEST(Overrun, BddCheckStopsAtTimeLimit) {
  // Used to ignore a 0.5 s limit for over 60 s on this miter: the only
  // poll sat between AIG nodes, outside the apply recursion.
  const Aig m = suite_miter("voter", 0);
  bdd::BddCecParams p;
  p.time_limit = kArmLimit;
  EXPECT_LE(seconds_of([&] { bdd::bdd_check_miter(m, p); }),
            kArmLimit + kStopLatency);
}

TEST(Overrun, BddSweepStopsAtTimeLimit) {
  const Aig m = suite_miter("voter", 0);
  bdd::BddSweepParams p;
  p.time_limit = kArmLimit;
  EXPECT_LE(seconds_of([&] { bdd::bdd_sweep_miter(m, p); }),
            kArmLimit + kStopLatency);
}

TEST(Portfolio, LosersStopWhenTheWinnerDecides) {
  // The SAT arm decides voter in well under a second; the losers must
  // observe the race latch promptly. The BDD arms used to run on past
  // every limit, so the call did not return for minutes.
  const Aig m = suite_miter("voter", 0);
  PortfolioParams p;
  p.combined.engine.time_limit = 5.0;
  p.sweeper.time_limit = 5.0;
  p.bdd.time_limit = 5.0;
  p.bdd_sweep.time_limit = 5.0;
  PortfolioResult r;
  const double wall = seconds_of([&] { r = portfolio_check_miter(m, p); });
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_EQ(r.winner, "sat");
  EXPECT_LE(wall, r.seconds + 2 * kStopLatency);
}

TEST(Portfolio, FirstDecisiveEngineWins) {
  const Aig a = gen::array_multiplier(4);
  const Aig b = gen::wallace_multiplier(4);
  PortfolioParams p;
  p.combined = small_combined();
  const PortfolioResult r = portfolio_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_FALSE(r.winner.empty());
  EXPECT_GT(r.seconds, 0.0);
}

TEST(Portfolio, DisproofWithCex) {
  const Aig a = testutil::random_aig(8, 100, 4, 330);
  const Aig b = testutil::mutate(a, 331);
  if (aig::brute_force_equivalent(a, b)) GTEST_SKIP() << "mutation no-op";
  PortfolioParams p;
  p.combined = small_combined();
  const PortfolioResult r = portfolio_check(a, b, p);
  ASSERT_EQ(r.verdict, Verdict::kNotEquivalent);
  if (r.cex) {
    EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
  }
}

TEST(Portfolio, SubsetOfEnginesStillWorks) {
  const Aig a = gen::ripple_adder(4);
  const Aig b = gen::kogge_stone_adder(4);
  PortfolioParams p;
  p.combined = small_combined();
  p.run_combined = false;
  p.run_sat = false;
  p.run_bdd_sweep = false;  // only the monolithic BDD engine
  const PortfolioResult r = portfolio_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_EQ(r.winner, "bdd");
}

TEST(Portfolio, AllUndecidedReportsUndecided) {
  const Aig a = testutil::random_aig(12, 260, 6, 322);
  const Aig b = opt::resyn_light(a);
  if (aig::miter_proved(aig::make_miter(a, b)))
    GTEST_SKIP() << "strash solved it";
  PortfolioParams p;
  p.run_combined = false;
  p.run_sat = true;
  p.run_bdd = true;
  p.run_bdd_sweep = true;
  p.sweeper.time_limit = 1e-9;
  p.bdd.node_limit = 8;
  p.bdd_sweep.manager_limit = 8;
  const PortfolioResult r = portfolio_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
  EXPECT_TRUE(r.winner.empty());
}

}  // namespace
}  // namespace simsweep::portfolio
