/// \file test_fault.cpp
/// \brief Fault-injection framework, resource governor and degradation
/// ladder (DESIGN.md §2.4).
///
/// Three layers of coverage:
///  - the injector itself (deterministic nth-hit and probability replay,
///    scoped install/restore, idle-path behaviour);
///  - the governor primitives (memory ledger, lease RAII, deadlines);
///  - end-to-end recovery: every catalogued site is injected against the
///    real engine / sweeper / pool with a fixed seed, and the run must
///    survive with a SOUND verdict while the run report records the
///    faults and the ladder steps taken (the PR's acceptance contract).

#include "fault/fault.hpp"
#include "fault/governor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "ckpt/checkpoint.hpp"
#include "engine/engine.hpp"
#include "common/timer.hpp"
#include "gen/arith.hpp"
#include "gen/suite.hpp"
#include "opt/resyn.hpp"
#include "parallel/thread_pool.hpp"
#include "portfolio/portfolio.hpp"
#include "service/cec_service.hpp"
#include "sweep/parallel_sweeper.hpp"
#include "sweep/sat_sweeper.hpp"
#include "test_util.hpp"
#include "obs/metric_names.hpp"

namespace simsweep {
namespace {

// ---------------------------------------------------------------------------
// Injector.
// ---------------------------------------------------------------------------

TEST(FaultInjector, IdleSitesNeverFire) {
  // No plan installed: the fast path (one relaxed load) returns false.
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(SIMSWEEP_FAULT_POINT("test.idle"));
}

TEST(FaultInjector, NthHitFiresDeterministically) {
  fault::FaultPlan plan;
  plan.on_hit("test.site", 3);  // fire exactly on the 3rd hit
  fault::ScopedFaultPlan scoped(plan);
  std::vector<bool> pattern;
  for (int i = 0; i < 6; ++i)
    pattern.push_back(SIMSWEEP_FAULT_POINT("test.site"));
  EXPECT_EQ(pattern,
            (std::vector<bool>{false, false, true, false, false, false}));
  EXPECT_EQ(scoped.hits("test.site"), 6u);
  EXPECT_EQ(scoped.fires("test.site"), 1u);
  EXPECT_EQ(scoped.fires_total(), 1u);
  // A site the plan does not arm records nothing and never fires.
  EXPECT_FALSE(SIMSWEEP_FAULT_POINT("test.unarmed"));
  EXPECT_EQ(scoped.fires("test.unarmed"), 0u);
}

TEST(FaultInjector, NthHitWithFireWindow) {
  fault::FaultPlan plan;
  plan.on_hit("test.site", 2, 3);  // hits 2, 3 and 4 fail
  fault::ScopedFaultPlan scoped(plan);
  std::vector<bool> pattern;
  for (int i = 0; i < 6; ++i)
    pattern.push_back(SIMSWEEP_FAULT_POINT("test.site"));
  EXPECT_EQ(pattern,
            (std::vector<bool>{false, true, true, true, false, false}));
  EXPECT_EQ(scoped.fires("test.site"), 3u);
}

TEST(FaultInjector, ProbabilityModeReplaysExactly) {
  // The per-site Rng substream is forked from the plan seed at install
  // time, so the same plan over the same hit sequence reproduces the
  // exact fire pattern — the property that makes probabilistic soak
  // failures replayable.
  fault::FaultPlan plan;
  plan.seed(42).with_probability("test.p", 0.3);
  auto run = [&](const fault::FaultPlan& pl) {
    std::vector<bool> fired;
    fault::ScopedFaultPlan scoped(pl);
    for (int i = 0; i < 200; ++i)
      fired.push_back(SIMSWEEP_FAULT_POINT("test.p"));
    return fired;
  };
  const std::vector<bool> first = run(plan);
  const std::vector<bool> second = run(plan);
  EXPECT_EQ(first, second);
  const std::size_t fires =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 0u);   // p=0.3 over 200 hits: all-miss is ~2^-103
  EXPECT_LT(fires, 200u);
  // A different seed forks different substreams.
  fault::FaultPlan other;
  other.seed(43).with_probability("test.p", 0.3);
  EXPECT_NE(run(other), first);
}

TEST(FaultInjector, MaxFiresBoundsProbabilityMode) {
  fault::FaultPlan plan;
  plan.seed(7).with_probability("test.p", 1.0, /*max_fires=*/2);
  fault::ScopedFaultPlan scoped(plan);
  int fires = 0;
  for (int i = 0; i < 10; ++i)
    if (SIMSWEEP_FAULT_POINT("test.p")) ++fires;
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(scoped.hits("test.p"), 10u);
}

TEST(FaultInjector, NestedPlansShadowAndRestore) {
  fault::FaultPlan outer;
  outer.on_hit("test.outer", 1, /*fires=*/0);  // unlimited
  fault::ScopedFaultPlan a(outer);
  EXPECT_TRUE(SIMSWEEP_FAULT_POINT("test.outer"));
  {
    fault::FaultPlan inner;
    inner.on_hit("test.inner", 1, 0);
    fault::ScopedFaultPlan b(inner);
    // The inner plan fully shadows the outer one for its scope.
    EXPECT_FALSE(SIMSWEEP_FAULT_POINT("test.outer"));
    EXPECT_TRUE(SIMSWEEP_FAULT_POINT("test.inner"));
  }
  EXPECT_TRUE(SIMSWEEP_FAULT_POINT("test.outer"));  // restored
  EXPECT_FALSE(SIMSWEEP_FAULT_POINT("test.inner"));
}

TEST(FaultInjector, ProcessFireCounterAccumulates) {
  const std::uint64_t before = fault::fires_total();
  fault::FaultPlan plan;
  plan.on_hit("test.site", 1, 3);
  {
    fault::ScopedFaultPlan scoped(plan);
    for (int i = 0; i < 5; ++i) (void)SIMSWEEP_FAULT_POINT("test.site");
  }
  EXPECT_EQ(fault::fires_total(), before + 3);
}

// ---------------------------------------------------------------------------
// Governor primitives.
// ---------------------------------------------------------------------------

TEST(Governor, LedgerChargesReleasesAndDenies) {
  fault::MemoryLedger ledger(1000);
  EXPECT_TRUE(ledger.try_charge(600));
  EXPECT_EQ(ledger.charged_bytes(), 600u);
  EXPECT_FALSE(ledger.try_charge(500));  // 1100 > 1000
  EXPECT_EQ(ledger.denials(), 1u);
  EXPECT_EQ(ledger.charged_bytes(), 600u);  // denied charge left no trace
  ledger.release(600);
  EXPECT_TRUE(ledger.try_charge(1000));  // exactly the budget fits
  EXPECT_EQ(ledger.peak_bytes(), 1000u);
  ledger.release(1000);
  EXPECT_EQ(ledger.charged_bytes(), 0u);
}

TEST(Governor, UnlimitedLedgerStillAccounts) {
  fault::MemoryLedger ledger;  // budget 0 = unlimited
  EXPECT_TRUE(ledger.try_charge(std::uint64_t{1} << 40));
  EXPECT_EQ(ledger.peak_bytes(), std::uint64_t{1} << 40);
  EXPECT_EQ(ledger.denials(), 0u);
  ledger.release(std::uint64_t{1} << 40);
}

TEST(Governor, LeaseIsRaiiAndMovable) {
  fault::MemoryLedger ledger(100);
  {
    fault::MemoryLease lease(&ledger, 80);
    EXPECT_TRUE(lease.ok());
    EXPECT_EQ(ledger.charged_bytes(), 80u);
    fault::MemoryLease moved = std::move(lease);
    EXPECT_TRUE(moved.ok());
    EXPECT_EQ(ledger.charged_bytes(), 80u);  // moved, not double-charged
    fault::MemoryLease denied(&ledger, 50);
    EXPECT_FALSE(denied.ok());
  }
  EXPECT_EQ(ledger.charged_bytes(), 0u);  // every lease released
  // A lease against no ledger always acquires (the governor is opt-in).
  fault::MemoryLease ungoverned(nullptr, 1 << 30);
  EXPECT_TRUE(ungoverned.ok());
}

TEST(Governor, DeadlineSemantics) {
  const fault::StopToken unbounded;
  EXPECT_FALSE(unbounded.bounded());
  EXPECT_FALSE(unbounded.stop_requested());
  EXPECT_FALSE(unbounded.child(0).bounded());
  EXPECT_FALSE(unbounded.child(-1).bounded());
  const fault::StopToken generous = unbounded.child(3600);
  EXPECT_TRUE(generous.bounded());
  EXPECT_FALSE(generous.stop_requested());
  EXPECT_GT(generous.remaining_seconds(), 3000.0);
  const fault::StopToken past = unbounded.child(1e-9);
  while (!past.expired()) {
  }
  EXPECT_DOUBLE_EQ(past.remaining_seconds(), 0.0);
  EXPECT_TRUE(past.stop_requested());
  EXPECT_FALSE(past.cancelled());

  // child() can only move the deadline earlier: a spent budget stays
  // spent however generous the child's cap.
  EXPECT_TRUE(past.child(3600).expired());
  EXPECT_LT(generous.child(10).remaining_seconds(), 11.0);
  EXPECT_GT(generous.child(0).remaining_seconds(), 3000.0);
  // An absolute time already past is expired, never unbounded.
  const fault::StopToken overdue =
      unbounded.until(fault::StopToken::now_plus(-5.0));
  EXPECT_TRUE(overdue.bounded());
  EXPECT_TRUE(overdue.expired());

  // The latch: copies and children share it; no deadline is implied.
  std::atomic<bool> latch{false};
  const fault::StopToken latched(&latch);
  const fault::StopToken child = latched.child(3600);
  EXPECT_FALSE(latched.bounded());
  EXPECT_FALSE(child.stop_requested());
  latch.store(true);
  EXPECT_TRUE(latched.cancelled());
  EXPECT_TRUE(child.stop_requested());
  EXPECT_FALSE(child.expired());
}

// ---------------------------------------------------------------------------
// End-to-end recovery through the engine.
// ---------------------------------------------------------------------------

/// Engine configuration that pushes an equivalent multiplier pair through
/// the G and L phases (same shape as the obs end-to-end test).
engine::EngineParams small_engine() {
  engine::EngineParams p;
  p.enable_po_phase = false;
  p.k_P = 10;
  p.k_p = 4;
  p.k_g = 5;
  p.k_l = 6;
  p.memory_words = 1 << 16;
  return p;
}

TEST(FaultRecovery, ExhaustiveAllocOomIsRecoveredByHalvingM) {
  // Satellite (c): inject bad_alloc at the simulation-table allocation.
  // The ladder's first rung halves M and retries; the verdict must stay
  // sound and the report must show the faults and the ladder activity.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kExhaustiveSimtAlloc, 1, /*fires=*/3);
  fault::ScopedFaultPlan scoped(plan);
  const engine::EngineResult r =
      engine::SimCecEngine(small_engine()).check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_EQ(scoped.fires(fault::sites::kExhaustiveSimtAlloc), 3u);
  EXPECT_GT(r.report.count(obs::metric::kFaultsInjected), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeLadderSteps), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeMemoryHalvings), 0u);
  EXPECT_GT(r.report.count("faults.site.exhaustive.simt_alloc"), 0u);
}

TEST(FaultRecovery, WindowMergeBuildFaultFallsBackToUnmergedWindows) {
  // Satellite (c): a failed merged-window build must fall back to the
  // original unmerged windows (copy-safe path), not lose checks.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kWindowMergeBuild, 1, /*fires=*/2);
  fault::ScopedFaultPlan scoped(plan);
  const engine::EngineResult r =
      engine::SimCecEngine(small_engine()).check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GT(scoped.fires(fault::sites::kWindowMergeBuild), 0u);
  EXPECT_GT(r.report.count(obs::metric::kFaultsInjected), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeLadderSteps), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeMergeFallbacks), 0u);
}

TEST(FaultRecovery, CutPassFaultIsRetriedWithBackoff) {
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kCutEnumOverflow, 1, /*fires=*/2);
  fault::ScopedFaultPlan scoped(plan);
  const engine::EngineResult r =
      engine::SimCecEngine(small_engine()).check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GT(scoped.fires(fault::sites::kCutEnumOverflow), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradePassRetries), 0u);
  EXPECT_GT(r.report.count(obs::metric::kFaultsInjected), 0u);
  // S3 accounting: both fires hit the first pass, which then succeeded on
  // its third attempt — exactly those 2 retries count as recovered (no
  // other recovery source is armed or under pressure in this run).
  EXPECT_EQ(r.report.count(obs::metric::kDegradePassRetries), 2u);
  EXPECT_EQ(r.report.count(obs::metric::kFaultsRecovered), 2u);
}

TEST(FaultRecovery, AbandonedPassRetriesAreNotCountedRecovered) {
  // S3 regression: with the overflow site firing on EVERY hit no pass can
  // ever complete — every retry is futile and every pass is abandoned.
  // faults_recovered must stay 0 (the old accounting credited each retry
  // as a recovery up front, so a fully-failing run looked "recovered").
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kCutEnumOverflow, 1, /*fires=*/0);  // unlimited
  fault::ScopedFaultPlan scoped(plan);
  const engine::EngineResult r =
      engine::SimCecEngine(small_engine()).check(a, b);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);  // soundness
  EXPECT_GT(scoped.fires(fault::sites::kCutEnumOverflow), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradePassRetries), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeUnitsAbandoned), 0u);
  EXPECT_EQ(r.report.count(obs::metric::kFaultsRecovered), 0u);
}

TEST(FaultRecovery, ExhaustedRetriesAbandonToUndecidedNeverUnsound) {
  // Fire the allocation site on EVERY hit: no retry can ever succeed, so
  // the ladder must bottom out by abandoning units. The run must still
  // terminate with a sound verdict — undecided, never a wrong answer and
  // never a crash.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kExhaustiveSimtAlloc, 1, /*fires=*/0);  // unlimited
  fault::ScopedFaultPlan scoped(plan);
  const engine::EngineResult r =
      engine::SimCecEngine(small_engine()).check(a, b);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);  // soundness
  EXPECT_GT(scoped.fires(fault::sites::kExhaustiveSimtAlloc), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeUnitsAbandoned), 0u);
  // S3: no batch ever completed, so no halving or split recovered
  // anything.
  EXPECT_EQ(r.report.count(obs::metric::kFaultsRecovered), 0u);
  // The abandoned residue remains in the miter for a downstream checker.
  if (r.verdict == Verdict::kUndecided) EXPECT_GT(r.reduced.num_ands(), 0u);
}

TEST(Governor, MemoryBudgetDenialsDegradeInsteadOfAborting) {
  // A real (uninjected) resource limit: a process budget far below the
  // configured M denies the first charges; the ladder halves M until
  // batches fit. The run completes and the gauges record the pressure.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  engine::EngineParams p = small_engine();
  p.memory_budget_bytes = 1 << 14;  // 16 KiB: M=2^16 words cannot fit
  p.min_memory_words = 1 << 9;
  const engine::EngineResult r = engine::SimCecEngine(p).check(a, b);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
  EXPECT_GT(r.report.count(obs::metric::kDegradeLadderSteps), 0u);
  EXPECT_GT(r.report.value(obs::metric::kDegradeMemoryDenials), 0.0);
  EXPECT_GT(r.report.value(obs::metric::kDegradeMemoryPeakBytes), 0.0);
  EXPECT_LE(r.report.value(obs::metric::kDegradeMemoryPeakBytes),
            static_cast<double>(p.memory_budget_bytes));
}

TEST(Governor, SharedLedgerIsChargedAcrossRuns) {
  const aig::Aig a = gen::array_multiplier(3);
  const aig::Aig b = gen::wallace_multiplier(3);
  fault::MemoryLedger ledger;  // unlimited, observing only
  engine::EngineParams p = small_engine();
  p.memory_ledger = &ledger;
  (void)engine::SimCecEngine(p).check(a, b);
  EXPECT_GT(ledger.peak_bytes(), 0u);
  EXPECT_EQ(ledger.charged_bytes(), 0u);  // all leases released
  EXPECT_EQ(ledger.denials(), 0u);
}

TEST(Governor, PhaseDeadlineExpiryRoutesToUndecided) {
  // An immediately-expiring per-phase deadline: every phase gives up its
  // remaining work. The verdict is undecided (sound), the process never
  // aborts, and the expiries and the windows they dropped (S4) are
  // recorded.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  engine::EngineParams p = small_engine();
  p.phase_time_limit = 1e-9;
  const engine::EngineResult r = engine::SimCecEngine(p).check(a, b);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
  EXPECT_GT(r.report.count(obs::metric::kDegradeDeadlineExpiries), 0u);
  EXPECT_GT(r.report.count(obs::metric::kDegradeUnitsAbandoned), 0u);
}

// ---------------------------------------------------------------------------
// Sweeper and pool sites.
// ---------------------------------------------------------------------------

TEST(FaultRecovery, SatSolveFaultsActLikeConflictLimitExhaustion) {
  const aig::Aig a = testutil::random_aig(8, 120, 5, 501);
  const aig::Aig b = opt::resyn_light(a);
  const aig::Aig miter = aig::make_miter(a, b);
  // A bounded burst of solve faults: those entries come back unknown and
  // the sweep continues; the verdict is still reached by later solves.
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kSatSolve, 1, /*fires=*/3);
    fault::ScopedFaultPlan scoped(plan);
    const sweep::SweepResult r = sweep::SatSweeper().check_miter(miter);
    EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
    if (scoped.hits(fault::sites::kSatSolve) > 0) {
      EXPECT_EQ(r.stats.solve_faults, scoped.fires(fault::sites::kSatSolve));
      EXPECT_GT(r.stats.solve_faults, 0u);
    }
  }
  // Every solve faulted: the sweeper must come back undecided — its
  // native sound failure mode — not crash or claim a verdict.
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kSatSolve, 1, /*fires=*/0);  // unlimited
    fault::ScopedFaultPlan scoped(plan);
    const sweep::SweepResult r = sweep::SatSweeper().check_miter(miter);
    if (scoped.fires(fault::sites::kSatSolve) > 0)
      EXPECT_EQ(r.verdict, Verdict::kUndecided);
  }
}

TEST(FaultRecovery, PoolSpawnFailuresDegradeToFewerWorkers) {
  // All spawns fail: the pool runs every launch inline on the caller.
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kPoolSpawn, 1, /*fires=*/0);
    fault::ScopedFaultPlan scoped(plan);
    parallel::ThreadPool pool(4);
    EXPECT_EQ(scoped.fires(fault::sites::kPoolSpawn), 4u);
    EXPECT_EQ(pool.stats().spawn_failures, 4u);
    EXPECT_EQ(pool.concurrency(), 1u);
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(0, 1000, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 1000u * 999u / 2);
  }
  // Partial failure: the pool degrades to the workers that did start and
  // still distributes work correctly.
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kPoolSpawn, 1, /*fires=*/2);
    fault::ScopedFaultPlan scoped(plan);
    parallel::ThreadPool pool(4);
    EXPECT_EQ(pool.stats().spawn_failures, 2u);
    EXPECT_EQ(pool.concurrency(), 3u);  // 2 surviving workers + caller
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(0, 10000, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 10000u * 9999u / 2);
  }
}

TEST(FaultRecovery, ShardAllocFaultDegradesToSequentialSweep) {
  // `sweep.shard_alloc` throws bad_alloc before the parallel sweep
  // commits any thread; the dispatcher must degrade to the sequential
  // sweeper, record the fallback, and still prove the miter.
  const aig::Aig a = testutil::random_aig(8, 120, 5, 501);
  const aig::Aig miter = aig::make_miter(a, opt::resyn_light(a));
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kSweepShardAlloc, 1, /*fires=*/1);
  fault::ScopedFaultPlan scoped(plan);
  sweep::SweeperParams sp;
  sp.num_threads = 4;
  const sweep::SweepResult r = sweep::sweep_miter(miter, sp);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_EQ(scoped.fires(fault::sites::kSweepShardAlloc), 1u);
  EXPECT_EQ(r.stats.parallel_fallbacks, 1u);
  EXPECT_EQ(r.stats.shards, 0u);  // the fallback ran sequentially
}

TEST(FaultRecovery, BoardMergeFaultDegradesToSequentialSweep) {
  // `sweep.board_merge` fires at the round barrier, i.e. after shards
  // already ran: the dispatcher abandons the partial parallel attempt
  // and re-checks sequentially — sound, never partial.
  const aig::Aig a = testutil::random_aig(8, 120, 5, 501);
  const aig::Aig miter = aig::make_miter(a, opt::resyn_light(a));
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kSweepBoardMerge, 1, /*fires=*/1);
  fault::ScopedFaultPlan scoped(plan);
  sweep::SweeperParams sp;
  sp.num_threads = 2;
  const sweep::SweepResult r = sweep::sweep_miter(miter, sp);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GT(scoped.fires(fault::sites::kSweepBoardMerge), 0u);
  EXPECT_EQ(r.stats.parallel_fallbacks, 1u);
}

TEST(FaultRecovery, SweepFallbackSpendsOnlyTheRemainingBudget) {
  // Regression: the sequential fallback used to restart time_limit from
  // zero, so a `sweep.board_merge` fire at the barrier of a round that
  // ran into the deadline let one call take ~2x its budget. The miter (a
  // refuted multiplier pair) needs far more than 2x time_limit on either
  // path, so only a shared deadline keeps the call inside its budget.
  gen::SuiteParams suite;
  suite.doublings = 0;
  const gen::BenchCase c = gen::make_case("multiplier", suite);
  const aig::Aig miter =
      aig::make_miter(c.original, testutil::mutate(c.optimized, 17));
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kSweepBoardMerge, 1, /*fires=*/1);
  fault::ScopedFaultPlan scoped(plan);
  sweep::SweeperParams sp;
  sp.num_threads = 2;
  sp.time_limit = 0.5;
  const Timer t;
  const sweep::SweepResult r = sweep::sweep_miter(miter, sp);
  const double elapsed = t.seconds();
  EXPECT_EQ(scoped.fires(fault::sites::kSweepBoardMerge), 1u);
  EXPECT_EQ(r.stats.parallel_fallbacks, 1u);
  EXPECT_NE(r.verdict, Verdict::kEquivalent);
  EXPECT_LE(elapsed, sp.time_limit + 0.1);
}

TEST(FaultRecovery, CombinedFlowCountsSweepFaultsInjected) {
  // The combined flow accounts sweep-phase fires as its own
  // faults.injected delta (the engine publishes only its delta), and the
  // report records the degradation under sat_sweeper.parallel_fallbacks.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.on_hit(fault::sites::kSweepShardAlloc, 1, /*fires=*/1);
  fault::ScopedFaultPlan scoped(plan);
  portfolio::CombinedParams p;
  p.engine = small_engine();
  // Expire every engine phase so the whole miter reaches the sweep.
  p.engine.phase_time_limit = 1e-9;
  p.sweeper.num_threads = 2;
  const portfolio::CombinedResult r = portfolio::combined_check(a, b, p);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
  EXPECT_GT(scoped.fires(fault::sites::kSweepShardAlloc), 0u);
  EXPECT_GE(r.report.count(obs::metric::kFaultsInjected), 1u);
  EXPECT_DOUBLE_EQ(r.report.value(obs::metric::kSweeperParallelFallbacks), 1.0);
}

// ---------------------------------------------------------------------------
// The acceptance soak: every catalogued site, fixed seed, sound verdicts.
// ---------------------------------------------------------------------------

TEST(FaultSites, EveryCataloguedSiteSurvivesInjection) {
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  const aig::Aig sat_a = testutil::random_aig(8, 120, 5, 501);
  const aig::Aig sat_miter = aig::make_miter(sat_a, opt::resyn_light(sat_a));

  for (const char* site : fault::kCataloguedSites) {
    SCOPED_TRACE(site);
    fault::FaultPlan plan;
    plan.seed(0xD15EA5EULL).on_hit(site, 1, /*fires=*/2);
    fault::ScopedFaultPlan scoped(plan);
    const std::string_view name(site);
    if (name == fault::sites::kPoolSpawn) {
      // The process-wide pool exists before any test runs; spawn faults
      // are exercised against a fresh pool instance.
      parallel::ThreadPool pool(4);
      EXPECT_EQ(pool.stats().spawn_failures, 2u);
      std::atomic<int> count{0};
      pool.parallel_for(0, 100, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
      EXPECT_EQ(count.load(), 100);
    } else if (name == fault::sites::kSatSolve) {
      const sweep::SweepResult r =
          sweep::SatSweeper().check_miter(sat_miter);
      EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
    } else if (name == fault::sites::kSweepShardAlloc || name == fault::sites::kSweepBoardMerge) {
      // Parallel-sweep host faults: the dispatcher must degrade to the
      // sequential sweeper and still produce a sound verdict.
      sweep::SweeperParams sp;
      sp.num_threads = 2;
      const sweep::SweepResult r = sweep::sweep_miter(sat_miter, sp);
      EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
      EXPECT_EQ(r.stats.parallel_fallbacks, 1u);
    } else if (name == fault::sites::kCkptWrite) {
      // A failed durable write leaves the run unaffected; the snapshot
      // stays pending and lands once the plan is spent (DESIGN.md §2.8).
      const std::string path = ::testing::TempDir() + "soak_ckpt_write.ckpt";
      std::remove(path.c_str());
      std::remove((path + ".prev").c_str());
      ckpt::CheckpointManager mgr({path, 0.0, nullptr, {}});
      ckpt::Snapshot s;
      s.fingerprint = 1;
      s.miter = sat_miter;
      mgr.offer(s);  // fire 1: write fails, pending kept
      mgr.offer(s);  // fire 2
      EXPECT_EQ(mgr.writes(), 0u);
      mgr.flush();   // plan spent: the pending snapshot lands
      EXPECT_EQ(mgr.writes(), 1u);
      EXPECT_TRUE(mgr.load(1).has_value());
    } else if (name == fault::sites::kCkptLoad) {
      // A failed snapshot read fails CLOSED: the ladder ends in a fresh
      // run, never resuming questionable state.
      const std::string path = ::testing::TempDir() + "soak_ckpt_load.ckpt";
      std::remove(path.c_str());
      std::remove((path + ".prev").c_str());
      ckpt::CheckpointManager mgr({path, 0.0, nullptr, {}});
      ckpt::Snapshot s;
      s.fingerprint = 2;
      s.miter = sat_miter;
      mgr.offer(s);
      EXPECT_FALSE(mgr.load(2).has_value());
    } else if (name == fault::sites::kServiceAdmit ||
               name == fault::sites::kServiceCache) {
      // Batch-service drills (DESIGN.md §2.9): a forced admission denial
      // degrades to queuing (or to the un-staked progress exception when
      // nothing runs), a forced cache miss to a sound recompute. Either
      // way every job still reaches the true verdict.
      service::CecService svc(service::ServiceParams{});
      std::vector<service::JobSpec> jobs(2);
      jobs[0].id = "soak1";
      jobs[0].a = a;
      jobs[0].b = b;
      jobs[0].params.engine = small_engine();
      jobs[1] = jobs[0];
      jobs[1].id = "soak2";
      for (const service::JobResult& res : svc.run_batch(std::move(jobs)))
        EXPECT_EQ(res.verdict, Verdict::kEquivalent);
    } else if (name == fault::sites::kCkptChildCrash) {
      // The real site aborts the process right after a durable write, so
      // the in-process soak only records the hit; the process-death path
      // is covered by the supervised CLI gate (cli_supervise_resume) and
      // the CI kill-and-resume smoke.
      EXPECT_TRUE(SIMSWEEP_FAULT_POINT(fault::sites::kCkptChildCrash));
    } else {
      const engine::EngineResult r =
          engine::SimCecEngine(small_engine()).check(a, b);
      EXPECT_EQ(r.verdict, Verdict::kEquivalent);
      EXPECT_GT(r.report.count(obs::metric::kFaultsInjected), 0u);
      EXPECT_GT(r.report.count(obs::metric::kDegradeLadderSteps), 0u);
    }
    EXPECT_GT(scoped.hits(site), 0u);   // the site was really exercised
    EXPECT_GT(scoped.fires(site), 0u);  // and really failed
  }
}

TEST(FaultSites, ProbabilisticMultiSiteSoakStaysSound) {
  // Every catalogued site armed at once with a low per-hit probability
  // and a fixed seed (replayable), the sweep phase running parallel so
  // the sweep.* sites are on-path. The combined checker must come
  // through with a sound verdict for an equivalent pair: anything except
  // kNotEquivalent, and no crash.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  fault::FaultPlan plan;
  plan.seed(0xC0FFEEULL);
  for (const char* site : fault::kCataloguedSites)
    plan.with_probability(site, 0.02);
  fault::ScopedFaultPlan scoped(plan);
  portfolio::CombinedParams p;
  p.engine = small_engine();
  p.sweeper.num_threads = 2;
  const portfolio::CombinedResult r = portfolio::combined_check(a, b, p);
  EXPECT_NE(r.verdict, Verdict::kNotEquivalent);
  EXPECT_GT(scoped.hits(fault::sites::kExhaustiveSimtAlloc), 0u);
}

}  // namespace
}  // namespace simsweep
