/// \file test_parallel_sweep.cpp
/// \brief Parallel residue sweeping tests (DESIGN.md §2.5): determinism
/// of the sharded sweep across thread counts and repeated runs, oracle
/// soundness, dispatcher routing and the fallback deadline, and the
/// combined flow's report shape.
///
/// Suite names carry the "ParallelSweep" prefix on purpose: the checked-
/// executor leg of tools/run_static_analysis.sh selects them by that
/// regex (together with ThreadPool/StagePlan/Checked).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <tuple>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "gen/arith.hpp"
#include "opt/refactor.hpp"
#include "parallel/thread_pool.hpp"
#include "portfolio/portfolio.hpp"
#include "sweep/parallel_sweeper.hpp"
#include "test_util.hpp"
#include "obs/metric_names.hpp"

namespace simsweep {
namespace {

using aig::Aig;
using aig::Lit;

/// The deterministic core of SweeperStats (sat_sweeper.hpp contract):
/// everything except scheduling telemetry (steals, shard breakdown, wall
/// times) and the shards config echo.
using CoreStats = std::tuple<Verdict, std::size_t, std::size_t, std::size_t,
                             std::size_t, std::uint64_t, std::size_t,
                             std::size_t, std::size_t, std::size_t,
                             std::size_t>;

CoreStats core_stats(const sweep::SweepResult& r) {
  const sweep::SweeperStats& s = r.stats;
  return {r.verdict,      s.sat_calls,  s.pairs_proved, s.pairs_disproved,
          s.pairs_undecided, s.conflicts, s.solve_faults, s.chunks,
          s.board_merges, s.cex_shared, s.pairs_sim_resolved};
}

/// A miter the structural front end cannot solve: array vs Wallace
/// multiplier (genuinely different structures, many internal candidate
/// pairs). The inequivalent variant mutates the Wallace side until the
/// mutation provably changes the function.
Aig hard_miter(std::uint64_t seed, bool equivalent) {
  const Aig a = gen::array_multiplier(4);
  Aig b = gen::wallace_multiplier(4);
  if (!equivalent) {
    for (std::uint64_t s = seed;; ++s) {
      Aig c = testutil::mutate(b, s);
      if (!aig::brute_force_equivalent(b, c)) {
        b = std::move(c);
        break;
      }
    }
  }
  return aig::make_miter(a, b);
}

TEST(ParallelSweep, DeterministicAcrossThreadCountsAndRuns) {
  // sim_support_limit 0 forces every pair through the sharded SAT path;
  // the default resolves them by cone simulation. Both must honor the
  // determinism contract.
  for (const unsigned sim_limit : {0u, 12u}) {
    for (const bool equivalent : {true, false}) {
      const Aig m = hard_miter(2024, equivalent);
      sweep::SweeperParams p;
      p.sim_support_limit = sim_limit;
      p.pairs_per_chunk = 4;  // many chunks => real sharding on small miters
      std::vector<CoreStats> runs;
      for (const unsigned threads : {1u, 2u, 4u}) {
        for (int rep = 0; rep < 2; ++rep) {
          p.num_threads = threads;
          runs.push_back(
              core_stats(sweep::ParallelSatSweeper(p).check_miter(m)));
        }
      }
      for (std::size_t i = 1; i < runs.size(); ++i)
        EXPECT_EQ(runs[i], runs[0])
            << "sim_limit=" << sim_limit << " equivalent=" << equivalent
            << " run " << i << " diverged";
    }
  }
}

TEST(ParallelSweep, SimResolutionSettlesSmallSupportPairsWithoutSat) {
  // The multiplier miter has 8 PIs, so with the default support limit
  // every candidate pair fits the simulation window: the whole sweep —
  // including the PO phase, whose cones collapse to constant false
  // through the merges — must finish with zero SAT activity.
  const Aig m = hard_miter(808, /*equivalent=*/true);
  sweep::SweeperParams p;
  p.num_threads = 2;
  const sweep::SweepResult sim = sweep::ParallelSatSweeper(p).check_miter(m);
  EXPECT_EQ(sim.verdict, Verdict::kEquivalent);
  EXPECT_GT(sim.stats.pairs_sim_resolved, 0u);
  EXPECT_EQ(sim.stats.sat_calls, 0u);
  EXPECT_EQ(sim.stats.conflicts, 0u);
  // Disabling the window sends the same pairs to the solvers instead,
  // with the same verdict and merge set.
  p.sim_support_limit = 0;
  const sweep::SweepResult sat = sweep::ParallelSatSweeper(p).check_miter(m);
  EXPECT_EQ(sat.verdict, Verdict::kEquivalent);
  EXPECT_EQ(sat.stats.pairs_sim_resolved, 0u);
  EXPECT_GT(sat.stats.sat_calls, 0u);
  EXPECT_EQ(sat.stats.pairs_proved, sim.stats.pairs_proved);

  // Inequivalent side: simulation finds the distinguishing minterms and
  // the reconstructed CEX patterns drive class refinement to a sound
  // kNotEquivalent.
  const Aig n = hard_miter(809, /*equivalent=*/false);
  sweep::SweeperParams q;
  q.num_threads = 2;
  const sweep::SweepResult r = sweep::ParallelSatSweeper(q).check_miter(n);
  EXPECT_EQ(r.verdict, Verdict::kNotEquivalent);
  EXPECT_GT(r.stats.pairs_sim_resolved, 0u);
}

TEST(ParallelSweep, ShardTelemetryIsPopulated) {
  const Aig m = hard_miter(31337, /*equivalent=*/true);
  sweep::SweeperParams p;
  p.num_threads = 3;
  p.pairs_per_chunk = 2;
  const sweep::SweepResult r = sweep::ParallelSatSweeper(p).check_miter(m);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GE(r.stats.shards, 1u);
  EXPECT_LE(r.stats.shards, 3u);
  EXPECT_GT(r.stats.chunks, 0u);
  // The per-shard vector covers exactly the shards that RAN (the
  // stats.shards high-water mark), not the configured thread count.
  EXPECT_EQ(r.stats.shard.size(), r.stats.shards);
  std::size_t claimed = 0;
  for (const sweep::ShardStats& s : r.stats.shard) claimed += s.chunks;
  EXPECT_GT(claimed, 0u);
  // Every proved pair was applied at a barrier exactly once.
  EXPECT_EQ(r.stats.board_merges, r.stats.pairs_proved);
}

TEST(ParallelSweep, ShardStatsSizedByActualShardsNotThreads) {
  // Regression (shard-stats over-reporting): the per-shard vector was
  // resized to num_threads up front, although only
  // min(num_threads, num_chunks) shards ever run. A run whose pair list
  // fits one chunk then reported three phantom all-zero shards — and the
  // portfolio's publisher emitted sat_sweeper.shard.s1..s3 rows for
  // shards that never existed.
  const Aig m = hard_miter(4242, /*equivalent=*/true);
  sweep::SweeperParams p;
  p.num_threads = 4;
  p.pairs_per_chunk = 100000;  // everything fits one chunk -> one shard
  const sweep::SweepResult r = sweep::ParallelSatSweeper(p).check_miter(m);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_EQ(r.stats.shards, 1u);
  EXPECT_EQ(r.stats.shard.size(), 1u);  // pre-fix: 4, three of them zero
  EXPECT_GT(r.stats.shard[0].chunks, 0u);
}

TEST(ParallelSweep, EmptyPairListReportsZeroShards) {
  // num_chunks == 0 edge of the same fix: a miter with no candidate
  // pairs never starts a shard, so the telemetry must show zero shards
  // and an empty per-shard vector while the PO proving still decides.
  Aig a(1);  // x
  a.add_po(a.pi_lit(0));
  Aig b(1);  // !x — the XOR strashes to constant true: zero AND nodes,
             // zero internal candidate pairs, still a real disproof
  b.add_po(aig::lit_not(b.pi_lit(0)));
  const Aig m = aig::make_miter(a, b);
  sweep::SweeperParams p;
  p.num_threads = 3;
  const sweep::SweepResult r = sweep::ParallelSatSweeper(p).check_miter(m);
  EXPECT_EQ(r.verdict, Verdict::kNotEquivalent);
  // A constant-true miter PO is disproved structurally; when a concrete
  // pattern is materialized it must be a real witness.
  if (r.cex) EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
  EXPECT_EQ(r.stats.shards, 0u);
  EXPECT_TRUE(r.stats.shard.empty());
}

TEST(ParallelSweep, InjectedSharedPoolMatchesPrivatePool) {
  // SweeperParams::pool lets the batch service run every job's sweep on
  // ONE shared pool. Injection must be behaviorally invisible: the core
  // stats are bit-identical to the private-pool run.
  const Aig m = hard_miter(909, /*equivalent=*/true);
  sweep::SweeperParams p;
  p.num_threads = 3;
  p.pairs_per_chunk = 2;
  const sweep::SweepResult r1 = sweep::ParallelSatSweeper(p).check_miter(m);
  parallel::ThreadPool shared(2);
  p.pool = &shared;
  const sweep::SweepResult r2 = sweep::ParallelSatSweeper(p).check_miter(m);
  EXPECT_EQ(r1.verdict, Verdict::kEquivalent);
  EXPECT_EQ(core_stats(r1), core_stats(r2));
}

class ParallelSweepOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelSweepOracle, AgreesWithBruteForce) {
  const Aig a = testutil::random_aig(7, 80, 5, GetParam());
  const Aig b = testutil::mutate(a, GetParam() * 31 + 7);
  sweep::SweeperParams p;
  p.num_threads = 3;
  p.pairs_per_chunk = 8;
  const sweep::SweepResult r = sweep::sweep_miter(aig::make_miter(a, b), p);
  ASSERT_NE(r.verdict, Verdict::kUndecided);
  EXPECT_EQ(r.verdict == Verdict::kEquivalent,
            aig::brute_force_equivalent(a, b));
  if (r.verdict == Verdict::kNotEquivalent) {
    ASSERT_TRUE(r.cex.has_value());
    EXPECT_NE(a.evaluate(*r.cex), b.evaluate(*r.cex));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSweepOracle,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

TEST(ParallelSweep, DispatcherRoutesByThreadCount) {
  const Aig m = hard_miter(555, /*equivalent=*/true);
  sweep::SweeperParams p;
  p.num_threads = 1;
  const sweep::SweepResult seq = sweep::sweep_miter(m, p);
  EXPECT_EQ(seq.verdict, Verdict::kEquivalent);
  EXPECT_EQ(seq.stats.shards, 0u);  // sequential path: no shard loops
  EXPECT_EQ(seq.stats.chunks, 0u);
  EXPECT_EQ(seq.stats.parallel_fallbacks, 0u);
  p.num_threads = 2;
  const sweep::SweepResult par = sweep::sweep_miter(m, p);
  EXPECT_EQ(par.verdict, Verdict::kEquivalent);
  EXPECT_GE(par.stats.shards, 1u);
  EXPECT_EQ(par.stats.parallel_fallbacks, 0u);
}

TEST(ParallelSweep, ParallelMatchesSequentialVerdict) {
  for (const std::uint64_t seed : {611u, 612u, 613u}) {
    for (const bool equivalent : {true, false}) {
      const Aig m = hard_miter(seed, equivalent);
      sweep::SweeperParams p;
      const sweep::SweepResult seq = sweep::SatSweeper(p).check_miter(m);
      p.num_threads = 2;
      p.pairs_per_chunk = 4;
      const sweep::SweepResult par = sweep::sweep_miter(m, p);
      EXPECT_EQ(par.verdict, seq.verdict)
          << "seed " << seed << " equivalent=" << equivalent;
    }
  }
}

TEST(ParallelSweep, TimeLimitYieldsUndecided) {
  const Aig a = testutil::random_aig(10, 300, 6, 121);
  const Aig m = aig::make_miter(a, opt::refactor(a));
  if (aig::miter_proved(m)) GTEST_SKIP() << "refactor was the identity";
  sweep::SweeperParams p;
  p.num_threads = 4;
  p.time_limit = 1e-9;  // expires immediately
  const sweep::SweepResult r = sweep::sweep_miter(m, p);
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
}

TEST(ParallelSweep, CancellationYieldsUndecided) {
  const Aig a = testutil::random_aig(10, 300, 6, 121);
  const Aig m = aig::make_miter(a, opt::refactor(a));
  if (aig::miter_proved(m)) GTEST_SKIP() << "refactor was the identity";
  std::atomic<bool> cancel{true};
  sweep::SweeperParams p;
  p.num_threads = 4;
  p.stop = fault::StopToken(&cancel);
  const sweep::SweepResult r = sweep::sweep_miter(m, p);
  EXPECT_EQ(r.verdict, Verdict::kUndecided);
}

TEST(ParallelSweep, StructurallySolvedMitersShortCircuit) {
  sweep::SweeperParams p;
  p.num_threads = 4;
  Aig zero(2);
  zero.add_po(aig::kLitFalse);
  EXPECT_EQ(sweep::sweep_miter(zero, p).verdict, Verdict::kEquivalent);
  Aig one(2);
  one.add_po(aig::kLitTrue);
  EXPECT_EQ(sweep::sweep_miter(one, p).verdict, Verdict::kNotEquivalent);
}

TEST(ParallelSweep, CombinedFlowPublishesShardCounters) {
  // When the combined flow's sweep phase runs sharded, the v2 run report
  // gains the sat_sweeper.{shards,chunks,...} gauges and the per-shard
  // breakdown; sequential runs keep their historical report shape.
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  portfolio::CombinedParams p;
  p.engine.enable_po_phase = false;
  p.engine.k_P = 10;
  p.engine.k_p = 4;
  p.engine.k_g = 5;
  p.engine.k_l = 6;
  p.engine.memory_words = 1 << 16;
  // Expire the engine phases so the whole miter reaches the sweep.
  p.engine.phase_time_limit = 1e-9;
  p.sweeper.num_threads = 2;
  p.sweeper.pairs_per_chunk = 4;
  const portfolio::CombinedResult r = portfolio::combined_check(a, b, p);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  EXPECT_GE(r.report.value(obs::metric::kSweeperShards), 1.0);
  EXPECT_GE(r.report.value(obs::metric::kSweeperChunks), 1.0);
  EXPECT_GT(r.report.value(obs::metric::kSweeperBoardMerges), 0.0);
  EXPECT_DOUBLE_EQ(r.report.value(obs::metric::kSweeperParallelFallbacks), 0.0);
  // Every shard gauge (including the per-shard breakdown) is present.
  EXPECT_NE(r.report.find(obs::metric::kSweeperCexShared), nullptr);
  EXPECT_NE(r.report.find(obs::metric::kSweeperPairsSimResolved), nullptr);
  EXPECT_NE(r.report.find(obs::metric::kSweeperSteals), nullptr);
  EXPECT_NE(r.report.find("sat_sweeper.shard.s0.busy_seconds"), nullptr);
  EXPECT_NE(r.report.find("sat_sweeper.shard.s1.chunks"), nullptr);
}

TEST(ParallelSweep, ConcurrentSweepsShareNothing) {
  // Two full parallel sweeps in flight at once (the portfolio races a
  // pure-SAT arm against the combined arm): private pools and shared
  // state must not interfere.
  const Aig m1 = hard_miter(777, /*equivalent=*/true);
  const Aig m2 = hard_miter(778, /*equivalent=*/false);
  sweep::SweeperParams p;
  p.num_threads = 2;
  p.pairs_per_chunk = 4;
  sweep::SweepResult r1, r2;
  std::thread a([&] { r1 = sweep::sweep_miter(m1, p); });
  std::thread b([&] { r2 = sweep::sweep_miter(m2, p); });
  a.join();
  b.join();
  EXPECT_EQ(r1.verdict, Verdict::kEquivalent);
  EXPECT_EQ(r2.verdict, Verdict::kNotEquivalent);
}

}  // namespace
}  // namespace simsweep
