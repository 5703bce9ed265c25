/// \file test_sweep_golden.cpp
/// \brief Golden stats of both sweep round strategies (DESIGN.md §2.5).
///
/// Exact verdicts, counterexamples and counters of the persistent-core
/// sweep (SatSweeper, the pure-SAT "&cec" baseline) and the sharded
/// sweep (ParallelSatSweeper at 1, 2 and 4 threads) on three small suite
/// miters: one equivalent, one refuted, and one whose conflict limit
/// leaves pairs undecided. The figures were recorded from the two
/// separate sweeper implementations before they were folded into one
/// round driver; any change to pair order, outcome application, budget
/// accounting or refinement shows up here as a diff.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "aig/miter.hpp"
#include "gen/suite.hpp"
#include "sweep/parallel_sweeper.hpp"
#include "test_util.hpp"

namespace simsweep {
namespace {

struct Golden {
  Verdict verdict;
  const char* cex;  ///< PI assignment as '0'/'1', "" when absent
  std::size_t sat_calls;
  std::uint64_t conflicts;
  std::size_t pairs_proved;
  std::size_t pairs_disproved;
  std::size_t pairs_undecided;
  std::size_t chunks;              ///< sharded only (0 for the core)
  std::size_t pairs_sim_resolved;  ///< sharded only (0 for the core)
};

std::string cex_bits(const sweep::SweepResult& r) {
  std::string s;
  if (r.cex)
    for (const bool b : *r.cex) s += b ? '1' : '0';
  return s;
}

void expect_golden(const sweep::SweepResult& r, const Golden& g) {
  EXPECT_EQ(r.verdict, g.verdict);
  EXPECT_EQ(cex_bits(r), g.cex);
  EXPECT_EQ(r.stats.sat_calls, g.sat_calls);
  EXPECT_EQ(r.stats.conflicts, g.conflicts);
  EXPECT_EQ(r.stats.pairs_proved, g.pairs_proved);
  EXPECT_EQ(r.stats.pairs_disproved, g.pairs_disproved);
  EXPECT_EQ(r.stats.pairs_undecided, g.pairs_undecided);
  EXPECT_EQ(r.stats.chunks, g.chunks);
  EXPECT_EQ(r.stats.pairs_sim_resolved, g.pairs_sim_resolved);
}

struct Case {
  const char* name;
  aig::Aig miter;
  std::int64_t conflict_limit;
};

/// log2 vs its resyn2 copy (equivalent), voter vs a mutated resyn2 copy
/// (refuted), and log2 again under a 5-conflict budget (undecided pairs).
std::vector<Case> golden_cases() {
  gen::SuiteParams sp;
  sp.doublings = 0;
  const gen::BenchCase log2 = gen::make_case("log2", sp);
  const gen::BenchCase voter = gen::make_case("voter", sp);
  const aig::Aig eq = aig::make_miter(log2.original, log2.optimized);
  return {
      {"equivalent", eq, 100000},
      {"refuted",
       aig::make_miter(voter.original, testutil::mutate(voter.optimized, 17)),
       100000},
      {"conflict_limited", eq, 5},
  };
}

TEST(SweepGolden, PersistentCoreStatsAreFixed) {
  const Golden golden[] = {
      {Verdict::kEquivalent, "", 454, 297, 122, 135, 0, 0, 0},
      {Verdict::kNotEquivalent,
       "000000000000000011111111111111111111111111001100110011000000111",
       1182, 552, 531, 89, 0, 0, 0},
      {Verdict::kEquivalent, "", 454, 297, 105, 134, 17, 0, 0},
  };
  const std::vector<Case> cases = golden_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    sweep::SweeperParams p;
    p.conflict_limit = cases[i].conflict_limit;
    expect_golden(sweep::SatSweeper(p).check_miter(cases[i].miter),
                  golden[i]);
  }
}

TEST(SweepGolden, ShardedChunkStatsAreFixedAcrossThreadCounts) {
  const Golden golden[] = {
      {Verdict::kEquivalent, "", 364, 1026, 122, 135, 0, 9, 52},
      {Verdict::kNotEquivalent,
       "001100001001000010110111000001001110111100100010110001101111111",
       542, 4758, 531, 89, 0, 20, 323},
      {Verdict::kUndecided, "", 292, 481, 64, 106, 63, 8, 52},
  };
  const std::vector<Case> cases = golden_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(cases[i].name) + " threads=" +
                   std::to_string(threads));
      sweep::SweeperParams p;
      p.conflict_limit = cases[i].conflict_limit;
      p.num_threads = threads;
      const sweep::SweepResult r =
          sweep::ParallelSatSweeper(p).check_miter(cases[i].miter);
      expect_golden(r, golden[i]);
      // The report's board/bank gauges count the merges and CEXs the
      // round barriers applied.
      EXPECT_EQ(r.stats.board_merges, golden[i].pairs_proved);
      EXPECT_EQ(r.stats.cex_shared, golden[i].pairs_disproved);
    }
  }
}

}  // namespace
}  // namespace simsweep
