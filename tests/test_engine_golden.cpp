/// \file test_engine_golden.cpp
/// \brief Golden stats of the simulation engine (the engine's twin of
/// test_sweep_golden.cpp).
///
/// Exact verdicts, final miter sizes and work counters of
/// SimCecEngine::check_miter on three suite miters at doublings=0, with
/// cecbench's engine parameters (k_P=24, k_p=k_g=14, k_l=8, C=8): one the
/// engine proves (multiplier) and two it leaves undecided (sqrt; voter,
/// whose G phase refines its classes with CEXs). Any change to candidate
/// pairs, class refinement, window or cut checking, or the reduction
/// sequence shows up here as a diff.
///
/// Left out on purpose: timing (not reproducible), `pool.*` (scheduling),
/// `partial_sim.*` and `ec.{builds,classes_built}` (they count how often
/// classes were simulated and built, which is a caching choice, not a
/// result: the same partitions may be reached by one build refined in
/// place or by a fresh build per reduced miter).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "aig/miter.hpp"
#include "engine/engine.hpp"
#include "gen/suite.hpp"
#include "obs/metric_names.hpp"

namespace simsweep {
namespace {

struct Golden {
  const char* name;
  Verdict verdict;
  std::size_t final_ands;
  std::size_t pos_proved;
  std::size_t pairs_proved_global;
  std::size_t pairs_proved_local;
  std::size_t pairs_disproved;
  std::size_t cex_count;
  std::size_t local_phases;
  std::uint64_t ec_eligible_pairs;
  std::uint64_t ec_pairs_proved;
  std::uint64_t ec_pairs_disproved;
  std::uint64_t ec_cexs_absorbed;
  std::array<std::uint64_t, 3> cut_checks;  ///< cut.pass{1,2,3}.checks
  std::array<std::uint64_t, 3> cut_proved;  ///< cut.pass{1,2,3}.proved
};

/// cecbench's engine parameters (cecbench/main.cpp, engine_params).
engine::EngineParams cecbench_params() {
  engine::EngineParams p;
  p.k_P = 24;
  p.k_p = 14;
  p.k_g = 14;
  p.k_l = 8;
  p.num_cuts = 8;
  return p;
}

TEST(EngineGolden, SuiteCountersAreFixed) {
  const Golden golden[] = {
      {"multiplier", Verdict::kEquivalent, 0, 5, 334, 901, 0, 0, 20, 334,
       334, 0, 0, {50195, 38095, 65170}, {866, 28, 7}},
      {"sqrt", Verdict::kUndecided, 1971, 7, 1021, 388, 0, 0, 27, 1021,
       1021, 0, 0, {71485, 68690, 114786}, {324, 59, 5}},
      {"voter", Verdict::kUndecided, 573, 0, 350, 90, 42, 42, 8, 392, 350,
       42, 42, {5182, 4351, 5304}, {83, 7, 0}},
  };
  gen::SuiteParams sp;
  sp.doublings = 0;
  for (const Golden& g : golden) {
    SCOPED_TRACE(g.name);
    const gen::BenchCase c = gen::make_case(g.name, sp);
    const engine::EngineResult r =
        engine::SimCecEngine(cecbench_params())
            .check_miter(aig::make_miter(c.original, c.optimized));
    const engine::EngineStats& s = r.stats;
    EXPECT_EQ(r.verdict, g.verdict);
    EXPECT_EQ(s.final_ands, g.final_ands);
    EXPECT_EQ(s.pos_proved, g.pos_proved);
    EXPECT_EQ(s.pairs_proved_global, g.pairs_proved_global);
    EXPECT_EQ(s.pairs_proved_local, g.pairs_proved_local);
    EXPECT_EQ(s.pairs_disproved, g.pairs_disproved);
    EXPECT_EQ(s.cex_count, g.cex_count);
    EXPECT_EQ(s.local_phases, g.local_phases);
    EXPECT_EQ(r.report.count(obs::metric::kEcEligiblePairs),
              g.ec_eligible_pairs);
    EXPECT_EQ(r.report.count(obs::metric::kEcPairsProved), g.ec_pairs_proved);
    EXPECT_EQ(r.report.count(obs::metric::kEcPairsDisproved),
              g.ec_pairs_disproved);
    EXPECT_EQ(r.report.count(obs::metric::kEcCexsAbsorbed),
              g.ec_cexs_absorbed);
    for (unsigned i = 0; i < 3; ++i) {
      const std::string pass = std::string(obs::metric::kCutPassPrefix) +
                               std::to_string(i + 1) + ".";
      EXPECT_EQ(r.report.count(pass + "checks"), g.cut_checks[i]) << pass;
      EXPECT_EQ(r.report.count(pass + "proved"), g.cut_proved[i]) << pass;
    }
  }
}

}  // namespace
}  // namespace simsweep
