/// \file micro.cpp
/// \brief `bench_micro`: google-benchmark microbenchmarks. The exhaustive
/// simulator (paper Alg. 1): throughput versus support size, batch size,
/// memory budget (round decomposition) and window merging. The supporting
/// substrates: partial simulation, EC building, cut enumeration, SAT
/// solving, BDD construction, quality patterns and miter rebuild — the
/// pieces the engine's wall-clock is made of, for spotting regressions.

#include <benchmark/benchmark.h>

#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "aig/rebuild.hpp"
#include "bdd/bdd_cec.hpp"
#include "cnf/tseitin.hpp"
#include "cut/cut_enum.hpp"
#include "exhaustive/exhaustive_sim.hpp"
#include "gen/arith.hpp"
#include "gen/transforms.hpp"
#include "harness.hpp"
#include "sim/ec_manager.hpp"
#include "sim/partial_sim.hpp"
#include "sim/quality_patterns.hpp"
#include "window/window_merge.hpp"

namespace {

using namespace simsweep;
using bench::po_windows;
using bench::xor_forest;
using bench::xor_forest_windows;

// --- Exhaustive simulator. ---

/// Throughput of exhaustive PO checking vs adder width (support = 2n).
void BM_ExhaustiveSupportSize(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const aig::Aig m =
      aig::make_miter(gen::ripple_adder(n), gen::kogge_stone_adder(n));
  const auto windows = po_windows(m, 2 * n + 1);
  std::size_t words = 0;
  for (auto _ : state) {
    const auto r = exhaustive::check_batch(m, windows, {});
    benchmark::DoNotOptimize(r.outcomes.data());
    words += r.words_simulated;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(words) * 64);
  state.counters["windows"] = static_cast<double>(windows.size());
}
BENCHMARK(BM_ExhaustiveSupportSize)->DenseRange(4, 10, 2);

/// Effect of the memory budget M: smaller budgets force more rounds
/// (Alg. 1 lines 2-5) over the same total work.
void BM_ExhaustiveMemoryBudget(benchmark::State& state) {
  const aig::Aig m = aig::make_miter(gen::ripple_adder(9),
                                     gen::kogge_stone_adder(9));
  const auto windows = po_windows(m, 19);
  exhaustive::Params p;
  p.memory_words = static_cast<std::size_t>(state.range(0));
  std::size_t rounds = 0;
  for (auto _ : state) {
    const auto r = exhaustive::check_batch(m, windows, p);
    benchmark::DoNotOptimize(r.outcomes.data());
    rounds = r.rounds;
  }
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_ExhaustiveMemoryBudget)->RangeMultiplier(8)->Range(1 << 10, 1 << 22);

/// Window merging: same checks with and without merging.
void BM_WindowMerging(benchmark::State& state) {
  const bool merge = state.range(0) != 0;
  const aig::Aig m = aig::make_miter(gen::ripple_adder(8),
                                     gen::kogge_stone_adder(8));
  for (auto _ : state) {
    auto windows = po_windows(m, 17);
    if (merge) windows = window::merge_windows(m, std::move(windows), 17);
    const auto r = exhaustive::check_batch(m, windows, {});
    benchmark::DoNotOptimize(r.outcomes.data());
  }
}
BENCHMARK(BM_WindowMerging)->Arg(0)->Arg(1);

/// Batch growth: many independent small windows (third parallelism
/// dimension of paper Fig. 3).
void BM_ExhaustiveBatchSize(benchmark::State& state) {
  const unsigned copies = static_cast<unsigned>(state.range(0));
  const aig::Aig a = xor_forest(copies, 8);
  const auto windows = xor_forest_windows(a, 8);
  for (auto _ : state) {
    const auto r = exhaustive::check_batch(a, windows, {});
    benchmark::DoNotOptimize(r.outcomes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          copies);
}
BENCHMARK(BM_ExhaustiveBatchSize)->RangeMultiplier(4)->Range(4, 256);

// --- Substrates. ---

aig::Aig bench_miter(unsigned doublings) {
  // Two genuinely different multiplier architectures: the miter never
  // folds structurally, so every substrate sees realistic work.
  const aig::Aig a = gen::double_circuit(gen::array_multiplier(6), doublings);
  const aig::Aig b =
      gen::double_circuit(gen::wallace_multiplier(6), doublings);
  return aig::make_miter(a, b);
}

void BM_PartialSimulation(benchmark::State& state) {
  const aig::Aig m = bench_miter(static_cast<unsigned>(state.range(0)));
  const auto bank = sim::PatternBank::random(m.num_pis(), 4, 7);
  for (auto _ : state) {
    const sim::Signatures sigs = sim::simulate(m, bank);
    benchmark::DoNotOptimize(sigs.words.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(m.num_nodes()) * 4 * 64);
}
BENCHMARK(BM_PartialSimulation)->DenseRange(0, 4, 2);

void BM_EcBuild(benchmark::State& state) {
  const aig::Aig m = bench_miter(2);
  const auto bank = sim::PatternBank::random(m.num_pis(), 4, 7);
  const sim::Signatures sigs = sim::simulate(m, bank);
  for (auto _ : state) {
    sim::EcManager ec;
    ec.build(m, sigs);
    benchmark::DoNotOptimize(ec.num_classes());
  }
}
BENCHMARK(BM_EcBuild);

void BM_CutEnumeration(benchmark::State& state) {
  const aig::Aig m = bench_miter(1);
  cut::EnumParams ep;
  ep.cut_size = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    cut::PriorityCuts pc(m, ep);
    const cut::CutScorer scorer(m, cut::Pass::kFanout);
    for (aig::Var v = m.num_pis() + 1; v < m.num_nodes(); ++v)
      pc.compute_node(v, scorer, nullptr);
    benchmark::DoNotOptimize(pc.cuts(static_cast<aig::Var>(m.num_nodes() - 1))
                                 .size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.num_ands()));
}
BENCHMARK(BM_CutEnumeration)->Arg(4)->Arg(6)->Arg(8);

void BM_SatSolveMiterPo(benchmark::State& state) {
  const aig::Aig m = bench_miter(0);
  for (auto _ : state) {
    sat::Solver solver;
    cnf::TseitinEncoder enc(m, solver);
    int unsat = 0;
    for (aig::Lit po : m.pos())
      unsat += solver.solve({enc.encode(po)}) == sat::Solver::Result::kUnsat;
    benchmark::DoNotOptimize(unsat);
  }
}
BENCHMARK(BM_SatSolveMiterPo);

void BM_BddBuildAdder(benchmark::State& state) {
  const aig::Aig a = gen::ripple_adder(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    const auto r = bdd::bdd_check(a, a);
    benchmark::DoNotOptimize(r.peak_nodes);
  }
}
BENCHMARK(BM_BddBuildAdder)->DenseRange(4, 12, 4);

void BM_QualityPatterns(benchmark::State& state) {
  const aig::Aig m = bench_miter(1);
  sim::QualityParams qp;
  qp.candidate_rounds = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::QualityStats stats;
    const auto bank = sim::quality_patterns(m, qp, &stats);
    benchmark::DoNotOptimize(bank.num_words());
    state.counters["classes"] = static_cast<double>(stats.classes_after);
  }
}
BENCHMARK(BM_QualityPatterns)->Arg(2)->Arg(8);

void BM_MiterRebuild(benchmark::State& state) {
  const aig::Aig m = bench_miter(2);
  for (auto _ : state) {
    const auto r = aig::cleanup(m);
    benchmark::DoNotOptimize(r.aig.num_ands());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.num_ands()));
}
BENCHMARK(BM_MiterRebuild);

}  // namespace
