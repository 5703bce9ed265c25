/// \file paper_tables.cpp
/// \brief The paper-table modes of simsweep_bench: Table II, Figs. 6-7,
/// the doubling scaling study and the Table I / §III-B3 / §V ablations.
/// Each mode prints its header, one row per case and a footer relating
/// the row shape to the paper's claim.
///
/// Scale note (DESIGN.md §4): the paper runs 20M-60M-node miters on a GPU
/// server for hours-to-days; this host is a small CPU container. The
/// modes default to `doublings = 1` (set SIMSWEEP_DOUBLINGS to push
/// higher) and reproduce the *shape* of the results — which engine wins
/// per design family, reduction percentages, phase breakdowns — rather
/// than absolute runtimes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "common/timer.hpp"
#include "engine/engine.hpp"
#include "gen/suite.hpp"
#include "harness.hpp"
#include "portfolio/portfolio.hpp"
#include "sweep/sat_sweeper.hpp"

namespace simsweep::bench {

namespace {

/// Reads an unsigned environment variable, `fallback` when unset.
unsigned env_unsigned(const char* name, unsigned fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? static_cast<unsigned>(std::strtoul(v, nullptr, 10))
                      : fallback;
}

unsigned doublings() {
  return env_unsigned("SIMSWEEP_DOUBLINGS", kDefaultDoublings);
}

/// Per-checker wall-clock budget (seconds); keeps a stuck baseline from
/// blocking the whole table.
double time_budget() {
  return static_cast<double>(
      env_unsigned("SIMSWEEP_TIME_BUDGET", kDefaultTimeBudget));
}

/// Engine parameters: the paper's values (k_P=32, k_p=k_g=16, k_l=8, C=8)
/// rescaled to CPU-exhaustive-simulation reach (2^24 patterns one-shot).
engine::EngineParams engine_params() {
  engine::EngineParams p;
  p.k_P = 24;
  p.k_p = 14;
  p.k_g = 14;
  p.k_l = 8;
  p.num_cuts = 8;
  p.time_limit = time_budget();
  return p;
}

sweep::SweeperParams sweeper_params() {
  sweep::SweeperParams p;
  p.conflict_limit = 100000;  // paper: &cec -C 100000
  p.time_limit = time_budget();
  return p;
}

portfolio::CombinedParams combined_params() {
  portfolio::CombinedParams p;
  p.engine = engine_params();
  p.sweeper = sweeper_params();
  return p;
}

/// Geometric mean of a list of ratios.
double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

struct MiterStats {
  unsigned pis;
  std::size_t pos;
  std::size_t nodes;
  std::uint32_t levels;
};

MiterStats miter_stats(const aig::Aig& m) {
  const auto lv = aig::compute_levels(m);
  std::uint32_t max_level = 0;
  for (aig::Lit po : m.pos())
    max_level = std::max(max_level, lv[aig::lit_var(po)]);
  return MiterStats{m.num_pis(), m.num_pos(), m.num_ands(), max_level};
}

/// The case loop of every paper table: for each family (outer) and each
/// doubling count in [first_d, last_d] (inner), generates the family's
/// original/optimized pair and hands it to `row`.
void for_each_case(
    const std::vector<std::string>& families, unsigned first_d,
    unsigned last_d,
    const std::function<void(const gen::BenchCase&, unsigned d)>& row) {
  for (const std::string& family : families) {
    for (unsigned d = first_d; d <= last_d; ++d) {
      gen::SuiteParams sp;
      sp.doublings = d;
      row(gen::make_case(family, sp), d);
    }
  }
}

const char* mark(Verdict v) {
  return v == Verdict::kEquivalent ? ""
                                   : (v == Verdict::kUndecided ? "?" : "!");
}

double sat_sweep_seconds(const aig::Aig& miter, Verdict* verdict) {
  Timer t;
  const sweep::SweepResult r =
      sweep::SatSweeper(sweeper_params()).check_miter(miter);
  if (verdict != nullptr) *verdict = r.verdict;
  return t.seconds();
}

}  // namespace

/// Paper Table II: benchmark statistics and runtime comparison of the
/// SAT-sweeping baseline ("ABC &cec" stand-in), the portfolio checker
/// ("Conformal" stand-in) and the combined engine+SAT flow ("Ours
/// (GPU+ABC)" -> here "Ours (SIM+SAT)").
int run_table2() {
  const unsigned d = doublings();
  std::printf("=== Table II reproduction (doublings=%u, budget=%.0fs) ===\n",
              d, time_budget());
  std::printf(
      "%-16s %8s %8s %9s %7s | %9s %9s | %8s %8s %8s %9s | %8s %8s\n",
      "Benchmark", "#PIs", "#POs", "#Nodes", "Levels", "SAT(s)", "Pfl(s)",
      "SIM(s)", "Red(%)", "SAT2(s)", "Total(s)", "vs.SAT", "vs.Pfl");

  std::vector<double> speedup_sat, speedup_pfl;
  for_each_case(gen::table2_families(), d, d,
                [&](const gen::BenchCase& c, unsigned) {
    const aig::Aig miter = aig::make_miter(c.original, c.optimized);
    const MiterStats ms = miter_stats(miter);

    // Baseline 1: standalone SAT sweeping (ABC &cec analogue).
    Verdict sat_verdict = Verdict::kUndecided;
    const double sat_seconds = sat_sweep_seconds(miter, &sat_verdict);

    // Baseline 2: multi-engine portfolio (Conformal analogue).
    portfolio::PortfolioParams pp;
    pp.combined = combined_params();
    pp.sweeper = sweeper_params();
    Timer t_pfl;
    const portfolio::PortfolioResult pfl_result =
        portfolio::portfolio_check_miter(miter, pp);
    const double pfl_seconds = t_pfl.seconds();

    // Ours: simulation engine + SAT on the residue (paper's GPU+ABC).
    const portfolio::CombinedResult ours =
        portfolio::combined_check_miter(miter, combined_params());

    const double vs_sat = sat_seconds / std::max(ours.total_seconds, 1e-9);
    const double vs_pfl = pfl_seconds / std::max(ours.total_seconds, 1e-9);
    std::printf(
        "%-16s %8u %8zu %9zu %7u | %8.2f%s %8.2f%s | %8.2f %8.1f %8.2f "
        "%9.2f%s | %7.2fx %7.2fx\n",
        c.name.c_str(), ms.pis, ms.pos, ms.nodes, ms.levels, sat_seconds,
        mark(sat_verdict), pfl_seconds, mark(pfl_result.verdict),
        ours.engine_seconds, ours.reduction_percent, ours.sat_seconds,
        ours.total_seconds, mark(ours.verdict), vs_sat, vs_pfl);
    if (sat_verdict == Verdict::kEquivalent &&
        ours.verdict == Verdict::kEquivalent)
      speedup_sat.push_back(vs_sat);
    if (pfl_result.verdict == Verdict::kEquivalent &&
        ours.verdict == Verdict::kEquivalent)
      speedup_pfl.push_back(vs_pfl);
  });
  std::printf("%-16s %62s | %28s | %7.2fx %7.2fx\n", "Geomean", "", "",
              geomean(speedup_sat), geomean(speedup_pfl));
  std::printf(
      "\n(paper Table II: 4/9 cases fully proved by the engine alone;\n"
      " geomean speedups 4.89x vs ABC and 4.88x vs Conformal. '!' marks a\n"
      " disproof, '?' an undecided verdict within the time budget.)\n");
  return 0;
}

/// Paper Fig. 6: runtime breakdown of the simulation-based engine's
/// phases (P / G / L / other) per benchmark.
int run_fig6() {
  const unsigned d = doublings();
  std::printf("=== Fig. 6 reproduction: engine phase breakdown "
              "(doublings=%u) ===\n",
              d);
  std::printf("%-16s %8s | %7s %7s %7s %7s | %s\n", "Benchmark", "total(s)",
              "P(%)", "G(%)", "L(%)", "other", "verdict");

  for_each_case(gen::table2_families(), d, d,
                [&](const gen::BenchCase& c, unsigned) {
    const engine::SimCecEngine eng(engine_params());
    const engine::EngineResult r = eng.check(c.original, c.optimized);
    const double total = std::max(r.stats.total_seconds, 1e-9);
    const double other =
        std::max(0.0, total - r.stats.po_seconds - r.stats.global_seconds -
                          r.stats.local_seconds);
    std::printf("%-16s %8.3f | %6.1f%% %6.1f%% %6.1f%% %6.1f%% | %s\n",
                c.name.c_str(), r.stats.total_seconds,
                100 * r.stats.po_seconds / total,
                100 * r.stats.global_seconds / total,
                100 * r.stats.local_seconds / total, 100 * other / total,
                to_string(r.verdict));
  });
  std::printf(
      "\n(paper Fig. 6: breakdown differs per case; log2 and sin are\n"
      " proved almost entirely in the P phase, multiplier and square are\n"
      " dominated by G, most other cases by repeated L phases.)\n");
  return 0;
}

/// Paper Fig. 7: SAT time of proving the engine's intermediate miters
/// (after the P phase, after P+G, and after the full P+G+L flow),
/// normalized by the standalone SAT-sweeping time. A value below 1.0 at
/// "P" means the PO-checking phase alone already removed logic the SAT
/// sweeper would otherwise pay for, and so on — the paper uses this plot
/// to show every phase type matters on some case.
int run_fig7() {
  const unsigned d = doublings();
  std::printf(
      "=== Fig. 7 reproduction: normalized SAT time of intermediate "
      "miters (doublings=%u) ===\n",
      d);
  std::printf("%-16s %9s | %8s %8s %8s\n", "Benchmark", "SAT(s)", "P", "PG",
              "PGL");

  for_each_case(gen::table2_families(), d, d,
                [&](const gen::BenchCase& c, unsigned) {
    const aig::Aig miter = aig::make_miter(c.original, c.optimized);

    // Standalone SAT time (the normalizer).
    Verdict base_verdict = Verdict::kUndecided;
    const double base_seconds =
        std::max(sat_sweep_seconds(miter, &base_verdict), 1e-9);
    if (base_verdict != Verdict::kEquivalent) {
      std::printf("%-16s %8.2f? | (baseline undecided, skipped)\n",
                  c.name.c_str(), base_seconds);
      return;
    }

    engine::EngineParams ep = engine_params();
    ep.capture_snapshots = true;
    const engine::EngineResult er =
        engine::SimCecEngine(ep).check_miter(miter);

    auto sat_time = [&](const aig::Aig& m) {
      return sat_sweep_seconds(m, nullptr) / base_seconds;
    };
    double after_p = 1.0, after_pg = 1.0;
    for (const auto& [name, snap] : er.snapshots) {
      if (name == "P") after_p = sat_time(snap);
      if (name == "PG") after_pg = sat_time(snap);
    }
    const double after_pgl = sat_time(er.reduced);
    std::printf("%-16s %9.2f | %8.3f %8.3f %8.3f\n", c.name.c_str(),
                base_seconds, after_p, after_pg, after_pgl);
  });
  std::printf(
      "\n(paper Fig. 7: normalized times drop from P to PG to PGL; which\n"
      " phase contributes most is case-dependent — P on ac97_ctrl, G on\n"
      " multiplier/square, L on most of the rest.)\n");
  return 0;
}

/// Scaling study: SAT-sweeping vs combined-flow runtime as the designs
/// are doubled (the paper's enlargement method, §IV "_nxd"). On a small
/// CPU host both stacks scale roughly linearly in the number of doubled
/// copies, so the per-family trend is the honest basis for extrapolating
/// the paper's GPU-amortized speed-up shape (see EXPERIMENTS.md).
int run_scaling() {
  const unsigned max_d =
      env_unsigned("SIMSWEEP_MAX_DOUBLINGS", kDefaultMaxDoublings);
  std::printf("=== Scaling study: runtime vs doublings (0..%u) ===\n",
              max_d);
  std::printf("%-14s %3s | %10s %10s %10s | %8s\n", "Benchmark", "d",
              "SAT(s)", "SIM+SAT(s)", "Red(%)", "ratio");

  for_each_case({"log2", "sin", "square", "multiplier", "voter"}, 0, max_d,
                [&](const gen::BenchCase& c, unsigned d) {
    const aig::Aig miter = aig::make_miter(c.original, c.optimized);
    Verdict sat_verdict = Verdict::kUndecided;
    const double sat_seconds = sat_sweep_seconds(miter, &sat_verdict);
    const portfolio::CombinedResult ours =
        portfolio::combined_check_miter(miter, combined_params());
    std::printf("%-14s %3u | %9.3f%s %10.3f %10.1f | %7.2fx\n",
                c.name.c_str(), d, sat_seconds,
                sat_verdict == Verdict::kEquivalent ? "" : "?",
                ours.total_seconds, ours.reduction_percent,
                sat_seconds / std::max(ours.total_seconds, 1e-9));
  });
  return 0;
}

/// Ablation for paper Table I: the three cut-selection passes. Runs the
/// engine with only the L phases enabled (P and G off, so local function
/// checking does all the work) under four configurations: each Table I
/// pass alone, and all three together. The paper's claim: the passes
/// prioritize different cut metrics (fanout / small level / large level)
/// and their union proves more pairs than any single criterion.
int run_cut_passes() {
  const unsigned d = doublings();
  std::printf("=== Table I ablation: cut-selection passes (doublings=%u) "
              "===\n",
              d);
  std::printf("%-16s | %10s %10s %10s %10s   (proved pairs / reduction)\n",
              "Benchmark", "pass1", "pass2", "pass3", "all");

  // A representative family subset keeps the 4-config sweep affordable;
  // SIMSWEEP_ALL_FAMILIES=1 runs the full suite.
  std::vector<std::string> families = {"hyp", "multiplier", "sqrt", "voter",
                                       "ac97_ctrl"};
  if (env_unsigned("SIMSWEEP_ALL_FAMILIES", kDefaultAllFamilies) != 0)
    families = gen::table2_families();
  for_each_case(families, d, d, [&](const gen::BenchCase& c, unsigned) {
    std::printf("%-16s |", c.name.c_str());
    for (int config = 0; config < 4; ++config) {
      engine::EngineParams p = engine_params();
      p.time_limit = time_budget() / 2;  // ablation configs: half budget
      p.enable_po_phase = false;
      p.enable_global_phase = false;
      p.local_passes = {config == 0 || config == 3,
                        config == 1 || config == 3,
                        config == 2 || config == 3};
      const engine::SimCecEngine eng(p);
      const engine::EngineResult r = eng.check(c.original, c.optimized);
      std::printf(" %5zu/%3.0f%%", r.stats.pairs_proved_local,
                  r.stats.reduction_percent());
    }
    std::printf("\n");
  });
  std::printf(
      "\n(expectation: the 'all' column dominates or matches the best\n"
      " single pass on every family — cut diversity pays, paper §III-C1.)\n");
  return 0;
}

/// Ablation for paper §III-B3: window merging in the G phase. Runs the
/// engine with only PO and global checking, with and without window
/// merging. The paper's claim: merging highly overlapping windows reduces
/// the total simulation effort when support sets overlap.
int run_window_merge() {
  const unsigned d = doublings();
  std::printf("=== Window-merging ablation (doublings=%u) ===\n", d);
  std::printf("%-16s | %12s %12s | %10s\n", "Benchmark", "merged(s)",
              "unmerged(s)", "speedup");

  std::vector<double> speedups;
  for_each_case(gen::table2_families(), d, d,
                [&](const gen::BenchCase& c, unsigned) {
    double seconds[2] = {0, 0};
    for (int merging = 0; merging < 2; ++merging) {
      engine::EngineParams p = engine_params();
      p.window_merging = merging == 1;
      p.max_local_phases = 0;  // isolate the P and G phases
      const engine::SimCecEngine eng(p);
      const engine::EngineResult r = eng.check(c.original, c.optimized);
      seconds[merging] = r.stats.po_seconds + r.stats.global_seconds;
    }
    const double speedup = seconds[0] / std::max(seconds[1], 1e-9);
    speedups.push_back(speedup);
    std::printf("%-16s | %12.3f %12.3f | %9.2fx\n", c.name.c_str(),
                seconds[1], seconds[0], speedup);
  });
  std::printf("Geomean speedup from window merging: %.2fx\n",
              geomean(speedups));
  return 0;
}

/// Ablation of the paper §V (Discussion) extensions: EC transfer to the
/// SAT sweeper, distance-1 CEX simulation, adaptive L passes and
/// graduated global-checking escalation. Reports total combined-flow
/// time and engine reduction with each extension toggled.
int run_extensions() {
  const unsigned d = doublings();
  std::printf("=== §V extension ablation (doublings=%u) ===\n", d);
  std::printf("%-16s | %18s %18s %18s %18s\n", "Benchmark",
              "baseline", "no-ec-transfer", "no-escalation", "+dist1+adapt");
  std::printf("%-16s | %18s %18s %18s %18s\n", "",
              "total(s)/red%", "total(s)/red%", "total(s)/red%",
              "total(s)/red%");

  // Partial-reduction families where the extensions matter most.
  for_each_case({"hyp", "sqrt", "voter", "multiplier"}, d, d,
                [&](const gen::BenchCase& c, unsigned) {
    std::printf("%-16s |", c.name.c_str());
    for (int config = 0; config < 4; ++config) {
      portfolio::CombinedParams p = combined_params();
      p.engine.time_limit = time_budget() / 2;
      p.sweeper.time_limit = time_budget() / 2;
      switch (config) {
        case 0: break;                              // baseline (defaults)
        case 1: p.transfer_ec = false; break;       // §V item 1 off
        case 2: p.engine.escalate_global = false; break;
        case 3:
          p.engine.distance1_cex = true;            // §V item 3
          p.engine.adaptive_passes = true;          // §V item 2
          break;
      }
      const portfolio::CombinedResult r =
          portfolio::combined_check(c.original, c.optimized, p);
      std::printf(" %9.2f%s/%5.1f%%", r.total_seconds,
                  r.verdict == Verdict::kEquivalent ? "" : "?",
                  r.reduction_percent);
    }
    std::printf("\n");
  });
  std::printf(
      "\n(expectation: disabling escalation lowers the reduction column on\n"
      " arithmetic cases; EC transfer trims the SAT share of the total;\n"
      " distance-1/adaptive are quality/runtime tweaks, not correctness.)\n");
  return 0;
}

}  // namespace simsweep::bench
