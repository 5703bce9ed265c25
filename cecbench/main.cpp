/// \file main.cpp
/// \brief End-to-end CEC benchmark: workloads, verdict gate, metrics.
///
///   cecbench --workload <equiv_suite|refute_suite|sat_baseline>
///            --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
///
/// Builds the workload's miters from the seed (set-up, timed on its own),
/// then checks them one at a time, closed loop, in whole passes over the
/// cases (one pass per 15 s of --seconds). Every verdict is judged against
/// the benchmark's own ground truth (truth.hpp); a wrong verdict exits 3
/// without a result line.
/// The last stdout line is one JSON object: the end-to-end metrics with
/// --trace 0, the per-layer metrics of a traced pass with --trace 1.
/// See README.md for the metric definitions.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "aig/rebuild.hpp"
#include "common/timer.hpp"
#include "cut/checking_pass.hpp"
#include "engine/engine.hpp"
#include "exhaustive/exhaustive_sim.hpp"
#include "gen/suite.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "portfolio/portfolio.hpp"
#include "sim/ec_manager.hpp"
#include "sim/partial_sim.hpp"
#include "sweep/parallel_sweeper.hpp"
#include "sweep/sat_sweeper.hpp"
#include "window/window.hpp"
#include "window/window_merge.hpp"

#include "trace.hpp"
#include "truth.hpp"

namespace cecbench {
namespace {

using simsweep::Timer;
using simsweep::Verdict;
namespace aig = simsweep::aig;
namespace engine = simsweep::engine;
namespace sweep = simsweep::sweep;
namespace sim = simsweep::sim;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "cecbench: %s\n", msg.c_str());
  std::exit(3);
}

// ---------------------------------------------------------------------------
// Workloads and parameters.
// ---------------------------------------------------------------------------

enum class Flow { kCombined, kSatOnly };

struct Workload {
  const char* name;
  unsigned doublings;
  double budget;     ///< wall-clock budget per check, seconds
  Flow flow;
  unsigned mutants;  ///< injected-bug copies per family; 0 = resyn2 pairs
};

constexpr Workload kWorkloads[] = {
    {"equiv_suite", 1, 60, Flow::kCombined, 0},
    {"refute_suite", 0, 10, Flow::kCombined, 2},
    {"sat_baseline", 0, 60, Flow::kSatOnly, 0},
};

/// The paper's thresholds rescaled to CPU exhaustive simulation, as in
/// the repository's paper benches (k_P=24, k_p=k_g=14, k_l=8, C=8).
engine::EngineParams engine_params(double budget) {
  engine::EngineParams p;
  p.k_P = 24;
  p.k_p = 14;
  p.k_g = 14;
  p.k_l = 8;
  p.num_cuts = 8;
  p.time_limit = budget;
  return p;
}

sweep::SweeperParams sweeper_params(double budget) {
  sweep::SweeperParams p;
  p.conflict_limit = 100000;  // paper: &cec -C 100000
  p.time_limit = budget;
  return p;
}

// ---------------------------------------------------------------------------
// Set-up: generation, resyn2, mutant confirmation, miter building.
// ---------------------------------------------------------------------------

struct Case {
  std::string name;
  aig::Aig a, b;  ///< the pair; b is resyn2(a) or a mutant of it
  aig::Aig miter;
  bool equivalent = true;  ///< ground truth
};

struct SetupTimes {
  double gen = 0, miter = 0, truth = 0;
  double total() const { return gen + miter + truth; }
};

/// Builds the workload's cases; a pure function of (workload, seed).
std::vector<Case> setup(const Workload& w, std::uint64_t seed,
                        SetupTimes& t) {
  SplitMix rng(seed);
  simsweep::gen::SuiteParams sp;
  sp.doublings = w.doublings;
  sp.seed = seed;
  std::vector<Case> cases;
  for (const std::string& family : simsweep::gen::table2_families()) {
    Timer tg;
    simsweep::gen::BenchCase bc = simsweep::gen::make_case(family, sp);
    t.gen += tg.seconds();
    std::vector<Case> made;
    Timer tt;
    if (w.mutants == 0) {
      // resyn2 preserves function; random patterns must agree.
      if (differ_on_random(bc.original, bc.optimized, 4, rng))
        die("set-up: " + bc.name + " and its resyn2 copy differ");
      made.push_back(Case{bc.name, std::move(bc.original),
                          std::move(bc.optimized), {}, true});
    } else {
      // Keep a mutant only if random patterns show a differing PO.
      for (unsigned k = 0, draws = 0; k < w.mutants; ++draws) {
        if (draws == 1000) die("set-up: no effective mutant of " + bc.name);
        aig::Aig m = mutate(bc.optimized, rng.next());
        if (!differ_on_random(bc.original, m, 64, rng)) continue;
        made.push_back(Case{bc.name + "_mut" + std::to_string(k),
                            bc.original, std::move(m), {}, false});
        ++k;
      }
    }
    t.truth += tt.seconds();
    Timer tm;
    for (Case& c : made) c.miter = aig::make_miter(c.a, c.b);
    t.miter += tm.seconds();
    for (Case& c : made) cases.push_back(std::move(c));
  }
  return cases;
}

// ---------------------------------------------------------------------------
// Checking and judging.
// ---------------------------------------------------------------------------

struct Outcome {
  Verdict verdict = Verdict::kUndecided;
  std::optional<std::vector<bool>> cex;
  double seconds = 0;
};

Outcome run_check(const Workload& w, const Case& c) {
  Outcome o;
  Timer t;
  if (w.flow == Flow::kCombined) {
    simsweep::portfolio::CombinedParams p;
    p.engine = engine_params(w.budget);
    p.sweeper = sweeper_params(w.budget);
    simsweep::portfolio::CombinedResult r =
        simsweep::portfolio::combined_check_miter(c.miter, p);
    o.seconds = t.seconds();
    o.verdict = r.verdict;
    o.cex = std::move(r.cex);
  } else {
    sweep::SweepResult r =
        sweep::SatSweeper(sweeper_params(w.budget)).check_miter(c.miter);
    o.seconds = t.seconds();
    o.verdict = r.verdict;
    o.cex = std::move(r.cex);
  }
  return o;
}

/// Returns true for a correct decisive verdict, false for kUndecided (a
/// failed operation). A wrong verdict ends the run.
bool judge(const Case& c, const Outcome& o, SplitMix& rng) {
  using simsweep::to_string;
  if (o.verdict == Verdict::kUndecided) return false;
  const bool says_equal = o.verdict == Verdict::kEquivalent;
  if (says_equal != c.equivalent)
    die("wrong verdict on " + c.name + ": program says " +
        to_string(o.verdict) + ", ground truth says " +
        (c.equivalent ? "equivalent" : "NOT equivalent"));
  if (!says_equal && !refutation_holds(c.a, c.b, o.cex, rng))
    die("wrong verdict on " + c.name + ": its counter-example does not "
        "make any PO differ");
  return true;
}

// ---------------------------------------------------------------------------
// Statistics and output.
// ---------------------------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double geomean(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += std::log(std::max(x, 1e-9));
  return xs.empty() ? 0 : std::exp(s / static_cast<double>(xs.size()));
}

/// Tail latency: the highest of p99.9 / p99 / p90 (nearest rank) that
/// has at least 10 samples beyond it. A gated run pools only 18 samples,
/// where no percentile above the median qualifies; it reports p90 then,
/// and the caller prints the percentile and the sample count with it.
/// Returns {value, percentile}.
std::pair<double, double> tail(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  double p = 90.0;
  for (double q : {99.9, 99.0})
    if (n * (1 - q / 100) >= 10) {
      p = q;
      break;
    }
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100 * n));
  return {xs[std::max<std::size_t>(rank, 1) - 1], p};
}

template <typename Field>
double setup_median(const std::vector<SetupTimes>& reps, Field field) {
  std::vector<double> xs;
  for (const SetupTimes& r : reps) xs.push_back(std::invoke(field, r));
  return median(xs);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

/// One pass over every case in order. Verdicts are judged after the pass
/// timer stops.
struct Pass {
  std::vector<Outcome> outcomes;
  double wall = 0;
  std::size_t decided = 0;
};

Pass run_pass(const Workload& w, const std::vector<Case>& cases,
              SplitMix& rng) {
  Pass p;
  Timer t;
  for (const Case& c : cases) p.outcomes.push_back(run_check(w, c));
  p.wall = t.seconds();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    p.decided += judge(cases[i], p.outcomes[i], rng);
    std::fprintf(stderr, "  %-22s %-15s %9.4f s\n", cases[i].name.c_str(),
                 simsweep::to_string(p.outcomes[i].verdict),
                 p.outcomes[i].seconds);
  }
  return p;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.
// ---------------------------------------------------------------------------

/// --seconds buys one pass per kPassSeconds, at least one. A pass over a
/// gated workload takes 15-20 s on a 4-core host. The pass count is fixed
/// by --seconds, not by the clock, so the pooled percentiles of two runs
/// always rest on the same number of samples.
constexpr double kPassSeconds = 15;

void measure(const Workload& w, const std::vector<Case>& cases,
             double seconds, const std::vector<SetupTimes>& reps,
             SplitMix& rng) {
  std::vector<double> walls, lat;
  std::size_t attempted = 0, decided = 0;
  const int passes = std::max(1, static_cast<int>(seconds / kPassSeconds));
  for (int i = 0; i < passes; ++i) {
    const Pass p = run_pass(w, cases, rng);
    walls.push_back(p.wall);
    for (const Outcome& o : p.outcomes) lat.push_back(o.seconds);
    attempted += cases.size();
    decided += p.decided;
  }

  const auto [tail_s, tail_p] = tail(lat);
  std::printf("passes %zu, checks %zu, latency_tail_s is p%.1f of %zu "
              "samples\n",
              walls.size(), attempted, tail_p, lat.size());
  print_result(attempted, attempted - decided,
               {{"wall_s", "s", median(walls)},
                {"latency_p50_s", "s", median(lat)},
                {"latency_tail_s", "s", tail_s},
                {"latency_geomean_s", "s", geomean(lat)},
                {"decided_frac", "ratio",
                 static_cast<double>(decided) / attempted},
                {"peak_rss_mb", "MB", peak_rss_mb()},
                {"setup_s", "s", setup_median(reps, &SetupTimes::total)}});
}

// ---------------------------------------------------------------------------
// --trace 1: a traced pass, layer probes and the per-layer ledger.
// ---------------------------------------------------------------------------

/// Ledger identities hold within this much: an absolute slack for the
/// argument copy and result hand-over around the library calls, plus a
/// share of the span.
constexpr double kLedgerAbsTol = 0.005;
constexpr double kLedgerRelTol = 0.02;
/// Checks faster than this report engine.other_s (fixed per-check cost).
constexpr double kFastCheck = 0.050;

double find(const simsweep::obs::Snapshot& s, std::string_view name) {
  const simsweep::obs::Metric* m = s.find(name);
  return m != nullptr ? m->as_double() : 0.0;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Sums over the checks of the traced pass.
struct Ledger {
  double po = 0, global = 0, local = 0;
  std::vector<double> other_fast;  ///< engine.other_seconds, fast checks
  double words_simulated = 0, eligible = 0, pairs_proved = 0;
  double ands_removed = 0;
  double residue = 0, sat_calls = 0, conflicts = 0, sat_decided = 0;
  std::size_t budget_hits = 0;
  double overrun_max = -std::numeric_limits<double>::infinity();
};

void attach_report(Tracer& tr, int span, const simsweep::obs::Snapshot& r) {
  for (const simsweep::obs::Metric& m : r.metrics)
    for (const char* prefix : {"exhaustive.", "cut.pass", "ec.", "pool."})
      if (m.name.rfind(prefix, 0) == 0) tr.arg(span, m.name, m.as_double());
}

void check_identity(const Case& c, const char* what, double lhs, double rhs) {
  const double tol = kLedgerAbsTol + kLedgerRelTol * rhs;
  if (std::fabs(lhs - rhs) > tol)
    die("ledger identity broken on " + c.name + ": " + what + " = " +
        std::to_string(lhs) + " s, span = " + std::to_string(rhs) +
        " s (tolerance " + std::to_string(tol) + " s)");
}

/// The engine on one case inside an `engine.check_miter` span. Attaches
/// the EngineStats phase seconds and the report's counters to the span,
/// checks P+G+L+other against it and adds the engine's share to the
/// ledger.
engine::EngineResult traced_engine(Tracer& tr, int id, const Case& c,
                                   double budget, Ledger& lg) {
  std::optional<engine::EngineResult> er;
  int span = -1;
  {
    const Scope s(tr, "engine.check_miter", id);
    span = s.id();
    er = engine::SimCecEngine(engine_params(budget)).check_miter(c.miter);
  }
  const engine::EngineStats& st = er->stats;
  tr.arg(span, "po_seconds", st.po_seconds);
  tr.arg(span, "global_seconds", st.global_seconds);
  tr.arg(span, "local_seconds", st.local_seconds);
  tr.arg(span, "other_seconds", st.other_seconds);
  tr.arg(span, "total_seconds", st.total_seconds);
  attach_report(tr, span, er->report);
  const double seconds = tr.spans()[span].seconds();
  check_identity(c, "P+G+L+other",
                 st.po_seconds + st.global_seconds + st.local_seconds +
                     st.other_seconds,
                 seconds);
  lg.po += st.po_seconds;
  lg.global += st.global_seconds;
  lg.local += st.local_seconds;
  if (seconds < kFastCheck) lg.other_fast.push_back(st.other_seconds);
  lg.words_simulated += find(er->report, "exhaustive.words_simulated");
  lg.eligible += find(er->report, "ec.eligible_pairs");
  lg.pairs_proved += find(er->report, "ec.pairs_proved");
  lg.ands_removed += find(er->report, "miter.ands_removed");
  return std::move(*er);
}

/// One traced check. The combined flow is rebuilt from its two public
/// halves exactly as portfolio::combined_check_miter composes them: the
/// engine, then the SAT sweep on the reduced miter with the remaining
/// budget and the engine's pattern bank.
Outcome traced_check(const Workload& w, const Case& c, int id, Tracer& tr,
                     Ledger& lg) {
  std::optional<engine::EngineResult> er;
  std::optional<sweep::SweepResult> sr;
  int check_span = -1, engine_span = -1, sweep_span = -1;
  {
    const Scope check(tr, "check", id);
    check_span = check.id();
    const Timer total;
    if (w.flow == Flow::kCombined) {
      engine_span = static_cast<int>(tr.spans().size());  // opened next
      er = traced_engine(tr, id, c, w.budget, lg);
      const double remaining = std::max(0.0, w.budget - total.seconds());
      if (er->verdict == Verdict::kUndecided && remaining > 0) {
        sweep::SweeperParams sp = sweeper_params(w.budget);
        sp.time_limit = std::min(sp.time_limit, std::max(1e-6, remaining));
        if (er->bank && er->bank->num_pis() == er->reduced.num_pis())
          sp.initial_bank = &*er->bank;
        const Scope s(tr, "sweep.sweep_miter", id);
        sweep_span = s.id();
        sr = sweep::sweep_miter(er->reduced, sp);
      }
    } else {
      const Scope s(tr, "sweep.sat_sweeper", id);
      sweep_span = s.id();
      sr = sweep::SatSweeper(sweeper_params(w.budget)).check_miter(c.miter);
    }
  }
  const auto span_s = [&](int i) {
    return i < 0 ? 0.0 : tr.spans()[i].seconds();
  };
  Outcome o;
  o.seconds = span_s(check_span);
  o.verdict = sr ? sr->verdict : er->verdict;
  o.cex = sr ? sr->cex : er->cex;
  if (sr) {
    const sweep::SweeperStats& st = sr->stats;
    tr.arg(sweep_span, "sat_sweeper.sat_calls", st.sat_calls);
    tr.arg(sweep_span, "sat_sweeper.pairs_proved", st.pairs_proved);
    tr.arg(sweep_span, "sat_sweeper.pairs_disproved", st.pairs_disproved);
    tr.arg(sweep_span, "sat_sweeper.pairs_undecided", st.pairs_undecided);
    tr.arg(sweep_span, "sat_sweeper.conflicts", st.conflicts);
    lg.residue += span_s(sweep_span);
    lg.sat_calls += st.sat_calls;
    lg.conflicts += st.conflicts;
    lg.sat_decided += st.pairs_proved + st.pairs_disproved;
  }
  check_identity(c, "engine + sweep", span_s(engine_span) + span_s(sweep_span),
                 o.seconds);
  // Over all checks, so it reads as the margin left to the slowest check
  // (negative) when none reaches its budget.
  lg.overrun_max = std::max(lg.overrun_max, o.seconds - w.budget);
  if (o.verdict == Verdict::kUndecided && o.seconds >= w.budget)
    ++lg.budget_hits;
  return o;
}

/// Work counts of the layer probes, summed over cases.
struct ProbeTotals {
  double sim_words = 0, batch_words = 0;
  double nodes_before = 0, nodes_after = 0;
  std::array<double, 3> checks{}, proved{};
};

/// Timed direct calls into each layer on one case's miter, in the order
/// the engine uses them: simulate, build classes, build and merge the
/// G-phase windows, check them exhaustively, run the three cut passes,
/// rebuild with everything proved. A flow that never enters the engine
/// (sat_baseline) also gets one engine run here, so the engine metrics
/// are measured on every workload.
void probe_layers(Tracer& tr, int id, const Workload& w, const Case& c,
                  std::uint64_t seed, ProbeTotals& pt, Ledger& lg) {
  namespace window = simsweep::window;
  namespace exhaustive = simsweep::exhaustive;
  namespace cut = simsweep::cut;
  const engine::EngineParams ep = engine_params(0);
  const aig::Aig& m = c.miter;
  const Scope root(tr, "probe", id);
  if (w.flow != Flow::kCombined) traced_engine(tr, id, c, w.budget, lg);

  const sim::PatternBank bank =
      sim::PatternBank::random(m.num_pis(), ep.max_pattern_words, seed);
  sim::Signatures sig;
  {
    const Scope s(tr, "sim.simulate", id);
    sig = sim::simulate(m, bank);
  }
  pt.sim_words += static_cast<double>(m.num_nodes() * bank.num_words());
  sim::EcManager ec;
  {
    const Scope s(tr, "sim.ec_build", id);
    ec.build(m, sig);
  }
  const std::vector<sim::CandidatePair> pairs = ec.candidate_pairs();

  // One window per candidate pair whose support union is at most k_g.
  std::vector<sim::CandidatePair> eligible;
  std::vector<window::Window> windows;
  {
    const Scope s(tr, "window.build", id);
    const aig::SupportInfo sup = aig::compute_supports(m, ep.k_g);
    for (const sim::CandidatePair& p : pairs) {
      if (!sup.small(p.repr) || !sup.small(p.node)) continue;
      std::vector<aig::Var> in =
          aig::sorted_union(sup.sets[p.repr], sup.sets[p.node]);
      if (in.empty() || in.size() > ep.k_g) continue;
      std::optional<window::Window> win = window::build_window(
          m, std::move(in),
          {window::CheckItem{aig::make_lit(p.repr, p.phase),
                             aig::make_lit(p.node),
                             static_cast<std::uint32_t>(eligible.size())}});
      if (!win) continue;
      windows.push_back(std::move(*win));
      eligible.push_back(p);
    }
  }
  window::MergeStats ms;
  {
    const Scope s(tr, "window.merge", id);
    windows = window::merge_windows(m, std::move(windows), ep.k_g, &ms);
  }
  pt.nodes_before += static_cast<double>(ms.sim_nodes_before);
  pt.nodes_after += static_cast<double>(ms.sim_nodes_after);

  std::vector<std::vector<window::Window>> batches;
  for (std::size_t lo = 0; lo < windows.size(); lo += ep.max_batch_windows)
    batches.emplace_back(
        std::make_move_iterator(windows.begin() + lo),
        std::make_move_iterator(windows.begin() +
                                std::min(windows.size(),
                                         lo + ep.max_batch_windows)));
  aig::SubstitutionMap subst(m.num_nodes());
  std::vector<std::uint32_t> proved_tags;
  {
    const Scope s(tr, "exhaustive.check_batch", id);
    exhaustive::Params xp;
    xp.max_cex = eligible.size();
    for (const std::vector<window::Window>& batch : batches) {
      const exhaustive::BatchResult r = exhaustive::check_batch(m, batch, xp);
      pt.batch_words += static_cast<double>(r.words_simulated);
      for (const auto& [tag, status] : r.outcomes)
        if (status == exhaustive::ItemStatus::kProved)
          proved_tags.push_back(tag);
    }
  }
  for (std::uint32_t tag : proved_tags)
    subst.merge(eligible[tag].node,
                aig::make_lit(eligible[tag].repr, eligible[tag].phase));

  std::vector<cut::PairTask> tasks;
  for (const sim::CandidatePair& p : pairs)
    if (m.is_and(p.node)) tasks.push_back({p.repr, p.node, p.phase});
  cut::PassParams pp;
  pp.enum_params.cut_size = ep.k_l;
  pp.enum_params.num_cuts = ep.num_cuts;
  pp.buffer_capacity = ep.cut_buffer_capacity;
  pp.max_cuts_per_pair = ep.max_cuts_per_pair;
  std::vector<std::uint8_t> proved(tasks.size(), 0);
  constexpr cut::Pass kPasses[3] = {cut::Pass::kFanout, cut::Pass::kSmallLevel,
                                    cut::Pass::kLargeLevel};
  for (unsigned k = 0; k < 3; ++k) {
    const Scope s(tr, "cut.pass" + std::to_string(k + 1), id);
    cut::PassResult r = cut::run_checking_pass(m, tasks, kPasses[k], pp,
                                               &proved);
    proved = std::move(r.proved);
    pt.checks[k] += static_cast<double>(r.stats.checks);
    pt.proved[k] += static_cast<double>(r.stats.proved);
  }
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (proved[i])
      subst.merge(tasks[i].node, aig::make_lit(tasks[i].repr, tasks[i].phase));

  std::optional<aig::RebuildResult> rebuilt;
  {
    const Scope s(tr, "aig.rebuild", id);
    rebuilt = aig::rebuild(m, subst);
  }
}

double busy_seconds(const simsweep::parallel::PoolStats& s) {
  return s.busy_mean * s.lifetime_seconds;
}

void measure_traced(const Workload& w, const std::vector<Case>& cases,
                    const std::vector<SetupTimes>& reps, std::uint64_t seed,
                    const std::string& trace_out, SplitMix& rng) {
  // Untraced reference pass: its wall time and verdicts.
  const Pass plain = run_pass(w, cases, rng);

  Tracer tr;
  Ledger lg;
  std::size_t decided = plain.decided;
  const auto& pool = simsweep::parallel::ThreadPool::global();
  const simsweep::parallel::PoolStats pool0 = pool.stats();
  const Timer t;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Outcome o = traced_check(w, cases[i], static_cast<int>(i), tr, lg);
    if (o.verdict != plain.outcomes[i].verdict)
      die("traced verdict on " + cases[i].name + " (" +
          simsweep::to_string(o.verdict) + ") differs from the untraced " +
          "one (" + simsweep::to_string(plain.outcomes[i].verdict) + ")");
    decided += judge(cases[i], o, rng);
  }
  const double traced_wall = t.seconds();
  const simsweep::parallel::PoolStats pool1 = pool.stats();

  ProbeTotals pt;
  for (std::size_t i = 0; i < cases.size(); ++i)
    probe_layers(tr, static_cast<int>(i), w, cases[i], seed, pt, lg);

  if (!tr.write_chrome(trace_out)) die("cannot write " + trace_out);
  std::printf("trace written to %s\nself seconds per span name:\n",
              trace_out.c_str());
  const std::map<std::string, double> self = tr.self_seconds();
  for (const auto& [name, sec] : self)
    std::printf("  %-24s %10.4f s\n", name.c_str(), sec);

  std::map<std::string, double> total;
  for (const Span& s : tr.spans()) total[s.name] += s.seconds();
  std::vector<Metric> ms = {
      {"engine.po_s", "s", lg.po},
      {"engine.global_s", "s", lg.global},
      {"engine.local_s", "s", lg.local},
      {"engine.other_s", "s", median(lg.other_fast)},
      {"exhaustive.words_per_s", "words/s",
       ratio(pt.batch_words, total["exhaustive.check_batch"])},
      {"exhaustive.words_simulated", "words", lg.words_simulated},
      {"exhaustive.check_batch_s", "s", total["exhaustive.check_batch"]},
      {"window.build_s", "s", total["window.build"]},
      {"window.merge_s", "s", total["window.merge"]},
      {"window.merge_ratio", "ratio", ratio(pt.nodes_after, pt.nodes_before)},
  };
  for (unsigned k = 0; k < 3; ++k) {
    const std::string p = "cut.pass" + std::to_string(k + 1);
    ms.push_back({p + "_s", "s", total[p]});
    ms.push_back({p + ".hit_rate", "ratio", ratio(pt.proved[k], pt.checks[k])});
  }
  const double pool_window = pool1.lifetime_seconds - pool0.lifetime_seconds;
  const std::vector<Metric> rest = {
      {"parallel.busy_frac", "ratio",
       ratio(busy_seconds(pool1) - busy_seconds(pool0), pool_window)},
      {"sim.simulate_s", "s", total["sim.simulate"]},
      {"sim.words_per_s", "words/s",
       ratio(pt.sim_words, total["sim.simulate"])},
      {"sim.ec_build_s", "s", total["sim.ec_build"]},
      {"sim.candidate_precision", "ratio", ratio(lg.pairs_proved, lg.eligible)},
      {"aig.rebuild_s", "s", total["aig.rebuild"]},
      {"miter.ands_removed", "count", lg.ands_removed},
      {"sweep.residue_s", "s", lg.residue},
      {"sweep.sat_calls", "count", lg.sat_calls},
      {"sweep.conflicts", "count", lg.conflicts},
      {"sweep.useful_frac", "ratio", ratio(lg.sat_decided, lg.sat_calls)},
      {"budget.hits", "count", static_cast<double>(lg.budget_hits)},
      {"budget.overrun_max_s", "s", lg.overrun_max},
      {"setup.gen_s", "s", setup_median(reps, &SetupTimes::gen)},
      {"setup.miter_s", "s", setup_median(reps, &SetupTimes::miter)},
      {"setup.ground_truth_s", "s", setup_median(reps, &SetupTimes::truth)},
      {"trace.overhead_frac", "ratio", traced_wall / plain.wall - 1},
  };
  ms.insert(ms.end(), rest.begin(), rest.end());
  const std::size_t attempted = 2 * cases.size();
  print_result(attempted, attempted - decided, ms);
}

}  // namespace
}  // namespace cecbench

int main(int argc, char** argv) {
  using namespace cecbench;
  std::string workload, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  if (argc % 2 == 0) die("options take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") trace = std::atoi(v.c_str());
    else if (k == "--trace-out") trace_out = v;
    else die("unknown option " + k);
  }
  const Workload* w = nullptr;
  for (const Workload& x : kWorkloads)
    if (workload == x.name) w = &x;
  if (w == nullptr) die("unknown workload '" + workload + "'");

  // Set-up three times; the median is setup_s, the last copy is used.
  constexpr int kSetupReps = 3;
  std::vector<Case> cases;
  std::vector<SetupTimes> reps;
  for (int r = 0; r < kSetupReps; ++r) {
    SetupTimes t;
    cases = setup(*w, seed, t);
    reps.push_back(t);
    std::fprintf(stderr, "set-up %d: gen %.3f s, ground truth %.3f s, "
                 "miter %.3f s\n", r, t.gen, t.truth, t.miter);
  }
  SplitMix judge_rng(seed ^ 0x6A09E667F3BCC909ULL);
  if (trace == 0) {
    measure(*w, cases, seconds, reps, judge_rng);
  } else {
    if (trace_out.empty())
      trace_out = std::string("cecbench_trace_") + w->name + "_" +
                  std::to_string(seed) + ".json";
    measure_traced(*w, cases, reps, seed, trace_out, judge_rng);
  }
  return 0;
}
