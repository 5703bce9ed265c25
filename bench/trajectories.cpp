/// \file trajectories.cpp
/// \brief The JSON trajectory modes of simsweep_bench (`--json FILE
/// [--smoke]`), each tracked in CI by a smoke ctest:
///
///  * `exhaustive` — exhaustive-simulator throughput (paper Alg. 1) on
///    the two canonical parallelism shapes of paper Fig. 3: many small
///    windows (window dimension) and few large windows (level-batch
///    dimension); words simulated per second plus the simulator's
///    counters per config.
///  * `sweeper` — SAT residue sweep throughput (DESIGN.md §2.5):
///    sequential SatSweeper vs the sharded ParallelSatSweeper at 1/2/4
///    shards on a multiplier miter, the workload class whose residue
///    dominates combined-flow wall time; resolved pairs per second.
///  * `service` — batch job service throughput (DESIGN.md §2.9): four
///    distinct pairs submitted three times each, run sequentially vs
///    through one CecService at 1/2/4 concurrent jobs; jobs per second.

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "aig/miter.hpp"
#include "common/verdict.hpp"
#include "exhaustive/exhaustive_sim.hpp"
#include "gen/arith.hpp"
#include "harness.hpp"
#include "obs/metric_names.hpp"
#include "obs/registry.hpp"
#include "service/cec_service.hpp"
#include "sweep/parallel_sweeper.hpp"
#include "sweep/sat_sweeper.hpp"

namespace simsweep::bench {

namespace {

std::string vformat(const char* fmt, va_list args) {
  char buf[256];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  return buf;
}

/// printf into a string (at most 255 characters).
__attribute__((format(printf, 1, 2))) std::string format(const char* fmt,
                                                         ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = vformat(fmt, args);
  va_end(args);
  return out;
}

/// One JSON object's members in order; values are preformatted JSON.
class Fields {
 public:
  /// A printf-formatted number (or other literal JSON) value.
  __attribute__((format(printf, 3, 4))) Fields& num(const char* key,
                                                    const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    members_.emplace_back(key, vformat(fmt, args));
    va_end(args);
    return *this;
  }
  /// A string value (bench-authored names and descriptions only: no
  /// escaping needed).
  Fields& str(const char* key, const std::string& value) {
    members_.emplace_back(key, "\"" + value + "\"");
    return *this;
  }
  Fields& object(const char* key, const Fields& inner) {
    members_.emplace_back(key, inner.json());
    return *this;
  }
  std::string json() const {
    std::string out = "{";
    for (const auto& [key, value] : members_)
      out += (out.size() > 1 ? ", \"" : "\"") + key + "\": " + value;
    return out + "}";
  }
  const std::vector<std::pair<std::string, std::string>>& members() const {
    return members_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

/// Minimum work of one timed config: at least `min_reps` reps and at
/// least `min_seconds` of wall time — `smoke_reps` reps / 0.2 s in
/// --smoke mode, `full_reps` reps / 2 s otherwise.
struct RepBudget {
  std::size_t min_reps;
  double min_seconds;
};
RepBudget rep_budget(bool smoke, std::size_t smoke_reps = 2,
                     std::size_t full_reps = 5) {
  return smoke ? RepBudget{smoke_reps, 0.2} : RepBudget{full_reps, 2.0};
}

struct Timing {
  std::size_t reps = 0;
  double wall_seconds = 0.0;
};

/// One warm-up call `rep(false)` (first-touch allocations, cache fill,
/// branch history; the mode keeps nothing from it), then timed calls
/// `rep(true)` until the budget is met.
Timing timed_reps(const RepBudget& budget,
                  const std::function<void(bool timed)>& rep) {
  rep(false);
  Timing t;
  const auto start = std::chrono::steady_clock::now();
  do {
    rep(true);
    ++t.reps;
    t.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  } while (t.reps < budget.min_reps || t.wall_seconds < budget.min_seconds);
  return t;
}

/// One config of a trajectory: its JSON row, its console line, the
/// per-job verdicts the gate compares and the rate the speedup table
/// divides.
struct Row {
  std::string name;
  Fields fields;                  ///< JSON members after "name"
  std::string line;               ///< console summary after the name
  std::vector<Verdict> verdicts;  ///< empty: not gated
  double rate = 0.0;              ///< work per wall second
};

struct Trajectory {
  std::string bench;  ///< the "bench" key, e.g. "bench_sweeper"
  Fields head;        ///< members between "mode" and "configs"
  std::vector<Row> rows;
  /// Appends "speedup_vs_sequential": rate of every later row over the
  /// first row's (the sequential baseline).
  bool speedup_vs_first = false;
};

/// The verdict-identity gate, then the JSON file and the console
/// summary. Returns the process exit code: 1 when a gated row's
/// verdicts differ from the first row's or the file cannot be written.
int finish_trajectory(const Trajectory& t, const char* path, bool smoke) {
  for (const Row& r : t.rows) {
    if (!r.verdicts.empty() && r.verdicts != t.rows[0].verdicts) {
      std::fprintf(stderr, "%s: verdict mismatch in %s\n", t.bench.c_str(),
                   r.name.c_str());
      return 1;
    }
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", t.bench.c_str(),
                 path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"mode\": \"%s\",\n",
               t.bench.c_str(), smoke ? "smoke" : "full");
  for (const auto& [key, value] : t.head.members())
    std::fprintf(f, "  \"%s\": %s,\n", key.c_str(), value.c_str());
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < t.rows.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\"", t.rows[i].name.c_str());
    for (const auto& [key, value] : t.rows[i].fields.members())
      std::fprintf(f, ", \"%s\": %s", key.c_str(), value.c_str());
    std::fprintf(f, "}%s\n", i + 1 < t.rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
  if (t.speedup_vs_first) {
    Fields speedups;
    for (std::size_t i = 1; i < t.rows.size(); ++i)
      speedups.num(t.rows[i].name.c_str(), "%.2f",
                   t.rows[i].rate / t.rows[0].rate);
    std::fprintf(f, ",\n  \"speedup_vs_sequential\": %s",
                 speedups.json().c_str());
  }
  std::fprintf(f, "\n}\n");
  if (std::ferror(f) != 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "%s: write to %s failed\n", t.bench.c_str(), path);
    return 1;
  }

  for (const Row& r : t.rows)
    std::printf("%-22s %s\n", r.name.c_str(), r.line.c_str());
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace

int run_exhaustive(const char* json_path, bool smoke) {
  Trajectory t;
  t.bench = "bench_exhaustive";
  const auto measure = [&](const char* name, const aig::Aig& a,
                           const std::vector<window::Window>& windows,
                           const RepBudget& budget) {
    // Simulator counters accumulated over the timed reps (publishing
    // happens at batch end, outside the hot loops, so the overhead
    // contract of DESIGN.md §2.3 keeps the numbers honest). The warm-up
    // rep is uninstrumented so the counters cover exactly the timed reps.
    obs::Registry registry;
    exhaustive::Params params;
    params.obs = &registry;
    std::size_t words = 0, rounds = 0, entry_words = 0;
    const Timing tm = timed_reps(budget, [&](bool timed) {
      const exhaustive::BatchResult r = exhaustive::check_batch(
          a, windows, timed ? params : exhaustive::Params{});
      if (!timed) return;
      words += r.words_simulated;
      rounds = r.rounds;
      entry_words = r.entry_words;
    });
    Fields counters;
    for (const obs::Metric& m : registry.snapshot().metrics) {
      if (m.kind == obs::MetricKind::kCounter)
        counters.num(m.name.c_str(), "%llu",
                     static_cast<unsigned long long>(m.count));
      else
        counters.num(m.name.c_str(), "%.9g", m.value);
    }
    Row row;
    row.name = name;
    row.rate = static_cast<double>(words) / tm.wall_seconds;
    row.fields.num("windows", "%zu", windows.size())
        .num("reps", "%zu", tm.reps)
        .num("wall_seconds", "%.6f", tm.wall_seconds)
        .num("words_simulated", "%zu", words)
        .num("words_per_sec", "%.3e", row.rate)
        .num("rounds", "%zu", rounds)
        .num("entry_words", "%zu", entry_words)
        .object("obs", counters);
    row.line = format("%8zu reps  %9.3f s  %.3e words/sec", tm.reps,
                      tm.wall_seconds, row.rate);
    t.rows.push_back(std::move(row));
  };

  // Many small windows: 128 independent 10-input XOR trees; the adaptive
  // simulator should pick window-dimension parallelism (each worker
  // sweeps whole windows serially, zero cross-window barriers).
  {
    const aig::Aig a = xor_forest(128, 10);
    measure("many_small_windows", a, xor_forest_windows(a, 10),
            rep_budget(smoke, 3, 20));
  }
  // Few large windows: PO checks of a 9-bit ripple-vs-Kogge-Stone adder
  // miter, ~11 windows with up to 19 inputs (8192-word tables) and deep
  // level structure — the level-batch dimension, decomposed into
  // multiple rounds by the memory cap.
  {
    const aig::Aig m = aig::make_miter(gen::ripple_adder(9),
                                       gen::kogge_stone_adder(9));
    measure("few_large_windows", m, po_windows(m, 19), rep_budget(smoke));
  }
  return finish_trajectory(t, json_path, smoke);
}

int run_sweeper(const char* json_path, bool smoke) {
  // Array vs Wallace multiplier: structurally different implementations
  // with many internal equivalences — the paper's hard-residue shape.
  // Smoke keeps the 4-bit pair so the ctest stays fast.
  const unsigned bits = smoke ? 4 : 5;
  const aig::Aig miter = aig::make_miter(gen::array_multiplier(bits),
                                         gen::wallace_multiplier(bits));
  Trajectory t;
  t.bench = "bench_sweeper";
  t.head.str("workload", format("array vs wallace multiplier, %u bits", bits))
      .str("metric", "pairs_per_sec = resolved candidate pairs per wall "
                     "second");
  t.speedup_vs_first = true;

  const auto measure = [&](const std::string& name, unsigned threads,
                           const std::function<sweep::SweepResult()>& run) {
    Verdict verdict = Verdict::kUndecided;
    std::size_t pairs = 0, sat_calls = 0, sim_resolved = 0, chunks = 0,
                steals = 0;
    std::uint64_t conflicts = 0;
    const Timing tm = timed_reps(rep_budget(smoke), [&](bool timed) {
      const sweep::SweepResult r = run();
      if (!timed) return;
      verdict = r.verdict;
      pairs += r.stats.pairs_proved + r.stats.pairs_disproved +
               r.stats.pairs_undecided;
      conflicts += r.stats.conflicts;
      sat_calls += r.stats.sat_calls;
      sim_resolved += r.stats.pairs_sim_resolved;
      chunks += r.stats.chunks;
      steals += r.stats.steals;
    });
    Row row;
    row.name = name;
    row.verdicts = {verdict};
    row.rate = static_cast<double>(pairs) / tm.wall_seconds;
    const double conflicts_per_sec =
        static_cast<double>(conflicts) / tm.wall_seconds;
    row.fields.num("threads", "%u", threads)
        .num("reps", "%zu", tm.reps)
        .num("wall_seconds", "%.6f", tm.wall_seconds)
        .num("pairs", "%zu", pairs)
        .num("pairs_per_sec", "%.4e", row.rate)
        .num("conflicts", "%llu", static_cast<unsigned long long>(conflicts))
        .num("conflicts_per_sec", "%.4e", conflicts_per_sec)
        .num("sat_calls", "%zu", sat_calls)
        .num("pairs_sim_resolved", "%zu", sim_resolved)
        .num("chunks", "%zu", chunks)
        .num("steals", "%zu", steals)
        .str("verdict", to_string(verdict));
    row.line = format("%2u thr %6zu reps %9.3f s  %.4e pairs/sec  %.4e "
                      "conflicts/sec  %s",
                      threads, tm.reps, tm.wall_seconds, row.rate,
                      conflicts_per_sec, to_string(verdict));
    t.rows.push_back(std::move(row));
  };

  const sweep::SweeperParams sequential;  // num_threads = 1
  measure("sequential", 1,
          [&] { return sweep::SatSweeper(sequential).check_miter(miter); });
  // shard_sweep_1 bypasses the dispatcher (which would route one thread
  // back to the sequential sweeper): it isolates the algorithmic effect
  // of simulation-first pair resolution on a single core, before 2/4 add
  // actual scheduling overlap.
  for (const unsigned threads : {1u, 2u, 4u}) {
    sweep::SweeperParams p;
    p.num_threads = threads;
    measure("shard_sweep_" + std::to_string(threads), threads,
            [&] { return sweep::ParallelSatSweeper(p).check_miter(miter); });
  }
  return finish_trajectory(t, json_path, smoke);
}

int run_service(const char* json_path, bool smoke) {
  // Engine/sweeper parameters sized so every job decides in milliseconds:
  // the mode measures service throughput, not single-job capacity.
  portfolio::CombinedParams job_params;
  job_params.engine.k_P = 16;
  job_params.engine.k_p = 10;
  job_params.engine.k_g = 10;
  job_params.engine.k_l = 6;
  job_params.engine.memory_words = 1 << 16;

  // Four distinct pairs, each submitted three times, duplicates
  // interleaved — so under concurrency a duplicate regularly lands while
  // its original is still in flight (the coalescing path), not only
  // after (the plain cache-hit path). Smoke still uses a real multiplier
  // pair: the jobs must be large enough that compute (not per-rep
  // service construction) dominates, or the cache win is invisible.
  const unsigned mult_bits = 4;
  const unsigned add_bits = smoke ? 8 : 10;
  const std::vector<std::pair<aig::Aig, aig::Aig>> pairs = {
      {gen::array_multiplier(mult_bits), gen::wallace_multiplier(mult_bits)},
      {gen::ripple_adder(add_bits), gen::kogge_stone_adder(add_bits)},
      {gen::array_multiplier(mult_bits + 1),
       gen::wallace_multiplier(mult_bits + 1)},
      {gen::ripple_adder(add_bits + 2), gen::kogge_stone_adder(add_bits + 2)}};
  std::vector<service::JobSpec> jobs;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      service::JobSpec s;
      s.id = "p" + std::to_string(i) + "_r" + std::to_string(round);
      s.a = pairs[i].first;
      s.b = pairs[i].second;
      s.params = job_params;
      jobs.push_back(std::move(s));
    }
  }

  Trajectory t;
  t.bench = "bench_service";
  t.head
      .str("workload", format("%zu jobs: 4 distinct multiplier/adder pairs "
                              "x 3 submissions",
                              jobs.size()))
      .str("metric", "jobs_per_sec = completed miter-check jobs per wall "
                     "second");
  t.speedup_vs_first = true;

  // Each rep is one full pass over the job set from a cold cache; the
  // row keeps the last rep's per-job verdicts and cache hits.
  const auto measure = [&](const std::string& name, unsigned concurrency,
                           const std::function<std::vector<Verdict>(
                               std::uint64_t* cache_hits)>& run) {
    std::vector<Verdict> verdicts;
    std::uint64_t cache_hits = 0;
    std::size_t done = 0;
    const Timing tm = timed_reps(rep_budget(smoke), [&](bool timed) {
      std::uint64_t hits = 0;
      std::vector<Verdict> v = run(&hits);
      if (!timed) return;
      done += v.size();
      verdicts = std::move(v);
      cache_hits = hits;
    });
    Row row;
    row.name = name;
    row.verdicts = verdicts;
    row.rate = static_cast<double>(done) / tm.wall_seconds;
    row.fields.num("concurrency", "%u", concurrency)
        .num("reps", "%zu", tm.reps)
        .num("wall_seconds", "%.6f", tm.wall_seconds)
        .num("jobs", "%zu", done)
        .num("jobs_per_sec", "%.4e", row.rate)
        .num("cache_hits", "%llu",
             static_cast<unsigned long long>(cache_hits));
    row.line = format("%2u jobs %6zu reps %9.3f s  %.4e jobs/sec  %llu "
                      "cache hits (last rep)",
                      concurrency, tm.reps, tm.wall_seconds, row.rate,
                      static_cast<unsigned long long>(cache_hits));
    t.rows.push_back(std::move(row));
  };

  // Baseline: the jobs one after another through the plain combined
  // flow — no service, no cache, every duplicate recomputed.
  measure("sequential", 1, [&](std::uint64_t*) {
    std::vector<Verdict> v;
    for (const service::JobSpec& j : jobs)
      v.push_back(portfolio::combined_check_miter(aig::make_miter(*j.a, *j.b),
                                                  j.params)
                      .verdict);
    return v;
  });
  const auto through_service = [&](unsigned concurrency,
                                   std::size_t cache_capacity,
                                   std::uint64_t* cache_hits) {
    service::ServiceParams sp;
    sp.max_concurrent_jobs = concurrency;
    sp.cache_capacity = cache_capacity;
    service::CecService svc(sp);
    std::vector<Verdict> v;
    for (const service::JobResult& res : svc.run_batch(jobs))
      v.push_back(res.verdict);
    *cache_hits = svc.metrics().count(obs::metric::kServiceCacheHits);
    return v;
  };
  for (const unsigned c : {1u, 2u, 4u})
    measure("service_c" + std::to_string(c), c, [&](std::uint64_t* hits) {
      return through_service(c, 1024, hits);
    });
  // Transparency control: same concurrency, cache disabled — its speedup
  // shows what scheduling alone buys.
  measure("service_c4_nocache", 4, [&](std::uint64_t* hits) {
    return through_service(4, 0, hits);
  });
  return finish_trajectory(t, json_path, smoke);
}

}  // namespace simsweep::bench
