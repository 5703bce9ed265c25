/// \file check_report.cpp
/// \brief Schema validator for the run report (`report_schema` ctest).
///
/// Runs the same flow as `cec_tool --demo` (multiplier pair, CPU-rescaled
/// engine parameters), writes the run report to argv[1], reads it back
/// and validates it against schema simsweep.run_report.v3 — including the
/// acceptance contract that all five paper-module sections carry nonzero
/// counters, that the v2 robustness sections (`faults`, `degrade`,
/// DESIGN.md §2.4) are present with their expected leaves, and that the
/// v3 checkpoint-durability sections (`ckpt`, `supervisor`, DESIGN.md
/// §2.8) are present. A second (sharded-sweep) and third (batch-service,
/// DESIGN.md §2.9) flow validate the sat_sweeper shard gauges and the
/// per-job/aggregate service reports. Exit code 0 on success, 1 on any
/// failure.
///
/// Usage: ./check_report <report-path>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "gen/arith.hpp"
#include "gen/suite.hpp"
#include "obs/report.hpp"
#include "portfolio/portfolio.hpp"
#include "service/cec_service.hpp"

namespace {

/// The schema families: every metric name's top-level segment must be one
/// of these (they become the top-level sections of the JSON report). The
/// `simsweep_audit` static-analysis ctest cross-checks this table against
/// the metric catalog src/obs/metric_names.def, so a new family has to be
/// added in both places deliberately.
constexpr const char* kSchemaFamilies[] = {
    "exhaustive", "cut",  "ec",     "partial_sim", "miter",       "engine",
    "pool",       "faults", "degrade", "sat_sweeper", "ckpt", "supervisor",
    "service"};

/// True iff `name` starts with `<family>.` for a known schema family.
bool in_known_family(std::string_view name) {
  const std::size_t dot = name.find('.');
  if (dot == std::string_view::npos) return false;
  const std::string_view family = name.substr(0, dot);
  for (const char* f : kSchemaFamilies)
    if (family == f) return true;
  return false;
}

/// Checks every metric of a snapshot against the family table.
bool check_families(const simsweep::obs::Snapshot& snapshot,
                    const char* which) {
  bool ok = true;
  for (const simsweep::obs::Metric& m : snapshot.metrics) {
    if (in_known_family(m.name)) continue;
    std::fprintf(stderr,
                 "check_report: %s report metric \"%s\" is outside every "
                 "schema family\n",
                 which, m.name.c_str());
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace simsweep;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <report-path>\n", argv[0]);
    return 1;
  }
  const std::string path = argv[1];

  // The demo flow of cec_tool: a pair that exercises all five modules.
  gen::SuiteParams sp;
  sp.doublings = 1;
  const gen::BenchCase c = gen::make_case("multiplier", sp);
  portfolio::CombinedParams params;
  params.engine.k_P = 24;
  params.engine.k_p = 14;
  params.engine.k_g = 14;
  const portfolio::CombinedResult r =
      portfolio::combined_check(c.original, c.optimized, params);
  std::printf("check_report: verdict %s in %.3fs, %zu metrics\n",
              to_string(r.verdict), r.total_seconds, r.report.metrics.size());
  if (r.verdict != Verdict::kEquivalent) {
    std::fprintf(stderr, "check_report: demo pair not proved equivalent\n");
    return 1;
  }

  if (!obs::write_json_file(r.report, path)) {
    std::fprintf(stderr, "check_report: cannot write %s\n", path.c_str());
    return 1;
  }

  // Validate the bytes on disk, not the in-memory snapshot: the ctest
  // guards the emitter and the file round-trip together.
  std::string json;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "check_report: cannot reopen %s\n", path.c_str());
      return 1;
    }
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) json.append(buf, n);
    std::fclose(f);
  }

  std::string error;
  if (!obs::validate_report_json(json, &error)) {
    std::fprintf(stderr, "check_report: invalid report: %s\n", error.c_str());
    return 1;
  }
  if (!check_families(r.report, "demo")) return 1;

  // The generic validator only requires the v2 robustness sections to be
  // present; the demo flow additionally guarantees the specific leaves
  // the engine publishes unconditionally (zero-valued when healthy).
  for (const char* leaf : {"\"faults\"", "\"injected\"", "\"degrade\"",
                           "\"ladder_steps\"", "\"units_abandoned\"",
                           "\"ckpt\"", "\"writes\"", "\"supervisor\"",
                           "\"restarts\""}) {
    if (json.find(leaf) == std::string::npos) {
      std::fprintf(stderr, "check_report: report lacks expected key %s\n",
                   leaf);
      return 1;
    }
  }

  // A healthy (injection-free) demo run must not record any fired fault
  // or ladder activity.
  if (json.find("\"injected\": 0") == std::string::npos) {
    std::fprintf(stderr,
                 "check_report: healthy run reports nonzero faults.injected\n");
    return 1;
  }

  std::printf("check_report: %s is a valid %s report\n", path.c_str(),
              obs::kSchemaId);

  // Second flow: a sharded residue sweep (sweeper.num_threads = 2) on a
  // small multiplier pair. The report must still validate as v3 and
  // additionally carry the sat_sweeper.* shard gauges (DESIGN.md §2.5)
  // — the demo report above, whose sweep is sequential, is the shape
  // without them. k_P below the PI count keeps the P phase from solving
  // the POs outright, so the engine publishes every module section yet
  // still hands a nonempty residue to the sharded sweep.
  const aig::Aig small_a = gen::array_multiplier(4);
  const aig::Aig small_b = gen::wallace_multiplier(4);
  portfolio::CombinedParams shard_params;
  shard_params.engine.enable_po_phase = false;
  shard_params.engine.k_P = 6;
  shard_params.engine.k_p = 4;
  shard_params.engine.k_g = 4;
  shard_params.engine.k_l = 4;
  shard_params.engine.memory_words = 1 << 16;
  shard_params.sweeper.num_threads = 2;
  shard_params.sweeper.pairs_per_chunk = 4;
  const portfolio::CombinedResult rs =
      portfolio::combined_check(small_a, small_b, shard_params);
  if (rs.verdict != Verdict::kEquivalent) {
    std::fprintf(stderr, "check_report: sharded-sweep pair not proved\n");
    return 1;
  }
  std::string shard_json = obs::to_json(rs.report);
  if (!obs::validate_report_json(shard_json, &error)) {
    std::fprintf(stderr, "check_report: invalid sharded report: %s\n",
                 error.c_str());
    return 1;
  }
  if (!check_families(rs.report, "sharded")) return 1;
  for (const char* leaf :
       {"\"shards\"", "\"chunks\"", "\"steals\"", "\"board_merges\"",
        "\"cex_shared\"", "\"pairs_sim_resolved\"", "\"parallel_fallbacks\"",
        "\"shard\"", "\"ckpt\"", "\"supervisor\""}) {
    if (shard_json.find(leaf) == std::string::npos) {
      std::fprintf(stderr,
                   "check_report: sharded report lacks expected key %s\n",
                   leaf);
      return 1;
    }
  }
  std::printf("check_report: sharded-sweep report carries the "
              "sat_sweeper shard gauges\n");

  // Third flow: the batch job service (DESIGN.md §2.9). Three jobs — the
  // multiplier pair, the same pair again (must be a fingerprint cache
  // hit), and an adder pair — through one CecService. Each job's
  // per-job report must be a valid v3 report of its own, the duplicate's
  // report must be byte-identical to the original's, and the service's
  // aggregate snapshot must stay inside the `service` schema family.
  {
    service::ServiceParams svc_params;
    svc_params.max_concurrent_jobs = 2;
    service::CecService svc(svc_params);
    std::vector<service::JobSpec> jobs(3);
    jobs[0].id = "mult";
    jobs[0].a = small_a;
    jobs[0].b = small_b;
    jobs[0].params = shard_params;
    jobs[1] = jobs[0];
    jobs[1].id = "mult-again";
    jobs[2].id = "adder";
    jobs[2].a = gen::ripple_adder(8);
    jobs[2].b = gen::kogge_stone_adder(8);
    jobs[2].params = shard_params;
    const std::vector<service::JobResult> results =
        svc.run_batch(std::move(jobs));
    for (const service::JobResult& r : results) {
      if (r.verdict != Verdict::kEquivalent || !r.error.empty()) {
        std::fprintf(stderr, "check_report: batch job %s failed: %s\n",
                     r.id.c_str(), r.error.c_str());
        return 1;
      }
      if (!check_families(r.report, r.id.c_str())) return 1;
    }
    const std::string job_json = obs::to_json(results[0].report);
    if (!obs::validate_report_json(job_json, &error)) {
      std::fprintf(stderr, "check_report: invalid per-job report: %s\n",
                   error.c_str());
      return 1;
    }
    if (!results[1].cache_hit ||
        obs::to_json(results[1].report) != job_json) {
      std::fprintf(stderr,
                   "check_report: resubmitted job is not a cache hit with "
                   "an identical report\n");
      return 1;
    }
    const obs::Snapshot agg = svc.metrics();
    if (!check_families(agg, "service")) return 1;
    const std::string svc_json = obs::to_json(agg);
    for (const char* leaf :
         {"\"jobs_submitted\"", "\"jobs_completed\"", "\"cache_hits\"",
          "\"cache_misses\"", "\"jobs_rejected\""}) {
      if (svc_json.find(leaf) == std::string::npos) {
        std::fprintf(stderr,
                     "check_report: service snapshot lacks expected key %s\n",
                     leaf);
        return 1;
      }
    }
    if (svc_json.find("\"cache_hits\": 1") == std::string::npos) {
      std::fprintf(stderr,
                   "check_report: batch flow did not record the cache hit\n");
      return 1;
    }
    std::printf("check_report: batch-service flow emits valid per-job "
                "reports and service counters\n");
  }
  return 0;
}
