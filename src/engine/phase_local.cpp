/// \file phase_local.cpp
/// \brief L phase: local function checking (paper §III-C, §III-D).
///
/// One L phase re-initializes the equivalence classes on the current
/// (reduced) miter, then runs up to three cut-generation-and-checking
/// passes with different cut-selection priorities (paper Table I) over the
/// same candidate pairs. Pairs proved by any pass are merged in a single
/// miter rebuild at the end of the phase. Because the miter structure
/// changes after reduction, the next L phase generates different cuts,
/// giving failed pairs new chances (paper §III-D).

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "aig/rebuild.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "cut/checking_pass.hpp"
#include "engine/phase_common.hpp"
#include "obs/metric_names.hpp"
#include "sim/ec_manager.hpp"

namespace simsweep::engine::detail {

namespace {

/// Publishes one Table I pass under `cut.pass<n>.*` plus the shared
/// enumeration-level histogram (`cut.level_hist.b<k>`, log2 buckets).
void publish_pass_stats(EngineContext& ctx, unsigned pass_index,
                        const cut::PassStats& s) {
  obs::Registry& r = *ctx.obs;
  char prefix[24];
  std::snprintf(prefix, sizeof prefix, "%s%u.", obs::metric::kCutPassPrefix,
                pass_index + 1);
  const auto name = [&](const char* leaf) {
    return std::string(prefix) + leaf;
  };
  r.add(name("runs"));
  r.add(name("common_cuts"), s.common_cuts);
  r.add(name("checks"), s.checks);
  r.add(name("flushes"), s.flushes);
  r.add(name("proved"), s.proved);
  r.add(name("cuts_enumerated"), s.cuts_enumerated);
  r.add(name("cuts_selected"), s.cuts_selected);
  r.add(name("levels"), s.levels);
  // Hit rate of the pass's exhaustive cut checks, cumulative across runs
  // (recomputed from the registry's own counters so it stays consistent).
  // Direct counter reads: taking a full Registry::snapshot() per pass
  // copied every metric in the registry just to read these two cells.
  const double checks = static_cast<double>(r.counter(name("checks")).value());
  const double proved = static_cast<double>(r.counter(name("proved")).value());
  r.set(name("hit_rate"), checks > 0 ? proved / checks : 0.0);
  for (std::size_t b = 0; b < s.level_hist.size(); ++b) {
    if (s.level_hist[b] == 0) continue;
    char leaf[40];
    std::snprintf(leaf, sizeof leaf, "%s%u", obs::metric::kCutLevelHistPrefix,
                  static_cast<unsigned>(b));
    r.add(leaf, s.level_hist[b]);
  }
}

}  // namespace

bool run_local_phase(EngineContext& ctx) {
  Timer t;
  const EngineParams& p = ctx.params;
  aig::Aig& miter = ctx.miter;

  ensure_bank(ctx);
  // Incremental entry (DESIGN.md §2.7): classes carried over from the
  // previous phase's rebuild (or delta-refined) instead of a full
  // re-simulation + fresh build; EC stats publish as deltas since the
  // manager lives across phases.
  const aig::LevelSchedule* sched = level_schedule(ctx);
  const sim::CarryStats cs_entry = ctx.inc.stats();
  const sim::EcStats ec_entry = ctx.inc.ec().stats();
  sim::EcManager& ec = ctx.inc.sync(miter, *ctx.bank, sched);
  note_sync(ctx, cs_entry);
  publish_ec_stats(ctx, ec.stats(), ec_entry);

  std::vector<cut::PairTask> tasks;
  for (const sim::CandidatePair& pair : ec.candidate_pairs()) {
    if (!miter.is_and(pair.node)) continue;  // PIs host no cuts
    tasks.push_back(cut::PairTask{pair.repr, pair.node, pair.phase});
  }
  if (tasks.empty()) {
    ctx.stats.local_seconds += t.seconds();
    return false;
  }
  SIMSWEEP_LOG_INFO("L phase: %zu candidate pairs", tasks.size());

  cut::PassParams pass_params;
  pass_params.enum_params.cut_size = p.k_l;
  pass_params.enum_params.num_cuts = p.num_cuts;
  pass_params.buffer_capacity = p.cut_buffer_capacity;
  pass_params.max_cuts_per_pair = p.max_cuts_per_pair;
  // Per-phase deadline (DESIGN.md §2.4): an expired pass keeps its proofs
  // and the remaining passes of this phase are skipped.
  pass_params.sim_params.stop = p.stop.child(p.phase_time_limit);
  pass_params.sim_params.obs = ctx.obs;
  pass_params.sim_params.ledger = ctx.ledger;
  pass_params.schedule = sched;

  std::vector<std::uint8_t> proved(tasks.size(), 0);
  static constexpr cut::Pass kPasses[3] = {
      cut::Pass::kFanout, cut::Pass::kSmallLevel, cut::Pass::kLargeLevel};
  bool phase_expired = false;
  for (unsigned i = 0; i < 3 && !phase_expired; ++i) {
    if (!ctx.active_passes[i]) continue;
    // Per-pass parameter reset: retry backoff below shrinks cut_size /
    // buffer_capacity for THIS pass only — each pass starts from the
    // configured values again (only memory degradation, which tracks a
    // process-wide pressure, sticks in the ladder's working M).
    pass_params.enum_params.cut_size = p.k_l;
    pass_params.buffer_capacity = p.cut_buffer_capacity;
    // A pass that faults outside its batches (cut buffer overflow, OOM)
    // is retried with smaller cuts and a smaller buffer, then skipped —
    // its unproved pairs stay soundly undecided.
    std::optional<cut::PassResult> result;
    const bool completed = ctx.ladder.run_unit(
        [&] {
          result = cut::run_checking_pass(miter, tasks, kPasses[i],
                                          pass_params, &proved, &ctx.ladder);
        },
        [&] {
          pass_params.enum_params.cut_size =
              std::max(2u, pass_params.enum_params.cut_size - 2);
          pass_params.buffer_capacity =
              std::max<std::size_t>(256, pass_params.buffer_capacity / 2);
        });
    if (!completed) continue;  // pass abandoned
    proved = result->proved;
    SIMSWEEP_LOG_INFO("L pass %u: %zu proved (%zu cut checks, %zu flushes)",
                      i + 1, result->stats.proved, result->stats.checks,
                      result->stats.flushes);
    publish_pass_stats(ctx, i, result->stats);
    phase_expired = result->stats.deadline_expired;
    // Paper §V: disable passes found ineffective on this case.
    if (p.adaptive_passes && result->stats.proved == 0)
      ctx.active_passes[i] = false;
  }

  aig::SubstitutionMap subst(miter.num_nodes());
  std::size_t merged = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (proved[i] &&
        subst.merge(tasks[i].node,
                    aig::make_lit(tasks[i].repr, tasks[i].phase)))
      ++merged;
  ctx.stats.pairs_proved_local += merged;

  if (merged == 0) {
    ctx.stats.local_seconds += t.seconds();
    return false;
  }
  const std::size_t before = miter.num_ands();
  apply_reduction(ctx, subst);
  SIMSWEEP_LOG_INFO("L phase reduced miter: %zu -> %zu AND nodes", before,
                    ctx.miter.num_ands());
  ctx.stats.local_seconds += t.seconds();
  return true;
}

}  // namespace simsweep::engine::detail
