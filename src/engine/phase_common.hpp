#pragma once
/// \file phase_common.hpp
/// \brief Internal helpers shared by the engine's phase implementations.

#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_analysis.hpp"
#include "aig/rebuild.hpp"
#include "engine/engine.hpp"
#include "obs/metric_names.hpp"
#include "sim/ec_manager.hpp"
#include "sim/partial_sim.hpp"
#include "sim/quality_patterns.hpp"
#include "window/window_merge.hpp"

namespace simsweep::engine::detail {

/// Expands a sparse window-input CEX (PI variables only) into a complete
/// PI assignment; unassigned PIs default to 0, which is sound because the
/// mismatching pattern fixes only the support variables the roots can
/// depend on.
inline std::vector<bool> expand_cex(
    const aig::Aig& miter,
    const std::vector<std::pair<aig::Var, bool>>& assignment) {
  std::vector<bool> pi_values(miter.num_pis(), false);
  for (const auto& [var, value] : assignment) {
    // Window inputs of global checks are PIs: var in [1, num_pis].
    if (var >= 1 && var <= miter.num_pis()) pi_values[var - 1] = value;
  }
  return pi_values;
}

// --- Phase-side metric publishing (DESIGN.md §2.3). ctx.obs is never null
// inside a phase (check_miter installs a private registry when the caller
// provided none), and all of these run on the host thread at batch/phase
// boundaries — never inside a pool worker body.

/// Publishes one merge_windows() run under `exhaustive.merge.*` and hands
/// its build failures to the degradation ladder (a failed merged build
/// already degraded: the originals passed through unmerged — see
/// window_merge.hpp).
inline void publish_merge_stats(EngineContext& ctx,
                                const window::MergeStats& ms) {
  obs::Registry& r = *ctx.obs;
  r.add(obs::metric::kMergeRuns);
  r.add(obs::metric::kMergeWindowsBefore, ms.windows_before);
  r.add(obs::metric::kMergeWindowsAfter, ms.windows_after);
  r.add(obs::metric::kMergeSimNodesBefore, ms.sim_nodes_before);
  r.add(obs::metric::kMergeSimNodesAfter, ms.sim_nodes_after);
  r.add(obs::metric::kMergeMergeGroups, ms.merge_groups);
  r.add(obs::metric::kMergeWindowsMerged, ms.windows_merged);
  r.add(obs::metric::kMergeRejectedCapacity, ms.rejected_capacity);
  r.add(obs::metric::kMergeRejectedSimilarity, ms.rejected_similarity);
  r.add(obs::metric::kMergeBuildFailures, ms.build_failures);
  ctx.ladder.note_merge_fallbacks(ms.build_failures);
}

/// Records one miter rebuild under `miter.*` (called at every rebuild
/// site with the AND counts on both sides).
inline void note_rebuild(EngineContext& ctx, std::size_t ands_before,
                         std::size_t ands_after) {
  obs::Registry& r = *ctx.obs;
  r.add(obs::metric::kMiterRebuilds);
  r.add(obs::metric::kMiterAndsBefore, ands_before);
  r.add(obs::metric::kMiterAndsAfter, ands_after);
  if (ands_before > ands_after)
    r.add(obs::metric::kMiterAndsRemoved, ands_before - ands_after);
}

/// The current miter's cached level schedule (DESIGN.md §2.7), built on
/// first use after each rebuild and shared by partial simulation, window
/// building and the cut passes. Host thread only; the returned pointer is
/// valid until the next rebuild (apply_reduction resets the cache).
inline const aig::LevelSchedule* level_schedule(EngineContext& ctx) {
  if (!ctx.schedule || !ctx.schedule->matches(ctx.miter))
    ctx.schedule = aig::build_level_schedule(ctx.miter);
  return &*ctx.schedule;
}

/// Bank entry of the first phase that simulates (G or L): a resumed run's
/// bank (DESIGN.md §2.8: the crashed run's random init + CEXs re-derive
/// its classes), else quality patterns when enabled, else a random bank.
/// Later phases keep the bank they inherit.
inline void ensure_bank(EngineContext& ctx) {
  if (ctx.bank) return;
  const EngineParams& p = ctx.params;
  if (p.initial_bank != nullptr &&
      p.initial_bank->num_pis() == ctx.miter.num_pis()) {
    ctx.bank = *p.initial_bank;
  } else if (p.quality_patterns) {
    sim::QualityParams qp;
    qp.base_words = p.sim_words;
    qp.max_words = p.sim_words + 4;
    qp.seed = p.seed;
    ctx.bank = sim::quality_patterns(ctx.miter, qp);
  } else {
    ctx.bank =
        sim::PatternBank::random(ctx.miter.num_pis(), p.sim_words, p.seed);
  }
}

/// Publishes the deltas an EcManager accumulated since `since` under
/// `ec.*` (equivalence_classes() publishes a fresh manager's build; a
/// phase publishes what it added to the cached manager since entry).
inline void publish_ec_stats(EngineContext& ctx, const sim::EcStats& now,
                             const sim::EcStats& since = {}) {
  obs::Registry& r = *ctx.obs;
  r.add(obs::metric::kEcBuilds, now.builds - since.builds);
  r.add(obs::metric::kEcRefines, now.refines - since.refines);
  r.add(obs::metric::kEcClassesBuilt, now.classes_built - since.classes_built);
  r.add(obs::metric::kEcClassSplits, now.class_splits - since.class_splits);
  r.add(obs::metric::kEcClassesDissolved,
        now.classes_dissolved - since.classes_dissolved);
}

/// The current miter's equivalence classes (DESIGN.md §2.7): built on
/// first use after each rebuild by partial simulation of the whole bank
/// (ensure_bank), then kept until the next rebuild, so a phase that
/// follows a phase without reduction reuses them. Publishes the
/// simulation under `partial_sim.*` and the build under `ec.*`. Host
/// thread only; the reference is valid until the next rebuild
/// (apply_reduction resets the cache).
inline sim::EcManager& equivalence_classes(EngineContext& ctx) {
  if (ctx.classes) return *ctx.classes;
  ensure_bank(ctx);
  const sim::Signatures sigs =
      sim::simulate(ctx.miter, *ctx.bank, level_schedule(ctx));
  ctx.obs->add(obs::metric::kPartialSimSimulateCalls);
  ctx.obs->add(obs::metric::kPartialSimPatternWords, ctx.bank->num_words());
  sim::EcManager& ec = ctx.classes.emplace();
  ec.build(ctx.miter, sigs);
  publish_ec_stats(ctx, ec.stats());
  return ec;
}

/// The engine's single rebuild site: applies a substitution map to the
/// miter, drops the caches built on the old miter (level schedule and
/// equivalence classes, DESIGN.md §2.7) and records the reduction under
/// `miter.*`.
inline void apply_reduction(EngineContext& ctx,
                            const aig::SubstitutionMap& subst) {
  const std::size_t before_ands = ctx.miter.num_ands();
  ctx.miter = aig::rebuild(ctx.miter, subst).aig;
  ctx.schedule.reset();
  ctx.classes.reset();
  note_rebuild(ctx, before_ands, ctx.miter.num_ands());
}

}  // namespace simsweep::engine::detail
