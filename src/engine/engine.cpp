#include "engine/engine.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "obs/metric_names.hpp"
#include "parallel/thread_pool.hpp"

namespace simsweep::engine {

EngineResult SimCecEngine::check_miter(aig::Aig miter) const {
  Timer total;

  // One token for the whole run: the caller's latch and deadline plus
  // time_limit from now. Every phase checkpoint polls it directly.
  EngineParams effective = params_;
  effective.stop = params_.stop.child(params_.time_limit);

  detail::EngineContext ctx{effective, std::move(miter), {}, {}, {},
                            false,     {},               params_.local_passes};
  ctx.stats.initial_ands = ctx.miter.num_ands();
  ctx.stats.pos_total = ctx.miter.num_pos();

  // Resource governor (DESIGN.md §2.4): the memory ledger is either the
  // caller's (portfolio-shared budget) or a run-private one.
  std::optional<fault::MemoryLedger> local_ledger;
  if (params_.memory_ledger != nullptr)
    ctx.ledger = params_.memory_ledger;
  else if (params_.memory_budget_bytes > 0)
    ctx.ledger = &local_ledger.emplace(params_.memory_budget_bytes);
  // Fault-injection telemetry baseline: finish() publishes the delta of
  // process-wide injected fires over this run as `faults.injected`.
  const std::uint64_t fault_fires_before = fault::fires_total();
  const auto site_fires_before = fault::active_fire_counts();

  // Metrics sink: the caller's registry when provided (shared across
  // attempts), else a private one so result.report is always populated.
  obs::Registry local_registry;
  obs::Registry& registry =
      params_.registry != nullptr ? *params_.registry : local_registry;
  ctx.obs = &registry;
  // The miter every reduction of this registry is measured against: set
  // once, by the registry's first attempt (DESIGN.md §2.3).
  if (registry.snapshot().find(obs::metric::kEngineInitialAnds) == nullptr) {
    registry.set(obs::metric::kEngineInitialAnds,
                 static_cast<double>(ctx.stats.initial_ands));
    registry.set(obs::metric::kEnginePosTotal,
                 static_cast<double>(ctx.stats.pos_total));
  }

  // The attempt's one publish step (DESIGN.md §2.3), into the registry by
  // finish() or into a scratch copy by a checkpoint. Totals are added, so
  // attempts sharing a registry sum by themselves; only the miter's size
  // and reduction are set. Stats are stamped "as of now", so a checkpoint
  // report obeys P + G + L + other == total like the finished run's.
  auto publish = [&](obs::Registry& r) {
    ctx.stats.final_ands = ctx.miter.num_ands();
    ctx.stats.total_seconds = total.seconds();
    // Everything outside the three phase timers: simulation init, EC
    // building, rebuilds. Clamped at 0 against timer skew.
    ctx.stats.other_seconds = std::max(
        0.0, ctx.stats.total_seconds -
                 (ctx.stats.po_seconds + ctx.stats.global_seconds +
                  ctx.stats.local_seconds));
    const EngineStats& s = ctx.stats;
    r.add_value(obs::metric::kEnginePoSeconds, s.po_seconds);
    r.add_value(obs::metric::kEngineGlobalSeconds, s.global_seconds);
    r.add_value(obs::metric::kEngineLocalSeconds, s.local_seconds);
    r.add_value(obs::metric::kEngineOtherSeconds, s.other_seconds);
    r.add_value(obs::metric::kEngineTotalSeconds, s.total_seconds);
    r.add_value(obs::metric::kEnginePosProved,
                static_cast<double>(s.pos_proved));
    r.add_value(obs::metric::kEnginePairsProvedGlobal,
                static_cast<double>(s.pairs_proved_global));
    r.add_value(obs::metric::kEnginePairsProvedLocal,
                static_cast<double>(s.pairs_proved_local));
    r.add_value(obs::metric::kEnginePairsDisproved,
                static_cast<double>(s.pairs_disproved));
    r.add_value(obs::metric::kEngineCexCount,
                static_cast<double>(s.cex_count));
    r.add_value(obs::metric::kEngineLocalPhases,
                static_cast<double>(s.local_phases));
    r.set(obs::metric::kEngineFinalAnds, static_cast<double>(s.final_ands));
    const double initial = r.gauge(obs::metric::kEngineInitialAnds).value();
    r.set(obs::metric::kEngineReductionPercent,
          initial == 0 ? 100.0 : 100.0 * (1.0 - s.final_ands / initial));
    parallel::ThreadPool::global().publish(r);
    // Fault & degradation sections (DESIGN.md §2.4). Published even when
    // all-zero so every v2 report carries both sections.
    r.add(obs::metric::kFaultsInjected,
          fault::fires_total() - fault_fires_before);
    for (const auto& [site, fires] : fault::active_fire_counts()) {
      std::uint64_t before = 0;
      for (const auto& [s0, f0] : site_fires_before)
        if (s0 == site) before = f0;
      if (fires > before)
        r.add(obs::metric::kFaultsSitePrefix + site, fires - before);
    }
    exhaustive::publish_degrade(r, ctx.ladder.state());
    // Checkpoint/supervisor sections (DESIGN.md §2.8). Zero-added like
    // the faults/degrade sections above so every v3 report carries both
    // families; the ckpt layer and the cec_tool supervisor add the real
    // event counts.
    r.add(obs::metric::kCkptWrites, 0);
    r.add(obs::metric::kSupervisorRestarts, 0);
    if (ctx.ledger != nullptr) {
      r.set(obs::metric::kDegradeMemoryPeakBytes,
            static_cast<double>(ctx.ledger->peak_bytes()));
      r.set(obs::metric::kDegradeMemoryDenials,
            static_cast<double>(ctx.ledger->denials()));
    }
  };

  EngineResult result;
  auto finish = [&](Verdict verdict) {
    publish(registry);
    result.report = registry.snapshot();
    result.verdict = verdict;
    result.reduced = std::move(ctx.miter);
    result.cex = std::move(ctx.cex);
    result.stats = ctx.stats;
    result.snapshots = std::move(ctx.snapshots);
    result.bank = std::move(ctx.bank);
    return result;
  };

  // A structurally solved (or refuted) miter needs no phases at all.
  if (aig::miter_disproved(ctx.miter)) return finish(Verdict::kNotEquivalent);
  if (aig::miter_proved(ctx.miter)) return finish(Verdict::kEquivalent);

  auto stopped = [&] { return ctx.params.stop.stop_requested(); };
  if (stopped()) return finish(Verdict::kUndecided);

  // Phase-boundary checkpoint offer (DESIGN.md §2.8): a transient view of
  // the host-thread state, handed to the caller's hook. Any exception the
  // hook lets escape is swallowed — checkpointing is strictly best-effort
  // and must never change the verdict.
  auto offer_checkpoint = [&](const char* boundary) {
    if (!params_.checkpoint_hook) return;
    // The report as if the run stopped here, built in a scratch copy so
    // the registry itself is published once, by finish().
    obs::Registry scratch;
    scratch.absorb(registry.snapshot());
    publish(scratch);
    const obs::Snapshot report = scratch.snapshot();
    EngineCheckpointView view;
    view.miter = &ctx.miter;
    view.bank = ctx.bank ? &*ctx.bank : nullptr;
    view.report = &report;
    view.degrade = &ctx.ladder.state();
    view.boundary = boundary;
    try {
      params_.checkpoint_hook(view);
    } catch (...) {
    }
  };

  // --- P phase: PO checking (paper §III-D). ---
  if (params_.enable_po_phase) {
    const bool ok = detail::run_po_phase(ctx);
    if (params_.capture_snapshots) ctx.snapshots.emplace_back("P", ctx.miter);
    if (!ok) return finish(Verdict::kNotEquivalent);
    if (aig::miter_proved(ctx.miter)) return finish(Verdict::kEquivalent);
  } else if (params_.capture_snapshots) {
    ctx.snapshots.emplace_back("P", ctx.miter);
  }
  offer_checkpoint("P");

  if (stopped()) return finish(Verdict::kUndecided);

  // --- G phase: global function checking. ---
  if (params_.enable_global_phase)
    detail::run_global_phase(ctx, params_.k_g);
  if (params_.capture_snapshots) ctx.snapshots.emplace_back("PG", ctx.miter);
  if (params_.enable_global_phase) {
    if (ctx.disproved || aig::miter_disproved(ctx.miter))
      return finish(Verdict::kNotEquivalent);
    if (aig::miter_proved(ctx.miter)) return finish(Verdict::kEquivalent);
  }
  offer_checkpoint("G");

  if (stopped()) return finish(Verdict::kUndecided);

  // --- Repeated L phases, with graduated global-checking escalation. ---
  unsigned k_g_current = params_.k_g;
  for (;;) {
    bool progress = false;
    for (unsigned phase = 0; phase < params_.max_local_phases; ++phase) {
      if (stopped()) return finish(Verdict::kUndecided);
      const bool reduced = detail::run_local_phase(ctx);
      ++ctx.stats.local_phases;
      if (ctx.disproved || aig::miter_disproved(ctx.miter))
        return finish(Verdict::kNotEquivalent);
      if (aig::miter_proved(ctx.miter)) return finish(Verdict::kEquivalent);
      offer_checkpoint("L");
      progress |= reduced;
      if (!reduced) break;  // this L loop stalled
    }
    if (stopped()) return finish(Verdict::kUndecided);
    // Escalation: raise the G threshold and retry globally. Note the loop
    // keeps iterating as long as *something* (L reduction, escalated G
    // proof) makes progress; it terminates because the AND count strictly
    // decreases on progress and the threshold is capped at k_P.
    const bool can_escalate = params_.escalate_global &&
                              params_.enable_global_phase &&
                              k_g_current < params_.k_P;
    if (can_escalate) {
      k_g_current = std::min(k_g_current + params_.k_g_step, params_.k_P);
      SIMSWEEP_LOG_INFO("escalating global checking to k_g=%u",
                        k_g_current);
      const std::size_t proved =
          detail::run_global_phase(ctx, k_g_current);
      if (ctx.disproved || aig::miter_disproved(ctx.miter))
        return finish(Verdict::kNotEquivalent);
      if (aig::miter_proved(ctx.miter)) return finish(Verdict::kEquivalent);
      offer_checkpoint("G+");
      progress |= proved > 0;
    }
    if (!progress && !can_escalate) break;  // fully stalled
  }
  SIMSWEEP_LOG_INFO("engine undecided: %zu AND nodes remain",
                    ctx.miter.num_ands());
  return finish(Verdict::kUndecided);
}

}  // namespace simsweep::engine
