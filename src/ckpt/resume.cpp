#include "ckpt/resume.hpp"

#include <memory>
#include <utility>

#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "obs/metric_names.hpp"
#include "sweep/parallel_sweeper.hpp"

namespace simsweep::ckpt {

namespace {

/// FNV-1a over the 8 little-endian bytes of `v`.
void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
}

/// Latest engine-boundary state, shared by the two checkpoint hooks (both
/// run on the host thread driving the combined flow — never concurrently)
/// so sweep-stage snapshots embed the engine totals of the whole chain.
struct HookState {
  engine::EngineStats engine_stats;
  exhaustive::DegradeState degrade;
  /// True when resuming from an engine-stage snapshot: the resumed
  /// attempt's stats cover only the continuation, so boundary snapshots
  /// fold the loaded base back in (next crash resumes the full totals).
  bool have_base = false;
  engine::EngineStats base;
};

}  // namespace

std::uint64_t run_fingerprint(const aig::Aig& miter,
                              const portfolio::CombinedParams& params) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  fnv(h, miter.num_pis());
  fnv(h, miter.num_ands());
  fnv(h, miter.num_pos());
  for (aig::Var v = miter.num_pis() + 1; v < miter.num_nodes(); ++v) {
    fnv(h, miter.fanin0(v));
    fnv(h, miter.fanin1(v));
  }
  for (aig::Lit po : miter.pos()) fnv(h, po);
  const engine::EngineParams& e = params.engine;
  fnv(h, e.k_P);
  fnv(h, e.k_p);
  fnv(h, e.k_g);
  fnv(h, e.k_l);
  fnv(h, e.seed);
  fnv(h, e.sim_words);
  const sweep::SweeperParams& s = params.sweeper;
  fnv(h, s.seed);
  fnv(h, s.sim_words);
  fnv(h, static_cast<std::uint64_t>(s.conflict_limit));
  fnv(h, s.max_rounds);
  return h;
}

CheckpointedResult checked_combined_check_miter(
    const aig::Aig& miter, const CheckpointedParams& params) {
  CheckpointedResult out;
  portfolio::CombinedParams combined = params.combined;

  obs::Registry local_registry;
  obs::Registry& registry = combined.engine.registry != nullptr
                                ? *combined.engine.registry
                                : local_registry;
  combined.engine.registry = &registry;

  // Report-shape guarantee (run_report v3): create every ckpt.* and
  // supervisor.* counter up front so the sections exist even when nothing
  // fires this run.
  registry.add(obs::metric::kCkptWrites, 0);
  registry.add(obs::metric::kCkptBytes, 0);
  registry.add(obs::metric::kCkptLoadRejects, 0);
  registry.add(obs::metric::kCkptResumes, 0);
  registry.add(obs::metric::kCkptPairsRestored, 0);
  registry.add(obs::metric::kSupervisorRestarts, 0);
  registry.add(obs::metric::kSupervisorBackoffMs, 0);

  CheckpointManager mgr({params.checkpoint_path, params.checkpoint_interval,
                         &registry, params.on_write});
  const std::uint64_t fp = run_fingerprint(miter, params.combined);

  std::optional<Snapshot> snap;
  if (params.resume && !params.checkpoint_path.empty()) snap = mgr.load(fp);

  Timer t;
  const double base_elapsed = snap ? snap->elapsed_seconds : 0.0;
  auto hs = std::make_shared<HookState>();
  if (snap) {
    hs->engine_stats = snap->engine_stats;
    hs->degrade = snap->degrade;
    hs->have_base = snap->stage == Stage::kEngine;
    hs->base = snap->engine_stats;
  }

  combined.engine.checkpoint_hook =
      [&mgr, hs, fp, base_elapsed, &t](
          const engine::EngineCheckpointView& view) {
        Snapshot s;
        s.stage = Stage::kEngine;
        s.fingerprint = fp;
        s.elapsed_seconds = base_elapsed + t.seconds();
        s.boundary = view.boundary;
        engine::EngineStats stats = *view.stats;
        if (hs->have_base) engine::accumulate_attempt_stats(stats, hs->base);
        s.engine_stats = stats;
        s.degrade = *view.degrade;
        s.miter = *view.miter;
        if (view.bank != nullptr) s.bank = *view.bank;
        hs->engine_stats = stats;
        hs->degrade = s.degrade;
        mgr.offer(s);
      };
  combined.sweeper.checkpoint_hook =
      [&mgr, hs, fp, base_elapsed, &t](
          const sweep::SweepCheckpointView& view) {
        Snapshot s;
        s.stage = Stage::kSweep;
        s.fingerprint = fp;
        s.elapsed_seconds = base_elapsed + t.seconds();
        s.boundary = "round";
        s.engine_stats = hs->engine_stats;
        s.degrade = hs->degrade;
        s.miter = *view.miter;
        if (view.bank != nullptr) s.bank = *view.bank;
        s.merges = *view.merges;
        s.removed = *view.removed;
        s.next_round = view.next_round;
        s.sweep_pairs_proved = view.stats->pairs_proved;
        s.sweep_pairs_disproved = view.stats->pairs_disproved;
        s.sweep_pairs_undecided = view.stats->pairs_undecided;
        mgr.offer(s);
      };

  // Budget restoration: the flow's deadline is the ORIGINAL run's —
  // elapsed_seconds is charged against engine.time_limit once, here, so
  // restarts finish inside the original budget and an over-spent
  // snapshot resumes already expired.
  const double budget = params.combined.engine.time_limit;
  if (snap && budget > 0) {
    combined.engine.stop = combined.engine.stop.until(
        fault::StopToken::now_plus(budget - snap->elapsed_seconds));
    combined.engine.time_limit = 0;
  }

  if (snap && snap->stage == Stage::kSweep) {
    // The engine chain already finished when this snapshot was taken:
    // skip it entirely, republish its totals, replay the sweep journal.
    out.resumed = true;
    registry.add(obs::metric::kCkptResumes, 1);
    out.pairs_restored = snap->engine_stats.pos_proved +
                         snap->engine_stats.pairs_proved_global +
                         snap->engine_stats.pairs_proved_local +
                         snap->merges.size();
    registry.add(obs::metric::kCkptPairsRestored, out.pairs_restored);

    portfolio::CombinedResult& r = out.combined;
    r.engine_stats = snap->engine_stats;
    r.engine_seconds = snap->engine_stats.total_seconds;
    r.reduction_percent = snap->engine_stats.reduction_percent();
    engine::publish_engine_stats(registry, r.engine_stats);
    // v3 reports require the faults/degrade sections the skipped engine
    // would have published; restore them from the snapshot's ladder state.
    exhaustive::publish_degrade(registry, snap->degrade);
    r.used_sat = true;

    sweep::SweeperParams sp = combined.sweeper;
    sweep::SweepResumeState resume_state;
    resume_state.merges = snap->merges;
    resume_state.removed = snap->removed;
    resume_state.bank = snap->bank;
    resume_state.next_round = snap->next_round;
    resume_state.pairs_proved = snap->sweep_pairs_proved;
    resume_state.pairs_disproved = snap->sweep_pairs_disproved;
    resume_state.pairs_undecided = snap->sweep_pairs_undecided;
    sp.resume = &resume_state;
    // The same flow token the combined flow hands its fallback.
    sp.stop = combined.engine.stop.child(sp.time_limit);
    sp.time_limit = 0;
    r.sweeper_time_limit =
        sp.stop.bounded() ? sp.stop.remaining_seconds() : 0.0;
    const std::uint64_t fires_before = fault::fires_total();
    Timer sat_timer;
    sweep::SweepResult sr = sweep::sweep_miter(snap->miter, sp);
    r.sat_seconds = sat_timer.seconds();
    registry.add(obs::metric::kFaultsInjected,
                 fault::fires_total() - fires_before);
    r.sweeper_stats = sr.stats;
    r.verdict = sr.verdict;
    r.cex = std::move(sr.cex);
    portfolio::publish_sweeper_stats(registry, true, r.sweeper_stats,
                                     r.sat_seconds);
    r.total_seconds = t.seconds();
  } else if (snap) {  // Stage::kEngine
    out.resumed = true;
    registry.add(obs::metric::kCkptResumes, 1);
    out.pairs_restored = snap->engine_stats.pos_proved +
                         snap->engine_stats.pairs_proved_global +
                         snap->engine_stats.pairs_proved_local;
    registry.add(obs::metric::kCkptPairsRestored, out.pairs_restored);
    // Re-enter the engine on the snapshot's reduced miter with its
    // accumulated bank (the resumed attempt re-derives the crashed run's
    // equivalence classes from it) and its ladder backoff.
    if (snap->bank) combined.engine.initial_bank = &*snap->bank;
    if (snap->degrade.memory_words > 0)
      combined.engine.memory_words = snap->degrade.memory_words;
    combined.engine.window_merging = snap->degrade.window_merging;
    out.combined = portfolio::combined_check_miter(snap->miter, combined);
    // The attempt's stats cover the continuation only; fold the crashed
    // run's work back in and republish the chain totals.
    engine::accumulate_attempt_stats(out.combined.engine_stats,
                                     snap->engine_stats);
    engine::publish_engine_stats(registry, out.combined.engine_stats);
    out.combined.engine_seconds = out.combined.engine_stats.total_seconds;
    out.combined.reduction_percent =
        out.combined.engine_stats.reduction_percent();
  } else {
    out.combined = portfolio::combined_check_miter(miter, combined);
  }

  // An undecided exit may still hold a throttle-skipped boundary — make
  // it durable so the next attempt resumes from the freshest state.
  if (out.combined.verdict == Verdict::kUndecided) mgr.flush();
  out.checkpoint_writes = mgr.writes();
  out.combined.report = registry.snapshot();
  return out;
}

}  // namespace simsweep::ckpt
