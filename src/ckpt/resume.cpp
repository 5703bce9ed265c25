#include "ckpt/resume.hpp"

#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "obs/metric_names.hpp"

namespace simsweep::ckpt {

namespace {

/// FNV-1a over the 8 little-endian bytes of `v`.
void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
}

/// Whether `name` is in the ckpt.* or supervisor.* family.
bool durability_event(std::string_view name) {
  const auto family = [](std::string_view n) {
    return n.substr(0, n.find('.'));
  };
  return family(name) == family(obs::metric::kCkptWrites) ||
         family(name) == family(obs::metric::kSupervisorRestarts);
}

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
  if (combined.engine.registry == nullptr)
    combined.engine.registry = &local_registry;
  obs::Registry& registry = *combined.engine.registry;

  // Report-shape guarantee (run_report v3): every ckpt.* and supervisor.*
  // section exists even when nothing fires this run.
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
  // The last engine boundary's ladder state, for sweep snapshots (both
  // hooks run on one thread).
  std::size_t memory_words = snap ? snap->memory_words : 0;
  bool window_merging = snap ? snap->window_merging : true;
  auto snapshot_at = [&](Stage stage, const char* boundary) {
    Snapshot s;
    s.stage = stage;
    s.fingerprint = fp;
    s.elapsed_seconds = base_elapsed + t.seconds();
    s.boundary = boundary;
    return s;
  };
  combined.engine.checkpoint_hook =
      [&](const engine::EngineCheckpointView& view) {
        Snapshot s = snapshot_at(Stage::kEngine, view.boundary);
        s.report = *view.report;
        s.memory_words = memory_words = view.degrade->memory_words;
        s.window_merging = window_merging = view.degrade->window_merging;
        s.miter = *view.miter;
        if (view.bank != nullptr) s.bank = *view.bank;
        mgr.offer(s);
      };
  // By the first sweep round the engine chain has published its totals.
  combined.sweeper.checkpoint_hook =
      [&](const sweep::SweepCheckpointView& view) {
        Snapshot s = snapshot_at(Stage::kSweep, "round");
        s.report = registry.snapshot();
        s.memory_words = memory_words;
        s.window_merging = window_merging;
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

  // The flow token, with budget restoration: the deadline is the
  // ORIGINAL run's — elapsed_seconds is charged against engine.time_limit
  // once, here, so restarts finish inside the original budget and an
  // over-spent snapshot resumes already expired.
  if (const double budget = params.combined.engine.time_limit; budget > 0)
    combined.engine.stop = combined.engine.stop.until(
        fault::StopToken::now_plus(budget - base_elapsed));
  combined.engine.time_limit = 0;

  if (snap) {
    out.resumed = true;
    registry.add(obs::metric::kCkptResumes, 1);
    // The crashed run's totals continue in this registry, except its
    // durability events: this process counts its own writes and restarts.
    std::erase_if(snap->report.metrics, [](const obs::Metric& m) {
      return durability_event(m.name);
    });
    registry.absorb(snap->report);
    const obs::Snapshot& rep = snap->report;
    out.pairs_restored = snap->merges.size() +
                         static_cast<std::uint64_t>(
                             rep.value(obs::metric::kEnginePosProved) +
                             rep.value(obs::metric::kEnginePairsProvedGlobal) +
                             rep.value(obs::metric::kEnginePairsProvedLocal));
    registry.add(obs::metric::kCkptPairsRestored, out.pairs_restored);
  }
  engine::EngineResult chain;
  sweep::SweepResumeState journal;
  const sweep::SweepResumeState* resume = nullptr;
  if (!snap) {
    chain = portfolio::detail::run_engine_chain(miter, combined);
  } else if (snap->stage == Stage::kEngine) {
    // Re-enter the engine on the reduced miter with the accumulated bank
    // (the crashed run's equivalence classes are re-derived from it) and
    // the ladder backoff, in the attempt the snapshot was taken in.
    if (snap->bank) combined.engine.initial_bank = &*snap->bank;
    if (snap->memory_words > 0)
      combined.engine.memory_words = snap->memory_words;
    combined.engine.window_merging = snap->window_merging;
    const std::uint64_t entered =
        snap->report.count(obs::metric::kEngineAttempts);
    chain = portfolio::detail::run_engine_chain(
        snap->miter, combined, static_cast<unsigned>(entered));
  } else {
    // The engine chain had finished: its residue and the sweep journal
    // go straight to the fallback.
    chain.reduced = snap->miter;
    journal = {.merges = snap->merges,
               .removed = snap->removed,
               .bank = snap->bank,
               .next_round = snap->next_round,
               .pairs_proved = snap->sweep_pairs_proved,
               .pairs_disproved = snap->sweep_pairs_disproved,
               .pairs_undecided = snap->sweep_pairs_undecided};
    resume = &journal;
  }
  out.combined =
      portfolio::detail::run_sat_fallback(std::move(chain), combined, resume);
  out.combined.total_seconds = t.seconds();

  // An undecided exit may still hold a throttle-skipped boundary — make
  // it durable so the next attempt resumes from the freshest state.
  if (out.combined.verdict == Verdict::kUndecided) mgr.flush();
  out.checkpoint_writes = mgr.writes();
  out.combined.report = registry.snapshot();
  return out;
}

}  // namespace simsweep::ckpt
