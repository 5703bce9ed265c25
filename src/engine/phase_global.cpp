/// \file phase_global.cpp
/// \brief G phase: global function checking (paper §III-D).
///
/// Equivalence classes are initialized by partial random simulation; then
/// candidate pairs whose support-union size is at most k_g are proved or
/// disproved by exhaustive simulation of their global functions, with
/// window merging (k_s = k_g) amortizing overlapping cones. CEXs of
/// disproved pairs are fed back into the pattern bank to refine the
/// classes, which exposes new candidate pairs; the loop repeats until no
/// eligible pair remains or no progress is made. Proved pairs are merged
/// by one miter rebuild at the end of the phase.

#include "aig/aig_analysis.hpp"
#include "aig/rebuild.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "engine/phase_common.hpp"
#include "obs/metric_names.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/ec_manager.hpp"
#include "window/window_merge.hpp"

namespace simsweep::engine::detail {

std::size_t run_global_phase(EngineContext& ctx, unsigned k_g) {
  Timer t;
  const EngineParams& p = ctx.params;
  aig::Aig& miter = ctx.miter;

  const aig::SupportInfo supports = aig::compute_supports(miter, k_g);

  // The classes are the current miter's cache (built here on first use);
  // EC stats publish as deltas against phase entry.
  const aig::LevelSchedule* sched = level_schedule(ctx);
  sim::EcManager& ec = equivalence_classes(ctx);
  const sim::EcStats ec_entry = ec.stats();
  SIMSWEEP_LOG_INFO("G phase: %zu initial equivalence classes",
                    ec.num_classes());

  aig::SubstitutionMap subst(miter.num_nodes());

  // Per-phase deadline (DESIGN.md §2.4): expiry finishes the phase early
  // with whatever was proved so far — the rest stays soundly undecided.
  const fault::StopToken phase_stop = p.stop.child(p.phase_time_limit);
  bool phase_expired = false;

  for (unsigned iter = 0; iter < p.max_global_iters && !phase_expired;
       ++iter) {
    // Eligible candidate pairs: support union within k_g.
    std::vector<sim::CandidatePair> eligible;
    std::vector<std::vector<aig::Var>> inputs_of;
    for (const sim::CandidatePair& pair : ec.candidate_pairs()) {
      if (!supports.small(pair.repr) || !supports.small(pair.node)) continue;
      std::vector<aig::Var> inputs = aig::sorted_union(
          supports.sets[pair.repr], supports.sets[pair.node]);
      if (inputs.size() > k_g) continue;
      if (inputs.empty()) continue;  // both constants: nothing to simulate
      eligible.push_back(pair);
      inputs_of.push_back(std::move(inputs));
    }
    if (eligible.empty()) break;
    ctx.obs->add(obs::metric::kEcEligiblePairs, eligible.size());

    // Window per pair, built in parallel.
    std::vector<std::optional<window::Window>> built(eligible.size());
    parallel::parallel_for_chunks(
        0, eligible.size(), [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const sim::CandidatePair& pair = eligible[i];
            built[i] = window::build_window(
                miter, inputs_of[i],
                {window::CheckItem{aig::make_lit(pair.repr, pair.phase),
                                   aig::make_lit(pair.node),
                                   static_cast<std::uint32_t>(i)}},
                sched);
          }
        });
    std::vector<window::Window> windows;
    windows.reserve(eligible.size());
    for (auto& w : built)
      if (w) windows.push_back(std::move(*w));

    if (ctx.ladder.state().window_merging) {
      window::MergeStats ms;
      windows = window::merge_windows(miter, std::move(windows), k_g, &ms);
      publish_merge_stats(ctx, ms);
      SIMSWEEP_LOG_DEBUG("G merge: %zu -> %zu windows, %zu -> %zu sim nodes",
                         ms.windows_before, ms.windows_after,
                         ms.sim_nodes_before, ms.sim_nodes_after);
    }

    exhaustive::Params sim_params;
    sim_params.collect_cex = true;
    sim_params.max_cex = eligible.size();  // guarantee refinement splits
    sim_params.stop = phase_stop;
    sim_params.obs = ctx.obs;
    sim_params.ledger = ctx.ledger;

    std::size_t proved = 0, disproved = 0;
    sim::CexCollector collector(miter.num_pis());
    for (std::size_t lo = 0; lo < windows.size(); lo += p.max_batch_windows) {
      const std::size_t hi =
          std::min(windows.size(), lo + p.max_batch_windows);
      std::vector<window::Window> batch(
          std::make_move_iterator(windows.begin() + lo),
          std::make_move_iterator(windows.begin() + hi));
      const exhaustive::BatchResult result =
          ctx.ladder.run_batch(miter, std::move(batch), sim_params);
      if (result.cancelled) {  // outcomes invalid: finish the phase early
        publish_ec_stats(ctx, ec.stats(), ec_entry);
        if (!subst.empty()) apply_reduction(ctx, subst);
        ctx.stats.global_seconds += t.seconds();
        return subst.num_merged();
      }
      for (const auto& [tag, status] : result.outcomes) {
        const sim::CandidatePair& pair = eligible[tag];
        if (status == exhaustive::ItemStatus::kProved) {
          if (subst.merge(pair.node, aig::make_lit(pair.repr, pair.phase))) {
            ec.mark_proved(pair.node);
            ++proved;
          }
        } else {
          ++disproved;
        }
      }
      for (const exhaustive::Cex& cex : result.cexes) {
        std::vector<std::pair<unsigned, bool>> pis;
        pis.reserve(cex.assignment.size());
        for (const auto& [var, value] : cex.assignment)
          if (var >= 1 && var <= miter.num_pis())
            pis.emplace_back(var - 1, value);
        collector.add(pis);
        if (p.distance1_cex) {
          // §V extension: also simulate every distance-1 neighbour of the
          // CEX (one support bit flipped), a cheap way to split classes
          // that the exact CEX pattern alone would not distinguish.
          for (std::size_t flip = 0; flip < pis.size(); ++flip) {
            std::vector<std::pair<unsigned, bool>> nb = pis;
            nb[flip].second = !nb[flip].second;
            collector.add(nb);
          }
        }
      }
      if (result.failure == exhaustive::BatchFailure::kDeadline) {
        // keep proofs, stop checking
        phase_expired = true;
        break;
      }
    }
    ctx.stats.pairs_proved_global += proved;
    ctx.stats.pairs_disproved += disproved;
    ctx.stats.cex_count += collector.num_cexes();
    ctx.obs->add(obs::metric::kEcPairsProved, proved);
    ctx.obs->add(obs::metric::kEcPairsDisproved, disproved);
    ctx.obs->add(obs::metric::kEcCexsAbsorbed, collector.num_cexes());
    SIMSWEEP_LOG_INFO("G iter %u: %zu proved, %zu disproved (%zu CEX)", iter,
                      proved, disproved, collector.num_cexes());

    if (collector.empty()) break;  // nothing left to refine

    // Refinement round (DESIGN.md §2.7): simulate only the CEX words and
    // split the live classes with them (members already agree on every
    // older word), then keep the words in the engine-wide bank.
    sim::PatternBank cex_bank(miter.num_pis(), 0);
    collector.flush_into(cex_bank);
    ec.refine(sim::simulate(miter, cex_bank, sched));
    ctx.obs->add(obs::metric::kPartialSimSimulateCalls);
    ctx.obs->add(obs::metric::kPartialSimPatternWords, cex_bank.num_words());
    ctx.bank->append_bank(cex_bank);
    const std::size_t dropped = ctx.bank->truncate_front(p.max_pattern_words);
    if (dropped > 0) {
      ctx.obs->add(obs::metric::kPartialSimBankTruncations);
      ctx.obs->add(obs::metric::kPartialSimWordsDropped, dropped);
    }
  }

  const std::size_t merged = subst.num_merged();
  publish_ec_stats(ctx, ec.stats(), ec_entry);
  if (!subst.empty()) apply_reduction(ctx, subst);
  ctx.stats.global_seconds += t.seconds();
  return merged;
}

}  // namespace simsweep::engine::detail
