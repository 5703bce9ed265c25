/// \file phase_po.cpp
/// \brief P phase: PO checking (paper §III-D).
///
/// Attempts to prove all or a subset of *simulatable* miter POs constant
/// zero in terms of their global functions, before any internal sweeping,
/// so that the logic of proved POs is removed and all internal-pair
/// checking effort in that part of the miter is saved. A PO is simulatable
/// if its support size is within the phase budget: if ALL POs have support
/// <= k_P the whole miter is attempted one-shot; otherwise only POs with
/// support <= k_p are attempted (k_P > k_p; the two-threshold design
/// encourages one-shot proving when possible).

#include "aig/aig_analysis.hpp"
#include "aig/rebuild.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "engine/phase_common.hpp"
#include "window/window_merge.hpp"

namespace simsweep::engine::detail {

bool run_po_phase(EngineContext& ctx) {
  Timer t;
  const EngineParams& p = ctx.params;
  aig::Aig& miter = ctx.miter;

  const aig::SupportInfo supports = aig::compute_supports(miter, p.k_P);

  // Decide the phase budget: one-shot (k_P) iff every PO is simulatable.
  bool all_small = true;
  for (aig::Lit po : miter.pos()) {
    const aig::Var v = aig::lit_var(po);
    if (v != 0 && !supports.small(v)) {
      all_small = false;
      break;
    }
  }
  const unsigned threshold = all_small ? p.k_P : p.k_p;
  const unsigned k_s = threshold;  // paper §IV: k_s = phase threshold

  // One window per simulatable, not-yet-constant PO.
  std::vector<window::Window> windows;
  for (std::size_t i = 0; i < miter.num_pos(); ++i) {
    const aig::Lit po = miter.po(i);
    const aig::Var v = aig::lit_var(po);
    if (v == 0) continue;  // constant PO handled by the engine driver
    if (!supports.small(v) || supports.sets[v].size() > threshold) continue;
    auto w = window::build_window(
        miter, supports.sets[v],
        {window::CheckItem{po, aig::kLitFalse,
                           static_cast<std::uint32_t>(i)}},
        level_schedule(ctx));
    if (w) windows.push_back(std::move(*w));
  }
  if (windows.empty()) {
    ctx.stats.po_seconds += t.seconds();
    return true;
  }

  if (ctx.ladder.state().window_merging) {
    window::MergeStats ms;
    windows = window::merge_windows(miter, std::move(windows), k_s, &ms);
    publish_merge_stats(ctx, ms);
    SIMSWEEP_LOG_DEBUG("P phase merge: %zu -> %zu windows",
                       ms.windows_before, ms.windows_after);
  }

  exhaustive::Params sim;
  sim.collect_cex = true;
  sim.max_cex = 1;  // the first PO disproof settles the whole problem
  // Per-phase deadline (DESIGN.md §2.4): expiry routes the remaining POs
  // to the undecided path instead of cancelling the run.
  sim.stop = p.stop.child(p.phase_time_limit);
  sim.obs = ctx.obs;
  sim.ledger = ctx.ledger;

  aig::SubstitutionMap subst(miter.num_nodes());
  std::size_t proved = 0;
  for (std::size_t lo = 0; lo < windows.size(); lo += p.max_batch_windows) {
    const std::size_t hi =
        std::min(windows.size(), lo + p.max_batch_windows);
    std::vector<window::Window> batch(
        std::make_move_iterator(windows.begin() + lo),
        std::make_move_iterator(windows.begin() + hi));
    const exhaustive::BatchResult result =
        ctx.ladder.run_batch(miter, std::move(batch), sim);
    if (result.cancelled) break;  // outcomes invalid; stop proving POs
    for (const auto& [tag, status] : result.outcomes) {
      if (status == exhaustive::ItemStatus::kProved) {
        miter.set_po(tag, aig::kLitFalse);
        ++proved;
      } else {
        // A disproved PO is a real disproof: the inputs are PIs.
        ctx.disproved = true;
        ++ctx.stats.cex_count;
        for (const exhaustive::Cex& cex : result.cexes)
          if (cex.tag == tag) ctx.cex = expand_cex(miter, cex.assignment);
        ctx.stats.po_seconds += t.seconds();
        return false;
      }
    }
    if (result.failure == exhaustive::BatchFailure::kDeadline)
      break;  // remaining POs stay unproved
  }

  ctx.stats.pos_proved += proved;
  if (proved > 0) {
    // Drop the logic of proved POs (miter reduction).
    apply_reduction(ctx, subst);
  }
  SIMSWEEP_LOG_INFO("P phase: %zu/%zu POs proved (threshold %u)", proved,
                    ctx.stats.pos_total, threshold);
  ctx.stats.po_seconds += t.seconds();
  return true;
}

}  // namespace simsweep::engine::detail
