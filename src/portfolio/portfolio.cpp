#include "portfolio/portfolio.hpp"

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/lock_ranks.hpp"
#include "common/log.hpp"
#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "obs/metric_names.hpp"
#include "opt/resyn.hpp"
#include "sweep/parallel_sweeper.hpp"

namespace simsweep::portfolio {

namespace {

/// First-decisive-verdict box shared by the racing engine threads. All
/// mutable state is mutex-guarded (and annotated, so Clang's
/// thread-safety analysis checks every access); the cancellation flag is
/// a separate atomic so losers observe it without taking the lock.
class VerdictBox {
 public:
  /// Publishes a verdict; only the first decisive one wins and fires the
  /// cancellation flag for the other engines.
  void deliver(Verdict v, std::optional<std::vector<bool>> cex,
               const char* who, double seconds) SIMSWEEP_EXCLUDES(m_) {
    if (v == Verdict::kUndecided) return;
    common::RankedMutexLock lock(m_, common::lock_ranks::executor);
    if (result_.verdict != Verdict::kUndecided) return;  // someone else won
    result_.verdict = v;
    result_.cex = std::move(cex);
    result_.winner = who;
    result_.seconds = seconds;
    cancel_.store(true, std::memory_order_relaxed);
  }

  /// The latch every arm's stop token polls.
  const std::atomic<bool>* latch() const { return &cancel_; }

  /// Moves the result out. Must only be called after every engine thread
  /// joined (no concurrent deliver can be in flight).
  PortfolioResult take() SIMSWEEP_EXCLUDES(m_) {
    common::RankedMutexLock lock(m_, common::lock_ranks::executor);
    return std::move(result_);
  }

 private:
  common::Mutex m_;
  PortfolioResult result_ SIMSWEEP_GUARDED_BY(m_);
  std::atomic<bool> cancel_{false};
};

/// SAT-sweeper fallback stats under `sat_sweeper.*`, added to the flow's
/// totals like every other section (DESIGN.md §2.3).
void publish_sweeper_stats(obs::Registry& r, bool used,
                           const sweep::SweeperStats& s, double seconds) {
  r.add_value(obs::metric::kSweeperUsed, used ? 1.0 : 0.0);
  if (!used) return;
  r.add_value(obs::metric::kSweeperSatCalls, static_cast<double>(s.sat_calls));
  r.add_value(obs::metric::kSweeperPairsProved,
              static_cast<double>(s.pairs_proved));
  r.add_value(obs::metric::kSweeperPairsDisproved,
              static_cast<double>(s.pairs_disproved));
  r.add_value(obs::metric::kSweeperPairsUndecided,
              static_cast<double>(s.pairs_undecided));
  r.add_value(obs::metric::kSweeperConflicts, static_cast<double>(s.conflicts));
  r.add_value(obs::metric::kSweeperSolveFaults,
              static_cast<double>(s.solve_faults));
  r.add_value(obs::metric::kSweeperSeconds, seconds);
  // Parallel-sweep shard telemetry (DESIGN.md §2.5). Published only when
  // the sweep ran sharded (or degraded from a sharded attempt), so purely
  // sequential v2 reports keep their exact historical shape.
  if (s.shards == 0 && s.parallel_fallbacks == 0) return;
  r.add_value(obs::metric::kSweeperShards, static_cast<double>(s.shards));
  r.add_value(obs::metric::kSweeperChunks, static_cast<double>(s.chunks));
  r.add_value(obs::metric::kSweeperSteals, static_cast<double>(s.steals));
  r.add_value(obs::metric::kSweeperBoardMerges,
              static_cast<double>(s.board_merges));
  r.add_value(obs::metric::kSweeperCexShared,
              static_cast<double>(s.cex_shared));
  r.add_value(obs::metric::kSweeperPairsSimResolved,
              static_cast<double>(s.pairs_sim_resolved));
  r.add_value(obs::metric::kSweeperParallelFallbacks,
              static_cast<double>(s.parallel_fallbacks));
  for (std::size_t i = 0; i < s.shard.size(); ++i) {
    const std::string p =
        obs::metric::kSweeperShardPrefix + std::to_string(i);
    r.add_value(p + ".chunks", static_cast<double>(s.shard[i].chunks));
    r.add_value(p + ".steals", static_cast<double>(s.shard[i].steals));
    r.add_value(p + ".busy_seconds", s.shard[i].busy_seconds);
  }
}

}  // namespace

namespace detail {

engine::EngineResult run_engine_chain(const aig::Aig& miter,
                                      const CombinedParams& params,
                                      unsigned entered) {
  const engine::SimCecEngine eng(params.engine);
  // engine.attempts counts every engine entry of the flow, so budget
  // tests can pin the exact attempt count; a resumed chain's first
  // attempt re-enters one its absorbed report already counts.
  auto attempt = [&](aig::Aig m) {
    params.engine.registry->add(obs::metric::kEngineAttempts, 1);
    return eng.check_miter(std::move(m));
  };
  engine::EngineResult er =
      entered == 0 ? attempt(miter) : eng.check_miter(miter);

  // §V item 3: rewrite the residue and re-run the engine. The rewritten
  // miter is functionally identical (opt passes are verified
  // equivalence-preserving), so any verdict on it carries over; only a
  // CEX needs no translation because the PI interface is preserved.
  for (unsigned round = entered == 0 ? 0 : entered - 1;
       params.interleave_rewriting && round < params.max_rewrite_rounds &&
       er.verdict == Verdict::kUndecided && er.reduced.num_ands() > 0 &&
       !params.engine.stop.stop_requested();
       ++round) {
    aig::Aig rewritten = opt::resyn_light(er.reduced);
    SIMSWEEP_LOG_INFO("interleaved rewriting: %zu -> %zu ANDs",
                      er.reduced.num_ands(), rewritten.num_ands());
    er = attempt(std::move(rewritten));
  }
  return er;
}

CombinedResult run_sat_fallback(engine::EngineResult chain,
                                const CombinedParams& params,
                                const sweep::SweepResumeState* resume) {
  obs::Registry& registry = *params.engine.registry;
  const fault::StopToken& stop = params.engine.stop;
  CombinedResult result;
  result.verdict = chain.verdict;
  result.cex = std::move(chain.cex);

  if (chain.verdict == Verdict::kUndecided && !stop.stop_requested()) {
    result.used_sat = true;
    sweep::SweeperParams sweeper_params = params.sweeper;
    // The fallback runs under the flow's token, capped by the caller's
    // sweeper.time_limit: it spends what is left of the flow deadline.
    sweeper_params.stop = stop.child(sweeper_params.time_limit);
    sweeper_params.time_limit = 0;
    sweeper_params.resume = resume;
    result.sweeper_time_limit = sweeper_params.stop.bounded()
                                    ? sweeper_params.stop.remaining_seconds()
                                    : 0.0;
    if (params.transfer_ec && chain.bank &&
        chain.bank->num_pis() == chain.reduced.num_pis())
      sweeper_params.initial_bank = &*chain.bank;
    // The engine published its own faults.injected delta in finish();
    // the sweep phase runs after, so its injected fires (parallel-path
    // degradation sites included) are accounted here as a second delta.
    const std::uint64_t sweep_fires_before = fault::fires_total();
    Timer sat_timer;
    sweep::SweepResult sr = sweep::sweep_miter(chain.reduced, sweeper_params);
    result.sat_seconds = sat_timer.seconds();
    registry.add(obs::metric::kFaultsInjected,
                 fault::fires_total() - sweep_fires_before);
    result.sweeper_stats = sr.stats;
    result.verdict = sr.verdict;
    result.cex = std::move(sr.cex);
    // Note: a CEX found on the reduced miter is valid for the original
    // one — the reduction only merged proven-equivalent nodes and the PI
    // interface is preserved by rebuild().
  }
  publish_sweeper_stats(registry, result.used_sat, result.sweeper_stats,
                        result.sat_seconds);
  result.report = registry.snapshot();
  result.engine_seconds = result.report.value(obs::metric::kEngineTotalSeconds);
  result.reduction_percent =
      result.report.value(obs::metric::kEngineReductionPercent);
  return result;
}

}  // namespace detail

CombinedResult combined_check_miter(const aig::Aig& miter,
                                    const CombinedParams& params) {
  Timer total;
  // One registry for the whole flow: every engine attempt and the SAT
  // fallback publish into it, so the final snapshot covers the flow.
  obs::Registry local_registry;
  CombinedParams flow = params;
  if (flow.engine.registry == nullptr) flow.engine.registry = &local_registry;
  // engine.time_limit is the budget of the WHOLE flow: one absolute
  // deadline, taken here, that every engine attempt and the SAT fallback
  // share. A spent budget stops the rewrite loop and skips the sweeper.
  flow.engine.stop = params.engine.stop.child(params.engine.time_limit);
  flow.engine.time_limit = 0;

  CombinedResult result =
      detail::run_sat_fallback(detail::run_engine_chain(miter, flow), flow);
  result.total_seconds = total.seconds();
  return result;
}

PortfolioResult portfolio_check_miter(const aig::Aig& miter,
                                      const PortfolioParams& params) {
  Timer total;
  VerdictBox box;
  // Every arm runs under the box's latch (its own time_limit still
  // applies at its entry): the first decisive verdict stops the others.
  const fault::StopToken race(box.latch());

  // audit:exempt(portfolio engine race: each engine owns a dedicated
  // thread for its whole run; pool chunking cannot express that)
  std::vector<std::thread> threads;
  if (params.run_combined) {
    threads.emplace_back([&] {
      CombinedParams cp = params.combined;
      cp.engine.stop = race;
      CombinedResult r = combined_check_miter(miter, cp);
      box.deliver(r.verdict, std::move(r.cex), "sim+sat", total.seconds());
    });
  }
  if (params.run_sat) {
    threads.emplace_back([&] {
      sweep::SweeperParams sp = params.sweeper;
      sp.stop = race;
      sweep::SweepResult r = sweep::sweep_miter(miter, sp);
      box.deliver(r.verdict, std::move(r.cex), "sat", total.seconds());
    });
  }
  if (params.run_bdd) {
    threads.emplace_back([&] {
      bdd::BddCecParams bp = params.bdd;
      bp.stop = race;
      bdd::BddCecResult r = bdd::bdd_check_miter(miter, bp);
      box.deliver(r.verdict, std::move(r.cex), "bdd", total.seconds());
    });
  }
  if (params.run_bdd_sweep) {
    threads.emplace_back([&] {
      bdd::BddSweepParams bp = params.bdd_sweep;
      bp.stop = race;
      bdd::BddSweepResult r = bdd::bdd_sweep_miter(miter, bp);
      box.deliver(r.verdict, std::move(r.cex), "bdd-sweep", total.seconds());
    });
  }
  for (auto& t : threads) t.join();
  PortfolioResult result = box.take();
  if (result.verdict == Verdict::kUndecided) result.seconds = total.seconds();
  return result;
}

}  // namespace simsweep::portfolio
