#include "sweep/parallel_sweeper.hpp"

#include <algorithm>
#include <atomic>
#include <new>
#include <optional>

#include "common/log.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "parallel/thread_pool.hpp"
#include "sweep/sweep_driver.hpp"

namespace simsweep::sweep {
namespace {

/// Sharded-chunks round strategy (see the file comment of the header).
class ShardedChunks final : public detail::RoundStrategy {
 public:
  ShardedChunks(const aig::Aig& miter, const SweeperParams& params,
                const fault::StopToken& stop)
      : miter_(miter), params_(params), stop_(stop) {
    // Injection site `sweep.shard_alloc` (DESIGN.md §2.4): the shard
    // state is the parallel path's first commitment of memory; under
    // pressure it fails here, before any thread is spawned.
    if (SIMSWEEP_FAULT_POINT(fault::sites::kSweepShardAlloc))
      throw std::bad_alloc{};
    // A private pool unless the caller injects one (DESIGN.md §2.9): the
    // global pool serializes whole jobs, so a long sweep parked there
    // would starve the racing portfolio engines. num_threads counts the
    // calling thread; the pool gets at least one worker.
    if (params.pool == nullptr)
      private_pool_.emplace(params.num_threads > 2 ? params.num_threads - 1
                                                   : 1u);
    if (params.sim_support_limit > 0)
      supports_ = aig::compute_supports(miter, params.sim_support_limit);
  }

  std::vector<detail::PairOutcome> check_round(
      const std::vector<sim::CandidatePair>& pairs,
      const aig::SubstitutionMap& subst, SweeperStats& stats) override {
    using Kind = detail::PairOutcome::Kind;
    const std::size_t chunk = std::max<std::size_t>(1, params_.pairs_per_chunk);
    const std::size_t num_chunks = (pairs.size() + chunk - 1) / chunk;
    const std::size_t num_shards =
        std::min<std::size_t>(std::max(1u, params_.num_threads), num_chunks);
    // Sized to the shards that actually run, never to num_threads: the
    // report must not carry rows for shards that never existed.
    if (stats.shard.size() < num_shards) stats.shard.resize(num_shards);
    std::vector<detail::PairOutcome> outcomes(pairs.size());
    std::vector<SweeperStats> chunk_stats(num_chunks);
    std::atomic<std::size_t> ticket{0};

    // The shard loops: one granular stage, chunks claimed off a shared
    // ticket cursor. A shard's "home" chunks are those congruent to its
    // id; claiming any other chunk is a steal. Each chunk is checked by a
    // fresh solver over a private copy of the round-start map.
    parallel::StagePlan plan;
    plan.set_granular(true);
    plan.stage(0, num_shards, [&](std::size_t s) {
      const Timer shard_t;
      ShardStats& acc = stats.shard[s];  // single writer: shard s
      while (!stop_.stop_requested()) {
        const std::size_t c = ticket.fetch_add(1, std::memory_order_relaxed);
        if (c >= num_chunks) break;
        ++acc.chunks;
        if (c % num_shards != s) ++acc.steals;
        const std::size_t first = c * chunk;
        const std::size_t n = std::min(chunk, pairs.size() - first);
        try {
          aig::SubstitutionMap local = subst;
          PairSolver ps(miter_, &local);
          ps.set_interrupt(&stop_);
          detail::check_pairs(miter_, params_, stop_, ps, &local,
                              supports_ ? &*supports_ : nullptr,
                              std::span(pairs).subspan(first, n),
                              std::span(outcomes).subspan(first, n));
          ps.charge(chunk_stats[c]);
        } catch (...) {
          // A worker failure must not unwind across the pool: the
          // chunk's unchecked pairs stay soundly undecided.
        }
      }
      acc.busy_seconds += shard_t.seconds();
    });
    (private_pool_ ? *private_pool_ : *params_.pool).run_stages(plan);

    for (const detail::PairOutcome& o : outcomes) {
      if (o.kind == Kind::kEqual) {
        // Injection site `sweep.board_merge` (DESIGN.md §2.4): one hit
        // per shard-proved merge the barrier is about to apply; a fire
        // abandons the parallel attempt.
        if (SIMSWEEP_FAULT_POINT(fault::sites::kSweepBoardMerge))
          throw fault::FaultError(fault::sites::kSweepBoardMerge);
        ++stats.board_merges;
      } else if (o.kind == Kind::kDistinct) {
        ++stats.cex_shared;
      }
    }
    for (const SweeperStats& cs : chunk_stats) {
      stats.sat_calls += cs.sat_calls;
      stats.conflicts += cs.conflicts;
      stats.solve_faults += cs.solve_faults;
    }
    stats.chunks += num_chunks;
    stats.shards = std::max(stats.shards, num_shards);
    return outcomes;
  }

 private:
  const aig::Aig& miter_;
  const SweeperParams& params_;
  const fault::StopToken& stop_;
  std::optional<parallel::ThreadPool> private_pool_;
  std::optional<aig::SupportInfo> supports_;
};

SweepResult sweep_sharded(const aig::Aig& miter, const SweeperParams& params,
                          const fault::StopToken& stop) {
  ShardedChunks strategy(miter, params, stop);
  return detail::run_sweep(miter, params, stop, strategy);
}

}  // namespace

SweepResult ParallelSatSweeper::check_miter(const aig::Aig& miter) const {
  return sweep_sharded(miter, params_, params_.stop.child(params_.time_limit));
}

SweepResult sweep_miter(const aig::Aig& miter, const SweeperParams& params) {
  // One deadline for the whole call: a fallback spends only what the
  // failed sharded attempt left of the budget.
  const Timer clock;
  const fault::StopToken stop = params.stop.child(params.time_limit);
  if (params.num_threads <= 1)
    return detail::sweep_persistent(miter, params, stop);
  try {
    return sweep_sharded(miter, params, stop);
  } catch (const std::bad_alloc&) {
    SIMSWEEP_LOG_WARN("parallel sweep failed (bad_alloc); going sequential");
  } catch (const fault::FaultError& e) {
    SIMSWEEP_LOG_WARN("parallel sweep failed (%s); going sequential", e.what());
  }
  SweepResult r = detail::sweep_persistent(miter, params, stop);
  r.stats.parallel_fallbacks = 1;
  r.stats.seconds = clock.seconds();  // both attempts
  return r;
}

}  // namespace simsweep::sweep
