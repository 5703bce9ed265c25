#pragma once
/// \file parallel_sweeper.hpp
/// \brief Parallel residue sweeping: the sharded-chunks round strategy of
/// the sweep driver, and the sweep_miter() dispatcher (DESIGN.md §2.5).
///
/// Each round's candidate pairs are cut into fixed chunks
/// (SweeperParams::pairs_per_chunk, independent of the thread count),
/// claimed off an atomic ticket by shard loops on a staged executor. A
/// chunk is checked hermetically — a fresh PairSolver over a private copy
/// of the round-start substitution map — so its outcome is a pure
/// function of (miter, round-start state, chunk pairs), and verdict and
/// merged stats are bit-identical across num_threads and across runs.
/// Proofs and CEXs cross chunks only at the round barrier.
///
/// Degradation (DESIGN.md §2.4): the host-side fault sites
/// sweep.shard_alloc (throws std::bad_alloc) and sweep.board_merge
/// (throws fault::FaultError) are caught by sweep_miter(), which falls
/// back to the sequential sweep under the same deadline. A chunk that
/// throws on a worker leaves its unchecked pairs soundly undecided.

#include "aig/aig.hpp"
#include "aig/miter.hpp"
#include "sweep/sat_sweeper.hpp"

namespace simsweep::sweep {

/// The sharded sweep. Prefer the sweep_miter() dispatcher, which routes
/// num_threads == 1 to the sequential SatSweeper and degrades to it when
/// a parallel-path fault fires.
class ParallelSatSweeper {
 public:
  explicit ParallelSatSweeper(SweeperParams params = {})
      : params_(params) {}

  SweepResult check(const aig::Aig& a, const aig::Aig& b) const {
    return check_miter(aig::make_miter(a, b));
  }
  SweepResult check_miter(const aig::Aig& miter) const;

  const SweeperParams& params() const { return params_; }

 private:
  SweeperParams params_;
};

/// Dispatcher used by the portfolio: sequential sweep for
/// params.num_threads <= 1, sharded otherwise; a host-side fault on the
/// sharded path (sweep.shard_alloc / sweep.board_merge, or a real
/// bad_alloc) degrades to the sequential sweep, which gets only what is
/// left of time_limit, and records the fallback in
/// stats.parallel_fallbacks.
SweepResult sweep_miter(const aig::Aig& miter, const SweeperParams& params);

}  // namespace simsweep::sweep
