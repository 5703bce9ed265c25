#pragma once
/// \file sweep_driver.hpp
/// \brief The one sweep round driver behind SatSweeper and
/// ParallelSatSweeper (DESIGN.md §2.5). Internal to src/sweep/.
///
/// The driver owns EC init and resume replay, the merge/removed journal,
/// topological pair order, outcome application in pair order at the
/// round barrier, refinement, the checkpoint offer and the final PO
/// proof. A RoundStrategy checks one round's pairs: the persistent core
/// (SatSweeper) or sharded chunks (ParallelSatSweeper).

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "aig/rebuild.hpp"
#include "fault/governor.hpp"
#include "sim/ec_manager.hpp"
#include "sweep/pair_solver.hpp"
#include "sweep/sat_sweeper.hpp"

namespace simsweep::sweep::detail {

/// Outcome of one candidate pair in one round.
struct PairOutcome {
  enum class Kind : std::uint8_t { kUnknown, kEqual, kDistinct };
  Kind kind = Kind::kUnknown;
  bool via_sim = false;   ///< settled by exhaustive cone simulation
  std::vector<bool> cex;  ///< kDistinct: a distinguishing PI assignment
};

class RoundStrategy {
 public:
  virtual ~RoundStrategy() = default;

  /// Checks `pairs` (topological order) against the round-start map
  /// `subst`; outcome i belongs to pairs[i]. A shorter result means the
  /// strategy stopped early: the pairs past it stay untouched this
  /// round. Adds the SAT effort and telemetry it spent to `stats`.
  virtual std::vector<PairOutcome> check_round(
      const std::vector<sim::CandidatePair>& pairs,
      const aig::SubstitutionMap& subst, SweeperStats& stats) = 0;

  /// The strategy's long-lived solver, if any: resumed merges are asserted
  /// into it and it proves the POs. Otherwise a fresh solver over the
  /// final map proves them, every PO cone collapsed through all merges.
  virtual PairSolver* persistent_core() { return nullptr; }
};

/// Runs the whole sweep, checking each round's pairs with `strategy`.
/// `stop` is the whole call's token (params.time_limit already applied).
SweepResult run_sweep(const aig::Aig& miter, const SweeperParams& params,
                      const fault::StopToken& stop, RoundStrategy& strategy);

/// The pair loop both strategies share: checks `pairs` in order on `ps`,
/// writing `outcomes`. With `supports`, pairs whose combined support fits
/// sim_support_limit are settled by cone simulation; SAT-proved pairs are
/// asserted into `ps`; every proved pair is merged into `local` if given.
/// Stops when `stop` fires or on an inconsistent solver; returns the
/// count of pairs checked.
std::size_t check_pairs(const aig::Aig& miter, const SweeperParams& params,
                        const fault::StopToken& stop, PairSolver& ps,
                        aig::SubstitutionMap* local,
                        const aig::SupportInfo* supports,
                        std::span<const sim::CandidatePair> pairs,
                        std::span<PairOutcome> outcomes);

/// The persistent-core sweep under an externally owned token (the
/// sweep_miter() fallback shares the sharded attempt's deadline).
SweepResult sweep_persistent(const aig::Aig& miter,
                             const SweeperParams& params,
                             const fault::StopToken& stop);

}  // namespace simsweep::sweep::detail
