#pragma once
/// \file pair_solver.hpp
/// \brief The reusable SAT core of a sweep: one solver + encoder checking
/// candidate pairs of one miter (DESIGN.md §2.5).
///
/// Both round strategies of the sweep driver are built on this class:
/// the persistent core keeps ONE PairSolver without a substitution map
/// for the whole run; the sharded strategy creates one per work chunk,
/// attached to a private SubstitutionMap snapshot, so cones collapse
/// through everything proved so far.
///
/// Budget accounting: an equivalence query is split into the two polarity
/// cases (a&!b, !a&b). The conflict budget covers the WHOLE query: the
/// second directional solve is charged only what the first one left.

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "aig/rebuild.hpp"
#include "cnf/tseitin.hpp"
#include "sat/solver.hpp"

namespace simsweep::sweep {

struct SweeperStats;

class PairSolver {
 public:
  /// `subst` may be null (encode cones verbatim — the sequential
  /// sweeper's mode). When non-null it must outlive this object; it may
  /// gain merges between calls (chunk-local merging), and this object
  /// must be its only user while alive (resolve() path-compresses).
  explicit PairSolver(const aig::Aig& miter,
                      const aig::SubstitutionMap* subst = nullptr)
      : miter_(miter), subst_(subst), enc_(miter, solver_, subst) {}

  /// Outcome of one pair query (two directional solves under one budget).
  enum class Outcome {
    kEqual,     ///< both directions UNSAT: a == b proved
    kDistinct,  ///< some direction SAT: model available via model_cex()
    kUnknown,   ///< budget/interrupt/injected fault: soundly undecided
  };

  /// Checks a == b. conflict_limit < 0 means unbounded; otherwise it
  /// bounds the conflicts of both directional solves together.
  Outcome check_pair(aig::Lit a, aig::Lit b, std::int64_t conflict_limit);

  /// Asserts a == b into the solver (two binary clauses). Callers record
  /// the merge in their substitution map AFTER asserting, so both sides
  /// are encoded under the pre-merge resolution.
  void assert_equal(aig::Lit a, aig::Lit b);

  /// Solves "lit is true" under the budget: kUnsat means lit is constant
  /// false (a proved PO), kSat leaves a model for model_cex().
  sat::Solver::Result prove_false(aig::Lit lit, std::int64_t conflict_limit);

  /// Full-PI assignment extracted from the current model. Substituted or
  /// unencoded PIs are resolved through the map (a PI proved equivalent
  /// to an earlier literal takes that literal's model value), so the
  /// returned assignment is a genuine counterexample of the original
  /// miter. PIs constrained by nothing default to 0.
  std::vector<bool> model_cex() const;

  /// Stop token forwarded to the solver (must outlive its solve calls).
  void set_interrupt(const fault::StopToken* stop) { solver_.stop = stop; }

  std::uint64_t conflicts() const { return solver_.conflicts; }
  bool inconsistent() const { return solver_.inconsistent(); }

  /// Adds the SAT effort spent since the previous charge (sat_calls,
  /// conflicts, solve_faults) to `stats`.
  void charge(SweeperStats& stats);

 private:
  /// Injection site "sat.solve" (DESIGN.md §2.4): a fired solve entry is
  /// answered like a conflict-limit kUnknown — the sweeper's native sound
  /// failure mode. Never throws, so the site is safe inside pool workers.
  bool solve_faulted();

  const aig::Aig& miter_;
  const aig::SubstitutionMap* subst_;
  sat::Solver solver_;
  cnf::TseitinEncoder enc_;
  // Effort not yet handed to charge().
  std::size_t sat_calls_ = 0;
  std::size_t solve_faults_ = 0;
  std::uint64_t charged_conflicts_ = 0;
};

}  // namespace simsweep::sweep
