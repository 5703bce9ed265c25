#include "sweep/pair_solver.hpp"

#include <utility>

#include "fault/fault.hpp"
#include "sweep/sat_sweeper.hpp"

namespace simsweep::sweep {

bool PairSolver::solve_faulted() {
  if (!SIMSWEEP_FAULT_POINT(fault::sites::kSatSolve)) return false;
  ++solve_faults_;
  return true;
}

PairSolver::Outcome PairSolver::check_pair(aig::Lit a, aig::Lit b,
                                           std::int64_t conflict_limit) {
  if (solve_faulted()) return Outcome::kUnknown;
  const sat::Lit la = enc_.encode(a);
  const sat::Lit lb = enc_.encode(b);
  ++sat_calls_;
  const std::uint64_t before = solver_.conflicts;
  sat::Solver::Result r = solver_.solve({la, ~lb}, conflict_limit);
  if (r == sat::Solver::Result::kSat) return Outcome::kDistinct;
  if (r == sat::Solver::Result::kUnknown) return Outcome::kUnknown;
  // Direction one proved UNSAT: charge direction two what is left of the
  // budget.
  std::int64_t remaining = conflict_limit;
  if (conflict_limit >= 0) {
    const auto spent =
        static_cast<std::int64_t>(solver_.conflicts - before);
    remaining = conflict_limit > spent ? conflict_limit - spent : 0;
  }
  ++sat_calls_;
  r = solver_.solve({~la, lb}, remaining);
  if (r == sat::Solver::Result::kSat) return Outcome::kDistinct;
  if (r == sat::Solver::Result::kUnknown) return Outcome::kUnknown;
  return Outcome::kEqual;
}

void PairSolver::assert_equal(aig::Lit a, aig::Lit b) {
  const sat::Lit la = enc_.encode(a);
  const sat::Lit lb = enc_.encode(b);
  solver_.add_clause(~la, lb);
  solver_.add_clause(la, ~lb);
}

sat::Solver::Result PairSolver::prove_false(aig::Lit lit,
                                            std::int64_t conflict_limit) {
  if (solve_faulted()) return sat::Solver::Result::kUnknown;
  ++sat_calls_;
  return solver_.solve({enc_.encode(lit)}, conflict_limit);
}

void PairSolver::charge(SweeperStats& stats) {
  stats.sat_calls += std::exchange(sat_calls_, 0);
  stats.solve_faults += std::exchange(solve_faults_, 0);
  stats.conflicts +=
      solver_.conflicts - std::exchange(charged_conflicts_, solver_.conflicts);
}

std::vector<bool> PairSolver::model_cex() const {
  std::vector<bool> pis(miter_.num_pis(), false);
  for (unsigned i = 0; i < miter_.num_pis(); ++i) {
    // A substituted PI resolves to a proved-equivalent smaller literal
    // (another PI or a constant); its value in the original miter is that
    // literal's model value, since the clauses encode the reduced graph.
    aig::Lit lit = aig::make_lit(i + 1);
    if (subst_ != nullptr) lit = subst_->resolve(lit);
    if (lit == aig::kLitFalse) continue;
    if (lit == aig::kLitTrue) {
      pis[i] = true;
      continue;
    }
    const sat::Var v = enc_.sat_var(aig::lit_var(lit));
    const bool value = v >= 0 && solver_.model_bool(v);
    pis[i] = value != aig::lit_compl(lit);
  }
  return pis;
}

}  // namespace simsweep::sweep
