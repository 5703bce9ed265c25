#pragma once
/// \file portfolio.hpp
/// \brief Combined and portfolio equivalence checkers.
///
/// CombinedChecker reproduces the paper's "Ours (GPU+ABC)" flow: run the
/// simulation-based engine first; if the miter is reduced but undecided,
/// hand the residue to the SAT sweeper (paper §IV, Table II columns
/// "GPU (s)" / "ABC (s)" / "Total (s)").
///
/// PortfolioChecker is the stand-in for the commercial multi-engine tool
/// (Conformal LEC): it races the combined checker, a standalone SAT
/// sweeper and a BDD checker on separate threads and returns the first
/// decisive verdict, cancelling the losers — exactly the multithreading
/// conjecture the paper makes about commercial checkers (§IV-A).

#include <optional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/miter.hpp"
#include "bdd/bdd_cec.hpp"
#include "bdd/bdd_sweep.hpp"
#include "common/verdict.hpp"
#include "engine/engine.hpp"
#include "sweep/sat_sweeper.hpp"

namespace simsweep::portfolio {

// ---------------------------------------------------------------------------
// Combined checker (paper's "GPU+ABC").
// ---------------------------------------------------------------------------

struct CombinedParams {
  /// engine.stop and engine.time_limit govern the WHOLE flow: every
  /// engine attempt and the SAT fallback share that one deadline.
  /// sweeper.stop is not consulted; sweeper.time_limit still caps the
  /// fallback.
  engine::EngineParams engine;
  sweep::SweeperParams sweeper;
  /// §V EC-transfer extension: hand the engine's pattern bank (random +
  /// CEX patterns) to the SAT sweeper so disproved pairs are not
  /// re-checked by SAT.
  bool transfer_ec = true;
  /// §V item 3 (after [Mishchenko et al. ICCAD'06]): interleave sweeping
  /// with logic rewriting — when the engine leaves an undecided residue,
  /// rewrite the reduced miter and run the engine once more before
  /// falling back to SAT. Restructuring changes the cuts the local
  /// checking phases see, giving blocked pairs a fresh chance.
  bool interleave_rewriting = false;
  unsigned max_rewrite_rounds = 1;
};

struct CombinedResult {
  Verdict verdict = Verdict::kUndecided;
  std::optional<std::vector<bool>> cex;
  sweep::SweeperStats sweeper_stats;
  double engine_seconds = 0;  ///< "GPU (s)": the report's engine total
  double sat_seconds = 0;     ///< "ABC (s)" column analogue
  /// Seconds left on the SAT-sweeper fallback's token when it was
  /// entered: the caller's sweeper.time_limit capped by what remained of
  /// the flow deadline (engine.time_limit is the budget for the WHOLE
  /// combined flow, not per attempt). 0 when unbounded or when the
  /// sweeper was never entered.
  double sweeper_time_limit = 0;
  double total_seconds = 0;
  double reduction_percent = 0;  ///< "Reduced (%)", read from the report
  bool used_sat = false;  ///< the SAT fallback was entered
  /// Full metric snapshot of the run (engine attempts and the SAT-sweeper
  /// fallback, `sat_sweeper.*`, add their totals to one registry).
  /// Serialize with obs::to_json().
  obs::Snapshot report;
};

CombinedResult combined_check_miter(const aig::Aig& miter,
                                    const CombinedParams& params = {});

namespace detail {

// The combined flow's two steps: combined_check_miter() runs both, and a
// checkpoint resume (ckpt/resume.hpp) enters at either one. Both read the
// flow state from `params.engine`: `registry` must be set, and `stop` must
// be the flow token with engine.time_limit folded in (and set to 0).

/// The engine, then with interleave_rewriting its re-runs on the
/// rewritten residue. A resumed chain passes the attempts it had
/// `entered` (its report's engine.attempts): the first attempt re-enters
/// the last of them, and the rewrite rounds continue after it.
engine::EngineResult run_engine_chain(const aig::Aig& miter,
                                      const CombinedParams& params,
                                      unsigned entered = 0);

/// Builds the flow's result from the finished chain and, if it left the
/// residue undecided before the deadline, SAT-sweeps it (replaying a
/// sweep-stage snapshot's `resume` journal). Adds sat_sweeper.* and takes
/// the report; leaves total_seconds.
CombinedResult run_sat_fallback(
    engine::EngineResult chain, const CombinedParams& params,
    const sweep::SweepResumeState* resume = nullptr);

}  // namespace detail

inline CombinedResult combined_check(const aig::Aig& a, const aig::Aig& b,
                                     const CombinedParams& params = {}) {
  return combined_check_miter(aig::make_miter(a, b), params);
}

// ---------------------------------------------------------------------------
// Portfolio checker (commercial multi-engine stand-in).
// ---------------------------------------------------------------------------

/// Each arm's stop token is replaced by the race's latch; each arm's
/// time_limit still applies from its entry.
struct PortfolioParams {
  CombinedParams combined;
  sweep::SweeperParams sweeper;
  bdd::BddCecParams bdd;
  bdd::BddSweepParams bdd_sweep;
  bool run_combined = true;
  bool run_sat = true;
  bool run_bdd = true;
  /// Kuehlmann-style BDD sweeping (paper ref [6]) as a fourth engine.
  bool run_bdd_sweep = true;
};

struct PortfolioResult {
  Verdict verdict = Verdict::kUndecided;
  std::optional<std::vector<bool>> cex;
  std::string winner;  ///< "sim+sat", "sat", "bdd", "bdd-sweep", or ""
                       ///< if every engine came back undecided
  double seconds = 0;
};

PortfolioResult portfolio_check_miter(const aig::Aig& miter,
                                      const PortfolioParams& params = {});

inline PortfolioResult portfolio_check(const aig::Aig& a, const aig::Aig& b,
                                       const PortfolioParams& params = {}) {
  return portfolio_check_miter(aig::make_miter(a, b), params);
}

}  // namespace simsweep::portfolio
