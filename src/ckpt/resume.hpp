#pragma once
/// \file resume.hpp
/// \brief Checkpointed combined checking: the glue between the combined
/// flow (portfolio.hpp) and the snapshot manager (checkpoint.hpp),
/// DESIGN.md §2.8.
///
/// checked_combined_check_miter() runs the combined flow's two steps
/// (portfolio::detail::run_engine_chain, then run_sat_fallback) with
///   - checkpoint hooks on the engine (phase boundaries) and the SAT
///     sweeper (round barriers), throttled by checkpoint_interval. Every
///     snapshot carries the flow's run report as of its boundary;
///   - a resume path: a loadable snapshot of the same run fingerprint
///     is converted back into flow state. Its report is absorbed into
///     the registry (minus the ckpt.* and supervisor.* events), so every
///     section continues the crashed run's totals; engine snapshots then
///     run both steps on the reduced miter with the accumulated pattern
///     bank and ladder state, continuing the chain after the attempts
///     already entered, and sweep snapshots run only the fallback on
///     their residue and journal;
///   - budget restoration: the snapshot's elapsed wall-clock is charged
///     against engine.time_limit, so a restarted run finishes inside the
///     original combined budget instead of restarting the clock;
///   - the ckpt.* metrics (writes/bytes/load_rejects/resumes/
///     pairs_restored) in the run report.
///
/// Verdict identity: a resumed run checks the identical (CRC- and
/// structure-validated) miter with the identical parameters, and its
/// equivalence classes are rebuilt from the crashed run's accumulated
/// pattern bank — partial simulation, candidate enumeration and the SAT
/// sweep schedule are all deterministic functions of that state, so the
/// resumed run reaches the verdict the uninterrupted run would have.

#include <cstdint>
#include <functional>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "portfolio/portfolio.hpp"

namespace simsweep::ckpt {

/// Hash identifying "the same run": the miter structure plus every
/// parameter that shapes the verdict path (thresholds, seeds, simulation
/// widths, SAT budgets). A snapshot whose fingerprint differs is rejected
/// by the load ladder — resuming a different problem or configuration
/// would void the determinism argument.
std::uint64_t run_fingerprint(const aig::Aig& miter,
                              const portfolio::CombinedParams& params);

struct CheckpointedParams {
  portfolio::CombinedParams combined;
  /// Snapshot path; empty runs the plain combined flow (no durability).
  std::string checkpoint_path;
  /// Minimum seconds between durable writes (0 = every boundary).
  double checkpoint_interval = 0;
  /// Attempt the load ladder before running (false = overwrite-only mode,
  /// e.g. the first attempt of a supervised run after `--no-resume`).
  bool resume = true;
  /// Fired after each durable write (signal-drill hook; see
  /// CheckpointManager::Options::on_write).
  std::function<void()> on_write;
};

struct CheckpointedResult {
  portfolio::CombinedResult combined;
  bool resumed = false;  ///< a snapshot was loaded and continued
  /// Previously-proven equivalences restored instead of re-solved (engine
  /// PO/pair proofs + sweep merge journal); `ckpt.pairs_restored`.
  std::uint64_t pairs_restored = 0;
  std::uint64_t checkpoint_writes = 0;  ///< durable writes this run
};

CheckpointedResult checked_combined_check_miter(
    const aig::Aig& miter, const CheckpointedParams& params);

inline CheckpointedResult checked_combined_check(
    const aig::Aig& a, const aig::Aig& b, const CheckpointedParams& params) {
  return checked_combined_check_miter(aig::make_miter(a, b), params);
}

}  // namespace simsweep::ckpt
