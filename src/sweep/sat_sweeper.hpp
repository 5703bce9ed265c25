#pragma once
/// \file sat_sweeper.hpp
/// \brief SAT-sweeping CEC baseline (the "ABC &cec" stand-in, DESIGN.md §2).
///
/// Classic FRAIG-style sweeping: random partial simulation initializes
/// equivalence classes; candidate pairs are checked in topological order by
/// incremental SAT queries with a conflict limit; SAT outcomes yield CEXs
/// that refine the classes, UNSAT outcomes merge the pair (recorded as a
/// substitution and reinforced with equality clauses so later queries get
/// cheaper); finally the miter POs themselves are proved or refuted by
/// SAT. The engine hands its reduced, undecided miters to this checker,
/// mirroring the paper's GPU+ABC integration. SatSweeper runs the one
/// sweep round driver (sweep_driver.hpp) with its persistent-core
/// strategy: a single long-lived solver checks every pair.

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/miter.hpp"
#include "common/verdict.hpp"
#include "fault/governor.hpp"
#include "sim/partial_sim.hpp"

namespace simsweep::parallel {
class ThreadPool;
}  // namespace simsweep::parallel

namespace simsweep::sweep {

/// Per-shard scheduling telemetry of one parallel sweep. Chunk/steal
/// counts and busy time depend on worker interleaving, so they are
/// telemetry only — excluded from the determinism contract below.
struct ShardStats {
  std::size_t chunks = 0;  ///< work chunks this shard claimed
  std::size_t steals = 0;  ///< claims outside the shard's home partition
  double busy_seconds = 0; ///< wall time inside the shard loop
};

struct SweeperStats {
  std::size_t sat_calls = 0;
  std::size_t pairs_proved = 0;
  std::size_t pairs_disproved = 0;
  std::size_t pairs_undecided = 0;
  std::uint64_t conflicts = 0;
  double seconds = 0;
  /// Solve entries failed by the "sat.solve" injection site (DESIGN.md
  /// §2.4); each is treated exactly like a conflict-limit kUnknown, the
  /// sweeper's native sound failure mode.
  std::size_t solve_faults = 0;

  // --- Parallel-sweep extras (zero / empty for the sequential sweeper).
  // Determinism contract (DESIGN.md §2.5): every count above plus
  // chunks, board_merges, cex_shared and pairs_sim_resolved is a pure
  // function of the miter and the parameters — identical across
  // num_threads and across runs. shards echoes min(num_threads, chunks
  // of the widest round); steals and the per-shard breakdown are
  // scheduling telemetry and may vary. seconds/busy_seconds are wall
  // time.
  std::size_t shards = 0;        ///< shard loops of the widest round
  std::size_t chunks = 0;        ///< work chunks across all rounds
  std::size_t steals = 0;        ///< cross-partition chunk claims
  std::size_t board_merges = 0;  ///< shard-proved merges applied at barriers
  std::size_t cex_shared = 0;    ///< shard CEX patterns applied at barriers
  /// Pairs settled by exhaustive cone simulation over their combined
  /// support window (sim_support_limit) instead of SAT.
  std::size_t pairs_sim_resolved = 0;
  /// Parallel attempts that degraded to the sequential sweeper (fault
  /// ladder; set by the sweep_miter() dispatcher).
  std::size_t parallel_fallbacks = 0;
  std::vector<ShardStats> shard;
};

/// Read-only view handed to SweeperParams::checkpoint_hook at every round
/// barrier of a still-running sweep (DESIGN.md §2.8). Pointers alias
/// host-thread sweeper state and are valid only for the call.
struct SweepCheckpointView {
  const aig::Aig* miter = nullptr;  ///< the residue miter being swept
  unsigned next_round = 0;          ///< first round a resume would run
  /// Merge journal: every (node, replacement literal) proved so far, in
  /// application order (lit_var(lit) < node for each entry).
  const std::vector<std::pair<aig::Var, aig::Lit>>* merges = nullptr;
  /// Nodes dropped from the candidate stream (conflict-limit kUnknown).
  const std::vector<aig::Var>* removed = nullptr;
  /// The accumulated pattern bank (EC init + every refinement CEX), from
  /// which a resume re-derives the refined equivalence classes.
  const sim::PatternBank* bank = nullptr;
  const SweeperStats* stats = nullptr;
};

/// Journal a resumed sweep replays before its first round (DESIGN.md
/// §2.8): restores the pattern bank, re-applies proved merges, drops
/// removed candidates and carries the pair counters forward. Because the
/// EC partition over the full accumulated bank equals the crashed run's
/// refined partition, the resumed candidate sequence — and therefore the
/// verdict — is identical to the uninterrupted run's.
struct SweepResumeState {
  std::vector<std::pair<aig::Var, aig::Lit>> merges;
  std::vector<aig::Var> removed;
  std::optional<sim::PatternBank> bank;
  unsigned next_round = 0;
  /// Pair counters of the crashed run (pairs_proved / disproved /
  /// undecided are carried; solver-local counters restart at zero).
  std::size_t pairs_proved = 0;
  std::size_t pairs_disproved = 0;
  std::size_t pairs_undecided = 0;
};

struct SweeperParams {
  std::size_t sim_words = 4;       ///< random pattern words for EC init
  std::uint64_t seed = 0xABCDULL;
  /// Conflict budget per SAT call (ABC's `-C`; the paper uses 100000).
  std::int64_t conflict_limit = 100000;
  unsigned max_rounds = 16;        ///< sweep/refine rounds
  std::size_t max_pattern_words = 64;
  /// Wall-clock cap in seconds; 0 = unbounded. Applied once at entry as
  /// stop.child(time_limit); on expiry the checker returns kUndecided.
  double time_limit = 0;
  /// Shard count of the parallel sweeper (sweep_miter() dispatcher;
  /// DESIGN.md §2.5). 1 selects the sequential SatSweeper.
  unsigned num_threads = 1;
  /// Candidate pairs per work chunk of the parallel sweeper. A chunk is
  /// the determinism unit: it is checked hermetically against the
  /// round-start state by a fresh solver, so its outcome is independent of
  /// which shard runs it and of the thread count.
  std::size_t pairs_per_chunk = 32;
  /// Simulation-first pair resolution (parallel sweeper only): a
  /// candidate pair whose combined structural support has at most this
  /// many PIs is resolved by exhaustively simulating both cones over
  /// that support window — a complete proof with zero SAT conflicts,
  /// and a pure function of the miter, so the determinism contract is
  /// unaffected. 0 disables. The sequential SatSweeper ignores this:
  /// it stays the pure-SAT "ABC &cec" baseline.
  unsigned sim_support_limit = 12;
  /// Shared staged executor for the parallel sweeper (DESIGN.md §2.9).
  /// Null (the default) keeps the historical behaviour: each parallel
  /// sweep builds a private pool sized num_threads-1. A batch service
  /// passes ONE pool here so concurrent jobs contend for a single worker
  /// set (the pool serializes whole staged jobs) instead of every job
  /// spawning its own threads and oversubscribing the host. Caller keeps
  /// the pool alive for the duration of the check.
  parallel::ThreadPool* pool = nullptr;
  /// Stop token (DESIGN.md §2.4): checked before every pair and every
  /// 256 conflicts inside a SAT call. Annotation audit: its latch is the
  /// only cross-thread cell of a sweep — written by the portfolio, read
  /// relaxed here; all other sweeper state is owned by the calling thread.
  fault::StopToken stop;
  /// Optional PI pattern bank used to initialize the equivalence classes
  /// (appended to the random patterns). Feeding the engine's bank here
  /// implements the paper's §V "EC transferring from GPU to ABC": pairs
  /// the engine already disproved carry their CEX patterns, so they land
  /// in different classes and are never SAT-checked. Caller keeps the
  /// bank alive for the duration of the check.
  const sim::PatternBank* initial_bank = nullptr;

  // --- Checkpoint/resume (DESIGN.md §2.8). ---
  /// Invoked on the host thread at every round barrier while the sweep is
  /// still undecided. Exceptions are swallowed by the sweep driver: a
  /// failed checkpoint must never change the verdict.
  std::function<void(const SweepCheckpointView&)> checkpoint_hook;
  /// Journal to replay before the first round (takes precedence over
  /// initial_bank for EC init when it carries a bank). Caller keeps the
  /// state alive for the duration of the check.
  const SweepResumeState* resume = nullptr;
};

struct SweepResult {
  Verdict verdict = Verdict::kUndecided;
  /// Disproving PI assignment when kNotEquivalent (from the SAT model).
  std::optional<std::vector<bool>> cex;
  SweeperStats stats;
};

class SatSweeper {
 public:
  explicit SatSweeper(SweeperParams params = {}) : params_(params) {}

  SweepResult check(const aig::Aig& a, const aig::Aig& b) const {
    return check_miter(aig::make_miter(a, b));
  }
  SweepResult check_miter(const aig::Aig& miter) const;

  const SweeperParams& params() const { return params_; }

 private:
  SweeperParams params_;
};

}  // namespace simsweep::sweep
