#pragma once
/// \file ladder.hpp
/// \brief The degradation ladder (DESIGN.md §2.4): the one recovery policy
/// for a failed exhaustive batch — P/G batches and L-phase cut flushes
/// alike — and the one writer of a run's degradation state. A failed
/// batch halves M, then splits per window, then is abandoned; a backoff
/// counts as recovered only if its batch later completes a window, every
/// window dropped unproved (fault or deadline) is one abandoned unit, and
/// every abandonment is one ladder step.

#include <cstdint>
#include <functional>
#include <vector>

#include "exhaustive/exhaustive_sim.hpp"

namespace simsweep::exhaustive {

/// Degradation state of one run, written only by Ladder. Backoff persists
/// across phases — the resource pressure that caused a fault rarely goes
/// away mid-run — and is part of every checkpoint snapshot (DESIGN.md
/// §2.8), so a resumed run re-enters the ladder where the crash left it.
struct DegradeState {
  std::size_t memory_words = 0;  ///< working M (seeded from params)
  bool window_merging = true;    ///< dropped on repeated merge faults
  std::uint64_t ladder_steps = 0;      ///< parameter-backoff steps taken
  std::uint64_t memory_halvings = 0;   ///< M halved (OOM / budget denial)
  std::uint64_t merge_fallbacks = 0;   ///< merged builds that fell back
  std::uint64_t batch_splits = 0;      ///< batches split per-window
  std::uint64_t deadline_expiries = 0; ///< batches/passes cut by a deadline
  std::uint64_t units_abandoned = 0;   ///< windows/passes left undecided
  std::uint64_t pass_retries = 0;      ///< cut passes retried after fault
  std::uint64_t faults_recovered = 0;  ///< failures answered by a retry
};

class Ladder {
 public:
  explicit Ladder(std::size_t memory_words, bool window_merging = true,
                  unsigned max_fault_retries = 3,
                  std::size_t min_memory_words = std::size_t{1} << 10);

  const DegradeState& state() const { return state_; }

  /// Runs one exhaustive batch under the ladder; `p.memory_words` is
  /// replaced by the working M. Host thread only. Unlike a bare
  /// check_batch, the outcomes are valid whenever `cancelled` is false —
  /// possibly partial: dropped windows simply have no outcome, which is
  /// sound (their items stay unproved in the miter and reach the SAT
  /// sweeper). `failure` is kDeadline if a deadline cut the batch short,
  /// the fault if windows were abandoned, else kNone.
  BatchResult run_batch(const aig::Aig& aig,
                        std::vector<window::Window> windows, Params p);

  /// A deadline expired before `units` windows (or buffered checks) were
  /// handed to a batch; they are dropped unproved.
  void expire(std::size_t units);

  /// One window-merging run fell back to the unmerged originals `count`
  /// times (each already recovered: the originals pass through). A run
  /// with more fallbacks than max_fault_retries stops merging.
  void note_merge_fallbacks(std::uint64_t count);

  /// Unit-level rung (an L-phase cut pass): runs `attempt`; when it
  /// throws bad_alloc or fault::FaultError, halves M (if above the floor)
  /// and calls `shrink` before the next attempt, at most
  /// max_fault_retries times, then abandons the unit. Returns whether the
  /// unit completed; its retries count as recovered only then.
  bool run_unit(const std::function<void()>& attempt,
                const std::function<void()>& shrink);

 private:
  DegradeState state_;
  unsigned max_fault_retries_;
  std::size_t min_memory_words_;
};

/// Publishes `faults.recovered` and the `degrade.*` counters of `d`.
void publish_degrade(obs::Registry& r, const DegradeState& d);

}  // namespace simsweep::exhaustive
