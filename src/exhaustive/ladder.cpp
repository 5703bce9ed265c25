#include "exhaustive/ladder.hpp"

#include <iterator>
#include <new>
#include <utility>

#include "fault/fault.hpp"
#include "obs/metric_names.hpp"
#include "obs/registry.hpp"

namespace simsweep::exhaustive {

Ladder::Ladder(std::size_t memory_words, bool window_merging,
               unsigned max_fault_retries, std::size_t min_memory_words)
    : state_{memory_words, window_merging},
      max_fault_retries_(max_fault_retries),
      min_memory_words_(min_memory_words) {}

BatchResult Ladder::run_batch(const aig::Aig& aig,
                              std::vector<window::Window> windows,
                              Params p) {
  // Halvings and the split taken for THIS batch: recovered only if the
  // batch later completes a window.
  std::uint64_t backoffs = 0;
  for (unsigned attempt = 0;; ++attempt) {
    p.memory_words = state_.memory_words;
    BatchResult r = check_batch(aig, windows, p);
    if (r.cancelled) return r;
    if (r.failure == BatchFailure::kNone) {
      state_.faults_recovered += backoffs;
      return r;
    }
    if (r.failure == BatchFailure::kDeadline) {
      expire(windows.size());
      return r;
    }
    // kAlloc / kMemoryBudget. Rung 1: same batch, half the table budget.
    if (attempt < max_fault_retries_ &&
        state_.memory_words / 2 >= min_memory_words_) {
      state_.memory_words /= 2;
      ++state_.memory_halvings;
      ++state_.ladder_steps;
      ++backoffs;
      continue;
    }
    // Rung 2: split the batch per window — each window's table is a
    // fraction of the batch's, so singles can fit where the batch could
    // not. A single window cannot split, so this goes one level deep.
    if (windows.size() > 1) {
      ++state_.batch_splits;
      ++state_.ladder_steps;
      BatchResult out;
      for (std::size_t i = 0; i < windows.size(); ++i) {
        std::vector<window::Window> one;
        one.push_back(std::move(windows[i]));
        BatchResult sub = run_batch(aig, std::move(one), p);
        if (sub.cancelled) return sub;
        out.outcomes.insert(out.outcomes.end(), sub.outcomes.begin(),
                            sub.outcomes.end());
        out.cexes.insert(out.cexes.end(),
                         std::make_move_iterator(sub.cexes.begin()),
                         std::make_move_iterator(sub.cexes.end()));
        if (sub.failure != BatchFailure::kNone) out.failure = sub.failure;
        if (sub.failure == BatchFailure::kDeadline) {
          // The windows after this one are dropped unattempted.
          state_.units_abandoned += windows.size() - i - 1;
          break;
        }
      }
      // Every window has an item, so any outcome is a completed window.
      if (!out.outcomes.empty()) state_.faults_recovered += backoffs + 1;
      return out;
    }
    // Rung 3: abandon. The unproved items remain in the miter, so the
    // final verdict stays sound (they reach the SAT sweeper undecided).
    state_.units_abandoned += windows.size();
    ++state_.ladder_steps;
    return r;
  }
}

void Ladder::expire(std::size_t units) {
  ++state_.deadline_expiries;
  state_.units_abandoned += units;
}

void Ladder::note_merge_fallbacks(std::uint64_t count) {
  state_.merge_fallbacks += count;
  state_.ladder_steps += count;
  state_.faults_recovered += count;
  if (state_.window_merging && state_.merge_fallbacks > max_fault_retries_) {
    state_.window_merging = false;  // stop paying for builds that keep failing
    ++state_.ladder_steps;
  }
}

void Ladder::note_carry_fallback() {
  ++state_.ladder_steps;
  ++state_.faults_recovered;
}

bool Ladder::run_unit(const std::function<void()>& attempt,
                      const std::function<void()>& shrink) {
  for (unsigned retry = 0;; ++retry) {
    try {
      attempt();
      state_.faults_recovered += retry;
      return true;
    } catch (const std::bad_alloc&) {
    } catch (const fault::FaultError&) {
    }
    ++state_.ladder_steps;
    if (retry >= max_fault_retries_) {
      ++state_.units_abandoned;
      return false;
    }
    ++state_.pass_retries;
    if (state_.memory_words / 2 >= min_memory_words_) {
      state_.memory_words /= 2;
      ++state_.memory_halvings;
    }
    shrink();
  }
}

void publish_degrade(obs::Registry& r, const DegradeState& d) {
  r.add(obs::metric::kFaultsRecovered, d.faults_recovered);
  r.add(obs::metric::kDegradeLadderSteps, d.ladder_steps);
  r.add(obs::metric::kDegradeMemoryHalvings, d.memory_halvings);
  r.add(obs::metric::kDegradeMergeFallbacks, d.merge_fallbacks);
  r.add(obs::metric::kDegradeBatchSplits, d.batch_splits);
  r.add(obs::metric::kDegradeDeadlineExpiries, d.deadline_expiries);
  r.add(obs::metric::kDegradeUnitsAbandoned, d.units_abandoned);
  r.add(obs::metric::kDegradePassRetries, d.pass_retries);
}

}  // namespace simsweep::exhaustive
