#include "cut/checking_pass.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <optional>

#include "common/log.hpp"
#include "cut/common_cuts.hpp"
#include "fault/fault.hpp"
#include "parallel/thread_pool.hpp"
#include "window/window.hpp"

namespace simsweep::cut {

namespace detail {

/// Flushes the buffer through the exhaustive simulator (Alg. 2 lines
/// 13-15 / 17-18) under the degradation ladder (DESIGN.md §2.4). Entries
/// of already-proved tasks are dropped.
void flush_buffer(const aig::Aig& aig, const std::vector<PairTask>& tasks,
                  std::vector<BufEntry>& buffer,
                  std::vector<std::uint8_t>& proved, const PassParams& params,
                  exhaustive::Ladder& ladder, PassStats& stats) {
  if (buffer.empty()) return;
  ++stats.flushes;

  // Build one single-item window per buffered cut, in parallel.
  std::vector<std::optional<window::Window>> built(buffer.size());
  parallel::parallel_for_chunks(
      0, buffer.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const BufEntry& e = buffer[i];
          if (proved[e.task]) continue;
          const PairTask& t = tasks[e.task];
          std::vector<aig::Var> inputs(e.cut.leaves.begin(),
                                       e.cut.leaves.begin() + e.cut.size);
          window::CheckItem item{aig::make_lit(t.repr, t.phase),
                                 aig::make_lit(t.node), e.task};
          built[i] = window::build_window(aig, std::move(inputs), {item},
                                          params.schedule);
        }
      });

  std::vector<window::Window> windows;
  windows.reserve(buffer.size());
  for (auto& w : built)
    if (w) windows.push_back(std::move(*w));
  buffer.clear();
  if (windows.empty()) return;

  exhaustive::Params sim = params.sim_params;
  sim.collect_cex = false;  // local mismatches are inconclusive, not CEXs
  // Windows the ladder drops (fault or deadline) leave their pairs
  // unproved for later passes / the SAT sweeper: a cut check proves or is
  // inconclusive, so an unattempted check is sound.
  const exhaustive::BatchResult r =
      ladder.run_batch(aig, std::move(windows), std::move(sim));
  if (r.cancelled) return;  // outcomes invalid
  if (r.failure == exhaustive::BatchFailure::kDeadline)
    stats.deadline_expired = true;
  stats.checks += r.outcomes.size();
  for (const auto& [tag, status] : r.outcomes) {
    if (status == exhaustive::ItemStatus::kProved && !proved[tag]) {
      proved[tag] = 1;
      ++stats.proved;
    }
  }
}

}  // namespace detail

using detail::BufEntry;
using detail::flush_buffer;

PassResult run_checking_pass(const aig::Aig& aig,
                             const std::vector<PairTask>& tasks,
                             Pass pass, const PassParams& params,
                             const std::vector<std::uint8_t>* already_proved,
                             exhaustive::Ladder* ladder) {
  PassResult result;
  result.proved.assign(tasks.size(), 0);
  if (already_proved != nullptr) {
    assert(already_proved->size() == tasks.size());
    result.proved = *already_proved;
  }

  // repr-of relation and node -> task index (a node is the
  // non-representative of at most one pair).
  std::vector<aig::Var> repr_of(aig.num_nodes(), kNoRepr);
  std::vector<std::uint32_t> task_of(aig.num_nodes(), 0xFFFFFFFFu);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    repr_of[tasks[i].node] = tasks[i].repr;
    task_of[tasks[i].node] = static_cast<std::uint32_t>(i);
  }

  // Cut enumeration is only needed inside the TFI cones of the live
  // pairs: P(n) references P(fanins) recursively, so that set is closed.
  // Late passes typically concentrate on a small frontier, and skipping
  // the rest of the miter saves most of the enumeration cost.
  std::vector<std::uint8_t> needed(aig.num_nodes(), 0);
  {
    std::vector<aig::Var> stack;
    auto mark = [&](aig::Var v) {
      if (!needed[v]) {
        needed[v] = 1;
        stack.push_back(v);
      }
    };
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (result.proved[i]) continue;
      mark(tasks[i].repr);
      mark(tasks[i].node);
    }
    while (!stack.empty()) {
      const aig::Var v = stack.back();
      stack.pop_back();
      if (!aig.is_and(v)) continue;
      mark(aig::lit_var(aig.fanin0(v)));
      mark(aig::lit_var(aig.fanin1(v)));
    }
  }

  // Alg. 2 lines 2-3: enumeration levels and level buckets (over the
  // needed nodes only).
  const std::vector<std::uint32_t> el = enumeration_levels(aig, repr_of);
  std::uint32_t max_el = 0;
  std::size_t num_needed_ands = 0;
  for (aig::Var v = aig.num_pis() + 1; v < aig.num_nodes(); ++v) {
    if (!needed[v] || !aig.is_and(v)) continue;
    max_el = std::max(max_el, el[v]);
    ++num_needed_ands;
  }
  result.stats.levels = max_el;
  // Log2-bucketed enumeration-level histogram of the needed AND nodes.
  for (aig::Var v = aig.num_pis() + 1; v < aig.num_nodes(); ++v) {
    if (!needed[v] || !aig.is_and(v)) continue;
    const std::size_t bucket =
        std::bit_width(static_cast<std::size_t>(el[v])) - 1;
    if (result.stats.level_hist.size() <= bucket)
      result.stats.level_hist.resize(bucket + 1, 0);
    ++result.stats.level_hist[bucket];
  }
  std::vector<std::size_t> offset(max_el + 2, 0);
  for (aig::Var v = aig.num_pis() + 1; v < aig.num_nodes(); ++v)
    if (needed[v]) ++offset[el[v] + 1];
  for (std::size_t l = 1; l < offset.size(); ++l) offset[l] += offset[l - 1];
  std::vector<aig::Var> order(num_needed_ands);
  {
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    for (aig::Var v = aig.num_pis() + 1; v < aig.num_nodes(); ++v)
      if (needed[v]) order[cursor[el[v]]++] = v;
  }

  PriorityCuts pc(aig, params.enum_params);
  std::optional<CutScorer> scorer_store;
  if (params.schedule != nullptr && params.schedule->matches(aig))
    scorer_store.emplace(aig, pass, *params.schedule);
  else
    scorer_store.emplace(aig, pass);
  const CutScorer& scorer = *scorer_store;
  std::vector<BufEntry> buffer;
  buffer.reserve(params.buffer_capacity);
  std::optional<exhaustive::Ladder> own_ladder;
  if (ladder == nullptr)
    ladder = &own_ladder.emplace(params.sim_params.memory_words);
  // A flush cut short by the deadline ends the pass, proofs intact.
  const auto flush = [&] {
    flush_buffer(aig, tasks, buffer, result.proved, params, *ladder,
                 result.stats);
    return result.stats.deadline_expired;
  };

  const fault::StopToken& stop = params.sim_params.stop;
  for (std::uint32_t l = 1; l <= max_el; ++l) {
    // A pass over a deep miter can spend a long time in this loop; honour
    // the stop token between levels (proofs found so far stay valid — the
    // caller just sees fewer of them). A fired latch returns silently; an
    // expired deadline keeps the proofs and tells the caller.
    if (stop.cancelled()) return result;
    if (stop.expired()) {
      // The buffered checks of still-unproved pairs are dropped.
      ladder->expire(std::count_if(
          buffer.begin(), buffer.end(),
          [&](const BufEntry& e) { return !result.proved[e.task]; }));
      result.stats.deadline_expired = true;
      return result;
    }
    const std::size_t lo = offset[l], hi = offset[l + 1];
    if (lo == hi) continue;

    // Lines 9-10: parallel priority-cut computation for this level. The
    // enumerated/kept counts accumulate in chunk locals; one atomic add
    // per chunk keeps the telemetry off the per-node path.
    std::atomic<std::size_t> level_enumerated{0};
    std::atomic<std::size_t> level_selected{0};
    const unsigned num_cuts = params.enum_params.num_cuts;
    parallel::parallel_for_chunks(lo, hi, [&](std::size_t clo,
                                              std::size_t chi) {
      std::size_t enumerated = 0, selected = 0;
      for (std::size_t k = clo; k < chi; ++k) {
        const aig::Var n = order[k];
        const aig::Var r = repr_of[n];
        const CutSet* sim_target =
            (r != kNoRepr && r != 0) ? &pc.cuts(r) : nullptr;
        const std::size_t cand = pc.compute_node(n, scorer, sim_target);
        enumerated += cand;
        selected += std::min<std::size_t>(cand, num_cuts);
      }
      level_enumerated.fetch_add(enumerated, std::memory_order_relaxed);
      level_selected.fetch_add(selected, std::memory_order_relaxed);
    });
    result.stats.cuts_enumerated +=
        level_enumerated.load(std::memory_order_relaxed);
    result.stats.cuts_selected +=
        level_selected.load(std::memory_order_relaxed);

    // Lines 11-16: common cuts of this level's pairs into the buffer.
    // Generated in parallel, inserted sequentially (order is
    // deterministic: ascending node id within the level).
    std::vector<std::vector<Cut>> generated(hi - lo);
    parallel::parallel_for_chunks(lo, hi, [&](std::size_t clo,
                                              std::size_t chi) {
      for (std::size_t k = clo; k < chi; ++k) {
        const aig::Var n = order[k];
        const std::uint32_t t = task_of[n];
        if (t == 0xFFFFFFFFu || result.proved[t]) continue;
        generated[k - lo] = common_cuts(pc, scorer, tasks[t].repr, n,
                                        params.max_cuts_per_pair);
      }
    });
    for (std::size_t k = lo; k < hi; ++k) {
      const auto& cuts = generated[k - lo];
      if (cuts.empty()) continue;
      const std::uint32_t t = task_of[order[k]];
      if (cuts.size() > params.buffer_capacity - buffer.size() && flush())
        return result;
      // Injection site `cut.enum_overflow` (DESIGN.md §2.4): models the
      // bounded buffer failing to grow. Host-thread insertion loop, so
      // the throw unwinds cleanly to the engine's pass-retry ladder.
      if (SIMSWEEP_FAULT_POINT(fault::sites::kCutEnumOverflow))
        throw fault::FaultError(fault::sites::kCutEnumOverflow);
      for (const Cut& c : cuts) {
        if (buffer.size() >= params.buffer_capacity) {
          // One pair's group exceeds the whole capacity: the pre-insert
          // flush above could not make room, so split the group across
          // flushes rather than overrun the bounded-buffer contract.
          ++result.stats.group_splits;
          if (flush()) return result;
        }
        buffer.push_back(BufEntry{t, c});
        ++result.stats.common_cuts;
        result.stats.peak_buffered =
            std::max(result.stats.peak_buffered, buffer.size());
      }
    }
  }

  // Line 17-18: final batch.
  flush();
  return result;
}

}  // namespace simsweep::cut
