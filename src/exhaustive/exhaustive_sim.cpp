#include "exhaustive/exhaustive_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>
#include <optional>

#include "common/log.hpp"
#include "common/word_kernels.hpp"
#include "fault/fault.hpp"
#include "obs/metric_names.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "tt/truth_table.hpp"

namespace simsweep::exhaustive {

namespace {

using window::Window;
using window::kSlotConst0;

/// Per-window constant state for the batch.
struct WinState {
  std::size_t base = 0;      ///< first slot index in the simulation table
  std::size_t tt_words = 0;  ///< full truth-table length in words
  bool alive = true;         ///< still has undecided items
};

/// Simulates one window node into its slot row (word-dimension kernel).
inline void sim_node(const window::WinNode& node, std::uint64_t* base,
                     std::size_t out_slot, std::size_t E, std::size_t nw) {
  std::uint64_t* out = base + out_slot * E;
  const std::uint64_t c0 = node.compl0 ? ~std::uint64_t{0} : 0;
  const std::uint64_t c1 = node.compl1 ? ~std::uint64_t{0} : 0;
  if (node.slot0 == kSlotConst0) {
    if (node.slot1 == kSlotConst0)
      kernels::fill_words(out, c0 & c1, nw);
    else
      kernels::and1_words(out, c0, base + node.slot1 * E, c1, nw);
  } else if (node.slot1 == kSlotConst0) {
    kernels::and1_words(out, c1, base + node.slot0 * E, c0, nw);
  } else {
    kernels::and2_words(out, base + node.slot0 * E, c0,
                        base + node.slot1 * E, c1, nw);
  }
}

/// Compares one item's root segments over this round's nw words. Returns
/// true on a mismatch and stores the global bit index (for CEX decoding).
/// `mask` is the valid-bit mask for single-word tables, 0 otherwise.
inline bool compare_item(const window::ItemSlots& s,
                         const std::uint64_t* base, std::size_t E,
                         std::size_t nw, std::uint64_t word0,
                         std::uint64_t mask, std::uint64_t* mismatch_out) {
  const std::uint64_t ca = s.compl_a ? ~std::uint64_t{0} : 0;
  const std::uint64_t cb = s.compl_b ? ~std::uint64_t{0} : 0;
  const std::uint64_t* pa =
      s.slot_a == kSlotConst0 ? nullptr : base + s.slot_a * E;
  const std::uint64_t* pb =
      s.slot_b == kSlotConst0 ? nullptr : base + s.slot_b * E;
  if (pa != nullptr && pb != nullptr && mask == 0) {
    std::uint64_t diff = 0;
    const std::size_t k = kernels::mismatch_words(pa, ca, pb, cb, nw, &diff);
    if (k == nw) return false;
    *mismatch_out = ((word0 + k) << 6) +
                    static_cast<std::uint64_t>(std::countr_zero(diff));
    return true;
  }
  for (std::size_t k = 0; k < nw; ++k) {
    const std::uint64_t va = (pa != nullptr ? pa[k] : 0) ^ ca;
    const std::uint64_t vb = (pb != nullptr ? pb[k] : 0) ^ cb;
    std::uint64_t diff = va ^ vb;
    if (mask != 0) diff &= mask;
    if (diff != 0) {
      *mismatch_out = ((word0 + k) << 6) +
                      static_cast<std::uint64_t>(std::countr_zero(diff));
      return true;
    }
  }
  return false;
}

}  // namespace

BatchResult check_batch(const aig::Aig& aig,
                        const std::vector<Window>& windows,
                        const Params& params) {
  (void)aig;
  BatchResult result;
  if (windows.empty()) return result;

  // --- Alg. 1 lines 1-4: slot bases, entry size E, round count. ---
  std::vector<WinState> state(windows.size());
  std::size_t num_slots = 0;
  std::size_t max_tt = 0;
  std::size_t num_items = 0;
  std::size_t total_nodes = 0;
  std::size_t max_win_nodes = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    state[i].base = num_slots;
    state[i].tt_words = windows[i].tt_words();
    num_slots += windows[i].num_slots();
    max_tt = std::max(max_tt, state[i].tt_words);
    num_items += windows[i].items.size();
    total_nodes += windows[i].nodes.size();
    max_win_nodes = std::max(max_win_nodes, windows[i].nodes.size());
  }
  std::size_t entry = 1;
  while (entry * 2 * num_slots <= params.memory_words && entry * 2 <= max_tt)
    entry *= 2;
  // Cache-residency clamp: a smaller table swept in more rounds beats a
  // DRAM-resident one (pure perf; the outcomes are round-independent).
  bool cache_clamped = false;
  if (params.cache_words != 0)
    while (entry > 1 && entry * num_slots > params.cache_words) {
      entry /= 2;
      cache_clamped = true;
    }
  const std::size_t E = entry;
  const std::size_t rounds = (max_tt + E - 1) / E;
  result.entry_words = E;

  // Publish once per batch (all exits): hot loops never touch the sink.
  const auto publish = [&] {
    if (params.obs == nullptr) return;
    obs::Registry& r = *params.obs;
    r.add(obs::metric::kExhaustiveBatches);
    r.add(obs::metric::kExhaustiveWindows, windows.size());
    r.add(obs::metric::kExhaustiveItems, num_items);
    r.add(obs::metric::kExhaustiveRounds, result.rounds);
    r.add(obs::metric::kExhaustiveWordsSimulated, result.words_simulated);
    r.add(result.window_parallel ? obs::metric::kExhaustiveWindowParallelBatches
                                 : obs::metric::kExhaustiveLevelStagedBatches);
    if (cache_clamped) r.add(obs::metric::kExhaustiveCacheClampedBatches);
    // Rounds beyond the first exist only because the memory/cache cap
    // forced the table to be swept in slices (Alg. 1 line 2).
    if (result.rounds > 1) r.add(obs::metric::kExhaustiveRoundSplits, result.rounds - 1);
    r.add(obs::metric::kExhaustiveCexes, result.cexes.size());
    if (result.cancelled) r.add(obs::metric::kExhaustiveCancelledBatches);
    if (result.failure != BatchFailure::kNone)
      r.add(obs::metric::kExhaustiveFailedBatches);
  };

  // --- Resource-governed table allocation (DESIGN.md §2.4). This is THE
  // allocation Alg. 1's budget is about; a ledger denial or a bad_alloc
  // here is a recoverable batch failure the caller's degradation ladder
  // answers by shrinking M — never a crash. Host thread only, so the
  // injected bad_alloc is catchable right here. ---
  fault::MemoryLease lease(params.ledger,
                           num_slots * E * sizeof(std::uint64_t));
  if (!lease.ok()) {
    result.failure = BatchFailure::kMemoryBudget;
    publish();
    return result;
  }
  std::vector<std::uint64_t> simt;
  try {
    if (SIMSWEEP_FAULT_POINT(fault::sites::kExhaustiveSimtAlloc)) throw std::bad_alloc{};
    simt.resize(num_slots * E);
  } catch (const std::bad_alloc&) {
    result.failure = BatchFailure::kAlloc;
    publish();
    return result;
  }

  // Undecided-item bookkeeping. Items are identified by (window, index).
  //
  // Concurrency contract for the shared arrays below (state / decided /
  // mismatch_bit / simt): pool workers touch them only at window
  // granularity — compare_window(wi) is the sole writer of state[wi],
  // decided[wi] and mismatch_bit[wi], and each window's slot rows in simt
  // are disjoint — so concurrent workers never alias. Cross-stage reads
  // (a level kernel reading state[wi].alive written by the previous
  // round's compare) are ordered by the executor's stage barriers and by
  // run_stages() returning before the host mutates round state.
  std::vector<std::vector<std::uint8_t>> decided(windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i)
    decided[i].assign(windows[i].items.size(), 0);

  // First mismatching global bit per disproved item (for CEX extraction).
  std::vector<std::vector<std::uint64_t>> mismatch_bit(windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i)
    mismatch_bit[i].assign(windows[i].items.size(), 0);

  // --- Parallelism-dimension choice (paper Fig. 3, adaptive). ---
  parallel::ThreadPool& pool = parallel::ThreadPool::global();
  const std::size_t P = pool.concurrency();
  bool window_parallel = false;
  switch (params.strategy) {
    case Strategy::kWindowParallel:
      window_parallel = true;
      break;
    case Strategy::kLevelStaged:
      window_parallel = false;
      break;
    case Strategy::kAuto:
      // Whole-window serial sweeps win whenever the windows themselves can
      // load every execution context and no single window dominates the
      // batch; with one context there are no barriers to amortize at all,
      // so the serial sweep's locality always wins. Otherwise (few large
      // windows) parallelize inside the windows, level batch by level
      // batch, with the fused staged launch.
      window_parallel =
          P <= 1 || (windows.size() >= 2 * P &&
                     max_win_nodes * 4 <= total_nodes);
      break;
  }
  result.window_parallel = window_parallel;

  // Shared per-round kernels (both dimension choices use the same code).
  auto project_window = [&](const Window& w, std::uint64_t* base,
                            std::size_t r, std::size_t nw) {
    const std::uint64_t word0 = r * E;
    for (unsigned j = 0; j < w.num_inputs(); ++j) {
      std::uint64_t* dst = base + j * E;
      for (std::size_t k = 0; k < nw; ++k)
        dst[k] = tt::projection_word(j, word0 + k);
    }
  };
  auto compare_window = [&](std::size_t wi, std::size_t r, std::size_t nw) {
    const Window& w = windows[wi];
    const std::uint64_t* base = simt.data() + state[wi].base * E;
    const std::uint64_t mask =
        state[wi].tt_words == 1 ? tt::word_mask(w.num_inputs()) : 0;
    bool all_decided = true;
    for (std::size_t ii = 0; ii < w.items.size(); ++ii) {
      if (decided[wi][ii]) continue;
      if (compare_item(w.item_slots[ii], base, E, nw, r * E, mask,
                       &mismatch_bit[wi][ii]))
        decided[wi][ii] = 1;  // disproved
      else
        all_decided = false;
    }
    if (all_decided) state[wi].alive = false;  // skip remaining rounds
  };
  // Workers poll the token; the host attributes the stop afterwards: a
  // fired latch cancels the batch, an expired deadline is kDeadline (a
  // deadline never un-expires).
  const auto stopped = [&] {
    if (params.stop.cancelled())
      result.cancelled = true;
    else
      result.failure = BatchFailure::kDeadline;
    publish();
    return result;
  };

  if (window_parallel) {
    // --- Window dimension: every worker sweeps whole windows serially
    // through their full level order AND all their rounds — zero
    // cross-window barriers, maximal table locality. ---
    std::vector<std::uint32_t> win_rounds(windows.size(), 0);
    std::vector<std::size_t> win_words(windows.size(), 0);
    parallel::parallel_for_chunks(
        0, windows.size(), [&](std::size_t lo, std::size_t hi) {
          std::uint32_t polls = 0;
          for (std::size_t wi = lo; wi < hi; ++wi) {
            const Window& w = windows[wi];
            const std::size_t tt = state[wi].tt_words;
            std::uint64_t* base = simt.data() + state[wi].base * E;
            const unsigned in = w.num_inputs();
            const std::size_t wrounds = (tt + E - 1) / E;
            for (std::size_t r = 0; r < wrounds && state[wi].alive; ++r) {
              // The latch every window-round, the clock every 16th: a
              // small window's round costs little more than a clock read.
              if (params.stop.cancelled() ||
                  ((++polls & 15) == 0 && params.stop.expired()))
                return;  // abandon the chunk
              const std::size_t nw = std::min(E, tt - r * E);
              project_window(w, base, r, nw);
              for (std::size_t ni = 0; ni < w.wnodes.size(); ++ni)
                sim_node(w.wnodes[ni], base, in + ni, E, nw);
              compare_window(wi, r, nw);
              win_words[wi] += w.nodes.size() * nw;
              win_rounds[wi] = r + 1;
            }
          }
        });
    for (std::size_t wi = 0; wi < windows.size(); ++wi) {
      result.words_simulated += win_words[wi];
      result.rounds = std::max<std::size_t>(result.rounds, win_rounds[wi]);
    }
    if (params.stop.stop_requested()) return stopped();
  } else {
    // --- Level-batch dimension (Alg. 1 lines 5-14): each round's kernel
    // sequence — input projection, level 1..L, root compare — is ONE
    // fused staged launch; the per-level work lists are flattened across
    // windows and chunks hoist per-window setup over runs of nodes. ---
    std::uint32_t max_levels = 0;
    for (const Window& w : windows)
      max_levels = std::max(max_levels, w.num_levels());
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        level_work(max_levels + 1);
    for (std::size_t wi = 0; wi < windows.size(); ++wi) {
      const Window& w = windows[wi];
      for (std::uint32_t l = 1; l <= w.num_levels(); ++l)
        for (std::uint32_t n = w.level_offset[l - 1]; n < w.level_offset[l];
             ++n)
          level_work[l].emplace_back(static_cast<std::uint32_t>(wi), n);
    }

    std::size_t cur_round = 0;
    auto words_this_round = [&](std::size_t wi) {
      return std::min(E, state[wi].tt_words - cur_round * E);
    };

    // The plan is built once; every round re-runs it with cur_round
    // rebound. Stage bodies see the current round through the captured
    // references.
    parallel::StagePlan plan;
    plan.set_stop(&params.stop);
    plan.stage_chunks(0, windows.size(),
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t wi = lo; wi < hi; ++wi) {
                          if (!state[wi].alive) continue;
                          project_window(windows[wi],
                                         simt.data() + state[wi].base * E,
                                         cur_round, words_this_round(wi));
                        }
                      });
    for (std::uint32_t l = 1; l <= max_levels; ++l) {
      if (level_work[l].empty()) continue;
      plan.stage_chunks(
          0, level_work[l].size(),
          [&, work = &level_work[l]](std::size_t lo, std::size_t hi) {
            std::size_t t = lo;
            while (t < hi) {
              const std::uint32_t wi = (*work)[t].first;
              std::size_t run = t + 1;
              while (run < hi && (*work)[run].first == wi) ++run;
              if (state[wi].alive) {
                const Window& w = windows[wi];
                std::uint64_t* base = simt.data() + state[wi].base * E;
                const std::size_t nw = words_this_round(wi);
                const unsigned in = w.num_inputs();
                for (std::size_t q = t; q < run; ++q)
                  sim_node(w.wnodes[(*work)[q].second], base,
                           in + (*work)[q].second, E, nw);
              }
              t = run;
            }
          });
    }
    plan.stage_chunks(0, windows.size(),
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t wi = lo; wi < hi; ++wi)
                          if (state[wi].alive)
                            compare_window(wi, cur_round,
                                           words_this_round(wi));
                      });

    for (std::size_t r = 0; r < rounds; ++r) {
      if (params.stop.stop_requested()) return stopped();
      // Windows needing simulation this round (Alg. 1 line 6).
      bool any_active = false;
      for (std::size_t wi = 0; wi < windows.size(); ++wi) {
        const bool active = state[wi].alive && state[wi].tt_words > r * E;
        state[wi].alive = state[wi].alive && active;
        any_active |= active;
      }
      if (!any_active) break;
      cur_round = r;
      for (std::size_t wi = 0; wi < windows.size(); ++wi)
        if (state[wi].alive)
          result.words_simulated +=
              windows[wi].nodes.size() * words_this_round(wi);
      if (!pool.run_stages(plan)) return stopped();
      ++result.rounds;
    }
  }

  // --- Collect outcomes and CEXs. ---
  result.outcomes.reserve(num_items);
  for (std::size_t wi = 0; wi < windows.size(); ++wi) {
    const Window& w = windows[wi];
    for (std::size_t ii = 0; ii < w.items.size(); ++ii) {
      const bool disproved = decided[wi][ii];
      result.outcomes.emplace_back(
          w.items[ii].tag,
          disproved ? ItemStatus::kDisproved : ItemStatus::kProved);
      if (disproved && params.collect_cex &&
          result.cexes.size() < params.max_cex) {
        Cex cex;
        cex.tag = w.items[ii].tag;
        const std::uint64_t idx = mismatch_bit[wi][ii];
        cex.assignment.reserve(w.num_inputs());
        for (unsigned j = 0; j < w.num_inputs(); ++j)
          cex.assignment.emplace_back(w.inputs[j],
                                      static_cast<bool>((idx >> j) & 1));
        result.cexes.push_back(std::move(cex));
      }
    }
  }
  publish();
  return result;
}

std::optional<PairCheck> check_pair(const aig::Aig& aig, aig::Lit a,
                                    aig::Lit b,
                                    const std::vector<aig::Var>& inputs,
                                    const Params& params) {
  auto w = window::build_window(aig, inputs,
                                {window::CheckItem{a, b, /*tag=*/0}});
  if (!w) return std::nullopt;
  BatchResult r = check_batch(aig, {std::move(*w)}, params);
  PairCheck out;
  out.status = r.outcomes.at(0).second;
  if (!r.cexes.empty()) out.cex = std::move(r.cexes.front().assignment);
  return out;
}

}  // namespace simsweep::exhaustive
