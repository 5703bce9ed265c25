/// \file test_exhaustive.cpp
/// \brief Tests for the parallel exhaustive simulator (paper Alg. 1).

#include "exhaustive/exhaustive_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>

#include "aig/aig_analysis.hpp"
#include "exhaustive/ladder.hpp"
#include "fault/fault.hpp"
#include "test_util.hpp"
#include "window/window_merge.hpp"

namespace simsweep::exhaustive {
namespace {

using aig::Aig;
using aig::Lit;
using aig::Var;

std::vector<Var> all_pis(const Aig& a) {
  std::vector<Var> pis(a.num_pis());
  for (unsigned i = 0; i < a.num_pis(); ++i) pis[i] = i + 1;
  return pis;
}

TEST(Exhaustive, ProvesIdenticalFunctions) {
  Aig a(3);
  const Lit x = a.pi_lit(0), y = a.pi_lit(1);
  const Lit f = a.add_and(x, y);
  const Lit g = a.add_and(a.add_or(x, y), f);  // == f
  a.add_po(f);
  a.add_po(g);
  auto r = check_pair(a, f, g, all_pis(a));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ItemStatus::kProved);
}

TEST(Exhaustive, DisprovesWithValidCex) {
  Aig a(3);
  const Lit x = a.pi_lit(0), y = a.pi_lit(1);
  const Lit f = a.add_and(x, y);
  const Lit g = a.add_or(x, y);
  auto r = check_pair(a, f, g, all_pis(a));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ItemStatus::kDisproved);
  // The CEX must actually distinguish f and g.
  std::vector<bool> pis(3, false);
  for (const auto& [var, value] : r->cex) pis[var - 1] = value;
  EXPECT_NE(a.evaluate_lit(f, pis), a.evaluate_lit(g, pis));
}

TEST(Exhaustive, ComplementedPair) {
  Aig a(2);
  const Lit f = a.add_and(a.pi_lit(0), a.pi_lit(1));
  auto r = check_pair(a, aig::lit_not(f), f, all_pis(a));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ItemStatus::kDisproved);
  auto r2 = check_pair(a, aig::lit_not(f), aig::lit_not(f), all_pis(a));
  EXPECT_EQ(r2->status, ItemStatus::kProved);
}

TEST(Exhaustive, ConstantItem) {
  Aig a(2);
  const Lit x = a.pi_lit(0), y = a.pi_lit(1);
  // (x & y) & (x & !y) == 0, unfoldable structurally.
  const Lit g = a.add_and(a.add_and(x, y), a.add_and(x, aig::lit_not(y)));
  auto r = check_pair(a, aig::kLitFalse, g, all_pis(a));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ItemStatus::kProved);
  auto r2 = check_pair(a, aig::kLitTrue, g, all_pis(a));
  EXPECT_EQ(r2->status, ItemStatus::kDisproved);
}

TEST(Exhaustive, LocalFunctionCheckOverInternalCut) {
  // Paper Fig. 2 idea: equivalence provable over a common internal cut.
  Aig a(5);
  const Lit f = a.add_and(a.pi_lit(0), a.pi_lit(1));
  const Lit g = a.add_or(a.pi_lit(2), a.pi_lit(3));
  const Lit h = a.add_xor(a.pi_lit(3), a.pi_lit(4));
  // Two different-looking implementations of (f & g) | (f & h):
  const Lit n = a.add_or(a.add_and(f, g), a.add_and(f, h));
  const Lit m = a.add_and(f, a.add_or(g, h));
  std::vector<Var> cut{aig::lit_var(f), aig::lit_var(g), aig::lit_var(h)};
  std::sort(cut.begin(), cut.end());
  auto r = check_pair(a, n, m, cut);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ItemStatus::kProved);
}

TEST(Exhaustive, InvalidWindowReturnsNullopt) {
  Aig a(2);
  const Lit f = a.add_and(a.pi_lit(0), a.pi_lit(1));
  EXPECT_FALSE(check_pair(a, f, aig::kLitFalse, {1}).has_value());
}

class MultiRound : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MultiRound, TinyMemoryAgreesWithLargeMemory) {
  // The same checks must give identical outcomes regardless of E (the
  // memory budget only changes the round decomposition).
  const Aig a = testutil::random_aig(9, 150, 4, 61);
  std::vector<window::Window> windows;
  for (int i = 0; i + 1 < static_cast<int>(a.num_pos()); ++i) {
    auto w = window::build_window(
        a, all_pis(a),
        {window::CheckItem{a.po(i), a.po(i + 1),
                           static_cast<std::uint32_t>(i)}});
    ASSERT_TRUE(w);
    windows.push_back(std::move(*w));
  }
  Params big;  // default: everything in one round
  Params tiny;
  tiny.memory_words = GetParam();  // forces many rounds
  const BatchResult rb = check_batch(a, windows, big);
  const BatchResult rt = check_batch(a, windows, tiny);
  ASSERT_EQ(rb.outcomes.size(), rt.outcomes.size());
  for (std::size_t i = 0; i < rb.outcomes.size(); ++i) {
    EXPECT_EQ(rb.outcomes[i].first, rt.outcomes[i].first);
    EXPECT_EQ(rb.outcomes[i].second, rt.outcomes[i].second);
  }
  EXPECT_GE(rt.rounds, rb.rounds);
}

INSTANTIATE_TEST_SUITE_P(MemoryBudgets, MultiRound,
                         ::testing::Values(256, 1024, 4096));

class ExhaustiveVsBruteForce
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExhaustiveVsBruteForce, AgreesOnRandomPairs) {
  const Aig a = testutil::random_aig(7, 90, 6, GetParam());
  const auto pis = all_pis(a);
  // Exact truth tables as the oracle.
  for (std::size_t i = 0; i + 1 < a.num_pos(); i += 2) {
    const tt::TruthTable ti = aig::global_truth_table(a, a.po(i));
    const tt::TruthTable tj = aig::global_truth_table(a, a.po(i + 1));
    auto r = check_pair(a, a.po(i), a.po(i + 1), pis);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status == ItemStatus::kProved, ti == tj);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExhaustiveVsBruteForce,
                         ::testing::Values(70, 71, 72, 73, 74, 75, 76, 77));

TEST(Exhaustive, BatchWithMergedWindows) {
  // Window merging must not change outcomes.
  const Aig a = testutil::random_aig(6, 80, 8, 62);
  std::vector<window::Window> windows;
  const auto supports = aig::compute_supports(a, 6);
  for (std::size_t i = 0; i + 1 < a.num_pos(); i += 2) {
    const Var u = aig::lit_var(a.po(i)), v = aig::lit_var(a.po(i + 1));
    if (!supports.small(u) || !supports.small(v)) continue;
    auto inputs = aig::sorted_union(supports.sets[u], supports.sets[v]);
    if (inputs.empty()) continue;
    auto w = window::build_window(
        a, inputs,
        {window::CheckItem{a.po(i), a.po(i + 1),
                           static_cast<std::uint32_t>(i)}});
    if (w) windows.push_back(std::move(*w));
  }
  ASSERT_FALSE(windows.empty());
  const BatchResult before = check_batch(a, windows, {});
  auto merged = window::merge_windows(a, std::move(windows), 6);
  const BatchResult after = check_batch(a, merged, {});
  // Outcomes may be reported in a different order: compare by tag.
  std::map<std::uint32_t, ItemStatus> mb, ma;
  for (auto& [tag, st] : before.outcomes) mb[tag] = st;
  for (auto& [tag, st] : after.outcomes) ma[tag] = st;
  EXPECT_EQ(mb, ma);
}

TEST(Exhaustive, WideWindowMultiWordTables) {
  // 8 inputs -> 4-word tables; verify a known arithmetic identity:
  // x + y == y + x bitwise on a ripple-carry structure is too big here,
  // so check a wide AND-tree against its balanced version.
  Aig a(8);
  Lit chain = a.pi_lit(0);
  for (unsigned i = 1; i < 8; ++i) chain = a.add_and(chain, a.pi_lit(i));
  // Balanced version.
  std::vector<Lit> layer;
  for (unsigned i = 0; i < 8; ++i) layer.push_back(a.pi_lit(i));
  while (layer.size() > 1) {
    std::vector<Lit> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(a.add_and(layer[i], layer[i + 1]));
    if (layer.size() & 1) next.push_back(layer.back());
    layer = std::move(next);
  }
  auto r = check_pair(a, chain, layer[0], all_pis(a));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, ItemStatus::kProved);
}

TEST(Exhaustive, CexBitIndexDecoding) {
  // Force the mismatch into a high round with tiny memory, and verify the
  // decoded assignment still distinguishes the nodes.
  Aig a(8);
  // f and g agree except when all inputs are 1 (pattern index 255).
  Lit all = a.pi_lit(0);
  for (unsigned i = 1; i < 8; ++i) all = a.add_and(all, a.pi_lit(i));
  const Lit g = a.add_and(a.pi_lit(0), a.pi_lit(1));
  const Lit f = a.add_xor(g, all);  // flips g only on the all-ones pattern
  Params tiny;
  tiny.memory_words = 64;  // several rounds for 4-word tables
  auto w = window::build_window(a, all_pis(a),
                                {window::CheckItem{f, g, 0}});
  ASSERT_TRUE(w);
  const BatchResult r = check_batch(a, {std::move(*w)}, tiny);
  ASSERT_EQ(r.outcomes[0].second, ItemStatus::kDisproved);
  ASSERT_EQ(r.cexes.size(), 1u);
  std::vector<bool> pis(8, false);
  for (const auto& [var, value] : r.cexes[0].assignment)
    pis[var - 1] = value;
  EXPECT_NE(a.evaluate_lit(f, pis), a.evaluate_lit(g, pis));
  // The only distinguishing pattern is all-ones.
  for (bool b : pis) EXPECT_TRUE(b);
}

TEST(Exhaustive, StrategiesAgreeOnOutcomes) {
  // The parallelism dimension (whole-window sweeps vs fused level stages)
  // is a pure execution choice: outcomes must be identical, for every
  // memory budget.
  const Aig a = testutil::random_aig(9, 160, 10, 64);
  std::vector<window::Window> windows;
  for (std::size_t i = 0; i + 1 < a.num_pos(); i += 2) {
    auto w = window::build_window(
        a, all_pis(a),
        {window::CheckItem{a.po(i), a.po(i + 1),
                           static_cast<std::uint32_t>(i)}});
    ASSERT_TRUE(w);
    windows.push_back(std::move(*w));
  }
  for (const std::size_t budget : {std::size_t{512}, std::size_t{1} << 22}) {
    Params wp, ls;
    wp.memory_words = ls.memory_words = budget;
    wp.strategy = Strategy::kWindowParallel;
    ls.strategy = Strategy::kLevelStaged;
    const BatchResult rw = check_batch(a, windows, wp);
    const BatchResult rl = check_batch(a, windows, ls);
    EXPECT_TRUE(rw.window_parallel);
    EXPECT_FALSE(rl.window_parallel);
    ASSERT_EQ(rw.outcomes.size(), rl.outcomes.size());
    for (std::size_t i = 0; i < rw.outcomes.size(); ++i) {
      EXPECT_EQ(rw.outcomes[i].first, rl.outcomes[i].first);
      EXPECT_EQ(rw.outcomes[i].second, rl.outcomes[i].second);
    }
    EXPECT_EQ(rw.rounds, rl.rounds);
    EXPECT_EQ(rw.words_simulated, rl.words_simulated);
  }
}

TEST(Exhaustive, CacheClampOnlyChangesRoundDecomposition) {
  // The cache-residency clamp on E must never change outcomes, only the
  // number of rounds.
  const Aig a = testutil::random_aig(10, 200, 6, 65);
  std::vector<window::Window> windows;
  for (std::size_t i = 0; i + 1 < a.num_pos(); i += 2) {
    // Mix an undecidable-in-one-round pair (a PO against itself, proved
    // only after ALL rounds ran) with a likely-disproved random pair.
    auto w = window::build_window(
        a, all_pis(a),
        {window::CheckItem{a.po(i), a.po(i),
                           static_cast<std::uint32_t>(i)},
         window::CheckItem{a.po(i), a.po(i + 1),
                           static_cast<std::uint32_t>(i) + 1000}});
    ASSERT_TRUE(w);
    windows.push_back(std::move(*w));
  }
  Params unclamped;
  unclamped.cache_words = 0;
  Params clamped;
  clamped.cache_words = 64;  // far below the table size: forces tiny E
  const BatchResult ru = check_batch(a, windows, unclamped);
  const BatchResult rc = check_batch(a, windows, clamped);
  EXPECT_LT(rc.entry_words, ru.entry_words);
  EXPECT_GT(rc.rounds, ru.rounds);
  ASSERT_EQ(ru.outcomes.size(), rc.outcomes.size());
  for (std::size_t i = 0; i < ru.outcomes.size(); ++i) {
    EXPECT_EQ(ru.outcomes[i].first, rc.outcomes[i].first);
    EXPECT_EQ(ru.outcomes[i].second, rc.outcomes[i].second);
  }
}

TEST(Exhaustive, CancellationReturnsCancelled) {
  const Aig a = testutil::random_aig(10, 120, 2, 63);
  auto w = window::build_window(a, all_pis(a),
                                {window::CheckItem{a.po(0), a.po(1), 0}});
  ASSERT_TRUE(w);
  std::atomic<bool> cancel{true};
  Params p;
  p.stop = fault::StopToken(&cancel);
  const BatchResult r = check_batch(a, {std::move(*w)}, p);
  EXPECT_TRUE(r.cancelled);
}

// ---------------------------------------------------------------------------
// Degradation ladder (DESIGN.md §2.4).
// ---------------------------------------------------------------------------

/// Expected ladder counters of one batch run.
struct LadderCounts {
  std::uint64_t halvings, splits, recovered, abandoned, steps;
  std::size_t outcomes;
};

/// A batch of `num_windows` windows with `items_per_window` equivalent
/// pairs each, over the 4 PIs of `a`: multi-item windows are the shape of
/// a merged P/G batch, single-item windows the shape of a cut flush.
std::vector<window::Window> ladder_batch(Aig& a, std::size_t num_windows,
                                         std::size_t items_per_window) {
  std::vector<window::Window> windows;
  std::uint32_t tag = 0;
  for (std::size_t w = 0; w < num_windows; ++w) {
    std::vector<window::CheckItem> items;
    for (std::size_t i = 0; i < items_per_window; ++i, ++tag) {
      const Lit x = a.pi_lit(tag % 4), y = a.pi_lit((tag + 1) % 4);
      const Lit f = a.add_and(x, y);
      const Lit g = a.add_and(a.add_or(x, y), f);  // == f
      items.push_back(window::CheckItem{f, g, tag});
    }
    auto win = window::build_window(a, all_pis(a), std::move(items));
    EXPECT_TRUE(win);
    if (win) windows.push_back(std::move(*win));
  }
  return windows;
}

void expect_ladder(std::size_t num_windows, std::size_t items_per_window,
                   const fault::FaultPlan& plan, const LadderCounts& want) {
  Aig a(4);
  std::vector<window::Window> windows =
      ladder_batch(a, num_windows, items_per_window);
  // M = 2^16 floored at 2^10 with 3 retries: the batch may halve 3 times
  // (to 2^13), its first split window 3 more (to 2^10, the floor).
  Ladder ladder(std::size_t{1} << 16, true, 3, std::size_t{1} << 10);
  fault::ScopedFaultPlan scoped(plan);
  const BatchResult out = ladder.run_batch(a, std::move(windows), {});
  const DegradeState& s = ladder.state();
  EXPECT_FALSE(out.cancelled);
  EXPECT_EQ(out.failure == BatchFailure::kNone, want.abandoned == 0);
  EXPECT_EQ(out.outcomes.size(), want.outcomes);
  for (const auto& [tag, status] : out.outcomes)
    EXPECT_EQ(status, ItemStatus::kProved);
  EXPECT_EQ(s.memory_halvings, want.halvings);
  EXPECT_EQ(s.memory_words, (std::size_t{1} << 16) >> want.halvings);
  EXPECT_EQ(s.batch_splits, want.splits);
  EXPECT_EQ(s.faults_recovered, want.recovered);
  EXPECT_EQ(s.units_abandoned, want.abandoned);
  EXPECT_EQ(s.ladder_steps, want.steps);
  EXPECT_EQ(s.deadline_expiries, 0u);
}

TEST(Ladder, OnePolicyForMergedBatchesAndCutFlushes) {
  const char* site = fault::sites::kExhaustiveSimtAlloc;
  const fault::FaultPlan none;
  fault::FaultPlan first_two;
  first_two.on_hit(site, 1, 2);
  fault::FaultPlan first_five;
  first_five.on_hit(site, 1, 5);
  fault::FaultPlan every;
  every.on_hit(site, 1, /*fires=*/0);  // unlimited
  // {num_windows, items_per_window}: a merged P/G batch, a cut flush.
  const std::pair<std::size_t, std::size_t> shapes[] = {{3, 2}, {5, 1}};
  for (const auto& [n, k] : shapes) {
    SCOPED_TRACE(testing::Message() << n << " windows x " << k << " items");
    // Fault-free: the ladder is invisible.
    expect_ladder(n, k, none, {0, 0, 0, 0, 0, n * k});
    // Two fires: two halvings, then the batch completes, so both count
    // as recovered.
    expect_ladder(n, k, first_two, {2, 0, 2, 0, 2, n * k});
    // Five fires: 3 halvings and a split; the first window halves once
    // more and completes, so all 5 backoffs count as recovered.
    expect_ladder(n, k, first_five, {4, 1, 5, 0, 5, n * k});
    // Every hit fires: 3 halvings, one split, 3 more halvings for the
    // first window, then every window is abandoned — one step each — and
    // nothing recovered.
    expect_ladder(n, k, every, {6, 1, 0, n, 6 + 1 + n, 0});
  }
}

TEST(Ladder, ExpiredDeadlineDropsTheBatchUnproved) {
  Aig a(4);
  std::vector<window::Window> windows = ladder_batch(a, 3, 1);
  Ladder ladder(std::size_t{1} << 16);
  Params p;
  p.stop = fault::StopToken().until(fault::StopToken::now_plus(-1.0));
  const BatchResult out = ladder.run_batch(a, std::move(windows), p);
  EXPECT_EQ(out.failure, BatchFailure::kDeadline);
  EXPECT_TRUE(out.outcomes.empty());
  EXPECT_EQ(ladder.state().deadline_expiries, 1u);
  EXPECT_EQ(ladder.state().units_abandoned, 3u);
  EXPECT_EQ(ladder.state().ladder_steps, 0u);  // deadlines are not retried
}

}  // namespace
}  // namespace simsweep::exhaustive
