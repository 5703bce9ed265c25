#include "sim/partial_sim.hpp"

#include <cassert>

#include "common/word_kernels.hpp"
#include "parallel/thread_pool.hpp"

namespace simsweep::sim {

PatternBank PatternBank::random(unsigned num_pis, std::size_t num_words,
                                std::uint64_t seed) {
  PatternBank bank(num_pis, num_words);
  Rng rng(seed);
  // Fill in PI-major traversal (all words of PI 0, then PI 1, ...) so the
  // bank is bit-identical for a given seed to what the historical PI-major
  // layout produced — seeded runs and golden tests stay stable across the
  // word-major storage switch.
  for (unsigned pi = 0; pi < num_pis; ++pi)
    for (std::size_t w = 0; w < num_words; ++w) bank.word(pi, w) = rng.next64();
  return bank;
}

void PatternBank::reserve_columns(std::size_t extra_words) {
  const std::size_t need =
      static_cast<std::size_t>(num_pis_) * (num_words_ + extra_words);
  if (need <= words_.capacity()) return;
  std::size_t cap = words_.capacity() < 16 ? 16 : words_.capacity() * 2;
  if (cap < need) cap = need;
  words_.reserve(cap);
  ++reallocations_;
}

void PatternBank::append_words(const std::vector<Word>& per_pi_words) {
  assert(per_pi_words.size() == num_pis_);
  reserve_columns(1);
  words_.insert(words_.end(), per_pi_words.begin(), per_pi_words.end());
  ++num_words_;
}

void PatternBank::append_groups(const std::vector<std::vector<Word>>& groups) {
  reserve_columns(groups.size());
  for (const auto& group : groups) {
    assert(group.size() == num_pis_);
    words_.insert(words_.end(), group.begin(), group.end());
    ++num_words_;
  }
}

void PatternBank::append_bank(const PatternBank& other) {
  assert(other.num_pis_ == num_pis_);
  reserve_columns(other.num_words_);
  words_.insert(words_.end(), other.words_.begin(), other.words_.end());
  num_words_ += other.num_words_;
}

std::size_t PatternBank::truncate_front(std::size_t max_words) {
  if (num_words_ <= max_words) return 0;
  const std::size_t drop = num_words_ - max_words;
  words_.erase(words_.begin(),
               words_.begin() + static_cast<std::ptrdiff_t>(
                                    drop * static_cast<std::size_t>(num_pis_)));
  num_words_ = max_words;
  return drop;
}

void CexCollector::add(
    const std::vector<std::pair<unsigned, bool>>& assignment) {
  const std::size_t slot = count_ % 64;
  if (slot == 0) groups_.emplace_back(num_pis_, 0);
  auto& group = groups_.back();
  for (const auto& [pi, value] : assignment) {
    assert(pi < num_pis_);
    if (value) group[pi] |= Word{1} << slot;
  }
  ++count_;
}

void CexCollector::flush_into(PatternBank& bank) {
  bank.append_groups(groups_);
  groups_.clear();
  count_ = 0;
}

Signatures simulate(const aig::Aig& aig, const PatternBank& bank,
                    const aig::LevelSchedule* schedule) {
  assert(bank.num_pis() == aig.num_pis());
  const std::size_t W = bank.num_words();
  Signatures sig;
  sig.num_words = W;
  sig.words.assign(aig.num_nodes() * W, 0);
  if (W == 0) return sig;

  // PIs copy their bank rows.
  parallel::parallel_for_chunks(
      0, aig.num_pis(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          for (std::size_t w = 0; w < W; ++w)
            sig.words[(i + 1) * W + w] =
                bank.word(static_cast<unsigned>(i), w);
      });

  // Level-parallel sweep over AND nodes: batch nodes by level and process
  // each batch with a parallel_for (paper's second parallelism dimension).
  // Concurrency contract: within a level batch each worker writes only
  // its own nodes' signature rows (disjoint word ranges of sig.words)
  // and reads rows of strictly lower levels, which the preceding
  // parallel_for's completion ordered before this one started.
  aig::LevelSchedule local;
  if (schedule == nullptr || !schedule->matches(aig)) {
    local = aig::build_level_schedule(aig);
    schedule = &local;
  }
  const auto& order = schedule->order;
  const auto& offset = schedule->offset;

  for (std::uint32_t l = 1; l <= schedule->max_level; ++l) {
    const std::size_t lo = offset[l], hi = offset[l + 1];
    parallel::parallel_for_chunks(lo, hi, [&](std::size_t clo,
                                              std::size_t chi) {
      Word* const words = sig.words.data();
      const aig::Var* const ord = order.data();
      for (std::size_t k = clo; k < chi; ++k) {
        const aig::Var v = ord[k];
        const aig::Lit f0 = aig.fanin0(v);
        const aig::Lit f1 = aig.fanin1(v);
        kernels::and2_words(
            words + static_cast<std::size_t>(v) * W,
            words + static_cast<std::size_t>(aig::lit_var(f0)) * W,
            aig::lit_compl(f0) ? ~Word{0} : 0,
            words + static_cast<std::size_t>(aig::lit_var(f1)) * W,
            aig::lit_compl(f1) ? ~Word{0} : 0, W);
      }
    });
  }
  return sig;
}

}  // namespace simsweep::sim
