#pragma once
/// \file truth.hpp
/// \brief The benchmark's own ground truth: a PRNG, a bit-parallel AIG
/// evaluator and the injected-bug mutation.
///
/// Verdicts are judged against this file only. It reads AIG structure
/// through the public accessors and never calls the library's simulator
/// or evaluator, so a bug there cannot make a wrong verdict look right.

#include <cstdint>
#include <optional>
#include <vector>

#include "aig/aig.hpp"

namespace cecbench {

/// splitmix64: a small, well-mixed PRNG for mutant picks and patterns.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t s_;
};

/// Evaluates every PO of `g` under `words` 64-pattern words per PI
/// (`pi_words[pi * words + w]`). Returns `po * words + w`.
inline std::vector<std::uint64_t> eval_pos(
    const simsweep::aig::Aig& g, const std::vector<std::uint64_t>& pi_words,
    std::size_t words) {
  using namespace simsweep::aig;
  std::vector<std::uint64_t> val(g.num_nodes() * words, 0);
  for (unsigned i = 0; i < g.num_pis(); ++i)
    for (std::size_t w = 0; w < words; ++w)
      val[(i + 1) * words + w] = pi_words[i * words + w];
  auto lit_word = [&](Lit l, std::size_t w) {
    const std::uint64_t x = val[lit_var(l) * words + w];
    return lit_compl(l) ? ~x : x;
  };
  for (Var v = g.num_pis() + 1; v < g.num_nodes(); ++v)
    for (std::size_t w = 0; w < words; ++w)
      val[v * words + w] = lit_word(g.fanin0(v), w) & lit_word(g.fanin1(v), w);
  std::vector<std::uint64_t> out(g.num_pos() * words);
  for (std::size_t o = 0; o < g.num_pos(); ++o)
    for (std::size_t w = 0; w < words; ++w)
      out[o * words + w] = lit_word(g.po(o), w);
  return out;
}

/// Per-pattern "some PO differs" mask of two PI-compatible AIGs.
inline std::vector<std::uint64_t> differ_mask(
    const simsweep::aig::Aig& a, const simsweep::aig::Aig& b,
    const std::vector<std::uint64_t>& pi_words, std::size_t words) {
  const auto va = eval_pos(a, pi_words, words);
  const auto vb = eval_pos(b, pi_words, words);
  std::vector<std::uint64_t> diff(words, 0);
  for (std::size_t i = 0; i < va.size(); ++i) diff[i % words] |= va[i] ^ vb[i];
  return diff;
}

inline std::vector<std::uint64_t> random_words(unsigned pis, std::size_t words,
                                               SplitMix& rng) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(pis) * words);
  for (auto& x : out) x = rng.next();
  return out;
}

/// True if `a` and `b` differ on some PO under some of `words` x 64
/// random patterns.
inline bool differ_on_random(const simsweep::aig::Aig& a,
                             const simsweep::aig::Aig& b, std::size_t words,
                             SplitMix& rng) {
  const auto pi_words = random_words(a.num_pis(), words, rng);
  for (std::uint64_t m : differ_mask(a, b, pi_words, words))
    if (m != 0) return true;
  return false;
}

/// Checks a NOT-equivalent verdict on the pair (a, b). A CEX must make
/// some PO differ. No CEX means a constant-1 miter PO, so every
/// assignment must differ; 64 random ones are tried.
inline bool refutation_holds(const simsweep::aig::Aig& a,
                             const simsweep::aig::Aig& b,
                             const std::optional<std::vector<bool>>& cex,
                             SplitMix& rng) {
  if (cex) {
    if (cex->size() != a.num_pis()) return false;
    std::vector<std::uint64_t> pi(a.num_pis());
    for (unsigned i = 0; i < a.num_pis(); ++i) pi[i] = (*cex)[i] ? ~0ULL : 0ULL;
    return differ_mask(a, b, pi, 1)[0] != 0;
  }
  return differ_mask(a, b, random_words(a.num_pis(), 1, rng), 1)[0] == ~0ULL;
}

/// The integration test's injected bug: copies `src` with the polarity of
/// one AND node's first fanin flipped. The victim is drawn from `seed`.
inline simsweep::aig::Aig mutate(const simsweep::aig::Aig& src,
                                 std::uint64_t seed) {
  using namespace simsweep::aig;
  SplitMix rng(seed);
  const Var victim =
      static_cast<Var>(src.num_pis() + 1 + rng.next() % src.num_ands());
  Aig dst(src.num_pis());
  std::vector<Lit> lit_of(src.num_nodes());
  lit_of[0] = kLitFalse;
  for (unsigned i = 0; i < src.num_pis(); ++i) lit_of[i + 1] = dst.pi_lit(i);
  auto map = [&](Lit l) {
    return lit_notcond(lit_of[lit_var(l)], lit_compl(l));
  };
  for (Var v = src.num_pis() + 1; v < src.num_nodes(); ++v) {
    const Lit f0 = src.fanin0(v);
    lit_of[v] = dst.add_and(v == victim ? lit_not(map(f0)) : map(f0),
                            map(src.fanin1(v)));
  }
  for (Lit po : src.pos()) dst.add_po(map(po));
  return dst;
}

}  // namespace cecbench
