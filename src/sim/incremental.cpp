#include "sim/incremental.hpp"

#include <algorithm>
#include <cassert>

#include "aig/rebuild.hpp"
#include "fault/fault.hpp"

namespace simsweep::sim {

std::optional<Signatures> translate_signatures(
    const Signatures& old_sigs, const std::vector<aig::Lit>& lit_map,
    std::size_t new_num_nodes) {
  const std::size_t W = old_sigs.num_words;
  Signatures out;
  out.num_words = W;
  out.words.assign(new_num_nodes * W, 0);
  std::vector<std::uint8_t> covered(new_num_nodes, 0);
  const Word* const src = old_sigs.words.data();
  Word* const dst = out.words.data();
  for (std::size_t v = 0; v < lit_map.size(); ++v) {
    const aig::Lit nl = lit_map[v];
    if (nl == aig::RebuildResult::kLitInvalid) continue;
    const std::size_t nv = aig::lit_var(nl);
    if (nv >= new_num_nodes) return std::nullopt;  // malformed map
    const Word mask = aig::lit_compl(nl) ? ~Word{0} : 0;
    const Word* const row = src + v * W;
    Word* const nrow = dst + nv * W;
    if (!covered[nv]) {
      for (std::size_t w = 0; w < W; ++w) nrow[w] = row[w] ^ mask;
      covered[nv] = 1;
    } else {
      // Second preimage (strash merge): the rebuild asserts both old
      // nodes compute the same function modulo the mapped complements,
      // so their translated rows must already agree. A mismatch means
      // the cached signatures are stale — reject the translation.
      for (std::size_t w = 0; w < W; ++w)
        if (nrow[w] != (row[w] ^ mask)) return std::nullopt;
    }
  }
  // rebuild() copies only old-cone nodes into the new AIG, so every new
  // var has >= 1 preimage; an uncovered var means the map is not a
  // genuine rebuild map for this state.
  for (std::size_t nv = 0; nv < new_num_nodes; ++nv)
    if (!covered[nv]) return std::nullopt;
  return out;
}

void drop_front_words(Signatures& sigs, std::size_t n) {
  if (n == 0) return;
  assert(n <= sigs.num_words);
  const std::size_t W = sigs.num_words;
  const std::size_t K = W - n;
  const std::size_t rows = W == 0 ? 0 : sigs.words.size() / W;
  Word* const data = sigs.words.data();
  // Forward in-place compaction is safe: row r's destination r*K + K <=
  // its own source start r*W + n for all r (K <= W and n >= 0), so a
  // destination range never overruns a yet-unread source range.
  for (std::size_t r = 0; r < rows; ++r)
    std::copy(data + r * W + n, data + (r + 1) * W, data + r * K);
  sigs.words.resize(rows * K);
  sigs.num_words = K;
}

EcManager& IncrementalState::sync(const aig::Aig& aig,
                                  const PatternBank& bank,
                                  const aig::LevelSchedule* schedule) {
  const std::uint64_t lo = bank.start_index();
  if (valid_ && num_nodes_ == aig.num_nodes() &&
      lo >= covered_start_) {
    const std::uint64_t drop = lo - covered_start_;
    if (drop <= sigs_.num_words) {
      const std::size_t keep = sigs_.num_words - drop;
      if (keep <= bank.num_words()) {
        // Delta path: cached columns [drop, num_words) are exactly the
        // bank's columns [0, keep); simulate only the appended tail.
        if (drop > 0) drop_front_words(sigs_, drop);
        covered_start_ = lo;
        const std::size_t delta = bank.num_words() - keep;
        if (delta > 0) {
          extend_signatures(aig, bank, keep, sigs_, schedule);
          ec_.refine(sigs_);
          stats_.incremental_words += delta;
        }
        return ec_;
      }
    }
  }
  // Full path: first sync or an unbridgeable gap
  // (rebuild fallback, bank rewound/replaced).
  sigs_ = simulate(aig, bank, schedule);
  ec_.build(aig, sigs_);
  num_nodes_ = aig.num_nodes();
  covered_start_ = lo;
  valid_ = true;
  ++stats_.full_resims;
  return ec_;
}

bool IncrementalState::apply_rebuild(const aig::Aig& new_aig,
                                     const std::vector<aig::Lit>& lit_map) {
  if (!valid_) return false;
  bool ok = lit_map.size() == num_nodes_ &&
            !SIMSWEEP_FAULT_POINT(fault::sites::kSimCarryover);
  std::optional<Signatures> translated;
  if (ok) {
    translated = translate_signatures(sigs_, lit_map, new_aig.num_nodes());
    ok = translated.has_value();
  }
  if (ok)
    ok = ec_.translate(lit_map, new_aig.num_nodes(), &stats_.carry_dropped);
  if (!ok) {
    valid_ = false;
    ++stats_.carry_fallbacks;
    return false;
  }
  sigs_ = std::move(*translated);
  num_nodes_ = new_aig.num_nodes();
  stats_.carry_classes += ec_.num_classes();
  return true;
}

}  // namespace simsweep::sim
