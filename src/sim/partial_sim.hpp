#pragma once
/// \file partial_sim.hpp
/// \brief Word-parallel partial simulation (paper §II-B, §III-A).
///
/// Partial simulation evaluates every node of the AIG under a batch of
/// input patterns packed 64-per-word. The resulting per-node bit vectors
/// ("signatures") initialize and refine the equivalence classes. Patterns
/// come from two sources: random initialization and counter-examples
/// collected by the exhaustive simulator. Both are held in a PatternBank
/// keyed by PI index, so a bank survives miter rebuilds (PIs are stable
/// across reductions while internal ids are not).

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_analysis.hpp"
#include "common/random.hpp"

namespace simsweep::sim {

using Word = std::uint64_t;

/// Input patterns for all PIs, packed 64 assignments per word.
///
/// Storage is word-major — words[w * num_pis + pi] holds assignments
/// 64w .. 64w+63 of PI `pi` (0-based) — so appending one word-column for
/// all PIs is an amortized vector append instead of a full-bank copy
/// (CexCollector::flush_into appends a column per CEX group; the old
/// PI-major layout made that O(pis × words) per column, quadratic as
/// CEXs accumulate).
class PatternBank {
 public:
  PatternBank(unsigned num_pis, std::size_t num_words)
      : num_pis_(num_pis), num_words_(num_words),
        words_(static_cast<std::size_t>(num_pis) * num_words, 0) {}

  /// Bank of uniformly random patterns.
  static PatternBank random(unsigned num_pis, std::size_t num_words,
                            std::uint64_t seed);

  unsigned num_pis() const { return num_pis_; }
  std::size_t num_words() const { return num_words_; }
  std::size_t num_patterns() const { return num_words_ * 64; }

  Word word(unsigned pi, std::size_t w) const {
    return words_[w * num_pis_ + pi];
  }
  Word& word(unsigned pi, std::size_t w) {
    return words_[w * num_pis_ + pi];
  }

  /// Appends one extra word per PI, filled with the given per-PI values
  /// (used to splice CEX patterns; see CexCollector). Amortized O(pis).
  void append_words(const std::vector<Word>& per_pi_words);

  /// Batch form: appends one column per group with a single capacity
  /// reservation. Each group must hold num_pis() words.
  void append_groups(const std::vector<std::vector<Word>>& groups);

  /// Appends every word of `other` (same num_pis()) after this bank's
  /// words, with a single capacity reservation.
  void append_bank(const PatternBank& other);

  /// Drops the oldest words until at most max_words remain (bounds the
  /// resimulation cost as CEXs accumulate). Returns the number of words
  /// dropped per PI (0 when the bank already fits).
  std::size_t truncate_front(std::size_t max_words);

  /// Times the append paths grew the underlying capacity — regression
  /// guard for the amortized-growth contract (a bank appended to N times
  /// reallocates O(log N) times, not N).
  std::uint64_t reallocations() const { return reallocations_; }

 private:
  void reserve_columns(std::size_t extra_words);

  unsigned num_pis_;
  std::size_t num_words_;
  std::uint64_t reallocations_ = 0;
  std::vector<Word> words_;  // word-major: words_[w * num_pis_ + pi]
};

/// Accumulates counter-example input assignments (sparse: only support PIs
/// are assigned; the rest default to 0) and packs them 64-per-word for
/// appending to a PatternBank.
class CexCollector {
 public:
  explicit CexCollector(unsigned num_pis) : num_pis_(num_pis) {}

  /// Adds one CEX given as (pi_index, value) pairs.
  void add(const std::vector<std::pair<unsigned, bool>>& assignment);

  std::size_t num_cexes() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Flushes complete+partial words into the bank and clears the collector.
  void flush_into(PatternBank& bank);

 private:
  unsigned num_pis_;
  std::size_t count_ = 0;
  // One word per PI per pending group of <=64 CEXs; group-major.
  std::vector<std::vector<Word>> groups_;
};

/// Per-node signatures: node-major storage of num_words 64-bit words.
struct Signatures {
  std::size_t num_words = 0;
  std::vector<Word> words;  // words[var * num_words + w]

  Word word(aig::Var v, std::size_t w) const {
    return words[static_cast<std::size_t>(v) * num_words + w];
  }
  const Word* row(aig::Var v) const {
    return words.data() + static_cast<std::size_t>(v) * num_words;
  }
};

/// Simulates the whole AIG under the bank's patterns, level-parallel on
/// the global thread pool. Complemented fanins are handled by bitwise NOT.
/// When `schedule` is non-null and matches the AIG it is used instead of
/// recomputing the level order (DESIGN.md §2.7).
Signatures simulate(const aig::Aig& aig, const PatternBank& bank,
                    const aig::LevelSchedule* schedule = nullptr);

}  // namespace simsweep::sim
