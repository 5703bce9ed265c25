#pragma once
/// \file checking_pass.hpp
/// \brief One cut-generation-and-checking pass (paper Alg. 2, §III-C2).
///
/// A pass walks the miter in *enumeration-level* order (Eq. 2). At each
/// level it (a) computes priority cuts for the level's nodes in parallel —
/// representatives rank by the pass's Table I criteria, non-representatives
/// by similarity to their representative's cuts — and (b) generates the
/// common cuts of the candidate pairs whose non-representative lives at
/// this level, inserting them into a bounded buffer. Whenever the buffer
/// cannot accept a new batch it is flushed through the exhaustive
/// simulator as a local-function check. Proved pairs are reported back;
/// mismatches are inconclusive (SDCs may explain them, paper §III-C1) and
/// simply consume the cut.

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "cut/cut_enum.hpp"
#include "exhaustive/ladder.hpp"

namespace simsweep::cut {

/// A candidate pair to prove: node == repr XOR phase.
struct PairTask {
  aig::Var repr = 0;
  aig::Var node = 0;
  bool phase = false;
};

struct PassParams {
  EnumParams enum_params;  ///< k_l and C
  /// Common-cut buffer capacity in entries (Alg. 2 line 1). Bounds the
  /// memory of deferred checks; a flush happens when a batch won't fit.
  std::size_t buffer_capacity = std::size_t{1} << 14;
  /// Maximum common cuts generated per pair per pass.
  unsigned max_cuts_per_pair = 8;
  /// Exhaustive-simulator settings for the local checks (CEX collection is
  /// disabled internally: local mismatches are inconclusive, not CEXs).
  /// sim_params.stop is also checked between enumeration levels; expiry
  /// ends the pass early with its proofs intact.
  exhaustive::Params sim_params;
  /// Optional cached level schedule of the miter (DESIGN.md §2.7). When
  /// non-null and matching the pass AIG, the scorer and the per-cut
  /// window builds borrow its levels instead of recomputing them. The
  /// enumeration levels (Eq. 2) are repr-dependent and stay per-pass.
  const aig::LevelSchedule* schedule = nullptr;
};

struct PassStats {
  std::size_t common_cuts = 0;   ///< buffered cut checks generated
  std::size_t checks = 0;        ///< exhaustively simulated cut checks
  std::size_t flushes = 0;       ///< buffer flushes (incl. the final one)
  std::size_t proved = 0;        ///< tasks proved by this pass
  /// Candidate cuts enumerated across all compute_node() calls (|E(n)|
  /// after dedup) vs. the priority cuts actually kept (≤ C each) — the
  /// pass's selection pressure.
  std::size_t cuts_enumerated = 0;
  std::size_t cuts_selected = 0;
  std::size_t levels = 0;  ///< enumeration levels walked (max Eq. 2 level)
  /// Histogram of needed AND nodes by enumeration level, log2-bucketed:
  /// level_hist[b] counts nodes with floor(log2(level)) == b.
  std::vector<std::size_t> level_hist;
  /// High-water mark of the cut buffer — bounded-buffer contract witness
  /// (peak_buffered <= buffer_capacity always; see group_splits).
  std::size_t peak_buffered = 0;
  /// Times one pair's common-cut group exceeded the whole buffer capacity
  /// and was split across flushes instead of overrunning the bound.
  std::size_t group_splits = 0;
  bool deadline_expired = false;     ///< pass ended by the phase deadline
};

struct PassResult {
  /// proved[i] == 1 iff tasks[i] was proved equivalent in this pass.
  std::vector<std::uint8_t> proved;
  PassStats stats;
};

/// Runs one pass over the whole miter. `tasks` are the candidate pairs
/// still unproved; entries already known proved can be pre-marked via
/// `already_proved` (their nodes then skip common-cut generation but still
/// get priority cuts, since TFO nodes need them).
/// Every flush runs its batch through `ladder` (DESIGN.md §2.4), or a
/// private one seeded from sim_params.memory_words when it is null.
PassResult run_checking_pass(const aig::Aig& aig,
                             const std::vector<PairTask>& tasks,
                             Pass pass, const PassParams& params,
                             const std::vector<std::uint8_t>* already_proved =
                                 nullptr,
                             exhaustive::Ladder* ladder = nullptr);

namespace detail {

/// One buffered local check: prove tasks[task] over `cut`. Exposed (with
/// flush_buffer) so a flush's deadline and abandonment accounting is
/// unit-testable directly; the pass driver's own deadline check between
/// levels intercepts an expired deadline before a flush would see it.
struct BufEntry {
  std::uint32_t task = 0;
  Cut cut;
};

/// Flushes the buffer through the exhaustive simulator (Alg. 2 lines
/// 13-15 / 17-18) under `ladder`; see run_checking_pass.
void flush_buffer(const aig::Aig& aig, const std::vector<PairTask>& tasks,
                  std::vector<BufEntry>& buffer,
                  std::vector<std::uint8_t>& proved, const PassParams& params,
                  exhaustive::Ladder& ladder, PassStats& stats);

}  // namespace detail

}  // namespace simsweep::cut
