#pragma once
/// \file incremental.hpp
/// \brief Incremental simulation and EC carry-over across phases and
/// rebuilds (DESIGN.md §2.7).
///
/// Full re-simulation of the miter over the whole pattern bank is the
/// dominant recurring cost of sweep-style CEC — the engine used to pay it
/// at every phase entry and after every CEX refinement round. This layer
/// keeps one Signatures matrix and one EcManager alive across the engine
/// run and maintains them incrementally:
///
///  * **Delta simulation** — the PatternBank is a sliding window over an
///    append-only pattern stream (PatternBank::start_index). When columns
///    are appended (CEX absorption) only the new word-columns are
///    simulated (sim::extend_signatures) and the classes refined; when
///    the window's front is truncated the cached rows drop the same
///    columns in place. Bit-identical to full re-simulation by
///    construction (both run the same column kernel over their range).
///
///  * **Rebuild carry-over** — after a P/G/L reduction, signature rows
///    and EC classes are translated through RebuildResult::lit_map
///    (complement-aware via the literal's phase bit, dropping members
///    outside the kept cone) instead of re-simulating and rebuilding
///    classes from a fresh random build. Sound because a signature is a
///    deterministic function of a node's global PI function and the bank:
///    the rebuild preserves every kept node's function modulo the mapped
///    literal's complement, so the translated rows *are* the rows a full
///    re-simulation would produce, and carried classes are a refinement
///    of what a fresh build() would return (EC classes only propose
///    candidates; verification is downstream, so a finer partition is
///    always sound).
///
/// Every translation is checked; when it is impossible (node population
/// mismatch, phase conflict from a strash merge, injected fault at
/// fault::sites::kSimCarryover) the state falls back to a full
/// re-simulation + fresh build on the next sync() — counted in
/// CarryStats::carry_fallbacks and surfaced to the degrade ladder.

#include <cstdint>
#include <optional>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_analysis.hpp"
#include "sim/ec_manager.hpp"
#include "sim/partial_sim.hpp"

namespace simsweep::sim {

/// Lifetime telemetry of one IncrementalState (published by the engine
/// under `partial_sim.*`; see src/obs/metric_names.def).
struct CarryStats {
  /// Word-columns simulated by the delta path (would have been full-bank
  /// re-simulations before this layer).
  std::uint64_t incremental_words = 0;
  /// Full re-simulations actually performed (first sync + fallbacks).
  std::uint64_t full_resims = 0;
  /// Classes carried live through a rebuild translation.
  std::uint64_t carry_classes = 0;
  /// Class members dropped during translations (outside the kept cone or
  /// in classes that dissolved below 2 members).
  std::uint64_t carry_dropped = 0;
  /// Translations abandoned to the full re-simulation fallback.
  std::uint64_t carry_fallbacks = 0;
};

/// Translates node-major signature rows through a rebuild's lit_map.
/// new row[nv] = old row[v] XOR complement-mask of lit_map[v]. Every new
/// variable must be covered by at least one preimage (rebuild only copies
/// old-cone nodes, so this holds for genuine rebuild maps), and multiple
/// preimages of one new var (strash merges) must agree on the translated
/// row — both are checked, returning nullopt on violation so the caller
/// can fall back to re-simulation. The constant and PI rows translate
/// like any other (PIs map to themselves in rebuild maps).
std::optional<Signatures> translate_signatures(
    const Signatures& old_sigs, const std::vector<aig::Lit>& lit_map,
    std::size_t new_num_nodes);

/// Drops the first n word-columns of every row in place (the signature
/// mirror of PatternBank::truncate_front).
void drop_front_words(Signatures& sigs, std::size_t n);

/// The engine's per-run incremental simulation state: one Signatures
/// matrix + one EcManager, kept in sync with (miter, bank) via sync(),
/// carried through rebuilds via apply_rebuild().
class IncrementalState {
 public:
  /// Whether the cached state is usable for the next sync's delta path.
  bool valid() const { return valid_; }
  /// Forces the next sync() onto the full re-simulation path.
  void invalidate() { valid_ = false; }

  /// Brings the cached signatures + classes up to date with (aig, bank)
  /// and returns the class manager. Delta path when the cache is valid,
  /// covers a prefix of the bank's stream window and the AIG shape is
  /// unchanged; full re-simulation + EcManager::build otherwise. The
  /// schedule, when given, must match `aig` (or be null).
  EcManager& sync(const aig::Aig& aig, const PatternBank& bank,
                  const aig::LevelSchedule* schedule = nullptr);

  /// Carries signatures + classes through a rebuild. Returns true when
  /// the translation succeeded (cache stays valid for the new AIG); false
  /// when it fell back (cache invalidated; next sync() re-simulates).
  /// Fallbacks from a previously-valid cache count into
  /// CarryStats::carry_fallbacks; calling on an already-invalid cache is
  /// a cheap no-op.
  bool apply_rebuild(const aig::Aig& new_aig,
                     const std::vector<aig::Lit>& lit_map);

  const EcManager& ec() const { return ec_; }
  EcManager& ec() { return ec_; }
  const Signatures& signatures() const { return sigs_; }
  const CarryStats& stats() const { return stats_; }

 private:
  bool valid_ = false;
  std::size_t num_nodes_ = 0;  ///< node count of the AIG the cache is for
  /// Stream index (PatternBank::start_index units) of cached column 0.
  std::uint64_t covered_start_ = 0;
  Signatures sigs_;
  EcManager ec_;
  CarryStats stats_;
};

}  // namespace simsweep::sim
