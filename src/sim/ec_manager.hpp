#pragma once
/// \file ec_manager.hpp
/// \brief Equivalence-class management and candidate-pair generation
/// (paper §II-B, §III-A).
///
/// Nodes with equal partial-simulation signatures are clustered into an
/// equivalence class (EC); candidate pairs are (representative,
/// non-representative) with the representative being the minimum-id member.
/// Signatures are canonicalized by their first pattern bit so a class also
/// captures complemented equivalences (n == !m); each member carries a
/// phase bit relative to the class canon.
///
/// The constant node (var 0) participates, so "node == constant" facts —
/// including miter POs being constant 0 — are ordinary candidate pairs.

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "sim/partial_sim.hpp"

namespace simsweep::sim {

/// A candidate pair: prove node == repr (phase=0) or node == !repr
/// (phase=1). repr < node always holds.
struct CandidatePair {
  aig::Var repr = 0;
  aig::Var node = 0;
  bool phase = false;
};

/// Lifetime telemetry of one EcManager (published by the engine phases
/// under `ec.*`). Plain counters: the manager is single-threaded.
struct EcStats {
  std::uint64_t builds = 0;         ///< build() calls
  std::uint64_t refines = 0;        ///< refine() calls
  std::uint64_t classes_built = 0;  ///< Σ classes after each build()
  /// Classes a refine() split into ≥2 surviving sub-classes.
  std::uint64_t class_splits = 0;
  /// Classes a refine() dissolved entirely (no surviving sub-class).
  std::uint64_t classes_dissolved = 0;
};

class EcManager {
 public:
  /// Builds classes from scratch: nodes with equal canonicalized
  /// signatures share a class. Singleton classes are discarded.
  void build(const aig::Aig& aig, const Signatures& sigs);

  /// Splits existing classes using additional signature words (CEX
  /// refinement). `sigs` must cover the same AIG the classes were built
  /// on. Members of a class already agree on every word they were built
  /// or refined with, so `sigs` need only hold the new words: the result
  /// is the partition a build() over all the words would give. Classes
  /// that become singletons are discarded.
  void refine(const Signatures& sigs);

  /// All current candidate pairs: for every class of N members, the N-1
  /// pairs (representative, other).
  std::vector<CandidatePair> candidate_pairs() const;

  /// Marks a pair as proved; it will not be produced again. (Used between
  /// checking batches within one phase. After a miter rebuild the manager
  /// must be rebuilt anyway because variable ids change.)
  void mark_proved(aig::Var node);

  /// Drops `node` from its class (e.g. disproved against the
  /// representative by an exhaustive check; normally CEX refinement does
  /// this implicitly, but pairs disproved without a recorded CEX —
  /// multi-round mismatches — need the explicit form).
  void remove_node(aig::Var node);

  std::size_t num_classes() const { return classes_.size(); }
  const std::vector<std::vector<aig::Var>>& classes() const {
    return classes_;
  }
  /// Phase of a node relative to its class canon (meaningful only for
  /// nodes currently in some class).
  bool phase(aig::Var v) const { return phase_[v]; }

  /// Lifetime build/refine telemetry (survives build() resets).
  const EcStats& stats() const { return stats_; }

 private:
  std::vector<std::vector<aig::Var>> classes_;  // each sorted ascending
  std::vector<std::uint8_t> phase_;
  std::vector<std::uint8_t> removed_;
  EcStats stats_;
};

}  // namespace simsweep::sim
