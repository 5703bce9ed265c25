#pragma once
/// \file bdd_sweep.hpp
/// \brief BDD sweeping (Kuehlmann & Krohm, DAC'97 — the paper's ref [6]).
///
/// The historical predecessor of SAT sweeping: build size-bounded BDDs
/// for the miter nodes bottom-up; nodes whose BDDs become identical (or
/// complementary) are merged. When a node's BDD exceeds the size bound,
/// the node becomes a *cutpoint*: it gets a fresh BDD variable and later
/// logic is expressed over cutpoints instead of PIs. Cutpoints make the
/// method incomplete (a non-zero PO over cutpoint variables proves
/// nothing), so the verdict is kEquivalent / kUndecided / kNotEquivalent
/// (the latter only when a non-zero PO is expressed purely over PIs).
///
/// Included as the fourth portfolio engine and as a baseline for the
/// historical comparison in EXPERIMENTS.md.

#include <cstdint>
#include <optional>
#include <vector>

#include "aig/aig.hpp"
#include "aig/miter.hpp"
#include "common/verdict.hpp"
#include "fault/governor.hpp"

namespace simsweep::bdd {

struct BddSweepParams {
  /// A node whose BDD exceeds this size becomes a cutpoint.
  std::size_t node_size_limit = 2000;
  /// Total BDD-manager node cap (manager overflow => kUndecided).
  std::size_t manager_limit = std::size_t{1} << 22;
  /// Wall-clock cap in seconds; 0 = unbounded. Applied once at entry as
  /// stop.child(time_limit).
  double time_limit = 0;
  /// Stop token (portfolio use), polled inside the BDD apply recursion.
  fault::StopToken stop;
};

struct BddSweepResult {
  Verdict verdict = Verdict::kUndecided;
  std::optional<std::vector<bool>> cex;  ///< PI assignment when disproved
  std::size_t merged_nodes = 0;          ///< nodes merged by equal BDDs
  std::size_t cutpoints = 0;
  std::size_t peak_bdd_nodes = 0;
  double seconds = 0;
};

BddSweepResult bdd_sweep_miter(const aig::Aig& miter,
                               const BddSweepParams& params = {});

inline BddSweepResult bdd_sweep(const aig::Aig& a, const aig::Aig& b,
                                const BddSweepParams& params = {}) {
  return bdd_sweep_miter(aig::make_miter(a, b), params);
}

}  // namespace simsweep::bdd
