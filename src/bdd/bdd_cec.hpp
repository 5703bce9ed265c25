#pragma once
/// \file bdd_cec.hpp
/// \brief BDD-based combinational equivalence checking.
///
/// Builds the miter's PO functions as BDDs (variable order = PI index
/// order, AIG nodes memoized so shared logic is built once) and declares
/// equivalence iff every PO reduces to the constant-false node. The node
/// limit converts BDD memory blow-up (the reason SAT displaced BDDs for
/// CEC, paper §I) into a kUndecided verdict, which is exactly the behavior
/// the portfolio checker needs.

#include <optional>
#include <vector>

#include "aig/aig.hpp"
#include "aig/miter.hpp"
#include "common/verdict.hpp"
#include "fault/governor.hpp"

namespace simsweep::bdd {

struct BddCecParams {
  std::size_t node_limit = std::size_t{1} << 22;
  /// Wall-clock cap in seconds; 0 = unbounded. Applied once at entry as
  /// stop.child(time_limit).
  double time_limit = 0;
  /// Stop token (portfolio use), polled inside the BDD apply recursion.
  fault::StopToken stop;
};

struct BddCecResult {
  Verdict verdict = Verdict::kUndecided;
  std::optional<std::vector<bool>> cex;
  std::size_t peak_nodes = 0;
  double seconds = 0;
};

BddCecResult bdd_check_miter(const aig::Aig& miter,
                             const BddCecParams& params = {});

inline BddCecResult bdd_check(const aig::Aig& a, const aig::Aig& b,
                              const BddCecParams& params = {}) {
  return bdd_check_miter(aig::make_miter(a, b), params);
}

}  // namespace simsweep::bdd
