#include "bdd/bdd_sweep.hpp"

#include <unordered_map>

#include "aig/rebuild.hpp"
#include "bdd/bdd.hpp"
#include "common/timer.hpp"

namespace simsweep::bdd {

BddSweepResult bdd_sweep_miter(const aig::Aig& miter,
                               const BddSweepParams& params) {
  Timer t;
  BddSweepResult result;
  auto finish = [&](Verdict v) {
    result.verdict = v;
    result.seconds = t.seconds();
    return result;
  };
  if (aig::miter_disproved(miter)) return finish(Verdict::kNotEquivalent);
  if (aig::miter_proved(miter)) return finish(Verdict::kEquivalent);

  // Variable space: PIs first, then one potential cutpoint variable per
  // AND node (allocated lazily by var()).
  const unsigned num_pis = miter.num_pis();
  const unsigned max_vars =
      num_pis + static_cast<unsigned>(miter.num_ands());
  const fault::StopToken stop = params.stop.child(params.time_limit);
  BddManager mgr(max_vars, params.manager_limit, &stop);
  unsigned next_cutpoint = num_pis;

  std::vector<BddManager::Ref> ref(miter.num_nodes(), BddManager::kFalse);
  // Merge detection: BDD ref -> first variable computing it.
  std::unordered_map<BddManager::Ref, aig::Var> seen;

  try {
    for (unsigned i = 0; i < num_pis; ++i) {
      ref[i + 1] = mgr.var(i);
      seen.emplace(ref[i + 1], i + 1);
    }
    auto lit_ref = [&](aig::Lit l) {
      const BddManager::Ref r = ref[aig::lit_var(l)];
      return aig::lit_compl(l) ? mgr.negate(r) : r;
    };

    for (aig::Var v = num_pis + 1; v < miter.num_nodes(); ++v) {
      BddManager::Ref r =
          mgr.apply_and(lit_ref(miter.fanin0(v)), lit_ref(miter.fanin1(v)));
      if (mgr.dag_size(r) > params.node_size_limit) {
        // Cutpoint: re-express this node as a fresh variable.
        r = mgr.var(next_cutpoint++);
        ++result.cutpoints;
      } else if (const auto it = seen.find(r); it != seen.end()) {
        ++result.merged_nodes;  // functionally identical to it->second
      } else if (seen.count(mgr.negate(r))) {
        ++result.merged_nodes;  // complementary merge
      } else {
        seen.emplace(r, v);
      }
      ref[v] = r;
    }
    result.peak_bdd_nodes = mgr.num_nodes();

    bool all_zero = true;
    for (aig::Lit po : miter.pos()) {
      const BddManager::Ref r = lit_ref(po);
      if (r == BddManager::kFalse) continue;
      all_zero = false;
      // A non-zero PO disproves only if no cutpoint variable is involved
      // (cutpoints over-approximate reachability).
      if (!mgr.uses_var_at_or_above(r, num_pis)) {
        auto assignment = mgr.satisfy_one(r);
        assignment->resize(num_pis);
        result.cex = std::move(assignment);
        return finish(Verdict::kNotEquivalent);
      }
    }
    return finish(all_zero ? Verdict::kEquivalent : Verdict::kUndecided);
  } catch (const BddOverflow&) {
    result.peak_bdd_nodes = mgr.num_nodes();
    return finish(Verdict::kUndecided);
  }
}

}  // namespace simsweep::bdd
