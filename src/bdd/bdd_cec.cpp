#include "bdd/bdd_cec.hpp"

#include "bdd/bdd.hpp"
#include "common/timer.hpp"

namespace simsweep::bdd {

BddCecResult bdd_check_miter(const aig::Aig& miter,
                             const BddCecParams& params) {
  Timer t;
  BddCecResult result;
  auto finish = [&](Verdict v, std::size_t nodes) {
    result.verdict = v;
    result.peak_nodes = nodes;
    result.seconds = t.seconds();
    return result;
  };

  const fault::StopToken stop = params.stop.child(params.time_limit);
  BddManager mgr(miter.num_pis(), params.node_limit, &stop);
  std::vector<BddManager::Ref> ref(miter.num_nodes(), BddManager::kFalse);
  try {
    for (unsigned i = 0; i < miter.num_pis(); ++i) ref[i + 1] = mgr.var(i);
    auto lit_ref = [&](aig::Lit l) {
      const BddManager::Ref r = ref[aig::lit_var(l)];
      return aig::lit_compl(l) ? mgr.negate(r) : r;
    };
    for (aig::Var v = miter.num_pis() + 1; v < miter.num_nodes(); ++v) {
      ref[v] = mgr.apply_and(lit_ref(miter.fanin0(v)),
                             lit_ref(miter.fanin1(v)));
    }
    for (aig::Lit po : miter.pos()) {
      const BddManager::Ref r = lit_ref(po);
      if (r != BddManager::kFalse) {
        result.cex = mgr.satisfy_one(r);
        return finish(Verdict::kNotEquivalent, mgr.num_nodes());
      }
    }
    return finish(Verdict::kEquivalent, mgr.num_nodes());
  } catch (const BddOverflow&) {
    return finish(Verdict::kUndecided, mgr.num_nodes());
  }
}

}  // namespace simsweep::bdd
