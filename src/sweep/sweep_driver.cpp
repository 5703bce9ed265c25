#include "sweep/sweep_driver.hpp"

#include <algorithm>
#include <optional>

#include "common/log.hpp"
#include "common/timer.hpp"

namespace simsweep::sweep::detail {
namespace {

/// EC-initialization bank: params.sim_words random words extended with
/// the transferred initial_bank (§V EC transfer) and truncated to
/// max_pattern_words.
sim::PatternBank make_init_bank(unsigned num_pis,
                                const SweeperParams& params) {
  sim::PatternBank bank =
      sim::PatternBank::random(num_pis, params.sim_words, params.seed);
  if (params.initial_bank != nullptr &&
      params.initial_bank->num_pis() == num_pis) {
    bank.append_bank(*params.initial_bank);
    bank.truncate_front(params.max_pattern_words);
  }
  return bank;
}

/// Simulation-first resolution (paper §I): exhaustively simulating both
/// cones over their combined support window is a *complete* check — no
/// SAT call, no conflicts, and a pure function of the miter.
PairOutcome simulate_pair(const aig::Aig& miter, aig::Lit lr, aig::Lit ln,
                          const std::vector<aig::Var>& window) {
  PairOutcome o{PairOutcome::Kind::kEqual, /*via_sim=*/true, {}};
  const tt::TruthTable tr = aig::cone_truth_table(miter, lr, window);
  const tt::TruthTable tn = aig::cone_truth_table(miter, ln, window);
  if (tr == tn) return o;
  // First differing minterm, expanded to a full-width CEX: window PI k
  // takes bit k of the minterm index, every PI outside the window is a
  // don't-care held at 0.
  const tt::TruthTable diff = tr ^ tn;
  std::uint64_t idx = 0;
  while (!diff.get_bit(idx)) ++idx;
  o.cex.assign(miter.num_pis(), false);
  for (std::size_t k = 0; k < window.size(); ++k)
    o.cex[window[k] - 1] = (idx >> k) & 1;
  o.kind = PairOutcome::Kind::kDistinct;
  return o;
}

/// Persistent-core round strategy (SatSweeper and the sweep_miter()
/// fallback): ONE long-lived SAT core for the whole run. Cones are
/// encoded verbatim (no substitution map attached) and proved merges are
/// reinforced with equality clauses, so the solver keeps every learned
/// fact across pairs and rounds.
class PersistentCore final : public RoundStrategy {
 public:
  PersistentCore(const aig::Aig& miter, const SweeperParams& params,
                 const fault::StopToken& stop)
      : miter_(miter), params_(params), stop_(stop), core_(miter) {
    core_.set_interrupt(&stop);
  }

  std::vector<PairOutcome> check_round(
      const std::vector<sim::CandidatePair>& pairs,
      const aig::SubstitutionMap& /*subst*/, SweeperStats& stats) override {
    std::vector<PairOutcome> outcomes(pairs.size());
    outcomes.resize(check_pairs(miter_, params_, stop_, core_, nullptr,
                                nullptr, pairs, outcomes));
    core_.charge(stats);
    return outcomes;
  }

  PairSolver* persistent_core() override { return &core_; }

 private:
  const aig::Aig& miter_;
  const SweeperParams& params_;
  const fault::StopToken& stop_;
  PairSolver core_;
};

}  // namespace

std::size_t check_pairs(const aig::Aig& miter, const SweeperParams& params,
                        const fault::StopToken& stop, PairSolver& ps,
                        aig::SubstitutionMap* local,
                        const aig::SupportInfo* supports,
                        std::span<const sim::CandidatePair> pairs,
                        std::span<PairOutcome> outcomes) {
  std::size_t checked = 0;
  while (checked < pairs.size() && !stop.stop_requested()) {
    const sim::CandidatePair& pair = pairs[checked];
    PairOutcome& o = outcomes[checked++];
    const aig::Lit lr = aig::make_lit(pair.repr, pair.phase);
    const aig::Lit ln = aig::make_lit(pair.node);
    std::vector<aig::Var> window;
    if (supports != nullptr && supports->small(pair.repr) &&
        supports->small(pair.node))
      window = aig::sorted_union(supports->sets[pair.repr],
                                 supports->sets[pair.node]);
    if (!window.empty() && window.size() <= params.sim_support_limit) {
      o = simulate_pair(miter, lr, ln, window);
    } else {
      const auto r = ps.check_pair(lr, ln, params.conflict_limit);
      if (r == PairSolver::Outcome::kEqual) {
        ps.assert_equal(lr, ln);
        o.kind = PairOutcome::Kind::kEqual;
      } else if (r == PairSolver::Outcome::kDistinct) {
        o.cex = ps.model_cex();
        o.kind = PairOutcome::Kind::kDistinct;
      }
    }
    // Later cones of this chunk collapse through the proved merge.
    if (o.kind == PairOutcome::Kind::kEqual && local != nullptr)
      local->merge(pair.node, lr);
    if (ps.inconsistent()) break;
  }
  return checked;
}

SweepResult run_sweep(const aig::Aig& miter, const SweeperParams& params,
                      const fault::StopToken& stop, RoundStrategy& strategy) {
  const Timer clock;
  SweepResult result;
  SweeperStats& stats = result.stats;
  auto finish = [&](Verdict v) {
    result.verdict = v;
    stats.seconds = clock.seconds();
    return result;
  };

  if (aig::miter_disproved(miter)) return finish(Verdict::kNotEquivalent);
  if (aig::miter_proved(miter)) return finish(Verdict::kEquivalent);

  // EC initialization by partial random simulation, extended with any
  // transferred patterns. A resume restores the crashed run's accumulated
  // bank instead: building classes over the full bank reproduces its
  // refined partition exactly (DESIGN.md §2.8).
  const SweepResumeState* resume = params.resume;
  const bool resuming = resume != nullptr && resume->bank &&
                        resume->bank->num_pis() == miter.num_pis();
  sim::PatternBank bank =
      resuming ? *resume->bank : make_init_bank(miter.num_pis(), params);
  sim::EcManager ec;
  ec.build(miter, sim::simulate(miter, bank));
  aig::SubstitutionMap subst(miter.num_nodes());

  // Round-barrier journal: what a resumed run replays.
  std::vector<std::pair<aig::Var, aig::Lit>> merges;
  std::vector<aig::Var> removed;
  unsigned start_round = 0;
  if (resuming) {
    for (const auto& [node, lit] : resume->merges) {
      subst.merge(node, lit);
      ec.mark_proved(node);
      if (PairSolver* core = strategy.persistent_core())
        core->assert_equal(lit, aig::make_lit(node));
    }
    for (aig::Var v : resume->removed) ec.remove_node(v);
    merges = resume->merges;
    removed = resume->removed;
    stats.pairs_proved = resume->pairs_proved;
    stats.pairs_disproved = resume->pairs_disproved;
    stats.pairs_undecided = resume->pairs_undecided;
    start_round = resume->next_round;
  }

  for (unsigned round = start_round; round < params.max_rounds; ++round) {
    std::vector<sim::CandidatePair> pairs = ec.candidate_pairs();
    if (pairs.empty()) break;
    if (stop.stop_requested()) return finish(Verdict::kUndecided);
    // Topological (ascending node id) order: proofs of small cones come
    // first and help the bigger ones.
    std::sort(pairs.begin(), pairs.end(),
              [](const sim::CandidatePair& x, const sim::CandidatePair& y) {
                return x.node < y.node;
              });
    const std::vector<PairOutcome> outcomes =
        strategy.check_round(pairs, subst, stats);

    // Round barrier: outcomes are applied in pair order, so EC state,
    // substitution map and counters evolve the same way however the
    // strategy scheduled the checks.
    sim::CexCollector collector(miter.num_pis());
    std::vector<std::pair<unsigned, bool>> assignment;
    for (std::size_t p = 0; p < outcomes.size(); ++p) {
      const aig::Var node = pairs[p].node;
      const aig::Lit lr = aig::make_lit(pairs[p].repr, pairs[p].phase);
      const PairOutcome& o = outcomes[p];
      if (o.via_sim) ++stats.pairs_sim_resolved;
      switch (o.kind) {
        case PairOutcome::Kind::kEqual:
          subst.merge(node, lr);
          ec.mark_proved(node);
          merges.emplace_back(node, lr);
          ++stats.pairs_proved;
          break;
        case PairOutcome::Kind::kDistinct:
          ++stats.pairs_disproved;
          assignment.clear();
          for (unsigned i = 0; i < o.cex.size(); ++i)
            assignment.emplace_back(i, o.cex[i]);
          collector.add(assignment);
          break;
        case PairOutcome::Kind::kUnknown:
          ++stats.pairs_undecided;
          ec.remove_node(node);  // do not retry within this run
          removed.push_back(node);
          break;
      }
    }
    SIMSWEEP_LOG_INFO("sweep round %u: %zu pairs, %zu CEX", round,
                      outcomes.size(), collector.num_cexes());

    if (stop.stop_requested()) return finish(Verdict::kUndecided);
    if (collector.empty()) break;
    sim::PatternBank cex_bank(miter.num_pis(), 0);
    collector.flush_into(cex_bank);
    ec.refine(sim::simulate(miter, cex_bank));
    if (params.checkpoint_hook) {
      // Fold the round's CEX columns into the accumulated bank first so a
      // snapshot's bank re-derives exactly these refined classes. Hook
      // exceptions are swallowed: checkpointing never changes a verdict.
      bank.append_bank(cex_bank);
      stats.seconds = clock.seconds();
      const SweepCheckpointView view{&miter, round + 1, &merges,
                                     &removed, &bank,    &stats};
      try {
        params.checkpoint_hook(view);
      } catch (...) {
      }
    }
  }

  // Final PO proving on the substituted miter.
  std::optional<PairSolver> fresh;
  PairSolver* core = strategy.persistent_core();
  if (core == nullptr) core = &fresh.emplace(miter, &subst);
  core->set_interrupt(&stop);
  const Verdict verdict = [&] {
    bool all_proved = true;
    for (aig::Lit po : miter.pos()) {
      if (stop.stop_requested()) return Verdict::kUndecided;
      const aig::Lit r = subst.resolve(po);
      if (r == aig::kLitFalse) continue;
      if (r == aig::kLitTrue) return Verdict::kNotEquivalent;
      switch (core->prove_false(r, params.conflict_limit)) {
        case sat::Solver::Result::kUnsat:
          break;  // this PO is constant 0
        case sat::Solver::Result::kSat:
          result.cex = core->model_cex();
          return Verdict::kNotEquivalent;
        case sat::Solver::Result::kUnknown:
          all_proved = false;
          break;
      }
    }
    return all_proved ? Verdict::kEquivalent : Verdict::kUndecided;
  }();
  core->charge(stats);
  return finish(verdict);
}

SweepResult sweep_persistent(const aig::Aig& miter,
                             const SweeperParams& params,
                             const fault::StopToken& stop) {
  PersistentCore strategy(miter, params, stop);
  return run_sweep(miter, params, stop, strategy);
}

}  // namespace simsweep::sweep::detail

namespace simsweep::sweep {

SweepResult SatSweeper::check_miter(const aig::Aig& miter) const {
  return detail::sweep_persistent(miter, params_,
                                  params_.stop.child(params_.time_limit));
}

}  // namespace simsweep::sweep
