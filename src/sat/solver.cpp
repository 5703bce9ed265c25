#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace simsweep::sat {

Solver::Solver() = default;

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  polarity_.push_back(1);  // MiniSat default: branch negative first
  activity_.push_back(0.0);
  level_.push_back(0);
  reason_.push_back(kCRefUndef);
  seen_.push_back(0);
  heap_pos_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

bool Solver::add_clause(std::vector<Lit> lits) {
  assert(decision_level() == 0);
  if (!ok_) return false;

  // Normalize: sort, drop duplicates and false literals, detect tautology
  // and satisfied clauses.
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.x < b.x; });
  std::vector<Lit> out;
  out.reserve(lits.size());
  Lit prev = lit_undef;
  for (Lit p : lits) {
    if (value(p) == LBool::kTrue || p == ~prev) return true;  // satisfied
    if (value(p) != LBool::kFalse && p != prev) {
      out.push_back(p);
      prev = p;
    }
  }

  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    uncheck_enqueue(out[0], kCRefUndef);
    ok_ = (propagate() == kCRefUndef);
    return ok_;
  }
  const CRef cr = static_cast<CRef>(clauses_.size());
  clauses_.push_back(Clause{std::move(out), 0, false, false});
  attach(cr);
  return true;
}

void Solver::attach(CRef cr) {
  const Clause& c = clauses_[cr];
  assert(c.lits.size() >= 2);
  watches_[(~c.lits[0]).x].push_back(Watcher{cr, c.lits[1]});
  watches_[(~c.lits[1]).x].push_back(Watcher{cr, c.lits[0]});
}

void Solver::detach(CRef cr) {
  const Clause& c = clauses_[cr];
  for (Lit w : {c.lits[0], c.lits[1]}) {
    auto& ws = watches_[(~w).x];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == cr) {
        ws[i] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::uncheck_enqueue(Lit p, CRef from) {
  assert(value(p) == LBool::kUndef);
  assigns_[var(p)] = sign(p) ? LBool::kFalse : LBool::kTrue;
  level_[var(p)] = decision_level();
  reason_[var(p)] = from;
  trail_.push_back(p);
}

Solver::CRef Solver::propagate() {
  CRef confl = kCRefUndef;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++propagations;
    auto& ws = watches_[p.x];
    std::size_t i = 0, j = 0;
    while (i < ws.size()) {
      // Blocker check: clause already satisfied.
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause& c = clauses_[w.cref];
      // Normalize so the false watch is lits[1].
      const Lit false_lit = ~p;
      if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
      assert(c.lits[1] == false_lit);
      ++i;

      const Lit first = c.lits[0];
      if (first != w.blocker && value(first) == LBool::kTrue) {
        ws[j++] = Watcher{w.cref, first};
        continue;
      }
      // Find a new literal to watch.
      bool found = false;
      for (std::size_t k = 2; k < c.lits.size(); ++k) {
        if (value(c.lits[k]) != LBool::kFalse) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[(~c.lits[1]).x].push_back(Watcher{w.cref, first});
          found = true;
          break;
        }
      }
      if (found) continue;

      // Clause is unit or conflicting.
      ws[j++] = Watcher{w.cref, first};
      if (value(first) == LBool::kFalse) {
        confl = w.cref;
        qhead_ = trail_.size();
        while (i < ws.size()) ws[j++] = ws[i++];
      } else {
        uncheck_enqueue(first, w.cref);
      }
    }
    ws.resize(j);
    if (confl != kCRefUndef) break;
  }
  return confl;
}

void Solver::analyze(CRef confl, std::vector<Lit>& out_learnt,
                     int& out_btlevel) {
  out_learnt.clear();
  out_learnt.push_back(lit_undef);  // slot for the asserting literal
  int path_count = 0;
  Lit p = lit_undef;
  std::size_t index = trail_.size();

  do {
    assert(confl != kCRefUndef);
    Clause& c = clauses_[confl];
    if (c.learnt) cla_bump(c);
    const std::size_t start = (p == lit_undef) ? 0 : 1;
    for (std::size_t k = start; k < c.lits.size(); ++k) {
      const Lit q = c.lits[k];
      if (!seen_[var(q)] && level_[var(q)] > 0) {
        var_bump(var(q));
        seen_[var(q)] = 1;
        if (level_[var(q)] >= decision_level())
          ++path_count;
        else
          out_learnt.push_back(q);
      }
    }
    // Next literal on the trail that is marked.
    while (!seen_[var(trail_[--index])]) {}
    p = trail_[index];
    confl = reason_[var(p)];
    seen_[var(p)] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Conflict-clause minimization (local): drop literals implied by the
  // remaining clause via their reason clauses.
  std::vector<Lit> minimized;
  minimized.push_back(out_learnt[0]);
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    const Lit q = out_learnt[i];
    const CRef r = reason_[var(q)];
    bool redundant = false;
    if (r != kCRefUndef) {
      redundant = true;
      for (const Lit l : clauses_[r].lits) {
        if (l == ~q) continue;
        if (!seen_[var(l)] && level_[var(l)] > 0) {
          redundant = false;
          break;
        }
      }
    }
    if (!redundant) minimized.push_back(q);
  }
  out_learnt = std::move(minimized);

  // Backtrack level: second-highest level in the learnt clause.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i)
      if (level_[var(out_learnt[i])] > level_[var(out_learnt[max_i])])
        max_i = i;
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level_[var(out_learnt[1])];
  }

  for (const Lit q : out_learnt) seen_[var(q)] = 0;
  // seen_ for literals dropped by minimization must also be cleared.
  std::fill(seen_.begin(), seen_.end(), 0);
}

void Solver::cancel_until(int level) {
  if (decision_level() <= level) return;
  for (int i = static_cast<int>(trail_.size()) - 1; i >= trail_lim_[level];
       --i) {
    const Var v = var(trail_[i]);
    polarity_[v] = static_cast<std::uint8_t>(sign(trail_[i]));
    assigns_[v] = LBool::kUndef;
    reason_[v] = kCRefUndef;
    if (!heap_contains(v)) heap_insert(v);
  }
  trail_.resize(trail_lim_[level]);
  trail_lim_.resize(level);
  qhead_ = trail_.size();
}

Lit Solver::pick_branch_lit() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (value(v) == LBool::kUndef)
      return mk_lit(v, polarity_[v]);
  }
  return lit_undef;
}

void Solver::var_bump(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_contains(v)) heap_update(v);
}

void Solver::cla_bump(Clause& c) {
  c.activity += static_cast<float>(cla_inc_);
  if (c.activity > 1e20f) {
    for (const CRef cr : learnts_) clauses_[cr].activity *= 1e-20f;
    cla_inc_ *= 1e-20;
  }
}

void Solver::reduce_db() {
  // Keep the more active half of learnt clauses; never remove reasons.
  std::vector<CRef> sorted = learnts_;
  std::sort(sorted.begin(), sorted.end(), [this](CRef a, CRef b) {
    return clauses_[a].activity < clauses_[b].activity;
  });
  const std::size_t limit = sorted.size() / 2;
  for (std::size_t i = 0; i < limit; ++i) {
    Clause& c = clauses_[sorted[i]];
    if (c.lits.size() <= 2) continue;
    const Var v0 = var(c.lits[0]);
    if (reason_[v0] == sorted[i] && value(c.lits[0]) == LBool::kTrue)
      continue;  // locked
    detach(sorted[i]);
    c.removed = true;
  }
  std::erase_if(learnts_,
                [this](CRef cr) { return clauses_[cr].removed; });
}

std::uint32_t Solver::luby(std::uint32_t i) {
  // Finite subsequence length containing index i, MiniSat's formulation.
  std::uint32_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i = i % size;
  }
  return std::uint32_t{1} << seq;
}

Solver::Result Solver::search(std::int64_t conflict_budget,
                              const std::vector<Lit>& assumptions) {
  std::uint64_t restart_round = 0;
  std::uint64_t conflicts_this_call = 0;
  std::uint64_t next_restart = 100 * luby(0);

  std::vector<Lit> learnt;
  for (;;) {
    const CRef confl = propagate();
    if (confl != kCRefUndef) {
      ++conflicts;
      ++conflicts_this_call;
      if (decision_level() == 0) {
        ok_ = false;
        return Result::kUnsat;
      }
      int bt_level = 0;
      analyze(confl, learnt, bt_level);
      // Never backtrack past the assumption levels unsafely: if the learnt
      // clause asserts at a level below the assumptions, replay happens
      // naturally because assumptions are re-decided after backtracking.
      cancel_until(bt_level);
      if (learnt.size() == 1) {
        uncheck_enqueue(learnt[0], kCRefUndef);
      } else {
        const CRef cr = static_cast<CRef>(clauses_.size());
        clauses_.push_back(Clause{learnt, 0, true, false});
        learnts_.push_back(cr);
        cla_bump(clauses_[cr]);
        attach(cr);
        uncheck_enqueue(learnt[0], cr);
      }
      var_decay();
      cla_decay();

      if (conflict_budget >= 0 &&
          conflicts_this_call >=
              static_cast<std::uint64_t>(conflict_budget)) {
        cancel_until(0);
        return Result::kUnknown;
      }
      if ((conflicts_this_call & 0xFF) == 0 && stop != nullptr &&
          stop->stop_requested()) {
        cancel_until(0);
        return Result::kUnknown;
      }
      if (conflicts_this_call >= next_restart) {
        ++restarts;
        ++restart_round;
        next_restart =
            conflicts_this_call +
            100 * luby(static_cast<std::uint32_t>(restart_round));
        cancel_until(0);
      }
      if (learnts_.size() >= max_learnts_) {
        reduce_db();
        max_learnts_ = max_learnts_ * 3 / 2;
      }
      continue;
    }

    // No conflict: extend the assignment.
    if (static_cast<std::size_t>(decision_level()) < assumptions.size()) {
      const Lit p = assumptions[decision_level()];
      if (value(p) == LBool::kTrue) {
        new_decision_level();  // dummy level, already satisfied
        continue;
      }
      if (value(p) == LBool::kFalse) return Result::kUnsat;
      ++decisions;
      new_decision_level();
      uncheck_enqueue(p, kCRefUndef);
      continue;
    }

    const Lit next = pick_branch_lit();
    if (next == lit_undef) {
      // Complete model.
      model_.assign(assigns_.begin(), assigns_.end());
      return Result::kSat;
    }
    ++decisions;
    new_decision_level();
    uncheck_enqueue(next, kCRefUndef);
  }
}

Solver::Result Solver::solve(const std::vector<Lit>& assumptions,
                             std::int64_t conflict_budget) {
  if (!ok_) return Result::kUnsat;
  cancel_until(0);
  const Result r = search(conflict_budget, assumptions);
  cancel_until(0);
  return r;
}

void Solver::heap_insert(Var v) {
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_pos_[v]);
}

void Solver::heap_update(Var v) { heap_sift_up(heap_pos_[v]); }

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heap_pos_[heap_[0]] = 0;
    heap_.pop_back();
    heap_sift_down(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

void Solver::heap_sift_up(int i) {
  const Var v = heap_[i];
  while (i > 0) {
    const int parent = (i - 1) >> 1;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

void Solver::heap_sift_down(int i) {
  const Var v = heap_[i];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[heap_[child + 1]] > activity_[heap_[child]])
      ++child;
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

}  // namespace simsweep::sat
