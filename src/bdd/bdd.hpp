#pragma once
/// \file bdd.hpp
/// \brief Reduced Ordered Binary Decision Diagrams (Bryant 1986).
///
/// BDDs were the workhorse of early CEC (paper §I) and serve here as a
/// third engine in the portfolio checker. The implementation is a classic
/// unique-table + computed-table ROBDD package without complement edges
/// or garbage collection: nodes live until the manager dies, and a node
/// limit turns the notorious memory blow-up into a clean BddOverflow
/// (callers report kUndecided). An optional stop token is polled every
/// 4096 node constructions inside the apply recursion and ends a
/// runaway operation along the same BddOverflow path.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "fault/governor.hpp"

namespace simsweep::bdd {

/// Thrown when the node limit is exceeded or the stop token fires;
/// callers treat the check as undecided.
struct BddOverflow : std::runtime_error {
  BddOverflow() : std::runtime_error("BDD node limit exceeded or stopped") {}
};

class BddManager {
 public:
  /// A BDD node reference. 0 = constant false, 1 = constant true.
  using Ref = std::uint32_t;
  static constexpr Ref kFalse = 0;
  static constexpr Ref kTrue = 1;

  /// `stop` (may be null) must outlive the manager's operations.
  explicit BddManager(unsigned num_vars,
                      std::size_t node_limit = std::size_t{1} << 22,
                      const fault::StopToken* stop = nullptr);

  unsigned num_vars() const { return num_vars_; }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// The projection function of variable v (must be < num_vars).
  Ref var(unsigned v);

  Ref apply_and(Ref f, Ref g);
  Ref apply_or(Ref f, Ref g) {
    return negate(apply_and(negate(f), negate(g)));
  }
  Ref apply_xor(Ref f, Ref g);
  Ref negate(Ref f);
  Ref ite(Ref f, Ref g, Ref h);

  bool is_const(Ref f) const { return f <= 1; }

  /// One satisfying assignment (values for all num_vars variables,
  /// unconstrained ones 0), or nullopt if f == false.
  std::optional<std::vector<bool>> satisfy_one(Ref f) const;

  /// Number of satisfying assignments over all num_vars variables.
  double sat_count(Ref f) const;

  /// Evaluates f under a complete assignment.
  bool evaluate(Ref f, const std::vector<bool>& assignment) const;

  /// Number of BDD nodes in the DAG rooted at f (terminals excluded).
  std::size_t dag_size(Ref f) const;

  /// True iff some node of f branches on a variable >= bound (used by
  /// BDD sweeping to detect cutpoint-polluted functions).
  bool uses_var_at_or_above(Ref f, std::uint32_t bound) const;

 private:
  struct Node {
    std::uint32_t var;  ///< branching variable (top-most in the order)
    Ref low, high;
  };

  Ref make_node(std::uint32_t v, Ref low, Ref high);
  std::uint32_t top_var(Ref f) const {
    return is_const(f) ? num_vars_ : nodes_[f].var;
  }

  static std::uint64_t triple_key(std::uint64_t a, std::uint64_t b,
                                  std::uint64_t c) {
    std::uint64_t h = a * 0x9E3779B97F4A7C15ULL;
    h ^= b + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h = h * 0xFF51AFD7ED558CCDULL + c;
    return h;
  }

  /// Direct-mapped operation cache with full-key verification (a plain
  /// hash-keyed map could silently return a wrong node on collision).
  struct CacheEntry {
    std::uint64_t op = ~std::uint64_t{0};
    Ref f = 0, g = 0, h = 0;
    Ref result = 0;
  };
  bool cache_lookup(std::uint64_t op, Ref f, Ref g, Ref h, Ref& out) const;
  void cache_store(std::uint64_t op, Ref f, Ref g, Ref h, Ref result);

  /// Exact-keyed unique table (canonicity must never depend on a hash).
  struct UniqueKey {
    std::uint32_t var;
    Ref low, high;
    bool operator==(const UniqueKey&) const = default;
  };
  struct UniqueKeyHash {
    std::size_t operator()(const UniqueKey& k) const {
      return static_cast<std::size_t>(
          triple_key(k.var, k.low, k.high));
    }
  };

  unsigned num_vars_;
  std::size_t node_limit_;
  const fault::StopToken* stop_;
  std::uint32_t make_calls_ = 0;  ///< stop-poll amortization counter
  std::vector<Node> nodes_;  // [0], [1] are placeholder terminals
  std::unordered_map<UniqueKey, Ref, UniqueKeyHash> unique_;
  std::vector<CacheEntry> cache_;
  std::vector<Ref> var_refs_;
};

}  // namespace simsweep::bdd
