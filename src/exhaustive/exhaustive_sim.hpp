#pragma once
/// \file exhaustive_sim.hpp
/// \brief Parallel exhaustive simulation (paper Alg. 1, §III-B2).
///
/// Proves or disproves a batch of equivalence checks by computing and
/// comparing the *complete* truth tables of the checked literals over
/// their windows' inputs. Memory is capped: each simulation-table entry
/// holds E = 2^e words, with E chosen on the fly as the largest power of
/// two such that the whole table fits in the configured budget (Alg. 1
/// line 2); the full 2^k-bit tables are then covered by multiple rounds,
/// round r simulating word range [rE, (r+1)E).
///
/// The three dimensions of parallelism of paper Fig. 3 map to the CPU
/// substrate adaptively, per batch (see Params::strategy):
///  - window dimension: when the batch has many windows relative to the
///    executor width (or the executor is a single context), each worker
///    simulates whole windows serially — full level order, all rounds —
///    with zero cross-window barriers and maximal locality;
///  - level-batch dimension: when the batch has few large windows, each
///    round's kernel sequence (input projection -> level 1..L -> root
///    compare) is fused into ONE staged launch (parallel_stages) over
///    flattened per-level work lists, with lightweight internal barriers
///    instead of per-level submission handshakes;
///  - word dimension: the per-entry word loops are 4-wide unrolled
///    restrict-qualified kernels (common/word_kernels.hpp) — on a GPU
///    they would be the intra-warp thread dimension.

#include <cstdint>
#include <optional>
#include <vector>

#include "aig/aig.hpp"
#include "fault/governor.hpp"
#include "window/window.hpp"

namespace simsweep::obs {
class Registry;
}  // namespace simsweep::obs

namespace simsweep::exhaustive {

/// Which parallelism dimension check_batch uses (paper Fig. 3).
enum class Strategy : std::uint8_t {
  kAuto,            ///< pick per batch from batch shape and executor width
  kWindowParallel,  ///< always whole-window serial sweeps across windows
  kLevelStaged,     ///< always fused level-staged rounds
};

struct Params {
  /// Memory budget M for the simulation table, in 64-bit words (Alg. 1
  /// input). Default 2^22 words = 32 MiB.
  std::size_t memory_words = std::size_t{1} << 22;
  /// Soft cache-residency cap on the simulation table: the entry size E is
  /// halved (adding rounds) until slots*E fits in this many words. A purely
  /// performance-motivated refinement of Alg. 1 line 2 — the round
  /// decomposition changes, outcomes never do — that keeps the table
  /// streaming from cache instead of DRAM (measured ~2.8x on large-table
  /// batches). 0 disables the clamp. Default 2^17 words = 1 MiB.
  std::size_t cache_words = std::size_t{1} << 17;
  /// Whether to extract a counter-example pattern per disproved item.
  bool collect_cex = true;
  /// Cap on collected CEXs per batch (one per item at most).
  std::size_t max_cex = 256;
  /// Stop token (DESIGN.md §2.4): checked between rounds AND between the
  /// fused stages / window-rounds inside a round, so even long
  /// single-round batches stop promptly. A fired latch returns the batch
  /// with `cancelled` set; an expired deadline returns
  /// BatchFailure::kDeadline. Either way its outcomes MUST be ignored.
  fault::StopToken stop;
  /// Parallelism-dimension choice (see Strategy).
  Strategy strategy = Strategy::kAuto;
  /// Optional metrics sink. When set, check_batch publishes its batch
  /// telemetry under `exhaustive.*` with one relaxed atomic add per metric
  /// at batch end — the hot loops accumulate into locals either way, so a
  /// null sink costs nothing (DESIGN.md §2.3).
  obs::Registry* obs = nullptr;
  /// Optional process-level memory governor (DESIGN.md §2.4): the big
  /// simulation-table allocation is charged against it before it happens,
  /// and a denied charge returns BatchFailure::kMemoryBudget instead of
  /// allocating past the process budget.
  fault::MemoryLedger* ledger = nullptr;
};

enum class ItemStatus : std::uint8_t {
  kProved,    ///< truth tables identical over every round
  kDisproved  ///< a mismatching pattern exists (for local checking this
              ///< means *inconclusive*, see paper §III-C1)
};

/// A disproving input pattern, as window-input assignments.
struct Cex {
  std::uint32_t tag = 0;
  std::vector<std::pair<aig::Var, bool>> assignment;
};

/// Why a batch produced no outcomes (DESIGN.md §2.4). Every value except
/// kNone is recoverable: the caller's degradation ladder shrinks the
/// batch (halve M, split windows) and retries, or routes the items to the
/// sound undecided path.
enum class BatchFailure : std::uint8_t {
  kNone,          ///< batch completed; outcomes are valid
  kAlloc,         ///< simulation-table allocation threw bad_alloc
  kMemoryBudget,  ///< the memory ledger denied the table charge
  kDeadline,      ///< the stop token's deadline expired mid-batch
};

struct BatchResult {
  /// (tag, status) for every item of every window in the batch.
  std::vector<std::pair<std::uint32_t, ItemStatus>> outcomes;
  std::vector<Cex> cexes;
  /// Telemetry for the benches.
  std::size_t entry_words = 0;      ///< chosen E
  std::size_t rounds = 0;           ///< executed rounds
  std::size_t words_simulated = 0;  ///< Σ node-words computed
  bool window_parallel = false;     ///< dimension the batch actually used
  /// True iff params.stop's latch fired mid-batch; outcomes are then
  /// invalid.
  bool cancelled = false;
  /// Set when the batch failed recoverably; outcomes are then invalid
  /// (empty) and the caller decides between retry and undecided.
  BatchFailure failure = BatchFailure::kNone;
};

/// Checks every item of every window by exhaustive simulation. Windows
/// must have been produced by build_window() on this AIG.
BatchResult check_batch(const aig::Aig& aig,
                        const std::vector<window::Window>& windows,
                        const Params& params = {});

/// Convenience wrapper: single pair, global function checking over the
/// union of supports. Returns nullopt if `inputs` is not a valid cut.
struct PairCheck {
  ItemStatus status = ItemStatus::kProved;
  std::vector<std::pair<aig::Var, bool>> cex;  ///< set iff disproved
};
std::optional<PairCheck> check_pair(const aig::Aig& aig, aig::Lit a,
                                    aig::Lit b,
                                    const std::vector<aig::Var>& inputs,
                                    const Params& params = {});

}  // namespace simsweep::exhaustive
