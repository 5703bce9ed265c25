#pragma once
/// \file engine.hpp
/// \brief The simulation-based CEC engine (paper §III, Fig. 1 / Fig. 5).
///
/// The engine proves combinational equivalence by exhaustive simulation
/// instead of SAT. Its flow (Fig. 5) is:
///
///   P  — PO checking: prove simulatable miter POs constant-0 directly in
///        terms of their global functions (thresholds k_P / k_p);
///   G  — global function checking: after equivalence classes are
///        initialized by partial random simulation, prove candidate node
///        pairs whose support-union size is at most k_g, collecting CEXs
///        that refine the classes;
///   L* — repeated local function checking phases, each consisting of
///        three cut-generation/checking passes (Table I criteria), until
///        the miter cannot be reduced further.
///
/// Proved pairs are merged by the miter manager (AIG rebuild) between
/// phases. If the miter is not fully reduced the engine returns
/// kUndecided together with the reduced miter, which a SAT-based checker
/// (sweep::SatSweeper here, ABC &cec in the paper) can finish.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "common/verdict.hpp"
#include "exhaustive/ladder.hpp"
#include "fault/governor.hpp"
#include "obs/registry.hpp"
#include "sim/ec_manager.hpp"
#include "sim/partial_sim.hpp"

namespace simsweep::engine {

using simsweep::Verdict;

/// Read-only view handed to EngineParams::checkpoint_hook at every phase
/// boundary of an undecided-but-continuing run (DESIGN.md §2.8). All
/// pointers alias host-thread engine state and are only valid for the
/// duration of the call — a hook that wants durability must copy.
struct EngineCheckpointView {
  const aig::Aig* miter = nullptr;           ///< current reduced miter
  const sim::PatternBank* bank = nullptr;    ///< null before first random sim
  /// The run report as if the run stopped at this boundary: the
  /// registry's totals plus this attempt's publish step, taken in a
  /// scratch registry (the registry itself is untouched).
  const obs::Snapshot* report = nullptr;
  const exhaustive::DegradeState* degrade = nullptr;
  const char* boundary = "";  ///< "P", "G", "L" or "G+" (escalated global)
};

struct EngineParams {
  // --- Paper §IV parameter values (defaults). ---
  unsigned k_P = 32;  ///< one-shot PO-checking support threshold
  unsigned k_p = 16;  ///< per-PO simulatable threshold (k_P > k_p)
  unsigned k_g = 16;  ///< global-checking support-union threshold
  unsigned k_l = 8;   ///< local-checking cut-size bound (<= cut::kMaxCutSize)
  unsigned num_cuts = 8;  ///< C, priority cuts per node

  /// Window merging (paper §III-B3); k_s is set per phase to the phase's
  /// support threshold, as in the paper's experiments.
  bool window_merging = true;

  // --- Engine knobs not named in the paper. ---
  std::size_t sim_words = 4;          ///< initial random pattern words
  std::uint64_t seed = 0x5EEDULL;     ///< random-simulation seed
  std::size_t memory_words = std::size_t{1} << 22;  ///< M (Alg. 1)
  std::size_t cut_buffer_capacity = std::size_t{1} << 14;  ///< Alg. 2 buffer
  unsigned max_cuts_per_pair = 8;
  unsigned max_global_iters = 16;    ///< CEX-refinement rounds in G
  unsigned max_local_phases = 4;     ///< cap on repeated L phases
  std::size_t max_pattern_words = 64;  ///< pattern-bank size cap
  std::size_t max_batch_windows = 4096;  ///< windows per exhaustive batch

  // --- Ablation switches (benches). ---
  bool enable_po_phase = true;
  bool enable_global_phase = true;
  std::array<bool, 3> local_passes{true, true, true};  ///< Table I passes

  // --- Paper §V (Discussion) extensions. ---
  /// Distance-1 CEX simulation [Mishchenko et al., ICCAD'06]: every
  /// collected CEX additionally contributes the patterns obtained by
  /// flipping each assigned support bit, improving EC refinement quality.
  bool distance1_cex = false;
  /// Adaptive L phases: a Table I pass that proves zero pairs in an L
  /// phase is disabled for the remaining phases (paper §V item 2).
  bool adaptive_passes = false;
  /// Simulation-guided pattern generation (paper refs [3], [20]): the
  /// initial pattern bank keeps only candidate words that split signature
  /// classes, reducing false candidate pairs for the same budget.
  bool quality_patterns = false;
  /// Graduated global checking: when the repeated L phases stop reducing
  /// the miter, raise the G-phase support threshold by k_g_step (up to
  /// k_P) and re-run global checking on the reduced miter. SDC-blocked
  /// local pairs often have moderate support unions that one bigger
  /// exhaustive-simulation round settles exactly. This is an extension in
  /// the spirit of the paper's two-threshold P phase (§III-D); disable
  /// for a flow that matches Fig. 5 literally.
  bool escalate_global = true;
  unsigned k_g_step = 4;
  /// Capture intermediate miters after the P and G phases (paper Fig. 7).
  bool capture_snapshots = false;

  /// Stop token (DESIGN.md §2.4): a cancel latch and/or an absolute
  /// deadline, checked between phases, between refinement iterations,
  /// between simulation rounds and at every pool chunk claim. When it
  /// fires the engine returns kUndecided with the current reduced miter.
  fault::StopToken stop;

  /// Wall-clock cap in seconds (0 = unbounded), applied once at entry as
  /// stop.child(time_limit), so expiry yields kUndecided with whatever
  /// reduction was achieved so far.
  double time_limit = 0;

  // --- Resource governor & degradation ladder (DESIGN.md §2.4). ---
  /// Per-phase wall-clock cap in seconds (0 = unbounded): each P/G/L
  /// phase polls the child token stop.child(phase_time_limit) taken on
  /// entry. Its expiry routes the phase's remaining work to the sound
  /// undecided path instead of cancelling the run.
  double phase_time_limit = 0;
  /// Process memory budget in bytes for the governed allocations
  /// (simulation tables; 0 = ungoverned). Ignored when memory_ledger is
  /// set. Denied charges are recoverable faults the ladder answers by
  /// halving M.
  std::uint64_t memory_budget_bytes = 0;
  /// External ledger to charge instead of an engine-private one — lets a
  /// portfolio share one process budget across racing attempts.
  fault::MemoryLedger* memory_ledger = nullptr;
  /// Degradation-ladder bound: retries per failing unit (batch or cut
  /// pass) with parameter backoff before its items are abandoned to the
  /// undecided path.
  unsigned max_fault_retries = 3;
  /// Floor for ladder-driven halving of memory_words.
  std::size_t min_memory_words = std::size_t{1} << 10;

  /// Optional metrics registry (DESIGN.md §2.3). When set, the engine and
  /// its phases add their sections (exhaustive.*, cut.*, ec.*, partial_sim.*,
  /// miter.*, engine.*, ...) into it, so a registry shared by several
  /// attempts holds their totals against the first attempt's miter. When
  /// null the engine uses a private registry so EngineResult::report is
  /// always populated.
  obs::Registry* registry = nullptr;

  // --- Checkpoint/resume (DESIGN.md §2.8). ---
  /// Invoked on the host thread at every phase boundary the flow passes
  /// through while still undecided, with a transient view of the current
  /// state. The ckpt layer installs a hook that snapshots and durably
  /// writes it. Exceptions thrown by the hook are swallowed: a failed
  /// checkpoint must never change the run's verdict.
  std::function<void(const EngineCheckpointView&)> checkpoint_hook;
  /// Resume entry: when set (and PI-compatible with the miter), the first
  /// phase that needs a pattern bank starts from a copy of this bank
  /// instead of a fresh random one, so a resumed run re-derives the
  /// crashed run's equivalence classes from its accumulated patterns.
  const sim::PatternBank* initial_bank = nullptr;
};

struct EngineStats {
  double po_seconds = 0;
  double global_seconds = 0;
  double local_seconds = 0;
  double other_seconds = 0;  ///< simulation init, EC building, rebuilds
  double total_seconds = 0;

  std::size_t initial_ands = 0;
  std::size_t final_ands = 0;
  std::size_t pos_total = 0;
  std::size_t pos_proved = 0;
  std::size_t pairs_proved_global = 0;
  std::size_t pairs_proved_local = 0;
  std::size_t pairs_disproved = 0;
  std::size_t cex_count = 0;
  std::size_t local_phases = 0;

  /// Miter size reduction achieved by the engine ("Reduced (%)" column of
  /// paper Table II). 100% means fully proved.
  double reduction_percent() const {
    if (initial_ands == 0) return 100.0;
    return 100.0 * (1.0 - static_cast<double>(final_ands) / initial_ands);
  }
};

struct EngineResult {
  Verdict verdict = Verdict::kUndecided;
  /// The reduced miter (empty of AND nodes iff fully proved).
  aig::Aig reduced;
  /// Disproving PI assignment when kNotEquivalent was established by a
  /// CEX. nullopt when disproof came from a constant-1 PO (any assignment
  /// disproves) — see EngineResult::cex comment in DESIGN.md.
  std::optional<std::vector<bool>> cex;
  EngineStats stats;
  /// Intermediate miters ("P", "PG") when capture_snapshots is set.
  std::vector<std::pair<std::string, aig::Aig>> snapshots;
  /// The engine's final PI pattern bank (random patterns + accumulated
  /// CEXs). Feeding it to the downstream SAT sweeper implements the
  /// paper's §V "EC transferring": pairs the engine disproved are
  /// separated by these patterns, so SAT never re-checks them.
  std::optional<sim::PatternBank> bank;
  /// Metric snapshot taken at the end of the run (the registry's state —
  /// the caller's if EngineParams::registry was set, else the engine's
  /// private one). Serialize with obs::to_json().
  obs::Snapshot report;
};

class SimCecEngine {
 public:
  explicit SimCecEngine(EngineParams params = {}) : params_(params) {}

  /// Checks the equivalence of two circuits (builds the miter internally).
  EngineResult check(const aig::Aig& a, const aig::Aig& b) const {
    return check_miter(aig::make_miter(a, b));
  }

  /// Runs the engine flow on a prebuilt miter (all POs must be intended
  /// constant 0).
  EngineResult check_miter(aig::Aig miter) const;

  const EngineParams& params() const { return params_; }

 private:
  EngineParams params_;
};

namespace detail {

/// Shared state threaded through the phase implementations.
///
/// Concurrency contract: EngineContext is owned by the single host thread
/// driving the phase sequence. Phases hand slices of it to pool workers
/// only through the executor's data-parallel calls, whose bodies write
/// disjoint indices; the executor's submission/retirement protocol
/// provides the happens-before edges back to the host. The only cell read
/// concurrently is the latch of params.stop (an atomic polled by workers
/// and written by the caller, e.g. the portfolio).
struct EngineContext {
  const EngineParams& params;
  aig::Aig miter;
  EngineStats stats;
  std::vector<std::pair<std::string, aig::Aig>> snapshots;
  std::optional<std::vector<bool>> cex;
  bool disproved = false;
  /// PI pattern bank (random init + accumulated CEXs). PIs are stable
  /// across miter rebuilds, so the bank persists across phases.
  std::optional<sim::PatternBank> bank;
  /// L-phase pass activity (adaptive_passes extension).
  std::array<bool, 3> active_passes{true, true, true};
  /// Metrics sink; set by check_miter() before any phase runs (never null
  /// inside a phase — the engine substitutes a private registry when the
  /// caller provided none).
  obs::Registry* obs = nullptr;
  /// Degradation ladder (DESIGN.md §2.4): every exhaustive batch of the
  /// run goes through it, and it owns the run's DegradeState, seeded from
  /// the configured M and merging switch.
  exhaustive::Ladder ladder{params.memory_words, params.window_merging,
                            params.max_fault_retries,
                            params.min_memory_words};
  /// Memory governor for this run: the caller's EngineParams::memory_ledger,
  /// an engine-private one (memory_budget_bytes > 0), or null (ungoverned).
  fault::MemoryLedger* ledger = nullptr;
  /// Cached level schedule of the current miter, shared by partial
  /// simulation, window building and cut passes. Lazily built by
  /// level_schedule() (phase_common.hpp); reset at every rebuild.
  std::optional<aig::LevelSchedule> schedule;
  /// Equivalence classes of the current miter (DESIGN.md §2.7), built by
  /// partial simulation of the bank on first use and refined in place by
  /// the G phase's CEX rounds. Lazily built by equivalence_classes()
  /// (phase_common.hpp); reset at every rebuild, like the schedule.
  std::optional<sim::EcManager> classes;
};

/// Returns false if the miter was disproved (stop immediately).
bool run_po_phase(EngineContext& ctx);
/// Runs global checking with the given support-union threshold (the plain
/// Fig. 5 flow uses params.k_g; escalation passes larger values).
/// Returns the number of pairs proved.
std::size_t run_global_phase(EngineContext& ctx, unsigned k_g);
/// Returns true if this L phase reduced the miter.
bool run_local_phase(EngineContext& ctx);

}  // namespace detail

}  // namespace simsweep::engine
