#pragma once
/// \file checkpoint.hpp
/// \brief Versioned, CRC-guarded checkpoint snapshots + atomic-write
/// manager (DESIGN.md §2.8).
///
/// A long sweep's most valuable asset is its accumulated equivalence
/// state: proven merges, refuted pairs' CEX patterns, the reduced miter.
/// This module makes that state durable so a crash, OOM-kill or node
/// preemption resumes instead of re-solving from scratch.
///
/// Format `simsweep.ckpt.v2`: a little-endian binary record — magic +
/// version header, run fingerprint, flow stage ("engine" phase boundary
/// or "sweep" round barrier), elapsed wall-clock, the run report as of
/// the boundary (every metric's name, kind and value), the ladder state
/// a resume re-enters (working M, merging switch), the serialized reduced
/// miter, the accumulated PatternBank, and the sweep journal (proved
/// merges, removed candidates, pair counters, next round) — closed by a
/// CRC32 over everything before it.
///
/// Durability protocol: serialize → write to `<path>.tmp` → rename the
/// previous `<path>` (if any) to `<path>.prev` → rename the tmp over
/// `<path>`. Rename is atomic on POSIX, so `<path>` is always a complete
/// record of *some* boundary and `<path>.prev` retains the previous good
/// one.
///
/// Loading fails closed: parse() re-derives the CRC, bound-checks every
/// count, checks every report metric against the name catalog, and
/// rebuilds the miter node by node, rejecting any snapshot whose
/// structure does not round-trip exactly (so a resumed run checks the
/// *identical* miter). A rejected candidate falls down the load
/// ladder — `<path>`, then `<path>.prev`, then a fresh run — and never
/// yields an unsound verdict.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "common/lock_ranks.hpp"
#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "obs/registry.hpp"
#include "sim/partial_sim.hpp"

namespace simsweep::ckpt {

/// Format identity of the snapshot encoding (bumped on layout changes; a
/// mismatched version is a shape reject, never a best-effort parse).
inline constexpr const char kFormatId[] = "simsweep.ckpt.v2";
inline constexpr std::uint32_t kFormatVersion = 2;

/// Which point of the combined flow the snapshot captured.
enum class Stage : std::uint32_t {
  kEngine = 0,  ///< engine phase boundary (P/G/L/G+)
  kSweep = 1,   ///< SAT-sweep round barrier on the residue miter
};

/// One durable record of sweep progress. All fields are by-value copies —
/// a Snapshot stays valid after the run state it captured has moved on.
struct Snapshot {
  Stage stage = Stage::kEngine;
  /// Run identity: a hash of the original miter structure and the
  /// verdict-relevant parameters (ckpt::run_fingerprint). Loading rejects
  /// snapshots of a different problem or configuration.
  std::uint64_t fingerprint = 0;
  /// Wall-clock seconds the run had consumed at the boundary. Charged
  /// against the combined budget on resume, so restarts honor the
  /// original `engine.time_limit`.
  double elapsed_seconds = 0;
  std::string boundary;  ///< "P", "G", "L", "G+" or "round"
  /// The flow's run report as if the run stopped at the boundary. A resume
  /// adds it to its registry, minus the ckpt.* and supervisor.* events.
  obs::Snapshot report;
  /// Ladder state a resumed engine re-enters: working M (0 = configured).
  std::size_t memory_words = 0;
  bool window_merging = true;
  /// The reduced miter at the boundary (the engine's working miter for
  /// kEngine, the residue handed to the sweeper for kSweep).
  aig::Aig miter;
  /// Accumulated PI pattern bank (random init + every CEX).
  std::optional<sim::PatternBank> bank;
  // --- Sweep-stage journal (empty for kEngine snapshots). ---
  std::vector<std::pair<aig::Var, aig::Lit>> merges;
  std::vector<aig::Var> removed;
  unsigned next_round = 0;
  std::size_t sweep_pairs_proved = 0;
  std::size_t sweep_pairs_disproved = 0;
  std::size_t sweep_pairs_undecided = 0;
};

/// CRC32 (IEEE 802.3 polynomial) over `size` bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Encodes a snapshot as `simsweep.ckpt.v2` bytes (CRC trailer included).
std::vector<std::uint8_t> serialize(const Snapshot& snapshot);

/// Decodes `simsweep.ckpt.v2` bytes. Fails closed (nullopt) on a bad
/// magic/version (v1 included), a CRC mismatch, any out-of-bounds count or
/// literal, an unsorted, uncatalogued, unknown-kind or non-finite report
/// metric, or a miter that does not rebuild node-for-node. Never throws
/// and never reads out of bounds — the checkpoint fuzz suite mutates
/// these bytes under asan+ubsan.
std::optional<Snapshot> parse(const std::uint8_t* data, std::size_t size);

/// Owns one checkpoint path: throttled atomic writes on offer(), the
/// fail-closed load ladder, and the ckpt.* metrics. Single-writer by
/// design (hooks fire on host threads only), but internally locked at the
/// `ckpt` rank so a signal-triggered flush cannot tear a write.
class CheckpointManager {
 public:
  struct Options {
    std::string path;  ///< empty disables every operation
    /// Minimum seconds between durable writes (0 = every offer). A
    /// throttled offer is kept pending for flush().
    double checkpoint_interval = 0;
    /// Metrics sink for ckpt.writes / ckpt.bytes / ckpt.load_rejects
    /// (optional).
    obs::Registry* registry = nullptr;
    /// Fired after each successful durable write — the signal-drill and
    /// test hook (`cec_tool --drill-signal`).
    std::function<void()> on_write;
  };

  explicit CheckpointManager(Options options)
      : options_(std::move(options)) {}

  /// Serializes the snapshot and, unless throttled by
  /// checkpoint_interval, writes it durably. Failures (including the
  /// injected `ckpt.write` fault) leave the last-good file untouched and
  /// the snapshot pending; the run is unaffected.
  void offer(const Snapshot& snapshot);

  /// Durably writes the most recent throttle- or fault-skipped snapshot,
  /// if any (final flush on SIGINT/SIGTERM).
  void flush();

  /// Load ladder: `<path>`, then `<path>.prev`. Every candidate must
  /// parse (CRC + shape) and carry this fingerprint; each rejection
  /// counts into ckpt.load_rejects and falls through. nullopt means
  /// "start fresh".
  std::optional<Snapshot> load(std::uint64_t fingerprint);

  /// Durable writes so far (not counting throttled/failed offers).
  std::uint64_t writes() const;

  const std::string& path() const { return options_.path; }

 private:
  /// Writes `bytes` via the tmp + rename protocol and publishes metrics.
  /// Returns false (leaving `pending_` for a later flush) on any failure.
  bool write_bytes_locked(const std::vector<std::uint8_t>& bytes)
      SIMSWEEP_REQUIRES(mu_);

  const Options options_;
  mutable common::Mutex mu_;
  Timer since_last_write_ SIMSWEEP_GUARDED_BY(mu_);
  bool wrote_any_ SIMSWEEP_GUARDED_BY(mu_) = false;
  std::vector<std::uint8_t> pending_ SIMSWEEP_GUARDED_BY(mu_);
  std::uint64_t writes_ SIMSWEEP_GUARDED_BY(mu_) = 0;
};

}  // namespace simsweep::ckpt
