/// \file test_ckpt.cpp
/// \brief Checkpoint/resume subsystem tests (DESIGN.md §2.8): snapshot
/// round-trips, fail-closed loading (CRC, truncation, version, stage,
/// fingerprint), the atomic-write + last-good ladder, write/load fault
/// drills, resume verdict identity and supervised crash-restart.

#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig_analysis.hpp"
#include "aig/miter.hpp"
#include "ckpt/resume.hpp"
#include "ckpt/supervisor.hpp"
#include "fault/fault.hpp"
#include "gen/arith.hpp"
#include "obs/metric_names.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "opt/resyn.hpp"
#include "sim/partial_sim.hpp"
#include "sweep/parallel_sweeper.hpp"
#include "test_util.hpp"

namespace simsweep::ckpt {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_bytes_file(const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes the CRC trailer after a deliberate field patch, so the test
/// exercises the *shape* gate rather than the CRC gate.
void refresh_crc(std::vector<std::uint8_t>& bytes) {
  const std::uint32_t c = crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((c >> (8 * i)) & 0xFF);
}

/// A run report with counters, gauges and a family-composed leaf.
obs::Snapshot sample_report() {
  obs::Registry reg;
  reg.set(obs::metric::kEngineInitialAnds, 40);
  reg.set(obs::metric::kEngineFinalAnds, 30);
  reg.set(obs::metric::kEnginePosTotal, 1);
  reg.add_value(obs::metric::kEnginePairsProvedGlobal, 4);
  reg.add(obs::metric::kEngineAttempts, 1);
  reg.add(obs::metric::kDegradeLadderSteps, 2);
  reg.add(std::string(obs::metric::kFaultsSitePrefix) +
              fault::sites::kExhaustiveSimtAlloc,
          3);
  return reg.snapshot();
}

/// A representative sweep-stage snapshot with every section populated.
Snapshot sweep_snapshot(std::uint64_t fingerprint, double elapsed = 1.5) {
  Snapshot s;
  s.stage = Stage::kSweep;
  s.fingerprint = fingerprint;
  s.elapsed_seconds = elapsed;
  s.boundary = "round";
  s.report = sample_report();
  s.memory_words = std::size_t{1} << 12;
  s.window_merging = false;
  s.miter = aig::make_miter(gen::array_multiplier(3),
                            gen::wallace_multiplier(3));
  s.bank = sim::PatternBank::random(s.miter.num_pis(), 2, 7);
  const aig::Var last = static_cast<aig::Var>(s.miter.num_nodes() - 1);
  s.merges.emplace_back(last, aig::make_lit(1));
  s.removed.push_back(last - 1);
  s.next_round = 3;
  s.sweep_pairs_proved = 5;
  s.sweep_pairs_disproved = 2;
  s.sweep_pairs_undecided = 1;
  return s;
}

// --- Format: serialize/parse round-trips and fail-closed rejects. ---

TEST(CkptFormat, SerializeParseRoundTrips) {
  const Snapshot s = sweep_snapshot(0xC0FFEEull);
  const std::vector<std::uint8_t> bytes = serialize(s);
  const std::optional<Snapshot> p = parse(bytes.data(), bytes.size());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->stage, Stage::kSweep);
  EXPECT_EQ(p->fingerprint, 0xC0FFEEull);
  EXPECT_DOUBLE_EQ(p->elapsed_seconds, 1.5);
  EXPECT_EQ(p->boundary, "round");
  ASSERT_EQ(p->report.metrics.size(), s.report.metrics.size());
  EXPECT_DOUBLE_EQ(p->report.value(obs::metric::kEngineInitialAnds), 40.0);
  EXPECT_DOUBLE_EQ(p->report.value(obs::metric::kEnginePairsProvedGlobal),
                   4.0);
  EXPECT_EQ(p->report.count(obs::metric::kEngineAttempts), 1u);
  EXPECT_EQ(p->report.count(obs::metric::kDegradeLadderSteps), 2u);
  EXPECT_EQ(p->report.count(std::string(obs::metric::kFaultsSitePrefix) +
                            fault::sites::kExhaustiveSimtAlloc),
            3u);
  EXPECT_EQ(p->memory_words, std::size_t{1} << 12);
  EXPECT_FALSE(p->window_merging);
  EXPECT_EQ(p->miter.num_nodes(), s.miter.num_nodes());
  EXPECT_EQ(p->miter.num_pos(), s.miter.num_pos());
  ASSERT_TRUE(p->bank.has_value());
  EXPECT_EQ(p->merges, s.merges);
  EXPECT_EQ(p->removed, s.removed);
  EXPECT_EQ(p->next_round, 3u);
  EXPECT_EQ(p->sweep_pairs_proved, 5u);
  EXPECT_EQ(p->sweep_pairs_disproved, 2u);
  EXPECT_EQ(p->sweep_pairs_undecided, 1u);
  // Re-serializing the parse must be byte-identical (the encoding is a
  // pure function of the snapshot, so checkpoints of a resumed run match
  // checkpoints of the uninterrupted run).
  EXPECT_EQ(serialize(*p), bytes);
}

TEST(CkptFormat, EngineStageWithoutBankRoundTrips) {
  Snapshot s;
  s.stage = Stage::kEngine;
  s.fingerprint = 17;
  s.boundary = "G+";
  s.miter = aig::make_miter(gen::ripple_adder(3), gen::ripple_adder(3));
  const std::vector<std::uint8_t> bytes = serialize(s);
  const std::optional<Snapshot> p = parse(bytes.data(), bytes.size());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->stage, Stage::kEngine);
  EXPECT_EQ(p->boundary, "G+");
  EXPECT_FALSE(p->bank.has_value());
  EXPECT_TRUE(p->merges.empty());
  EXPECT_TRUE(p->report.empty());
}

TEST(CkptFormat, CrcCatchesEveryByteCorruption) {
  const std::vector<std::uint8_t> good = serialize(sweep_snapshot(1));
  // Flip one bit of each byte in turn: every mutant must be rejected
  // (any accepted mutant either differs in the CRC-protected region —
  // impossible for a single flip — or corrupts the trailer itself).
  for (std::size_t at = 0; at < good.size(); ++at) {
    std::vector<std::uint8_t> bad = good;
    bad[at] ^= 0x10;
    EXPECT_FALSE(parse(bad.data(), bad.size()).has_value())
        << "accepted a flip at byte " << at;
  }
}

TEST(CkptFormat, TruncationAndTrailingGarbageRejected) {
  const std::vector<std::uint8_t> good = serialize(sweep_snapshot(2));
  for (std::size_t keep = 0; keep < good.size(); keep += 7)
    EXPECT_FALSE(parse(good.data(), keep).has_value());
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(parse(padded.data(), padded.size()).has_value());
}

TEST(CkptFormat, VersionAndStageAndElapsedShapeGatesHold) {
  const std::vector<std::uint8_t> good = serialize(sweep_snapshot(3));
  // Layout: magic[16] | version u32 | stage u32 | fingerprint u64 |
  // elapsed f64 | ...
  {
    std::vector<std::uint8_t> bad = good;  // future format version
    bad[16] = 3;
    refresh_crc(bad);
    EXPECT_FALSE(parse(bad.data(), bad.size()).has_value());
  }
  {
    std::vector<std::uint8_t> bad = good;  // a v1 file: start fresh
    bad[15] = '1';
    bad[16] = 1;
    refresh_crc(bad);
    EXPECT_FALSE(parse(bad.data(), bad.size()).has_value());
  }
  {
    std::vector<std::uint8_t> bad = good;  // stage out of range
    bad[20] = 9;
    refresh_crc(bad);
    EXPECT_FALSE(parse(bad.data(), bad.size()).has_value());
  }
  {
    std::vector<std::uint8_t> bad = good;  // negative elapsed wall-clock
    const double neg = -1.0;
    std::memcpy(bad.data() + 32, &neg, sizeof neg);
    refresh_crc(bad);
    EXPECT_FALSE(parse(bad.data(), bad.size()).has_value());
  }
}

TEST(CkptFormat, MergeJournalOrderingGateHolds) {
  // A merge entry whose replacement is not strictly smaller than the
  // merged node would let a resumed run apply an unsound substitution:
  // shape-rejected even with a valid CRC.
  Snapshot s = sweep_snapshot(4);
  s.merges.clear();
  const aig::Var last = static_cast<aig::Var>(s.miter.num_nodes() - 1);
  s.merges.emplace_back(last, aig::make_lit(last));  // lit_var(lit) == node
  std::vector<std::uint8_t> bad = serialize(s);
  EXPECT_FALSE(parse(bad.data(), bad.size()).has_value());
}

TEST(CkptFormat, ReportShapeGatesHold) {
  // The report is absorbed into a resumed run's registry, so every metric
  // must be one a run can publish: bounded, sorted, catalogued, of a known
  // kind and finite. Each mutant keeps a valid CRC.
  const auto rejected = [](const obs::Snapshot& report) {
    Snapshot s = sweep_snapshot(5);
    s.report = report;
    const std::vector<std::uint8_t> bytes = serialize(s);
    return !parse(bytes.data(), bytes.size()).has_value();
  };
  const obs::Snapshot good = sample_report();
  ASSERT_FALSE(rejected(good));
  {
    obs::Snapshot bad = good;  // names not strictly increasing
    std::swap(bad.metrics.front(), bad.metrics.back());
    EXPECT_TRUE(rejected(bad));
    bad = good;  // a duplicate name
    bad.metrics.push_back(bad.metrics.back());
    EXPECT_TRUE(rejected(bad));
  }
  {
    obs::Snapshot bad = good;  // a name outside the catalog
    bad.metrics.front().name += "_unknown";
    EXPECT_TRUE(rejected(bad));
    bad = good;  // a bare family prefix is no metric
    bad.metrics.back().name = obs::metric::kFaultsSitePrefix;
    std::sort(bad.metrics.begin(), bad.metrics.end(),
              [](const obs::Metric& x, const obs::Metric& y) {
                return x.name < y.name;
              });
    EXPECT_TRUE(rejected(bad));
  }
  {
    obs::Snapshot bad = good;  // a name over the length bound
    bad.metrics.back().name = std::string(obs::metric::kFaultsSitePrefix) +
                              std::string(300, 'z');
    EXPECT_TRUE(rejected(bad));
  }
  {
    obs::Snapshot bad = good;  // a kind byte other than counter or gauge
    bad.metrics.front().kind = static_cast<obs::MetricKind>(2);
    EXPECT_TRUE(rejected(bad));
  }
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    obs::Snapshot bad = good;  // a gauge that is not finite
    for (obs::Metric& m : bad.metrics)
      if (m.kind == obs::MetricKind::kGauge) m.value = v;
    EXPECT_TRUE(rejected(bad));
  }
  {
    // A metric count over the bound. Layout: magic[16] | version u32 |
    // stage u32 | fingerprint u64 | elapsed f64 | boundary (u32 length +
    // "round") | metric count u32 | ...
    std::vector<std::uint8_t> bad = serialize(sweep_snapshot(5));
    const std::size_t at = 16 + 4 + 4 + 8 + 8 + 4 + 5;
    bad[at + 2] = 0x01;  // count += 1 << 16
    refresh_crc(bad);
    EXPECT_FALSE(parse(bad.data(), bad.size()).has_value());
  }
}

// --- Manager: atomic writes, the last-good ladder, throttling. ---

TEST(CkptManager, EmptyPathDisablesEverything) {
  CheckpointManager mgr({"", 0.0, nullptr, {}});
  mgr.offer(sweep_snapshot(5));
  mgr.flush();
  EXPECT_EQ(mgr.writes(), 0u);
  EXPECT_FALSE(mgr.load(5).has_value());
}

TEST(CkptManager, AtomicWriteRetainsLastGoodAsPrev) {
  const std::string path = temp_path("simsweep_ckpt_prev.ckpt");
  obs::Registry reg;
  CheckpointManager mgr({path, 0.0, &reg, {}});
  mgr.offer(sweep_snapshot(6, 1.0));
  mgr.offer(sweep_snapshot(6, 2.0));
  EXPECT_EQ(mgr.writes(), 2u);
  const std::vector<std::uint8_t> cur = read_bytes(path);
  const std::vector<std::uint8_t> prev = read_bytes(path + ".prev");
  const std::optional<Snapshot> pc = parse(cur.data(), cur.size());
  const std::optional<Snapshot> pp = parse(prev.data(), prev.size());
  ASSERT_TRUE(pc.has_value());
  ASSERT_TRUE(pp.has_value());
  EXPECT_DOUBLE_EQ(pc->elapsed_seconds, 2.0);
  EXPECT_DOUBLE_EQ(pp->elapsed_seconds, 1.0);
  EXPECT_EQ(reg.snapshot().count(obs::metric::kCkptWrites), 2u);
  EXPECT_GT(reg.snapshot().count(obs::metric::kCkptBytes), 0u);
}

TEST(CkptManager, LoadLadderFallsBackToPrevThenFresh) {
  const std::string path = temp_path("simsweep_ckpt_ladder.ckpt");
  obs::Registry reg;
  CheckpointManager mgr({path, 0.0, &reg, {}});
  mgr.offer(sweep_snapshot(7, 1.0));
  mgr.offer(sweep_snapshot(7, 2.0));

  // Corrupt the primary: load must fall through to .prev.
  std::vector<std::uint8_t> cur = read_bytes(path);
  cur.resize(cur.size() / 2);
  write_bytes_file(path, cur);
  std::optional<Snapshot> got = mgr.load(7);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->elapsed_seconds, 1.0);
  EXPECT_EQ(reg.snapshot().count(obs::metric::kCkptLoadRejects), 1u);

  // Corrupt .prev too: the ladder ends in "start fresh", never unsound.
  std::vector<std::uint8_t> prev = read_bytes(path + ".prev");
  prev[prev.size() / 2] ^= 0xFF;
  write_bytes_file(path + ".prev", prev);
  EXPECT_FALSE(mgr.load(7).has_value());
  EXPECT_EQ(reg.snapshot().count(obs::metric::kCkptLoadRejects), 3u);
}

TEST(CkptManager, FingerprintMismatchRejected) {
  const std::string path = temp_path("simsweep_ckpt_fp.ckpt");
  obs::Registry reg;
  CheckpointManager mgr({path, 0.0, &reg, {}});
  mgr.offer(sweep_snapshot(8));
  EXPECT_FALSE(mgr.load(9).has_value());
  EXPECT_EQ(reg.snapshot().count(obs::metric::kCkptLoadRejects), 1u);
  EXPECT_TRUE(mgr.load(8).has_value());
}

TEST(CkptManager, ThrottleKeepsPendingForFlush) {
  const std::string path = temp_path("simsweep_ckpt_throttle.ckpt");
  CheckpointManager mgr({path, 3600.0, nullptr, {}});
  mgr.offer(sweep_snapshot(10, 1.0));  // first offer is always durable
  mgr.offer(sweep_snapshot(10, 2.0));  // inside the interval: pending only
  EXPECT_EQ(mgr.writes(), 1u);
  {
    const std::vector<std::uint8_t> cur = read_bytes(path);
    const std::optional<Snapshot> p = parse(cur.data(), cur.size());
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->elapsed_seconds, 1.0);
  }
  mgr.flush();  // the SIGINT/SIGTERM path makes the pending offer durable
  EXPECT_EQ(mgr.writes(), 2u);
  const std::vector<std::uint8_t> cur = read_bytes(path);
  const std::optional<Snapshot> p = parse(cur.data(), cur.size());
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->elapsed_seconds, 2.0);
  mgr.flush();  // nothing pending: no third write
  EXPECT_EQ(mgr.writes(), 2u);
}

// --- Fault drills: the ckpt.* injection sites (DESIGN.md §2.4 + §2.8). ---

TEST(CkptFault, WriteFaultLeavesLastGoodIntact) {
  const std::string path = temp_path("simsweep_ckpt_wfault.ckpt");
  obs::Registry reg;
  CheckpointManager mgr({path, 0.0, &reg, {}});
  mgr.offer(sweep_snapshot(11, 1.0));
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kCkptWrite, 1);
    fault::ScopedFaultPlan armed(plan);
    mgr.offer(sweep_snapshot(11, 2.0));  // write fails, snapshot pending
    EXPECT_EQ(mgr.writes(), 1u);
    const std::vector<std::uint8_t> cur = read_bytes(path);
    const std::optional<Snapshot> p = parse(cur.data(), cur.size());
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->elapsed_seconds, 1.0);  // last-good untouched
    EXPECT_EQ(armed.fires(fault::sites::kCkptWrite), 1u);
    mgr.flush();  // the plan is spent: the pending snapshot lands now
  }
  EXPECT_EQ(mgr.writes(), 2u);
  const std::vector<std::uint8_t> cur = read_bytes(path);
  const std::optional<Snapshot> p = parse(cur.data(), cur.size());
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->elapsed_seconds, 2.0);
}

TEST(CkptFault, LoadFaultFailsClosed) {
  const std::string path = temp_path("simsweep_ckpt_lfault.ckpt");
  obs::Registry reg;
  CheckpointManager mgr({path, 0.0, &reg, {}});
  mgr.offer(sweep_snapshot(12));
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kCkptLoad, 1, 2);  // both ladder candidates
    fault::ScopedFaultPlan armed(plan);
    EXPECT_FALSE(mgr.load(12).has_value());
  }
  EXPECT_GE(reg.snapshot().count(obs::metric::kCkptLoadRejects), 1u);
  EXPECT_TRUE(mgr.load(12).has_value());  // disarmed: the file was fine
}

// --- Resume: verdict identity and journal replay. ---

/// P + G + L + other == total over the report's engine.* totals.
void expect_time_identity(const obs::Snapshot& r, const std::string& where) {
  EXPECT_NEAR(r.value(obs::metric::kEnginePoSeconds) +
                  r.value(obs::metric::kEngineGlobalSeconds) +
                  r.value(obs::metric::kEngineLocalSeconds) +
                  r.value(obs::metric::kEngineOtherSeconds),
              r.value(obs::metric::kEngineTotalSeconds), 1e-6)
      << where;
}

/// The sorted (name, kind) list of a report.
std::vector<std::pair<std::string, obs::MetricKind>> shape_of(
    const obs::Snapshot& r) {
  std::vector<std::pair<std::string, obs::MetricKind>> shape;
  for (const obs::Metric& m : r.metrics) shape.emplace_back(m.name, m.kind);
  return shape;
}

/// The parameters of the sweep-stage tests: a random 16-PI pair against
/// its resyn_light copy, with an engine too weak to decide it (P off,
/// small k, no L phases, no escalation) and a SAT sweep of several rounds.
CheckpointedParams weak_engine_params(const std::string& ckpt_name) {
  CheckpointedParams p;
  p.combined.engine.enable_po_phase = false;
  p.combined.engine.k_P = 5;
  p.combined.engine.k_p = 3;
  p.combined.engine.k_g = 3;
  p.combined.engine.k_l = 3;
  p.combined.engine.max_local_phases = 0;
  p.combined.engine.escalate_global = false;
  p.combined.sweeper.sim_words = 1;  // several sweep rounds
  p.combined.transfer_ec = false;
  p.checkpoint_path = temp_path(ckpt_name);
  p.checkpoint_interval = 0;
  return p;
}

/// Replaces the checkpoint files of `p` by `bytes` alone.
void install_snapshot(const CheckpointedParams& p,
                      const std::vector<std::uint8_t>& bytes) {
  std::remove((p.checkpoint_path + ".prev").c_str());
  write_bytes_file(p.checkpoint_path, bytes);
}

TEST(CkptResume, KilledRunResumesToIdenticalVerdict) {
  // The acceptance drill of DESIGN.md §2.8 in-process: leg 1 runs the
  // combined flow to completion with every boundary durable; its last
  // snapshot is exactly the state a kill -9 at that boundary would leave
  // behind. Leg 2 resumes from it and must reach the same verdict with
  // restored (not re-solved) equivalences.
  CheckpointedParams p;
  p.combined.engine.enable_po_phase = false;
  p.combined.engine.k_P = 6;
  p.combined.engine.k_p = 4;
  p.combined.engine.k_g = 4;
  p.combined.engine.k_l = 4;
  p.combined.engine.memory_words = std::size_t{1} << 16;
  p.checkpoint_path = temp_path("simsweep_ckpt_resume.ckpt");
  p.checkpoint_interval = 0;
  p.resume = true;

  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);

  const CheckpointedResult leg1 = checked_combined_check(a, b, p);
  EXPECT_FALSE(leg1.resumed);
  EXPECT_EQ(leg1.combined.verdict, Verdict::kEquivalent);
  ASSERT_GT(leg1.checkpoint_writes, 0u);
  EXPECT_EQ(leg1.combined.report.count(obs::metric::kCkptResumes), 0u);

  const CheckpointedResult leg2 = checked_combined_check(a, b, p);
  EXPECT_TRUE(leg2.resumed);
  EXPECT_EQ(leg2.combined.verdict, leg1.combined.verdict);
  EXPECT_GT(leg2.pairs_restored, 0u);
  EXPECT_EQ(leg2.combined.report.count(obs::metric::kCkptResumes), 1u);
  EXPECT_EQ(leg2.combined.report.count(obs::metric::kCkptPairsRestored),
            leg2.pairs_restored);
  // The resumed chain's time identity holds as on a plain run: the
  // snapshot's report was taken "as of" its boundary.
  expect_time_identity(leg2.combined.report, "leg 2");
}

TEST(CkptResume, SweepStageResumeReportsTheEngineChainTotals) {
  // A run resumed from its last snapshot — taken at a SAT-sweep round
  // barrier — must report the engine chain of the uninterrupted run, not
  // the chain as of its last engine boundary. With interleaved rewriting
  // the snapshot must hold the whole chain, measured against the
  // original miter, not the last attempt alone.
  struct Case {
    std::uint64_t seed;
    bool interleave_rewriting;
  };
  for (const Case c : {Case{300, false}, Case{303, true}}) {
    SCOPED_TRACE(testing::Message() << "seed " << c.seed << " rewriting "
                                    << c.interleave_rewriting);
    const aig::Aig a = testutil::random_aig(16, 900, 8, c.seed);
    const aig::Aig b = opt::resyn_light(a);
    const aig::Aig miter = aig::make_miter(a, b);

    CheckpointedParams p = weak_engine_params("simsweep_ckpt_sweep_stage.ckpt");
    p.combined.interleave_rewriting = c.interleave_rewriting;
    // One L phase: without it the engine publishes no cut.* section and
    // no report of this flow, resumed or not, validates.
    p.combined.engine.max_local_phases = 1;
    // Every snapshot, engine boundaries of a rewriting re-run included,
    // holds chain totals that obey P + G + L + other == total.
    std::size_t writes = 0;
    p.on_write = [&] {
      const std::vector<std::uint8_t> bytes = read_bytes(p.checkpoint_path);
      const std::optional<Snapshot> s = parse(bytes.data(), bytes.size());
      ASSERT_TRUE(s.has_value());
      EXPECT_DOUBLE_EQ(s->report.value(obs::metric::kEngineInitialAnds),
                       static_cast<double>(miter.num_ands()))
          << s->boundary;
      expect_time_identity(s->report, s->boundary);
      ++writes;
    };

    const CheckpointedResult leg1 = checked_combined_check(a, b, p);
    EXPECT_EQ(writes, leg1.checkpoint_writes);
    ASSERT_EQ(leg1.combined.verdict, Verdict::kEquivalent);
    ASSERT_TRUE(leg1.combined.used_sat);
    const obs::Snapshot& r1 = leg1.combined.report;
    EXPECT_DOUBLE_EQ(r1.value(obs::metric::kEngineInitialAnds),
                     static_cast<double>(miter.num_ands()));

    const std::vector<std::uint8_t> bytes = read_bytes(p.checkpoint_path);
    const std::optional<Snapshot> snap = parse(bytes.data(), bytes.size());
    ASSERT_TRUE(snap.has_value());
    ASSERT_EQ(snap->stage, Stage::kSweep);
    EXPECT_DOUBLE_EQ(snap->report.value(obs::metric::kEngineInitialAnds),
                     static_cast<double>(miter.num_ands()));
    EXPECT_DOUBLE_EQ(snap->report.value(obs::metric::kEngineFinalAnds),
                     r1.value(obs::metric::kEngineFinalAnds));

    const CheckpointedResult leg2 = checked_combined_check(a, b, p);
    ASSERT_TRUE(leg2.resumed);
    EXPECT_EQ(leg2.combined.verdict, leg1.combined.verdict);
    const obs::Snapshot& r2 = leg2.combined.report;
    for (const char* leaf :
         {obs::metric::kEngineInitialAnds, obs::metric::kEngineFinalAnds,
          obs::metric::kEnginePosTotal, obs::metric::kEngineReductionPercent})
      EXPECT_DOUBLE_EQ(r2.value(leaf), r1.value(leaf)) << leaf;
    EXPECT_DOUBLE_EQ(leg2.combined.reduction_percent,
                     leg1.combined.reduction_percent);
    // The skipped engine's sections come from the snapshot: the resumed
    // report has the uninterrupted one's shape and validates like it.
    EXPECT_EQ(shape_of(r2), shape_of(r1));
    std::string error;
    ASSERT_TRUE(obs::validate_report_json(obs::to_json(r1), &error)) << error;
    EXPECT_TRUE(obs::validate_report_json(obs::to_json(r2), &error)) << error;
  }
}

TEST(CkptResume, EngineStageResumeContinuesTheRewriteChain) {
  // A snapshot taken in the rewriting re-run (attempt 2) must resume that
  // attempt, not restart the chain at its first rewrite round: the
  // resumed run enters no more attempts than the uninterrupted one and
  // reaches its reduction.
  for (const std::uint64_t seed : {301, 302, 303}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const aig::Aig a = testutil::random_aig(16, 900, 8, seed);
    const aig::Aig b = opt::resyn_light(a);
    CheckpointedParams p = weak_engine_params("simsweep_ckpt_rewrite.ckpt");
    p.combined.interleave_rewriting = true;
    std::vector<std::uint8_t> last_of_attempt2;
    p.on_write = [&] {
      std::vector<std::uint8_t> bytes = read_bytes(p.checkpoint_path);
      const std::optional<Snapshot> s = parse(bytes.data(), bytes.size());
      ASSERT_TRUE(s.has_value());
      if (s->stage == Stage::kEngine &&
          s->report.count(obs::metric::kEngineAttempts) == 2)
        last_of_attempt2 = std::move(bytes);
    };
    const CheckpointedResult leg1 = checked_combined_check(a, b, p);
    ASSERT_EQ(leg1.combined.verdict, Verdict::kEquivalent);
    ASSERT_FALSE(last_of_attempt2.empty());

    install_snapshot(p, last_of_attempt2);
    p.on_write = nullptr;
    const CheckpointedResult leg2 = checked_combined_check(a, b, p);
    ASSERT_TRUE(leg2.resumed);
    EXPECT_EQ(leg2.combined.verdict, leg1.combined.verdict);
    const obs::Snapshot& r1 = leg1.combined.report;
    const obs::Snapshot& r2 = leg2.combined.report;
    EXPECT_EQ(r2.count(obs::metric::kEngineAttempts),
              r1.count(obs::metric::kEngineAttempts));
    EXPECT_DOUBLE_EQ(r2.value(obs::metric::kEngineReductionPercent),
                     r1.value(obs::metric::kEngineReductionPercent));
    expect_time_identity(r2, "leg 2");
    EXPECT_EQ(shape_of(r2), shape_of(r1));
  }
}

TEST(CkptResume, EngineStageResumeKeepsTheCrashedLegsDegradeCounts) {
  // The crashed leg recovered from injected allocation faults; the
  // resumed leg (no faults) reports those ladder steps on top of its own.
  CheckpointedParams p;
  p.combined.engine.enable_po_phase = false;
  p.combined.engine.k_P = 6;
  p.combined.engine.k_p = 4;
  p.combined.engine.k_g = 4;
  p.combined.engine.k_l = 4;
  p.combined.engine.memory_words = std::size_t{1} << 16;
  p.checkpoint_path = temp_path("simsweep_ckpt_degrade.ckpt");
  p.checkpoint_interval = 0;
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);

  std::vector<std::uint8_t> engine_bytes;
  std::uint64_t crashed_steps = 0;
  p.on_write = [&] {
    std::vector<std::uint8_t> bytes = read_bytes(p.checkpoint_path);
    const std::optional<Snapshot> s = parse(bytes.data(), bytes.size());
    ASSERT_TRUE(s.has_value());
    if (s->stage != Stage::kEngine) return;
    crashed_steps = s->report.count(obs::metric::kDegradeLadderSteps);
    engine_bytes = std::move(bytes);
  };
  {
    fault::FaultPlan plan;
    plan.on_hit(fault::sites::kExhaustiveSimtAlloc, 1, /*fires=*/3);
    fault::ScopedFaultPlan armed(plan);
    const CheckpointedResult leg1 = checked_combined_check(a, b, p);
    ASSERT_EQ(leg1.combined.verdict, Verdict::kEquivalent);
  }
  ASSERT_FALSE(engine_bytes.empty());
  ASSERT_GT(crashed_steps, 0u);

  install_snapshot(p, engine_bytes);
  p.on_write = nullptr;
  const CheckpointedResult leg2 = checked_combined_check(a, b, p);
  ASSERT_TRUE(leg2.resumed);
  EXPECT_EQ(leg2.combined.verdict, Verdict::kEquivalent);
  EXPECT_GE(leg2.combined.report.count(obs::metric::kDegradeLadderSteps),
            crashed_steps);
}

TEST(CkptResume, WrongConfigurationSnapshotIsIgnored) {
  // Same miter, different k thresholds: the fingerprint differs, so the
  // resume ladder must reject the snapshot and run fresh (resuming a
  // different configuration would void the determinism argument).
  CheckpointedParams p;
  p.combined.engine.enable_po_phase = false;
  p.combined.engine.k_P = 6;
  p.combined.engine.k_p = 4;
  p.combined.engine.k_g = 4;
  p.combined.engine.k_l = 4;
  p.combined.engine.memory_words = std::size_t{1} << 16;
  p.checkpoint_path = temp_path("simsweep_ckpt_cfg.ckpt");

  const aig::Aig a = gen::array_multiplier(3);
  const aig::Aig b = gen::wallace_multiplier(3);
  const CheckpointedResult leg1 = checked_combined_check(a, b, p);
  EXPECT_EQ(leg1.combined.verdict, Verdict::kEquivalent);

  CheckpointedParams q = p;
  q.combined.engine.k_g = 5;  // verdict-relevant parameter changed
  const CheckpointedResult leg2 = checked_combined_check(a, b, q);
  EXPECT_FALSE(leg2.resumed);
  EXPECT_EQ(leg2.combined.verdict, Verdict::kEquivalent);
  EXPECT_GE(leg2.combined.report.count(obs::metric::kCkptLoadRejects), 1u);
}

TEST(CkptResume, CorruptedSnapshotsFallBackToSoundFreshRun) {
  CheckpointedParams p;
  p.combined.engine.enable_po_phase = false;
  p.combined.engine.k_P = 6;
  p.combined.engine.k_p = 4;
  p.combined.engine.k_g = 4;
  p.combined.engine.k_l = 4;
  p.combined.engine.memory_words = std::size_t{1} << 16;
  p.checkpoint_path = temp_path("simsweep_ckpt_corrupt.ckpt");

  // A NON-equivalent pair: if a corrupted snapshot were trusted, a wrong
  // "equivalent" would be the worst possible outcome — assert the fresh
  // fallback still refutes.
  const aig::Aig a = gen::array_multiplier(3);
  const aig::Aig b = testutil::mutate(a, 123);
  const aig::Aig miter = aig::make_miter(a, b);
  if (aig::miter_proved(miter)) GTEST_SKIP() << "mutation was benign";

  const CheckpointedResult leg1 = checked_combined_check(a, b, p);
  if (leg1.combined.verdict != Verdict::kNotEquivalent)
    GTEST_SKIP() << "mutation was benign";

  if (leg1.checkpoint_writes > 0) {
    // Bit-flip whatever snapshots the run left behind.
    for (const std::string f :
         {p.checkpoint_path, p.checkpoint_path + ".prev"}) {
      std::vector<std::uint8_t> bytes = read_bytes(f);
      if (bytes.empty()) continue;
      bytes[bytes.size() / 3] ^= 0x40;
      write_bytes_file(f, bytes);
    }
  }
  const CheckpointedResult leg2 = checked_combined_check(a, b, p);
  EXPECT_FALSE(leg2.resumed);
  EXPECT_EQ(leg2.combined.verdict, Verdict::kNotEquivalent);
}

TEST(CkptResume, SweeperRoundJournalReplaysToIdenticalVerdict) {
  // Sweeper-level resume, below the combined flow: capture the journal at
  // a round barrier via the checkpoint hook, replay it through
  // SweeperParams::resume, and require the identical verdict and merged
  // pair totals (the §2.8 determinism argument at its smallest scope).
  const aig::Aig a = testutil::random_aig(12, 260, 6, 300);
  const aig::Aig b = opt::resyn_light(a);
  const aig::Aig miter = aig::make_miter(a, b);
  if (aig::miter_proved(miter)) GTEST_SKIP() << "strash solved it";

  sweep::SweeperParams sp;
  sp.sim_words = 1;  // sparse EC init => several refinement rounds

  std::optional<sweep::SweepResumeState> captured;
  sweep::SweeperParams record = sp;
  record.checkpoint_hook = [&](const sweep::SweepCheckpointView& v) {
    sweep::SweepResumeState s;
    s.merges = *v.merges;
    s.removed = *v.removed;
    if (v.bank != nullptr) s.bank = *v.bank;
    s.next_round = v.next_round;
    s.pairs_proved = v.stats->pairs_proved;
    s.pairs_disproved = v.stats->pairs_disproved;
    s.pairs_undecided = v.stats->pairs_undecided;
    captured = std::move(s);  // keep the LAST boundary, like a real crash
  };
  const sweep::SweepResult fresh = sweep::sweep_miter(miter, record);
  if (!captured)
    GTEST_SKIP() << "sweep decided before the first round barrier";

  sweep::SweeperParams resumed_params = sp;
  resumed_params.resume = &*captured;
  const sweep::SweepResult resumed = sweep::sweep_miter(miter, resumed_params);
  EXPECT_EQ(resumed.verdict, fresh.verdict);
  EXPECT_EQ(resumed.stats.pairs_proved, fresh.stats.pairs_proved);
  EXPECT_EQ(resumed.stats.pairs_disproved, fresh.stats.pairs_disproved);
}

// --- Supervisor: crash-restart with exponential backoff. ---

TEST(Supervisor, NormalExitPassesThrough) {
  SupervisorParams sp;
  sp.backoff_initial_ms = 1;
  const SupervisorOutcome o =
      supervise(sp, [](const SupervisorProgress&) { return 42; });
  EXPECT_EQ(o.exit_code, 42);
  EXPECT_EQ(o.restarts, 0u);
  EXPECT_EQ(o.backoff_ms, 0u);
  EXPECT_FALSE(o.gave_up);
}

TEST(Supervisor, AbnormalExitTriggersRestart) {
  SupervisorParams sp;
  sp.backoff_initial_ms = 1;
  const SupervisorOutcome o = supervise(sp, [](const SupervisorProgress& p) {
    if (p.restarts == 0) std::abort();  // the first attempt "crashes"
    return 7;  // the restarted attempt sees restarts == 1 and succeeds
  });
  EXPECT_EQ(o.exit_code, 7);
  EXPECT_EQ(o.restarts, 1u);
  EXPECT_GE(o.backoff_ms, 1u);
  EXPECT_FALSE(o.gave_up);
}

TEST(Supervisor, GivesUpAfterRestartBudget) {
  SupervisorParams sp;
  sp.max_restarts = 2;
  sp.backoff_initial_ms = 1;
  sp.backoff_max_ms = 4;
  const SupervisorOutcome o = supervise(
      sp, [](const SupervisorProgress&) -> int { std::abort(); });
  EXPECT_TRUE(o.gave_up);
  EXPECT_EQ(o.exit_code, -1);
  EXPECT_EQ(o.restarts, 2u);
  EXPECT_GE(o.backoff_ms, 2u);  // 1ms + min(2ms, cap)
}

TEST(Supervisor, ErrorExitCodeIsNotARestart) {
  // Tool errors (rc 3) are normal exits: supervision must hand them
  // through instead of burning the restart budget on a deterministic
  // failure.
  SupervisorParams sp;
  sp.backoff_initial_ms = 1;
  const SupervisorOutcome o =
      supervise(sp, [](const SupervisorProgress&) { return 3; });
  EXPECT_EQ(o.exit_code, 3);
  EXPECT_EQ(o.restarts, 0u);
  EXPECT_FALSE(o.gave_up);
}

}  // namespace
}  // namespace simsweep::ckpt
