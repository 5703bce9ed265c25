/// \file test_obs.cpp
/// \brief Tests for the observability layer (DESIGN.md §2.3): the
/// counter/gauge registry, the JSON run-report emitter/validator, and the
/// end-to-end report shape of an engine run.

#include "obs/metric_names.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "gen/arith.hpp"

namespace simsweep::obs {
namespace {

TEST(ObsRegistry, CounterBasics) {
  Registry r;
  Counter& c = r.counter("m.events");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same cell; the reference is stable.
  EXPECT_EQ(&r.counter("m.events"), &c);
  r.add("m.events", 8);
  EXPECT_EQ(c.value(), 50u);
}

TEST(ObsRegistry, GaugeBasics) {
  Registry r;
  Gauge& g = r.gauge("m.seconds");
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 1.75);
  r.set("m.seconds", 3.0);  // last writer wins
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  r.add_value("m.seconds", 1.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(ObsRegistry, SnapshotSortedAndQueryable) {
  Registry r;
  r.add("b.count", 7);
  r.set("a.value", 2.5);
  r.add("c.sub.count", 1);
  const Snapshot s = r.snapshot();
  ASSERT_EQ(s.metrics.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      s.metrics.begin(), s.metrics.end(),
      [](const Metric& x, const Metric& y) { return x.name < y.name; }));
  EXPECT_EQ(s.count("b.count"), 7u);
  EXPECT_DOUBLE_EQ(s.value("a.value"), 2.5);
  EXPECT_EQ(s.count("a.value"), 0u);    // kind mismatch reads as 0
  EXPECT_EQ(s.find("missing"), nullptr);
  EXPECT_EQ(s.count("missing"), 0u);
  ASSERT_NE(s.find("c.sub.count"), nullptr);
  EXPECT_EQ(s.find("c.sub.count")->kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(s.find("b.count")->as_double(), 7.0);
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(Snapshot{}.empty());
}

TEST(ObsRegistry, AbsorbAddsEveryMetricToItsCell) {
  Registry from;
  from.add("b.count", 7);
  from.set("a.value", 2.5);
  Registry into;
  into.add("b.count", 3);
  into.set("a.value", 0.5);
  into.absorb(from.snapshot());
  into.absorb(Snapshot{});  // an empty snapshot changes nothing
  Snapshot s = into.snapshot();
  EXPECT_EQ(s.count("b.count"), 10u);
  EXPECT_DOUBLE_EQ(s.value("a.value"), 3.0);
  // Missing cells are created with the absorbed metric's kind.
  Registry fresh;
  fresh.absorb(from.snapshot());
  s = fresh.snapshot();
  ASSERT_EQ(s.metrics.size(), 2u);
  EXPECT_EQ(s.find("a.value")->kind, MetricKind::kGauge);
  EXPECT_EQ(s.find("b.count")->kind, MetricKind::kCounter);
  EXPECT_EQ(s.count("b.count"), 7u);
}

TEST(ObsRegistry, ConcurrentPublishersAgree) {
  // The publish-path contract: cell creation locks, increments are
  // lock-free relaxed atomics. Hammer one shared counter, per-thread
  // counters and a shared gauge from many threads (the TSan-labelled run
  // of this suite checks the synchronization claims for real).
  Registry r;
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, t] {
      const std::string mine =
          "m.thread" + std::to_string(t) + ".events";
      for (int i = 0; i < kIters; ++i) {
        r.add("m.shared");
        r.add(mine);
        r.add_value("m.shared_sum", 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  const Snapshot s = r.snapshot();
  EXPECT_EQ(s.count("m.shared"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(s.value("m.shared_sum"),
                   static_cast<double>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(s.count("m.thread" + std::to_string(t) + ".events"),
              static_cast<std::uint64_t>(kIters));
}

/// A registry covering the report schema's required sections (v2 added
/// faults/degrade, v3 adds ckpt/supervisor; the sections must exist, zero
/// values are the healthy state).
Registry& fill_valid(Registry& r) {
  r.add(obs::metric::kExhaustiveBatches, 3);
  r.add("cut.pass1.checks", 12);
  r.add(obs::metric::kEcBuilds, 2);
  r.add(obs::metric::kPartialSimSimulateCalls, 5);
  r.add(obs::metric::kMiterRebuilds, 1);
  r.set(obs::metric::kPoolWorkers, 4.0);
  r.set(obs::metric::kEngineTotalSeconds, 0.25);
  r.add(obs::metric::kFaultsInjected, 0);
  r.add(obs::metric::kDegradeLadderSteps, 0);
  r.add(obs::metric::kCkptWrites, 0);
  r.add(obs::metric::kSupervisorRestarts, 0);
  return r;
}

TEST(ObsReport, EmitAndValidateRoundTrip) {
  Registry r;
  const std::string json = to_json(fill_valid(r).snapshot());
  EXPECT_NE(json.find(kSchemaId), std::string::npos);
  EXPECT_NE(json.find("\"batches\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"workers\": 4"), std::string::npos);
  std::string error;
  EXPECT_TRUE(validate_report_json(json, &error)) << error;
}

TEST(ObsReport, ValidatorRejectsBadReports) {
  std::string error;
  // Malformed JSON.
  EXPECT_FALSE(validate_report_json("{", &error));
  // Valid JSON, wrong schema tag.
  EXPECT_FALSE(validate_report_json(
      "{\"schema\": \"other.v9\", \"metrics\": {}}", &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  // Missing module section.
  {
    Registry r2;
    r2.add(obs::metric::kExhaustiveBatches, 3);
    r2.add("cut.pass1.checks", 12);
    r2.add(obs::metric::kEcBuilds, 2);
    r2.add(obs::metric::kPartialSimSimulateCalls, 5);
    r2.set(obs::metric::kPoolWorkers, 4.0);
    EXPECT_FALSE(validate_report_json(to_json(r2.snapshot()), &error));
    EXPECT_NE(error.find("miter"), std::string::npos);
  }
  // Section present but all-zero: the nonzero contract fails.
  {
    Registry r3;
    r3.add(obs::metric::kExhaustiveBatches, 3);
    r3.add("cut.pass1.checks", 12);
    r3.add(obs::metric::kEcBuilds, 0);  // creates the cell, leaves it at zero
    r3.add(obs::metric::kPartialSimSimulateCalls, 5);
    r3.add(obs::metric::kMiterRebuilds, 1);
    r3.set(obs::metric::kPoolWorkers, 4.0);
    EXPECT_FALSE(validate_report_json(to_json(r3.snapshot()), &error));
    EXPECT_NE(error.find("ec"), std::string::npos);
  }
}

TEST(ObsReport, V2RequiresFaultAndDegradeSections) {
  // A v2-tagged report without the robustness sections is invalid; their
  // *presence* (not nonzero-ness) is the v2 contract. to_json always
  // stamps the newest schema id, so retag each emission as v2.
  const auto as_v2 = [](std::string json) {
    const std::size_t at = json.find(kSchemaId);
    EXPECT_NE(at, std::string::npos);
    json.replace(at, std::string(kSchemaId).size(), kSchemaIdV2);
    return json;
  };
  Registry r;
  r.add(obs::metric::kExhaustiveBatches, 3);
  r.add("cut.pass1.checks", 12);
  r.add(obs::metric::kEcBuilds, 2);
  r.add(obs::metric::kPartialSimSimulateCalls, 5);
  r.add(obs::metric::kMiterRebuilds, 1);
  r.set(obs::metric::kPoolWorkers, 4.0);
  std::string error;
  EXPECT_FALSE(validate_report_json(as_v2(to_json(r.snapshot())), &error));
  EXPECT_NE(error.find("faults"), std::string::npos);

  r.add(obs::metric::kFaultsInjected, 0);
  EXPECT_FALSE(validate_report_json(as_v2(to_json(r.snapshot())), &error));
  EXPECT_NE(error.find("degrade"), std::string::npos);

  r.add(obs::metric::kDegradeLadderSteps, 0);
  EXPECT_TRUE(validate_report_json(as_v2(to_json(r.snapshot())), &error))
      << error;
}

TEST(ObsReport, V3RequiresCkptAndSupervisorSections) {
  // v3 (DESIGN.md §2.8) additionally requires the checkpoint/supervisor
  // sections; presence, not nonzero-ness, is the contract — an unarmed
  // run reports zero writes and zero restarts.
  Registry r;
  r.add(obs::metric::kExhaustiveBatches, 3);
  r.add("cut.pass1.checks", 12);
  r.add(obs::metric::kEcBuilds, 2);
  r.add(obs::metric::kPartialSimSimulateCalls, 5);
  r.add(obs::metric::kMiterRebuilds, 1);
  r.set(obs::metric::kPoolWorkers, 4.0);
  r.add(obs::metric::kFaultsInjected, 0);
  r.add(obs::metric::kDegradeLadderSteps, 0);
  std::string error;
  EXPECT_FALSE(validate_report_json(to_json(r.snapshot()), &error));
  EXPECT_NE(error.find("ckpt"), std::string::npos);

  r.add(obs::metric::kCkptWrites, 0);
  EXPECT_FALSE(validate_report_json(to_json(r.snapshot()), &error));
  EXPECT_NE(error.find("supervisor"), std::string::npos);

  r.add(obs::metric::kSupervisorRestarts, 0);
  EXPECT_TRUE(validate_report_json(to_json(r.snapshot()), &error)) << error;
}

TEST(ObsReport, V1ReportsStillAccepted) {
  // Archived v1 documents (no fault telemetry) keep validating: emit a v2
  // report without the robustness sections and retag it as v1.
  Registry r;
  r.add(obs::metric::kExhaustiveBatches, 3);
  r.add("cut.pass1.checks", 12);
  r.add(obs::metric::kEcBuilds, 2);
  r.add(obs::metric::kPartialSimSimulateCalls, 5);
  r.add(obs::metric::kMiterRebuilds, 1);
  r.set(obs::metric::kPoolWorkers, 4.0);
  std::string json = to_json(r.snapshot());
  const std::size_t at = json.find(kSchemaId);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, std::string(kSchemaId).size(), kSchemaIdV1);
  std::string error;
  EXPECT_TRUE(validate_report_json(json, &error)) << error;
}

TEST(ObsReport, EngineRunEmitsValidReport) {
  // End-to-end shape: a multiplier pair with a crippled one-shot P phase
  // pushes work through all five instrumented modules, and the resulting
  // report must pass the schema validator (the same contract the
  // report_schema ctest checks on the cec_tool demo flow).
  const aig::Aig a = gen::array_multiplier(4);
  const aig::Aig b = gen::wallace_multiplier(4);
  engine::EngineParams p;
  p.enable_po_phase = false;  // G and L do all the work
  p.k_P = 10;                 // escalation ceiling ≥ 8 PIs: still decisive
  p.k_p = 4;
  p.k_g = 5;
  p.k_l = 6;
  p.memory_words = 1 << 16;
  const engine::SimCecEngine eng(p);
  const engine::EngineResult r = eng.check(a, b);
  EXPECT_EQ(r.verdict, Verdict::kEquivalent);
  std::string error;
  EXPECT_TRUE(validate_report_json(to_json(r.report), &error)) << error;
}

TEST(ObsReport, SharedRegistryAccumulatesAcrossAttempts) {
  // Counter cells have add semantics: two engine runs publishing into the
  // same registry must report the summed work, which is what the combined
  // checker's rewriting-interleaved attempt chain relies on.
  const aig::Aig a = gen::array_multiplier(3);
  const aig::Aig b = gen::wallace_multiplier(3);
  engine::EngineParams p;
  p.k_P = 16;
  p.k_p = 10;
  p.k_g = 10;
  p.memory_words = 1 << 16;

  Registry once;
  p.registry = &once;
  (void)engine::SimCecEngine(p).check(a, b);
  const std::uint64_t one_run = once.snapshot().count(obs::metric::kExhaustiveBatches);
  ASSERT_GT(one_run, 0u);

  Registry twice;
  p.registry = &twice;
  const engine::SimCecEngine eng(p);
  (void)eng.check(a, b);
  (void)eng.check(a, b);
  EXPECT_EQ(twice.snapshot().count(obs::metric::kExhaustiveBatches), 2 * one_run);
}

}  // namespace
}  // namespace simsweep::obs
