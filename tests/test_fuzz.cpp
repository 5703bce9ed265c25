/// \file test_fuzz.cpp
/// \brief Robustness fuzzing: the AIGER reader and checkpoint parser must
/// reject corrupted inputs with exceptions — never crash, hang or accept
/// garbage silently — and randomized pipeline compositions must stay
/// sound.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "aig/aig_analysis.hpp"
#include "aig/aig_io.hpp"
#include "aig/miter.hpp"
#include "ckpt/checkpoint.hpp"
#include "common/random.hpp"
#include "fault/fault.hpp"
#include "gen/arith.hpp"
#include "obs/metric_names.hpp"
#include "obs/registry.hpp"
#include "opt/balance.hpp"
#include "opt/exact3.hpp"
#include "opt/refactor.hpp"
#include "sim/partial_sim.hpp"
#include "test_util.hpp"

namespace simsweep {
namespace {

class AigerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AigerFuzz, MutatedBinaryFilesNeverCrashTheReader) {
  const aig::Aig a = testutil::random_aig(6, 60, 4, GetParam());
  std::stringstream ss;
  aig::write_aiger(a, ss);
  const std::string good = ss.str();

  Rng rng(GetParam() * 77 + 1);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bad = good;
    // Corrupt 1-4 random bytes (header or delta stream).
    const int corruptions = 1 + static_cast<int>(rng.below(4));
    for (int c = 0; c < corruptions; ++c)
      bad[rng.below(bad.size())] = static_cast<char>(rng.next64());
    std::istringstream in(bad);
    try {
      const aig::Aig parsed = aig::read_aiger(in);
      // If it parsed, it must at least be structurally sane.
      ASSERT_LE(parsed.num_pos(), 1u << 20);
      for (aig::Var v = parsed.num_pis() + 1; v < parsed.num_nodes(); ++v) {
        ASSERT_LT(aig::lit_var(parsed.fanin0(v)), v);
        ASSERT_LT(aig::lit_var(parsed.fanin1(v)), v);
      }
    } catch (const std::exception&) {
      // Rejection is the expected outcome.
    }
  }
}

TEST_P(AigerFuzz, TruncatedFilesAreRejectedOrSane) {
  const aig::Aig a = testutil::random_aig(5, 40, 3, GetParam() + 9);
  std::stringstream ss;
  aig::write_aiger(a, ss);
  const std::string good = ss.str();
  for (std::size_t keep = 0; keep < good.size(); keep += 3) {
    std::istringstream in(good.substr(0, keep));
    try {
      (void)aig::read_aiger(in);
    } catch (const std::exception&) {
    }
  }
}

TEST_P(AigerFuzz, BitFlipAndTruncationMutationsNeverInvokeUb) {
  // Seeded mutation loop over BOTH AIGER formats: single-bit flips
  // composed with truncation, which reaches mutants byte corruption
  // cannot (an off-by-one count with the tail missing, a flipped sign in
  // a header digit, a varint whose continuation bit was cleared). The
  // contract is parse-succeeds-or-throws: any crash, hang or sanitizer
  // report (this suite runs under asan AND ubsan labels) is a bug. A
  // mutant that does parse must still be structurally sound.
  const aig::Aig a = testutil::random_aig(6, 50, 4, GetParam() + 17);
  std::string corpus[2];
  {
    std::stringstream bin, ascii;
    aig::write_aiger(a, bin);
    aig::write_aiger_ascii(a, ascii);
    corpus[0] = bin.str();
    corpus[1] = ascii.str();
  }

  Rng rng(GetParam() * 131 + 7);
  for (int trial = 0; trial < 400; ++trial) {
    std::string bad = corpus[rng.below(2)];
    // 1-8 single-bit flips.
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.below(bad.size());
      bad[at] = static_cast<char>(bad[at] ^ (1 << rng.below(8)));
    }
    // Half the trials also truncate to a random prefix.
    if (rng.below(2) == 0) bad.resize(rng.below(bad.size() + 1));
    std::istringstream in(bad);
    try {
      const aig::Aig parsed = aig::read_aiger(in);
      ASSERT_LE(parsed.num_pos(), 1u << 20);
      for (aig::Var v = parsed.num_pis() + 1; v < parsed.num_nodes(); ++v) {
        ASSERT_LT(aig::lit_var(parsed.fanin0(v)), v);
        ASSERT_LT(aig::lit_var(parsed.fanin1(v)), v);
      }
    } catch (const std::exception&) {
      // Rejection is the expected outcome.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AigerFuzz, ::testing::Values(900, 901, 902));

class CkptFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CkptFuzz, BitFlipAndTruncationMutationsNeverInvokeUb) {
  // Checkpoint-loader contract (DESIGN.md §2.8): ckpt::parse() fails
  // CLOSED — nullopt, never a crash, hang, exception or sanitizer report
  // (this suite runs under asan AND ubsan) — on arbitrarily mutated
  // snapshot bytes. The CRC trailer catches almost every mutant; the
  // shape checks catch the rest. A mutant that does parse must still be
  // structurally sound.
  ckpt::Snapshot snap;
  snap.stage = ckpt::Stage::kSweep;
  snap.fingerprint = 0xFEEDFACEull + GetParam();
  snap.elapsed_seconds = 1.25;
  snap.boundary = "round";
  snap.miter = aig::make_miter(gen::array_multiplier(3),
                               gen::wallace_multiplier(3));
  snap.bank = sim::PatternBank::random(snap.miter.num_pis(), 4, GetParam());
  // A plausible journal: merge the last AND onto a smaller literal.
  const aig::Var last = static_cast<aig::Var>(snap.miter.num_nodes() - 1);
  snap.merges.emplace_back(last, aig::make_lit(1));
  snap.removed.push_back(last - 1);
  snap.next_round = 2;
  snap.sweep_pairs_proved = 1;
  // A report with a counter, a gauge and a family-composed leaf.
  obs::Registry reg;
  reg.add(obs::metric::kEngineAttempts, 1);
  reg.set(obs::metric::kEngineInitialAnds, 40);
  reg.add(std::string(obs::metric::kFaultsSitePrefix) +
              fault::sites::kExhaustiveSimtAlloc,
          2);
  snap.report = reg.snapshot();
  const std::vector<std::uint8_t> good = ckpt::serialize(snap);
  ASSERT_TRUE(ckpt::parse(good.data(), good.size()).has_value());

  Rng rng(GetParam() * 193 + 3);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> bad = good;
    // 1-8 single-bit flips.
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.below(bad.size());
      bad[at] = static_cast<std::uint8_t>(bad[at] ^ (1 << rng.below(8)));
    }
    // Half the trials also truncate to a random prefix.
    if (rng.below(2) == 0) bad.resize(rng.below(bad.size() + 1));
    const std::optional<ckpt::Snapshot> parsed =
        ckpt::parse(bad.data(), bad.size());
    if (parsed) {
      const aig::Aig& g = parsed->miter;
      for (aig::Var v = g.num_pis() + 1; v < g.num_nodes(); ++v) {
        ASSERT_LT(aig::lit_var(g.fanin0(v)), v);
        ASSERT_LT(aig::lit_var(g.fanin1(v)), v);
      }
      for (const auto& [node, lit] : parsed->merges)
        ASSERT_LT(aig::lit_var(lit), node);
      const std::vector<obs::Metric>& ms = parsed->report.metrics;
      for (std::size_t i = 0; i < ms.size(); ++i) {
        ASSERT_TRUE(std::isfinite(ms[i].value));
        if (i > 0) {
          ASSERT_LT(ms[i - 1].name, ms[i].name);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CkptFuzz, ::testing::Values(920, 921, 922));

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzz, RandomOptimizationChainsPreserveFunction) {
  // Compose random sequences of optimization passes; the result must stay
  // functionally identical to the input.
  Rng rng(GetParam());
  aig::Aig a = testutil::random_aig(7, 80, 4, GetParam() + 40);
  const aig::Aig original = a;
  for (int step = 0; step < 4; ++step) {
    switch (rng.below(3)) {
      case 0: a = opt::balance(a); break;
      case 1: a = opt::rewrite(a); break;
      default: a = opt::exact_rewrite3(a); break;
    }
  }
  EXPECT_TRUE(aig::brute_force_equivalent(original, a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Values(910, 911, 912, 913));

}  // namespace
}  // namespace simsweep
