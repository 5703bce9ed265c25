#include "gen/suite.hpp"

#include <stdexcept>

#include "gen/arith.hpp"
#include "gen/control.hpp"
#include "gen/transforms.hpp"
#include "opt/resyn.hpp"

namespace simsweep::gen {

const std::vector<std::string>& table2_families() {
  static const std::vector<std::string> families = {
      "hyp", "log2", "multiplier", "sqrt",      "square",
      "voter", "sin", "ac97_ctrl",  "vga_lcd"};
  return families;
}

namespace {

aig::Aig base_circuit(const std::string& family, std::uint64_t seed) {
  // Widths are chosen so each family lands in the same engine regime as
  // in the paper's Table II / Fig. 6 (with our CPU-scaled thresholds
  // k_P=24, k_p=k_g=14; see bench/paper_tables.cpp):
  //   - log2, sin, ac97: PO supports fit k_P -> solved by the P phase;
  //   - multiplier, square: supports exceed k_P but internal pairs are
  //     small-support -> G/L phases do the work;
  //   - hyp, voter, vga: partially reduced, SAT finishes the residue;
  //   - sqrt: digit-recurrence structure resists sweeping -> SAT does
  //     nearly everything (the paper's 0.7%-reduction case).
  if (family == "hyp") return hyp(14);
  if (family == "log2") return log2_approx(16, 8);
  if (family == "multiplier") return array_multiplier(14);
  if (family == "sqrt") return isqrt(32);
  if (family == "square") return square(20);
  if (family == "voter") return voter(63);
  if (family == "sin") return cordic_sin(16, 12);
  if (family == "ac97_ctrl") return ac97_like(2, seed);
  if (family == "vga_lcd") return vga_like(2, seed + 1);
  throw std::invalid_argument("unknown benchmark family: " + family);
}

}  // namespace

BenchCase make_case(const std::string& family, const SuiteParams& params) {
  const aig::Aig base = base_circuit(family, params.seed);
  const aig::Aig optimized_base = opt::resyn2(base);
  BenchCase c;
  c.name = family + "_" + std::to_string(params.doublings) + "xd";
  c.original = double_circuit(base, params.doublings);
  c.optimized = double_circuit(optimized_base, params.doublings);
  return c;
}

std::vector<BenchCase> table2_suite(const SuiteParams& params) {
  std::vector<BenchCase> cases;
  cases.reserve(table2_families().size());
  for (const std::string& family : table2_families())
    cases.push_back(make_case(family, params));
  return cases;
}

}  // namespace simsweep::gen
