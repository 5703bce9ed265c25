/// \file harness.cpp
/// \brief The exhaustive-simulator workloads declared in harness.hpp.

#include "harness.hpp"

#include "aig/aig_analysis.hpp"

namespace simsweep::bench {

std::vector<window::Window> po_windows(const aig::Aig& miter,
                                       unsigned max_support) {
  const auto supports = aig::compute_supports(miter, max_support);
  std::vector<window::Window> out;
  for (std::size_t i = 0; i < miter.num_pos(); ++i) {
    const aig::Var v = aig::lit_var(miter.po(i));
    if (v == 0 || !supports.small(v)) continue;
    auto w = window::build_window(
        miter, supports.sets[v],
        {window::CheckItem{miter.po(i), aig::kLitFalse,
                           static_cast<std::uint32_t>(i)}});
    if (w) out.push_back(std::move(*w));
  }
  return out;
}

aig::Aig xor_forest(unsigned copies, unsigned width) {
  aig::Aig a(copies * width);
  for (unsigned c = 0; c < copies; ++c) {
    aig::Lit acc = a.pi_lit(width * c);
    for (unsigned i = 1; i < width; ++i)
      acc = a.add_xor(acc, a.pi_lit(width * c + i));
    a.add_po(acc);
  }
  return a;
}

std::vector<window::Window> xor_forest_windows(const aig::Aig& a,
                                               unsigned width) {
  const auto supports = aig::compute_supports(a, width);
  std::vector<window::Window> windows;
  for (std::size_t i = 0; i < a.num_pos(); ++i) {
    auto w = window::build_window(
        a, supports.sets[aig::lit_var(a.po(i))],
        {window::CheckItem{a.po(i), a.po(i),
                           static_cast<std::uint32_t>(i)}});
    windows.push_back(std::move(*w));
  }
  return windows;
}

}  // namespace simsweep::bench
