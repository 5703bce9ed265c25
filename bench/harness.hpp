#pragma once
/// \file harness.hpp
/// \brief What the two bench executables share: the sanitizer guard,
/// the environment defaults, the exhaustive-simulator workloads and the
/// simsweep_bench modes. paper_tables.cpp owns the paper modes' case
/// loop; trajectories.cpp owns the JSON modes' timed-rep loop, verdict
/// gate and writer; each mode keeps only its workload and its columns or
/// keys.

// Benchmark binaries must never carry sanitizer instrumentation — the
// numbers would be meaningless and silently wrong in comparisons. The
// build already excludes bench/ from SIMSWEEP_SANITIZE builds; this
// hard-errors if instrumentation ever leaks in through another path
// (e.g. flags injected via CXXFLAGS). UBSan defines no feature macro and
// is caught by the build-level exclusion only.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "bench targets must be built without sanitizer instrumentation"
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#error "bench targets must be built without sanitizer instrumentation"
#endif
#endif

#include <vector>

#include "aig/aig.hpp"
#include "window/window.hpp"

namespace simsweep::bench {

// --- Environment (defaults also printed by the usage text). ---

inline constexpr unsigned kDefaultDoublings = 1;      ///< SIMSWEEP_DOUBLINGS
inline constexpr unsigned kDefaultTimeBudget = 60;    ///< SIMSWEEP_TIME_BUDGET
inline constexpr unsigned kDefaultMaxDoublings = 2;   ///< SIMSWEEP_MAX_DOUBLINGS
inline constexpr unsigned kDefaultAllFamilies = 0;    ///< SIMSWEEP_ALL_FAMILIES

// --- Exhaustive-simulator workloads (trajectory mode and bench_micro). ---

/// Windows over a miter's PO checks whose support is at most
/// `max_support`.
std::vector<window::Window> po_windows(const aig::Aig& miter,
                                       unsigned max_support);

/// `copies` independent XOR-tree circuits over `width` PIs each: the
/// many-small-windows shape (third parallelism dimension of paper Fig. 3).
aig::Aig xor_forest(unsigned copies, unsigned width);
std::vector<window::Window> xor_forest_windows(const aig::Aig& a,
                                               unsigned width);

// --- Modes (one function each; main.cpp dispatches by name). ---

int run_table2();
int run_fig6();
int run_fig7();
int run_scaling();
int run_cut_passes();
int run_window_merge();
int run_extensions();
int run_exhaustive(const char* json_path, bool smoke);
int run_sweeper(const char* json_path, bool smoke);
int run_service(const char* json_path, bool smoke);

}  // namespace simsweep::bench
