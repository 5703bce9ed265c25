/// \file main.cpp
/// \brief `simsweep_bench <mode> [--json FILE] [--smoke]`: the one bench
/// driver. Paper modes print a table; trajectory modes write JSON.

#include <cstdio>
#include <cstring>

#include "harness.hpp"

namespace {

using namespace simsweep::bench;

struct Mode {
  const char* name;
  int (*table)();                          ///< paper mode
  int (*trajectory)(const char*, bool);    ///< JSON mode
  const char* what;
};

constexpr Mode kModes[] = {
    {"table2", run_table2, nullptr,
     "Table II: SAT vs portfolio vs SIM+SAT runtimes"},
    {"fig6", run_fig6, nullptr, "Fig. 6: engine phase breakdown"},
    {"fig7", run_fig7, nullptr,
     "Fig. 7: normalized SAT time of intermediate miters"},
    {"scaling", run_scaling, nullptr, "runtime vs doublings"},
    {"cut_passes", run_cut_passes, nullptr,
     "Table I ablation: cut-selection passes"},
    {"window_merge", run_window_merge, nullptr,
     "§III-B3 ablation: window merging"},
    {"extensions", run_extensions, nullptr, "§V extension ablation"},
    {"exhaustive", nullptr, run_exhaustive,
     "exhaustive-simulator throughput (JSON)"},
    {"sweeper", nullptr, run_sweeper, "SAT residue sweep throughput (JSON)"},
    {"service", nullptr, run_service, "batch job service throughput (JSON)"},
};

int usage() {
  std::fprintf(stderr,
               "usage: simsweep_bench <mode> [--json FILE [--smoke]]\n"
               "modes (--json FILE is required by the JSON modes and "
               "rejected by the others):\n");
  for (const Mode& m : kModes)
    std::fprintf(stderr, "  %-13s %s\n", m.name, m.what);
  std::fprintf(stderr,
               "environment (paper modes):\n"
               "  SIMSWEEP_DOUBLINGS      design doublings (default %u)\n"
               "  SIMSWEEP_TIME_BUDGET    seconds per checker per case "
               "(default %u)\n"
               "  SIMSWEEP_MAX_DOUBLINGS  scaling: largest doubling "
               "(default %u)\n"
               "  SIMSWEEP_ALL_FAMILIES   cut_passes: 1 = all nine "
               "families (default %u)\n",
               kDefaultDoublings, kDefaultTimeBudget, kDefaultMaxDoublings,
               kDefaultAllFamilies);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const Mode* mode = nullptr;
  for (const Mode& m : kModes)
    if (std::strcmp(argv[1], m.name) == 0) mode = &m;
  if (mode == nullptr) return usage();

  const char* json_path = nullptr;
  bool smoke = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      return usage();
  }
  if ((mode->trajectory != nullptr) != (json_path != nullptr) ||
      (smoke && json_path == nullptr))
    return usage();

  std::setvbuf(stdout, nullptr, _IONBF, 0);  // rows appear as they finish
  if (mode->table != nullptr) return mode->table();
  // Runtime echo of the compile-time instrumentation guard: the smoke
  // ctest logs record that the binary they timed was clean.
  std::printf("uninstrumented: ok (no sanitizer feature macros at build)\n");
  return mode->trajectory(json_path, smoke);
}
