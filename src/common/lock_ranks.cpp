#include "common/lock_ranks.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace simsweep::common {

const char* to_string(LockRank rank) {
  switch (rank) {
    case LockRank::kService: return "service";
    case LockRank::kPool: return "pool";
    case LockRank::kExecutor: return "executor";
    case LockRank::kCkpt: return "ckpt";
    case LockRank::kRegistry: return "registry";
    case LockRank::kFault: return "fault";
    case LockRank::kLog: return "log";
  }
  return "?";
}

namespace lock_ranks {

namespace {

constexpr int kNumRanks = static_cast<int>(LockRank::kLog) + 1;

#ifdef SIMSWEEP_CHECKED
std::atomic<Enforcement> g_enforcement{Enforcement::kAbort};
#else
std::atomic<Enforcement> g_enforcement{Enforcement::kOff};
#endif

/// Per-thread held-rank multiset: a fixed stack is enough because the
/// rank order forbids deep nesting (at most one lock per rank held).
struct HeldRanks {
  LockRank stack[kNumRanks];
  int depth = 0;
};
thread_local HeldRanks t_held;

[[noreturn]] void abort_with(const std::string& message) {
  std::fprintf(stderr, "SIMSWEEP lock-rank violation: %s\n",
               message.c_str());
  std::fflush(stderr);
  std::abort();
}

void violation(const std::string& message, Enforcement mode) {
  if (mode == Enforcement::kThrow)
    throw std::logic_error("lock-rank violation: " + message);
  abort_with(message);
}

}  // namespace

void set_enforcement(Enforcement mode) {
  g_enforcement.store(mode, std::memory_order_relaxed);
}

Enforcement enforcement() {
  return g_enforcement.load(std::memory_order_relaxed);
}

namespace detail {

void note_acquire(LockRank rank) {
  const Enforcement mode = g_enforcement.load(std::memory_order_relaxed);
  if (mode == Enforcement::kOff) return;
  HeldRanks& held = t_held;
  if (held.depth > 0) {
    const LockRank top = held.stack[held.depth - 1];
    if (static_cast<int>(rank) <= static_cast<int>(top))
      violation(std::string("acquiring rank '") + to_string(rank) +
                    "' while holding rank '" + to_string(top) +
                    "' (nested acquisitions must strictly ascend "
                    "service < pool < executor < ckpt < registry < fault "
                    "< log)",
                mode);
  }
  if (held.depth >= kNumRanks)
    violation("held-rank stack overflow (more nested ranked locks than "
              "ranks exist)",
              mode);
  held.stack[held.depth++] = rank;
}

void note_release(LockRank rank) {
  if (g_enforcement.load(std::memory_order_relaxed) == Enforcement::kOff)
    return;
  HeldRanks& held = t_held;
  // Scoped locks unwind LIFO; tolerate an off-by-one when enforcement was
  // toggled mid-scope by searching from the top.
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.stack[i] != rank) continue;
    for (int j = i; j + 1 < held.depth; ++j)
      held.stack[j] = held.stack[j + 1];
    --held.depth;
    return;
  }
}

}  // namespace detail
}  // namespace lock_ranks
}  // namespace simsweep::common
