#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <string>
#include <system_error>

#include "common/lock_ranks.hpp"
#include "fault/fault.hpp"
#include "obs/metric_names.hpp"
#include "obs/registry.hpp"

#ifdef SIMSWEEP_CHECKED
#include <cstdio>
#include <cstdlib>
#endif

namespace simsweep::parallel {

namespace {

/// One step of a short busy-wait. On x86 `pause` keeps the spin cheap and
/// polite to the sibling hyperthread; everywhere (and periodically on x86
/// too) we yield so single-core hosts make progress instead of burning the
/// waiter's whole timeslice.
inline void relax(unsigned& spins) {
#if defined(__x86_64__) || defined(__i386__)
  if ((++spins & 7u) != 0) {
    __builtin_ia32_pause();
    return;
  }
#else
  ++spins;
#endif
  std::this_thread::yield();
}

/// Idle spins before a worker parks on the condition variable.
constexpr unsigned kIdleSpins = 256;

#ifdef SIMSWEEP_CHECKED
/// One-shot armed protocol fault (test-only; see checked_inject_fault_*).
std::atomic<int> g_checked_fault{0};

/// Pops the armed fault iff it matches `want` (so claim- and retire-side
/// injection points do not steal each other's fault).
bool take_fault(CheckedFault want) {
  int expected = static_cast<int>(want);
  return g_checked_fault.compare_exchange_strong(
      expected, 0, std::memory_order_relaxed);
}

[[noreturn]] void protocol_violation(const char* what, std::uint32_t epoch,
                                     std::uint32_t stage, std::size_t a,
                                     std::size_t b) {
  std::fprintf(stderr,
               "SIMSWEEP_CHECKED violation: %s (epoch=%u stage=%u "
               "detail=%zu/%zu)\n",
               what, epoch, stage, a, b);
  std::fflush(stderr);
  std::abort();
}
#endif

}  // namespace

#ifdef SIMSWEEP_CHECKED
void checked_inject_fault_for_test(CheckedFault fault) {
  g_checked_fault.store(static_cast<int>(fault), std::memory_order_relaxed);
}
#endif

ThreadPool::ThreadPool(unsigned num_workers) {
  if (num_workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_workers = hw > 1 ? hw - 1 : 0;
  }
  created_ = std::chrono::steady_clock::now();
  worker_stats_ = std::make_unique<WorkerStat[]>(num_workers + 1);
  workers_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    // Injection site `pool.spawn` (DESIGN.md §2.4): thread creation can
    // fail under thread-count limits. The pool degrades to the workers
    // that did start — worker_stats_ was sized up front and worker
    // indices are dense in [0, workers_.size()), so a short pool is
    // fully functional; with zero workers every launch runs inline.
    try {
      if (SIMSWEEP_FAULT_POINT(fault::sites::kPoolSpawn))
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "injected fault at pool.spawn");
      workers_.emplace_back(
          [this, i = static_cast<unsigned>(workers_.size())] {
            worker_loop(i);
          });
    } catch (const std::system_error&) {
      ++spawn_failures_;
    }
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard lock(park_mutex_);
  }
  park_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::run_stages(const StagePlan& plan) {
  const fault::StopToken* stop = plan.stop_;
  if (plan.stages_.empty()) return !(stop != nullptr && stop->stop_requested());
  std::vector<StageRef> refs;
  refs.reserve(plan.stages_.size());
  for (const auto& s : plan.stages_)
    refs.push_back(StageRef{s.begin, s.end, &s.block});
  return execute(refs.data(), refs.size(), stop, plan.granular_);
}

bool ThreadPool::execute(const StageRef* stages, std::size_t n,
                         const fault::StopToken* stop, bool granular) {
  const auto stopped = [stop] {
    return stop != nullptr && stop->stop_requested();
  };
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (stages[i].begin < stages[i].end) total += stages[i].end - stages[i].begin;
  // Inline path: no workers, or too little work to amortize a launch. The
  // stop token is still honoured between stages. Granular launches
  // skip the amortization heuristic (their items are long-running bodies,
  // not loop iterations) but still run inline on a workerless pool.
  if (workers_.empty() || (!granular && total < 2 * concurrency())) {
    inline_jobs_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      if (stopped()) return false;
      if (stages[i].begin < stages[i].end)
        (*stages[i].block)(stages[i].begin, stages[i].end);
    }
    return !stopped();
  }

  common::RankedMutexLock submit(submit_mutex_, common::lock_ranks::pool);
  if (stopped()) return false;

  // Stage slots may be (re)allocated here: quiescence is guaranteed — the
  // previous job's submitter only returned once active_ hit 0.
  if (n > slot_capacity_) {
    slot_capacity_ = std::max<std::size_t>(2 * slot_capacity_, n);
    slots_ = std::make_unique<StageSlot[]>(slot_capacity_);
  }
  const unsigned threads = concurrency();
  for (std::size_t i = 0; i < n; ++i) {
    StageSlot& slot = slots_[i];
    slot.begin = stages[i].begin;
    slot.end = stages[i].end;
    const std::size_t items =
        slot.end > slot.begin ? slot.end - slot.begin : 0;
    slot.chunk =
        granular ? 1 : std::max<std::size_t>(1, items / (threads * 8));
    slot.block = stages[i].block;
    slot.cursor.store(slot.begin, std::memory_order_relaxed);
    slot.remaining.store(items, std::memory_order_relaxed);
#ifdef SIMSWEEP_CHECKED
    const std::size_t words = (items + 63) / 64;
    if (words > slot.claimed_words) {
      slot.claimed = std::make_unique<std::atomic<std::uint64_t>[]>(words);
      slot.claimed_words = words;
    }
    for (std::size_t w = 0; w < words; ++w)
      slot.claimed[w].store(0, std::memory_order_relaxed);
    slot.opened.store(0, std::memory_order_relaxed);
#endif
  }
  num_stages_ = n;
  stop_token_ = stop;
  jobs_.fetch_add(1, std::memory_order_relaxed);
  stages_submitted_.fetch_add(n, std::memory_order_relaxed);
  std::uint32_t first = 0;
  while (first < n && stages[first].begin >= stages[first].end) ++first;
  const std::uint32_t e = ++epoch_;
  control_.store(pack(e, first), std::memory_order_seq_cst);
  if (num_parked_.load(std::memory_order_seq_cst) > 0) {
    {
      std::lock_guard lock(park_mutex_);
    }
    park_cv_.notify_all();
  }

  // The calling thread participates, then waits for stragglers to leave
  // the job before the stage slots may be reused.
  const auto job_start = std::chrono::steady_clock::now();
  run_job(e, /*stat_slot=*/0);
  unsigned spins = 0;
  while (active_.load(std::memory_order_acquire) != 0) relax(spins);
  worker_stats_[0].busy_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - job_start)
              .count()),
      std::memory_order_relaxed);
  return !stopped();
}

void ThreadPool::run_job(std::uint32_t epoch, std::size_t stat_slot) {
  unsigned spins = 0;
  for (;;) {
    const std::uint64_t ctl = control_.load(std::memory_order_acquire);
    if (ctl_epoch(ctl) != epoch) return;
    const std::uint32_t s = ctl_stage(ctl);
    if (s == kStageDone) return;
    StageSlot& slot = slots_[s];
    const std::size_t lo =
        slot.cursor.fetch_add(slot.chunk, std::memory_order_relaxed);
    if (lo >= slot.end) {
      // Stage drained; the in-flight chunks of other threads have not all
      // retired yet. Wait for the barrier to open (control_ advances).
      relax(spins);
      continue;
    }
    spins = 0;
    worker_stats_[stat_slot].chunks.fetch_add(1, std::memory_order_relaxed);
    const std::size_t hi = std::min(lo + slot.chunk, slot.end);
#ifdef SIMSWEEP_CHECKED
    checked_claim(epoch, s, lo, hi);
#endif
    // The latch at every chunk claim; the deadline (a clock read) only
    // at stage barriers.
    if (!(stop_token_ != nullptr && stop_token_->cancelled()))
      (*slot.block)(lo, hi);
    const std::size_t items = hi - lo;
    // Retiring the last chunk of a stage opens the next stage: this store
    // is the entire inter-stage barrier.
#ifdef SIMSWEEP_CHECKED
    if (checked_retire(epoch, s, items) == items) advance_stage(epoch, s);
#else
    if (slot.remaining.fetch_sub(items, std::memory_order_acq_rel) == items)
      advance_stage(epoch, s);
#endif
  }
}

void ThreadPool::advance_stage(std::uint32_t epoch, std::uint32_t s) {
#ifdef SIMSWEEP_CHECKED
  checked_open(epoch, s);
#endif
  std::uint32_t next = s + 1;
  if (stop_token_ != nullptr && stop_token_->stop_requested())
    next = static_cast<std::uint32_t>(num_stages_);  // skip remaining stages
  while (next < num_stages_ && slots_[next].begin >= slots_[next].end)
    ++next;
  control_.store(
      pack(epoch, next < num_stages_ ? next : kStageDone),
      std::memory_order_release);
}

#ifdef SIMSWEEP_CHECKED

void ThreadPool::checked_claim(std::uint32_t epoch, std::uint32_t s,
                               std::size_t lo, std::size_t hi) {
  StageSlot& slot = slots_[s];
  if (lo < slot.begin || hi > slot.end || lo >= hi)
    protocol_violation("ticket cursor out of stage bounds", epoch, s, lo, hi);
  const auto mark = [&](std::size_t i) {
    const std::size_t item = i - slot.begin;
    const std::uint64_t bit = std::uint64_t{1} << (item % 64);
    const std::uint64_t prev = slot.claimed[item / 64].fetch_or(
        bit, std::memory_order_relaxed);
    if ((prev & bit) != 0)
      protocol_violation("chunk index claimed twice", epoch, s, i,
                         slot.end - slot.begin);
  };
  for (std::size_t i = lo; i < hi; ++i) mark(i);
  if (take_fault(CheckedFault::kDoubleClaim)) mark(lo);
}

std::size_t ThreadPool::checked_retire(std::uint32_t epoch, std::uint32_t s,
                                       std::size_t items) {
  StageSlot& slot = slots_[s];
  if (take_fault(CheckedFault::kDoubleRetire))
    slot.remaining.fetch_sub(items, std::memory_order_acq_rel);
  const std::size_t prev =
      slot.remaining.fetch_sub(items, std::memory_order_acq_rel);
  // fetch_sub on an unsigned counter wraps on a double retire: the stolen
  // items make some later (or this) retirement observe prev < items.
  if (prev < items || prev > slot.end - slot.begin)
    protocol_violation("chunk retired twice (retirement underflow)", epoch, s,
                       prev, items);
  return prev;
}

void ThreadPool::checked_open(std::uint32_t epoch, std::uint32_t s) {
  StageSlot& slot = slots_[s];
  if (slot.opened.fetch_add(1, std::memory_order_relaxed) != 0)
    protocol_violation("stage barrier opened twice", epoch, s, 0, 0);
  const std::size_t rem = slot.remaining.load(std::memory_order_acquire);
  if (rem != 0)
    protocol_violation("stage opened before all chunks retired", epoch, s,
                       rem, slot.end - slot.begin);
  const std::size_t items = slot.end - slot.begin;
  for (std::size_t w = 0; w < (items + 63) / 64; ++w) {
    const std::size_t in_word = std::min<std::size_t>(64, items - w * 64);
    const std::uint64_t want =
        in_word == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << in_word) - 1;
    if (slot.claimed[w].load(std::memory_order_relaxed) != want)
      protocol_violation("stage opened with unclaimed items", epoch, s, w,
                         items);
  }
}

#endif  // SIMSWEEP_CHECKED

void ThreadPool::worker_loop(std::size_t worker_index) {
  WorkerStat& stat = worker_stats_[worker_index + 1];
  std::uint32_t seen = 0;
  unsigned idle = 0;
  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) return;
    const std::uint64_t ctl = control_.load(std::memory_order_acquire);
    const std::uint32_t e = ctl_epoch(ctl);
    if (e != seen) {
#ifdef SIMSWEEP_CHECKED
      // Epochs increment by one per job; a worker may sleep through any
      // number of them but must never observe the sequence move backwards
      // (modular comparison tolerates the 32-bit wrap).
      if (static_cast<std::int32_t>(e - seen) < 0)
        protocol_violation("epoch moved backwards", e, ctl_stage(ctl), seen,
                           e);
#endif
      seen = e;
      if (ctl_stage(ctl) == kStageDone) continue;  // job already over
      active_.fetch_add(1, std::memory_order_acq_rel);
      const auto job_start = std::chrono::steady_clock::now();
      run_job(e, worker_index + 1);
      stat.busy_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - job_start)
                  .count()),
          std::memory_order_relaxed);
      active_.fetch_sub(1, std::memory_order_release);
      idle = 0;
      continue;
    }
    if (idle < kIdleSpins) {
      relax(idle);
      continue;
    }
    idle = 0;
    park(seen);
  }
}

PoolStats ThreadPool::stats() const {
  PoolStats st;
  st.workers = static_cast<unsigned>(workers_.size());
  st.spawn_failures = spawn_failures_;
  st.jobs = jobs_.load(std::memory_order_relaxed);
  st.inline_jobs = inline_jobs_.load(std::memory_order_relaxed);
  st.stages = stages_submitted_.load(std::memory_order_relaxed);
  const double lifetime_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - created_)
          .count());
  st.lifetime_seconds = lifetime_ns * 1e-9;
  // Slot 0 is the submitting thread; worker slots are 1..workers.
  for (std::size_t i = 0; i <= workers_.size(); ++i)
    st.chunks += worker_stats_[i].chunks.load(std::memory_order_relaxed);
  if (!workers_.empty() && lifetime_ns > 0) {
    double sum = 0;
    st.busy_min = 1.0;
    for (std::size_t i = 1; i <= workers_.size(); ++i) {
      const double f = static_cast<double>(worker_stats_[i].busy_ns.load(
                           std::memory_order_relaxed)) /
                       lifetime_ns;
      sum += f;
      st.busy_min = std::min(st.busy_min, f);
      st.busy_max = std::max(st.busy_max, f);
    }
    st.busy_mean = sum / static_cast<double>(workers_.size());
  }
  return st;
}

void ThreadPool::publish(obs::Registry& registry) const {
  const PoolStats st = stats();
  // Set (not add) semantics: these are process-lifetime totals, so the
  // publish is idempotent no matter how many callers emit them.
  registry.set(obs::metric::kPoolWorkers, static_cast<double>(st.workers));
  registry.set(obs::metric::kPoolJobs, static_cast<double>(st.jobs));
  registry.set(obs::metric::kPoolInlineJobs,
               static_cast<double>(st.inline_jobs));
  registry.set(obs::metric::kPoolStages, static_cast<double>(st.stages));
  registry.set(obs::metric::kPoolChunks, static_cast<double>(st.chunks));
  registry.set(obs::metric::kPoolLifetimeSeconds, st.lifetime_seconds);
  registry.set(obs::metric::kPoolBusyMean, st.busy_mean);
  registry.set(obs::metric::kPoolBusyMin, st.busy_min);
  registry.set(obs::metric::kPoolBusyMax, st.busy_max);
  registry.set(obs::metric::kPoolSpawnFailures,
               static_cast<double>(st.spawn_failures));
}

void ThreadPool::park(std::uint32_t seen_epoch) {
  std::unique_lock lock(park_mutex_);
  num_parked_.fetch_add(1, std::memory_order_seq_cst);
  park_cv_.wait(lock, [&] {
    if (stop_.load(std::memory_order_relaxed)) return true;
    const std::uint64_t ctl = control_.load(std::memory_order_acquire);
    return ctl_epoch(ctl) != seen_epoch && ctl_stage(ctl) != kStageDone;
  });
  num_parked_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace simsweep::parallel
