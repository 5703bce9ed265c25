#pragma once
/// \file cec_service.hpp
/// \brief Batch CEC job service (DESIGN.md §2.9).
///
/// A CecService multiplexes a stream of independent miter-check jobs over
/// ONE machine's shared resources:
///
///  - one parallel::ThreadPool, injected into every job's parallel sweep
///    (SweeperParams::pool), so concurrent jobs contend for a single
///    worker set instead of each sweep spawning its own;
///  - one fault::MemoryLedger: a job is admitted only when its memory
///    stake fits the remaining budget, otherwise it stays QUEUED (never
///    overcommitted), and the same ledger is handed to the job's engine
///    (EngineParams::memory_ledger) so the per-run degradation ladder
///    governs actual allocations;
///  - per-job obs::Registry instances — every computed job emits its own
///    simsweep.run_report.v3 snapshot — plus one service-level registry
///    holding the aggregate `service.*` metrics.
///
/// Verdict cache: results of decisive runs are memoized under the ckpt
/// run fingerprint (ckpt::run_fingerprint — FNV-1a over the miter
/// structure and the verdict-relevant parameters). A re-submitted
/// identical job returns the cached verdict/CEX/report in O(1) and
/// counts a `service.cache_hits`. Identical jobs IN FLIGHT coalesce: a
/// job whose fingerprint another worker is currently computing parks
/// until that run completes and is then served from the fresh cache
/// entry (one computation, N answers — without this, concurrent
/// duplicates would each recompute). The cache-key contract and its
/// invalidation rules are documented in DESIGN.md §2.9; in short:
/// undecided verdicts are never cached (a retry with a larger budget may
/// decide), and any parameter change that alters the verdict path (k_*,
/// seeds, sim words, conflict budget, round caps, or the miter itself)
/// changes the fingerprint, so stale entries can never be returned —
/// they simply age out of the FIFO-bounded map.
///
/// Threading: ServiceParams::max_concurrent_jobs dedicated worker
/// threads drain a priority queue (higher JobSpec::priority first, FIFO
/// within a priority). All scheduler state lives under one mutex of the
/// dedicated `service` lock rank — the outermost rank, because a worker
/// releases it before dispatching into a job and job code takes every
/// other rank. Fault drills: `service.admit` forces an admission denial
/// (the job is re-queued — degradation is queuing, never a wrong
/// verdict); `service.cache` forces a cache lookup to miss (the job is
/// recomputed soundly).

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "aig/aig.hpp"
#include "common/thread_annotations.hpp"
#include "common/timer.hpp"
#include "common/verdict.hpp"
#include "fault/governor.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "portfolio/portfolio.hpp"

namespace simsweep::service {

/// One independent miter-check request. The pair is given either as two
/// AIGER paths (loaded by the worker; a read/parse failure fails only
/// this job) or as in-memory AIGs (which take precedence when set).
struct JobSpec {
  /// Caller handle echoed in the JobResult (defaults to "job<ticket>").
  std::string id;
  std::string a_path;
  std::string b_path;
  std::optional<aig::Aig> a;
  std::optional<aig::Aig> b;
  /// Per-job engine/sweeper overrides. The service fills in the shared
  /// ledger, the shared sweep pool and the per-job registry; everything
  /// else is the caller's.
  portfolio::CombinedParams params;
  /// Whole-job wall-clock budget in seconds, INCLUDING queue wait; 0 =
  /// none. Taken as an absolute deadline at submit. A job whose deadline
  /// expires while queued is completed as kUndecided without running;
  /// one dispatched in time runs the combined flow under that deadline.
  double deadline_seconds = 0;
  /// Higher runs earlier; FIFO within equal priorities.
  int priority = 0;
};

/// Outcome of one job. `error` is non-empty iff the job failed outside
/// the verdict contract (unreadable input, internal failure) — the
/// verdict is kUndecided then and the service keeps running.
struct JobResult {
  std::string id;
  Verdict verdict = Verdict::kUndecided;
  std::optional<std::vector<bool>> cex;
  /// Served from the verdict cache (O(1), no engine run).
  bool cache_hit = false;
  /// Completed unrun because deadline_seconds elapsed in the queue.
  bool deadline_expired = false;
  /// Times this job's dispatch was denied admission and re-queued.
  std::uint64_t admission_rejections = 0;
  std::string error;
  double queue_seconds = 0;
  double run_seconds = 0;
  /// 1-based dispatch sequence number (0 = never dispatched): exposes
  /// the priority order for tests and callers.
  std::uint64_t start_order = 0;
  /// The job's own run report (simsweep.run_report.v3). For a cache hit
  /// this is the report of the run that populated the entry.
  obs::Snapshot report;
};

struct ServiceParams {
  /// Dedicated worker threads = maximum jobs in flight.
  unsigned max_concurrent_jobs = 1;
  /// Shared ledger budget in bytes; 0 = unlimited (admission always
  /// succeeds, accounting still happens).
  std::uint64_t memory_budget_bytes = 0;
  /// Admission stake of a job that sets no engine.memory_budget_bytes of
  /// its own. Held for the job's whole run, released at completion.
  std::uint64_t default_job_stake_bytes = std::uint64_t{64} << 20;
  /// Verdict-cache entry cap (FIFO eviction); 0 disables the cache.
  std::size_t cache_capacity = 1024;
  /// Worker count of the shared sweep pool (0 = hardware concurrency).
  unsigned pool_workers = 0;
  /// Aggregate `service.*` metrics land here; null = a registry owned by
  /// the service (read it via CecService::metrics()).
  obs::Registry* registry = nullptr;
};

class CecService {
 public:
  explicit CecService(ServiceParams params);
  /// Drains: every submitted job is completed (workers stop only once
  /// the queue is empty), then the workers are joined.
  ~CecService();

  CecService(const CecService&) = delete;
  CecService& operator=(const CecService&) = delete;

  /// Enqueues a job; returns the ticket to wait()/poll() on.
  std::size_t submit(JobSpec spec);
  /// Blocks until the job completes.
  JobResult wait(std::size_t ticket);
  /// Non-blocking completion probe; fills *out when done.
  bool poll(std::size_t ticket, JobResult* out);
  /// Submits the whole batch ATOMICALLY (one critical section, so the
  /// priority order is established before any worker can dispatch) and
  /// waits for all of it. Results are in submission order.
  std::vector<JobResult> run_batch(std::vector<JobSpec> jobs);

  /// Snapshot of the aggregate service.* metrics.
  obs::Snapshot metrics() const;
  /// The shared admission/degradation ledger (peak/denial inspection).
  const fault::MemoryLedger& ledger() const { return ledger_; }

 private:
  struct Job {
    JobSpec spec;
    JobResult result;
    Timer queued_timer;  ///< started at submit; measures the queue wait
    /// params.engine.stop plus the job deadline, taken at submit.
    fault::StopToken stop;
    bool done = false;
  };
  struct CacheEntry {
    Verdict verdict = Verdict::kUndecided;
    std::optional<std::vector<bool>> cex;
    obs::Snapshot report;
  };
  enum class Step { kRan, kIdle, kStop };

  std::size_t submit_locked(JobSpec&& spec) SIMSWEEP_REQUIRES(mu_);
  void worker_loop();
  /// Tries to dispatch one queued job (admission + deadline gate) and run
  /// it to completion. kIdle = nothing dispatchable right now.
  Step dispatch_one();
  void run_job(Job& job, std::uint64_t stake);
  void finish_job(Job& job, std::uint64_t stake);
  /// Bumps the wake epoch and wakes every parked waiter/worker.
  void notify_all();
  void publish_queue_gauges(std::size_t queued, std::size_t running);

  // audit:exempt(set in the constructor, read-only after)
  ServiceParams params_;
  // audit:exempt(internally synchronized: atomic charge/release accounting)
  fault::MemoryLedger ledger_;
  // audit:exempt(internally synchronized: the pool owns its own locking)
  parallel::ThreadPool sweep_pool_;
  // audit:exempt(internally synchronized: atomic metric cells)
  obs::Registry own_registry_;
  /// Aggregation target (own_registry_ or the user's).
  /// audit:exempt(set once in the constructor, read-only after)
  obs::Registry* registry_;

  mutable common::Mutex mu_;
  std::vector<std::unique_ptr<Job>> jobs_ SIMSWEEP_GUARDED_BY(mu_);
  /// Pending tickets; dispatch picks max priority, FIFO within equal.
  std::vector<std::size_t> queue_ SIMSWEEP_GUARDED_BY(mu_);
  std::map<std::uint64_t, CacheEntry> cache_ SIMSWEEP_GUARDED_BY(mu_);
  std::vector<std::uint64_t> cache_fifo_ SIMSWEEP_GUARDED_BY(mu_);
  /// Fingerprints being computed right now — duplicates coalesce on them.
  std::set<std::uint64_t> inflight_ SIMSWEEP_GUARDED_BY(mu_);
  /// Start orders of dispatched jobs that have not probed the cache yet.
  /// A job probes (or claims an in-flight slot) only when no earlier-
  /// dispatched job is still here, so of two identical jobs the first
  /// dispatched computes even when its inputs load more slowly.
  std::set<std::uint64_t> unprobed_ SIMSWEEP_GUARDED_BY(mu_);
  std::uint64_t dispatch_seq_ SIMSWEEP_GUARDED_BY(mu_) = 0;
  std::size_t running_ SIMSWEEP_GUARDED_BY(mu_) = 0;
  std::size_t queued_peak_ SIMSWEEP_GUARDED_BY(mu_) = 0;
  std::size_t running_peak_ SIMSWEEP_GUARDED_BY(mu_) = 0;
  bool stopping_ SIMSWEEP_GUARDED_BY(mu_) = false;

  // Wake-up pairing for parked workers and wait() callers. wake_mutex_
  // guards only wake_epoch_ — no scheduler data — so it stays outside
  // the rank table, exactly like the pool's park pair.
  // audit:exempt(condition_variable pairing; guards only the wake epoch)
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::uint64_t wake_epoch_ = 0;  // audit:exempt(guarded by wake_mutex_)

  // audit:exempt(service workers: each runs whole jobs end-to-end with
  // blocking admission/parking; pool chunking cannot express that)
  std::vector<std::thread> workers_;
};

}  // namespace simsweep::service
