#include "service/cec_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <utility>

#include "aig/aig_io.hpp"
#include "aig/miter.hpp"
#include "ckpt/resume.hpp"
#include "common/lock_ranks.hpp"
#include "fault/fault.hpp"
#include "obs/metric_names.hpp"

namespace simsweep::service {

namespace {

/// log2-millisecond histogram bucket: b0 < 1 ms, bk covers
/// [2^(k-1), 2^k) ms, saturating at b12 (>= ~2 s).
std::size_t latency_bucket(double seconds) {
  const double ms = seconds * 1e3;
  if (ms < 1.0) return 0;
  std::size_t b = 1;
  double upper = 2.0;
  while (ms >= upper && b < 12) {
    upper *= 2.0;
    ++b;
  }
  return b;
}

}  // namespace

CecService::CecService(ServiceParams params)
    : params_(params),
      ledger_(params.memory_budget_bytes),
      sweep_pool_(params.pool_workers),
      registry_(params.registry != nullptr ? params.registry
                                           : &own_registry_) {
  // Publish the healthy-zero baseline so every service counter is
  // present in the aggregate snapshot even when it never fires — the
  // report-schema contract ("zero-valued when healthy"), and what lets
  // tools/check_report.cpp grep for the leaves unconditionally.
  for (const char* counter :
       {obs::metric::kServiceJobsSubmitted, obs::metric::kServiceJobsCompleted,
        obs::metric::kServiceJobsFailed, obs::metric::kServiceJobsRejected,
        obs::metric::kServiceCacheHits, obs::metric::kServiceCacheMisses,
        obs::metric::kServiceDeadlineExpired})
    registry_->add(counter, 0);
  const unsigned workers = std::max(1u, params_.max_concurrent_jobs);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

CecService::~CecService() {
  {
    common::RankedMutexLock lock(mu_, common::lock_ranks::service);
    stopping_ = true;
  }
  notify_all();
  // audit:exempt(joining the dedicated service workers declared in the
  // header; see the workers_ exemption there)
  for (std::thread& t : workers_) t.join();
}

void CecService::notify_all() {
  {
    std::lock_guard lk(wake_mutex_);
    ++wake_epoch_;
  }
  wake_cv_.notify_all();
}

void CecService::publish_queue_gauges(std::size_t queued,
                                      std::size_t running) {
  registry_->set(obs::metric::kServiceQueued, static_cast<double>(queued));
  registry_->set(obs::metric::kServiceRunning, static_cast<double>(running));
}

std::size_t CecService::submit_locked(JobSpec&& spec) {
  const std::size_t ticket = jobs_.size();
  auto job = std::make_unique<Job>();
  job->spec = std::move(spec);
  if (job->spec.id.empty()) job->spec.id = "job" + std::to_string(ticket);
  job->result.id = job->spec.id;
  job->queued_timer.reset();
  job->stop = job->spec.params.engine.stop.child(job->spec.deadline_seconds);
  jobs_.push_back(std::move(job));
  queue_.push_back(ticket);
  queued_peak_ = std::max(queued_peak_, queue_.size());
  return ticket;
}

std::size_t CecService::submit(JobSpec spec) {
  std::size_t ticket;
  std::size_t queued;
  std::size_t queued_peak;
  std::size_t running;
  {
    common::RankedMutexLock lock(mu_, common::lock_ranks::service);
    ticket = submit_locked(std::move(spec));
    queued = queue_.size();
    queued_peak = queued_peak_;
    running = running_;
  }
  registry_->add(obs::metric::kServiceJobsSubmitted, 1);
  registry_->set(obs::metric::kServiceQueuedPeak,
                 static_cast<double>(queued_peak));
  publish_queue_gauges(queued, running);
  notify_all();
  return ticket;
}

bool CecService::poll(std::size_t ticket, JobResult* out) {
  common::RankedMutexLock lock(mu_, common::lock_ranks::service);
  Job& job = *jobs_.at(ticket);
  if (!job.done) return false;
  if (out != nullptr) *out = job.result;
  return true;
}

JobResult CecService::wait(std::size_t ticket) {
  for (;;) {
    std::uint64_t epoch;
    {
      std::lock_guard lk(wake_mutex_);
      epoch = wake_epoch_;
    }
    // Epoch is sampled BEFORE the completion probe: a notify between the
    // probe and the wait below changes the epoch, so the predicate fires
    // and the probe re-runs — no lost-wakeup window.
    JobResult out;
    if (poll(ticket, &out)) return out;
    std::unique_lock lk(wake_mutex_);
    wake_cv_.wait_for(lk, std::chrono::milliseconds(50),
                      [&] { return wake_epoch_ != epoch; });
  }
}

std::vector<JobResult> CecService::run_batch(std::vector<JobSpec> jobs) {
  std::vector<std::size_t> tickets;
  tickets.reserve(jobs.size());
  std::size_t queued;
  std::size_t queued_peak;
  std::size_t running;
  {
    common::RankedMutexLock lock(mu_, common::lock_ranks::service);
    for (JobSpec& spec : jobs)
      tickets.push_back(submit_locked(std::move(spec)));
    queued = queue_.size();
    queued_peak = queued_peak_;
    running = running_;
  }
  registry_->add(obs::metric::kServiceJobsSubmitted, tickets.size());
  registry_->set(obs::metric::kServiceQueuedPeak,
                 static_cast<double>(queued_peak));
  publish_queue_gauges(queued, running);
  notify_all();
  std::vector<JobResult> results;
  results.reserve(tickets.size());
  for (const std::size_t t : tickets) results.push_back(wait(t));
  return results;
}

obs::Snapshot CecService::metrics() const { return registry_->snapshot(); }

void CecService::worker_loop() {
  for (;;) {
    std::uint64_t epoch;
    {
      std::lock_guard lk(wake_mutex_);
      epoch = wake_epoch_;
    }
    const Step step = dispatch_one();
    if (step == Step::kStop) return;
    if (step == Step::kRan) continue;
    // Nothing dispatchable (empty queue, or admission denied while other
    // jobs run): park until a submit/completion bumps the epoch. The
    // bounded wait is belt-and-braces only — the epoch protocol above
    // already closes the lost-wakeup window.
    std::unique_lock lk(wake_mutex_);
    wake_cv_.wait_for(lk, std::chrono::milliseconds(50),
                      [&] { return wake_epoch_ != epoch; });
  }
}

CecService::Step CecService::dispatch_one() {
  Job* job = nullptr;
  std::uint64_t stake = 0;
  bool expired = false;
  bool rejected = false;
  {
    common::RankedMutexLock lock(mu_, common::lock_ranks::service);
    if (queue_.empty()) return stopping_ ? Step::kStop : Step::kIdle;

    // Highest priority wins; FIFO (lowest ticket) within a priority.
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue_.size(); ++i)
      if (jobs_[queue_[i]]->spec.priority >
          jobs_[queue_[best]]->spec.priority)
        best = i;
    Job& candidate = *jobs_[queue_[best]];

    // A deadline that expired while queued completes the job unrun: the
    // sound kUndecided path, never a partial run against zero budget.
    expired = candidate.stop.expired();

    if (!expired) {
      // Admission control against the shared ledger. Injection site
      // `service.admit` (DESIGN.md §2.4/§2.9): a forced denial exercises
      // the degradation contract — the job goes BACK in the queue.
      stake = candidate.spec.params.engine.memory_budget_bytes > 0
                  ? candidate.spec.params.engine.memory_budget_bytes
                  : params_.default_job_stake_bytes;
      bool denied = SIMSWEEP_FAULT_POINT(fault::sites::kServiceAdmit);
      if (!denied && !ledger_.try_charge(stake)) denied = true;
      if (denied) {
        if (running_ > 0) {
          // Degradation is queuing: leave the job pending and retry when
          // a completion releases its stake.
          ++candidate.result.admission_rejections;
          rejected = true;
        } else {
          // Progress guarantee: with nothing running the queue would
          // deadlock, so an over-budget job is admitted UN-staked and the
          // per-job ladder (engine.memory_ledger) governs its
          // allocations.
          ++candidate.result.admission_rejections;
          rejected = true;
          stake = 0;
          denied = false;
        }
      }
      if (denied) {
        job = nullptr;
      } else {
        job = &candidate;
      }
    } else {
      job = &candidate;
    }

    if (job != nullptr) {
      queue_.erase(queue_.begin() +
                   static_cast<std::ptrdiff_t>(best));
      ++running_;
      running_peak_ = std::max(running_peak_, running_);
      job->result.start_order = ++dispatch_seq_;
      if (!expired && params_.cache_capacity > 0)
        unprobed_.insert(job->result.start_order);
      job->result.queue_seconds = job->queued_timer.seconds();
    }
  }
  if (rejected) registry_->add(obs::metric::kServiceJobsRejected, 1);
  if (job == nullptr) return Step::kIdle;

  if (expired) {
    job->result.deadline_expired = true;
    registry_->add(obs::metric::kServiceDeadlineExpired, 1);
    finish_job(*job, stake);
    return Step::kRan;
  }
  run_job(*job, stake);
  return Step::kRan;
}

void CecService::run_job(Job& job, std::uint64_t stake) {
  Timer run_timer;
  JobResult& res = job.result;
  std::uint64_t fp = 0;
  bool computing = false;  // we own the in-flight slot for fp
  try {
    const aig::Aig a = job.spec.a ? *job.spec.a
                                  : aig::read_aiger_file(job.spec.a_path);
    const aig::Aig b = job.spec.b ? *job.spec.b
                                  : aig::read_aiger_file(job.spec.b_path);
    const aig::Aig miter = aig::make_miter(a, b);

    portfolio::CombinedParams combined = job.spec.params;
    combined.engine.memory_ledger = &ledger_;
    combined.sweeper.pool = &sweep_pool_;
    // Queue wait already spent part of the job budget: the flow runs
    // under the deadline taken at submit (engine.time_limit still caps
    // it from here).
    combined.engine.stop = job.stop;

    // Cache key: the ckpt run fingerprint — miter structure plus every
    // verdict-relevant parameter (DESIGN.md §2.9 contract). Note the
    // job deadline above is NOT part of the fingerprint:
    // budgets decide WHETHER a run decides, never WHICH decisive verdict
    // it reaches, and only decisive verdicts are cached.
    fp = ckpt::run_fingerprint(miter, combined);
    bool hit = false;
    CacheEntry entry;
    if (params_.cache_capacity > 0) {
      for (;;) {
        std::uint64_t epoch;
        {
          std::lock_guard lk(wake_mutex_);
          epoch = wake_epoch_;
        }
        bool park = true;
        bool probed = false;  // took our turn (see unprobed_) just now
        {
          common::RankedMutexLock lock(mu_, common::lock_ranks::service);
          if (unprobed_.empty() ||
              *unprobed_.begin() >= job.result.start_order) {
            probed = unprobed_.erase(job.result.start_order) > 0;
            // Injection site `service.cache` (DESIGN.md §2.4/§2.9): a
            // fired lookup behaves as a miss — no cached entry, no
            // coalescing — and the job recomputes, which is always sound.
            // The slot stays with its real owner, so `computing` is
            // deliberately not set.
            const bool faulted =
                SIMSWEEP_FAULT_POINT(fault::sites::kServiceCache);
            if (!faulted) {
              const auto it = cache_.find(fp);
              if (it != cache_.end()) {
                entry = it->second;
                hit = true;
              } else {
                computing = inflight_.insert(fp).second;  // our miss to fill
              }
            }
            park = !faulted && !hit && !computing;
          }
        }
        if (probed) notify_all();  // the next-dispatched job's turn
        if (!park) break;
        // Identical job in flight on another worker (or an earlier-
        // dispatched job yet to probe): park until a completion bumps the
        // epoch, then re-probe — the duplicate is served from the entry
        // that run stores (or takes over the slot if that run could not
        // cache a decisive verdict). Same epoch-before-probe protocol as
        // wait()/worker_loop().
        std::unique_lock lk(wake_mutex_);
        wake_cv_.wait_for(lk, std::chrono::milliseconds(50),
                          [&] { return wake_epoch_ != epoch; });
      }
    }

    if (hit) {
      res.cache_hit = true;
      res.verdict = entry.verdict;
      res.cex = std::move(entry.cex);
      res.report = std::move(entry.report);
      registry_->add(obs::metric::kServiceCacheHits, 1);
    } else {
      registry_->add(obs::metric::kServiceCacheMisses, 1);
      obs::Registry job_registry;
      combined.engine.registry = &job_registry;
      portfolio::CombinedResult r =
          portfolio::combined_check_miter(miter, combined);
      res.verdict = r.verdict;
      res.cex = std::move(r.cex);
      res.report = std::move(r.report);
      if (params_.cache_capacity > 0 && res.verdict != Verdict::kUndecided) {
        common::RankedMutexLock lock(mu_, common::lock_ranks::service);
        if (cache_.find(fp) == cache_.end()) {
          while (cache_.size() >= params_.cache_capacity &&
                 !cache_fifo_.empty()) {
            cache_.erase(cache_fifo_.front());
            cache_fifo_.erase(cache_fifo_.begin());
          }
          cache_.emplace(fp, CacheEntry{res.verdict, res.cex, res.report});
          cache_fifo_.push_back(fp);
        }
      }
    }
  } catch (const std::exception& e) {
    res.error = e.what();
    registry_->add(obs::metric::kServiceJobsFailed, 1);
  } catch (...) {
    res.error = "unknown failure";
    registry_->add(obs::metric::kServiceJobsFailed, 1);
  }
  {
    // Hand the slot back whether or not a decisive verdict was cached —
    // coalesced duplicates re-probe on the completion notification and
    // either hit the stored entry or take the slot over themselves. A
    // job that failed before its probe gives up its turn here.
    common::RankedMutexLock lock(mu_, common::lock_ranks::service);
    unprobed_.erase(job.result.start_order);
    if (computing) inflight_.erase(fp);
  }
  res.run_seconds = run_timer.seconds();
  finish_job(job, stake);
}

void CecService::finish_job(Job& job, std::uint64_t stake) {
  if (stake > 0) ledger_.release(stake);
  std::size_t queued;
  std::size_t running;
  std::size_t running_peak;
  {
    common::RankedMutexLock lock(mu_, common::lock_ranks::service);
    job.done = true;
    --running_;
    queued = queue_.size();
    running = running_;
    running_peak = running_peak_;
  }
  registry_->add(obs::metric::kServiceJobsCompleted, 1);
  registry_->set(obs::metric::kServiceRunningPeak,
                 static_cast<double>(running_peak));
  publish_queue_gauges(queued, running);
  registry_->add(obs::metric::kServiceQueueWaitHistPrefix +
                     std::to_string(latency_bucket(job.result.queue_seconds)),
                 1);
  registry_->add(obs::metric::kServiceRunTimeHistPrefix +
                     std::to_string(latency_bucket(job.result.run_seconds)),
                 1);
  notify_all();
}

}  // namespace simsweep::service
