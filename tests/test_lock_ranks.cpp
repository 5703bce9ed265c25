/// \file test_lock_ranks.cpp
/// \brief Runtime lock-rank checker (DESIGN.md §2.6).
///
/// Clang's -Wthread-safety-beta proves rank inversions impossible at
/// compile time via the acquired_after edges on the lock_ranks anchors;
/// this suite covers the *runtime* shadow checker that enforces the same
/// total order on GCC-only hosts (kThrow mode here so violations are
/// observable as exceptions instead of aborts).

#include "common/lock_ranks.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

namespace simsweep::common {
namespace {

/// Installs kThrow enforcement for one test; restores the previous mode.
class ScopedThrowEnforcement {
 public:
  ScopedThrowEnforcement()
      : prev_(lock_ranks::enforcement()) {
    lock_ranks::set_enforcement(lock_ranks::Enforcement::kThrow);
  }
  ~ScopedThrowEnforcement() { lock_ranks::set_enforcement(prev_); }

 private:
  lock_ranks::Enforcement prev_;
};

TEST(LockRanks, ToStringNamesEveryRank) {
  EXPECT_STREQ(to_string(LockRank::kService), "service");
  EXPECT_STREQ(to_string(LockRank::kPool), "pool");
  EXPECT_STREQ(to_string(LockRank::kExecutor), "executor");
  EXPECT_STREQ(to_string(LockRank::kCkpt), "ckpt");
  EXPECT_STREQ(to_string(LockRank::kRegistry), "registry");
  EXPECT_STREQ(to_string(LockRank::kFault), "fault");
  EXPECT_STREQ(to_string(LockRank::kLog), "log");
}

TEST(LockRanks, AnchorsCarryTheirRank) {
  EXPECT_EQ(lock_ranks::service.rank(), LockRank::kService);
  EXPECT_EQ(lock_ranks::pool.rank(), LockRank::kPool);
  EXPECT_EQ(lock_ranks::log.rank(), LockRank::kLog);
}

TEST(LockRanks, ServiceIsTheOutermostRank) {
  // The batch service's scheduler mutex nests OUTSIDE everything: a
  // service worker holds it while consulting the fault registry
  // (admission/cache drills) and job code takes every other rank after
  // the scheduler released. service -> pool must be legal ascent...
  ScopedThrowEnforcement mode;
  Mutex svc_mu, pool_mu;
  EXPECT_NO_THROW({
    RankedMutexLock a(svc_mu, lock_ranks::service);
    RankedMutexLock b(pool_mu, lock_ranks::pool);
  });
  // ...and pool -> service the forbidden inversion.
  Mutex pool2, svc2;
  RankedMutexLock outer(pool2, lock_ranks::pool);
  EXPECT_THROW(RankedMutexLock inner(svc2, lock_ranks::service),
               std::logic_error);
}

TEST(LockRanks, AscendingNestingIsLegal) {
  ScopedThrowEnforcement mode;
  Mutex outer, mid, inner;
  EXPECT_NO_THROW({
    RankedMutexLock a(outer, lock_ranks::pool);
    RankedMutexLock b(mid, lock_ranks::ckpt);
    RankedMutexLock c(inner, lock_ranks::log);
  });
}

TEST(LockRanks, ReacquiringAfterReleaseIsLegal) {
  ScopedThrowEnforcement mode;
  Mutex m;
  EXPECT_NO_THROW({
    { RankedMutexLock a(m, lock_ranks::registry); }
    { RankedMutexLock b(m, lock_ranks::registry); }
  });
}

TEST(LockRanks, InversionThrows) {
  ScopedThrowEnforcement mode;
  Mutex ckpt_mu, executor_mu;
  // The deliberate inversion: ckpt before executor. Clang rejects the
  // same nesting at compile time
  // (tests/compile_fail/lock_rank_inversion.cpp); the runtime checker is
  // the GCC-host equivalent.
  RankedMutexLock outer(ckpt_mu, lock_ranks::ckpt);
  EXPECT_THROW(RankedMutexLock inner(executor_mu, lock_ranks::executor),
               std::logic_error);
}

TEST(LockRanks, SameRankNestingThrows) {
  ScopedThrowEnforcement mode;
  Mutex a, b;
  // Two ckpt-rank locks may never nest (no defined order between two
  // CheckpointManagers), so the checker requires STRICT ascent.
  RankedMutexLock outer(a, lock_ranks::ckpt);
  EXPECT_THROW(RankedMutexLock inner(b, lock_ranks::ckpt),
               std::logic_error);
}

TEST(LockRanks, ViolationMessageNamesBothRanks) {
  ScopedThrowEnforcement mode;
  Mutex log_mu, pool_mu;
  RankedMutexLock outer(log_mu, lock_ranks::log);
  try {
    RankedMutexLock inner(pool_mu, lock_ranks::pool);
    FAIL() << "inversion not detected";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'pool'"), std::string::npos) << what;
    EXPECT_NE(what.find("'log'"), std::string::npos) << what;
  }
}

TEST(LockRanks, HeldRanksAreThreadLocal) {
  ScopedThrowEnforcement mode;
  Mutex log_mu, pool_mu;
  RankedMutexLock outer(log_mu, lock_ranks::log);
  // Another thread holds nothing, so acquiring the lowest rank there is
  // legal even while this thread sits at the top of the order.
  std::exception_ptr error;
  std::thread peer([&] {
    try {
      RankedMutexLock lock(pool_mu, lock_ranks::pool);
    } catch (...) {
      error = std::current_exception();
    }
  });
  peer.join();
  EXPECT_FALSE(error);
}

TEST(LockRanks, OffModeDisablesChecking) {
  const lock_ranks::Enforcement prev = lock_ranks::enforcement();
  lock_ranks::set_enforcement(lock_ranks::Enforcement::kOff);
  Mutex log_mu, pool_mu;
  EXPECT_NO_THROW({
    RankedMutexLock outer(log_mu, lock_ranks::log);
    RankedMutexLock inner(pool_mu, lock_ranks::pool);
  });
  lock_ranks::set_enforcement(prev);
}

}  // namespace
}  // namespace simsweep::common
