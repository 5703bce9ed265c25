#pragma once
/// \file registry.hpp
/// \brief Low-overhead counter/gauge registry for run reports.
///
/// The observability layer follows a two-tier design so the simulation
/// hot paths stay uninstrumented:
///
///  - hot loops accumulate into plain locals (or the per-module stats
///    structs they already keep);
///  - at batch/phase boundaries the accumulated deltas are published into
///    a Registry with ONE atomic add per metric.
///
/// A published cell is a relaxed std::atomic, so concurrent publishers
/// (pool workers finishing chunks, racing portfolio engines sharing a
/// registry) never need a lock on the publish path; the registry mutex is
/// only taken to *create* a cell the first time a name is seen and to
/// take a snapshot. Callers on repeated paths should cache the Counter&/
/// Gauge& reference (cell addresses are stable for the registry's
/// lifetime).
///
/// Naming scheme (see DESIGN.md §2.3): dotted lower_snake paths,
/// `<module>.<metric>` or `<module>.<sub>.<metric>`, e.g.
/// `exhaustive.words_simulated`, `cut.pass1.cuts_enumerated`,
/// `pool.busy_fraction.mean`. The JSON emitter (obs/report.hpp) nests
/// segments into objects, so a name must not be both a leaf and a prefix
/// of another name.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.hpp"

namespace simsweep::obs {

/// Monotonic event count. Increment is one relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time double value (seconds, fractions, sizes). set() has
/// last-writer-wins semantics; add() accumulates via a CAS loop (atomic
/// double fetch_add is C++20-library-optional, the loop is portable).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge };

/// One metric in a snapshot: `count` is meaningful for counters, `value`
/// for gauges.
struct Metric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;
  double value = 0.0;

  double as_double() const {
    return kind == MetricKind::kCounter ? static_cast<double>(count) : value;
  }
};

/// A point-in-time copy of every metric, sorted by name. Plain data:
/// copyable, storable in results, safe to read from any thread.
struct Snapshot {
  std::vector<Metric> metrics;

  bool empty() const { return metrics.empty(); }
  /// Returns the metric with this exact name, or nullptr.
  const Metric* find(std::string_view name) const;
  /// Counter value by name (0 if absent or a gauge).
  std::uint64_t count(std::string_view name) const;
  /// Gauge value by name (0.0 if absent or a counter).
  double value(std::string_view name) const;
};

/// The metric registry threaded through the engine (EngineParams::registry
/// -> EngineContext::obs) and the combined checker. Thread-safe: cell
/// creation and snapshotting lock; increments on returned references are
/// lock-free.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the counter with this name. The reference is stable
  /// for the registry's lifetime. If the name already exists as a gauge,
  /// the counter view of the same cell is returned (first creation wins
  /// the kind; instrumentation keeps kinds consistent per name).
  Counter& counter(std::string_view name) SIMSWEEP_EXCLUDES(mutex_);
  /// Finds or creates the gauge with this name.
  Gauge& gauge(std::string_view name) SIMSWEEP_EXCLUDES(mutex_);

  /// Convenience one-shot forms (pay the map lookup; fine off hot paths).
  void add(std::string_view name, std::uint64_t delta = 1) {
    counter(name).add(delta);
  }
  void set(std::string_view name, double v) { gauge(name).set(v); }
  void add_value(std::string_view name, double delta) {
    gauge(name).add(delta);
  }

  Snapshot snapshot() const SIMSWEEP_EXCLUDES(mutex_);

  /// Adds every metric of `snap` to its cell, counters and gauges alike
  /// (a missing cell is created with the metric's kind). This is how a
  /// resumed run and a checkpoint's "as of now" view continue the totals
  /// of a registry they do not share.
  void absorb(const Snapshot& snap);

 private:
  /// One named cell; kind selects which member is live. Both members are
  /// trivially constructible so a cell is just two atomics.
  struct Cell {
    MetricKind kind;
    Counter counter;
    Gauge gauge;
    explicit Cell(MetricKind k) : kind(k) {}
  };

  mutable common::Mutex mutex_;
  /// Heterogeneous-lookup map so counter("name") takes no allocation on
  /// the found path. unique_ptr keeps cell addresses stable across
  /// rehash-free std::map inserts (and documents intent).
  std::map<std::string, std::unique_ptr<Cell>, std::less<>> cells_
      SIMSWEEP_GUARDED_BY(mutex_);
};

}  // namespace simsweep::obs
