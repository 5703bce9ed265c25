#include "obs/registry.hpp"

#include "common/lock_ranks.hpp"

#include <algorithm>

namespace simsweep::obs {

const Metric* Snapshot::find(std::string_view name) const {
  const auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const Metric& m, std::string_view n) { return m.name < n; });
  if (it == metrics.end() || it->name != name) return nullptr;
  return &*it;
}

std::uint64_t Snapshot::count(std::string_view name) const {
  const Metric* m = find(name);
  return (m != nullptr && m->kind == MetricKind::kCounter) ? m->count : 0;
}

double Snapshot::value(std::string_view name) const {
  const Metric* m = find(name);
  return (m != nullptr && m->kind == MetricKind::kGauge) ? m->value : 0.0;
}

Counter& Registry::counter(std::string_view name) {
  common::RankedMutexLock lock(mutex_, common::lock_ranks::registry);
  auto it = cells_.find(name);
  if (it == cells_.end())
    it = cells_.emplace(std::string(name),
                        std::make_unique<Cell>(MetricKind::kCounter))
             .first;
  return it->second->counter;
}

Gauge& Registry::gauge(std::string_view name) {
  common::RankedMutexLock lock(mutex_, common::lock_ranks::registry);
  auto it = cells_.find(name);
  if (it == cells_.end())
    it = cells_.emplace(std::string(name),
                        std::make_unique<Cell>(MetricKind::kGauge))
             .first;
  return it->second->gauge;
}

void Registry::absorb(const Snapshot& snap) {
  for (const Metric& m : snap.metrics) {
    if (m.kind == MetricKind::kCounter)
      counter(m.name).add(m.count);
    else
      gauge(m.name).add(m.value);
  }
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  common::RankedMutexLock lock(mutex_, common::lock_ranks::registry);
  snap.metrics.reserve(cells_.size());
  for (const auto& [name, cell] : cells_) {
    Metric m;
    m.name = name;
    m.kind = cell->kind;
    m.count = cell->counter.value();
    m.value = cell->gauge.value();
    snap.metrics.push_back(std::move(m));
  }
  // std::map iteration is already name-sorted; Snapshot::find relies on it.
  return snap;
}

}  // namespace simsweep::obs
