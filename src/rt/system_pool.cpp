#include "rt/system_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sring::rt {

namespace {

bool link_equal(const LinkRate& a, const LinkRate& b) {
  return a.num == b.num && a.den == b.den;
}

}  // namespace

SystemPool::SystemPool(std::size_t max_systems)
    : max_systems_(max_systems) {
  check(max_systems_ >= 1, "SystemPool: max_systems must be at least 1");
}

SystemPool::Lease SystemPool::acquire(const Job& job) {
  check(job.program != nullptr, "SystemPool::acquire: job has no program");
  const RingGeometry& g = job.program->geometry;
  ++tick_;

  // A resident of this structure re-arms: only differing immediates
  // are written.  The compare fails fast on a different program.
  for (auto& entry : entries_) {
    if (entry.geometry == g && link_equal(entry.link, job.link) &&
        entry.system->rearm(*job.program)) {
      entry.last_use = tick_;
      ++fast_resets_;
      return {*entry.system, true};
    }
  }

  // While there is room, grow instead of reloading a resident: a
  // working set of up to max_systems_ distinct structures settles into
  // all re-arms instead of thrashing one System.
  if (entries_.size() >= max_systems_) {
    const auto lru = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.last_use < b.last_use; });
    if (lru->geometry == g && link_equal(lru->link, job.link)) {
      lru->last_use = tick_;
      ++full_loads_;
      lru->system->load(*job.program);
      return {*lru->system, false};
    }
    entries_.erase(lru);
    ++evictions_;
  }

  Entry entry;
  entry.geometry = g;
  entry.link = job.link;
  entry.system = std::make_unique<System>(SystemConfig{g, job.link});
  entry.last_use = tick_;
  ++constructed_;
  ++full_loads_;
  entry.system->load(*job.program);
  entries_.push_back(std::move(entry));
  return {*entries_.back().system, false};
}

}  // namespace sring::rt
