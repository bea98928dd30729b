#include "rt/system_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sring::rt {

SystemPool::SystemPool(std::size_t max_systems)
    : max_systems_(max_systems) {
  check(max_systems_ >= 1, "SystemPool: max_systems must be at least 1");
}

SystemPool::Lease SystemPool::acquire(const Job& job) {
  check(job.program != nullptr, "SystemPool::acquire: job has no program");
  const RingGeometry& g = job.program->geometry;
  ++tick_;

  // A resident of this structure re-arms: only differing immediates
  // are written, and nothing is compared when the job carries the very
  // program object the System was last armed from (held here, so its
  // address cannot be reused).  The compare fails fast on a different
  // program.
  for (auto& entry : entries_) {
    if (entry.geometry != g || entry.link != job.link) continue;
    const bool same_object = entry.program == job.program;
    if (!same_object && !entry.system->rearm(*job.program)) continue;
    if (same_object) entry.system->rerun();
    entry.program = job.program;
    entry.last_use = tick_;
    ++fast_resets_;
    return {*entry.system, true};
  }

  // While there is room, grow instead of reloading a resident: a
  // working set of up to max_systems_ distinct structures settles into
  // all re-arms instead of thrashing one System.
  Entry* target = nullptr;
  if (entries_.size() >= max_systems_) {
    const auto lru = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.last_use < b.last_use; });
    if (lru->geometry == g && lru->link == job.link) {
      target = &*lru;
    } else {
      entries_.erase(lru);
      ++evictions_;
    }
  }
  if (target == nullptr) {
    target = &entries_.emplace_back(
        Entry{g, job.link, std::make_unique<System>(SystemConfig{g, job.link}),
              nullptr, 0});
    ++constructed_;
  }
  target->last_use = tick_;
  ++full_loads_;
  target->program = nullptr;  // a load that throws leaves nothing armed
  target->system->load(*job.program);
  target->program = job.program;
  return {*target->system, false};
}

}  // namespace sring::rt
