// Per-worker System cache.
//
// Constructing a System and loading a program means re-validating and
// re-decoding every configuration page — the software counterpart of
// shipping configware over the paper's 250 MB/s host link.  The pool
// keeps a small LRU set of Systems keyed by (geometry, link), and a job
// whose program has the *structure* of a resident System's program —
// the same pages outside their immediates, exactly the same controller
// code and local_init, checked by comparing content — re-arms that
// System through System::rearm(): only the page immediates that differ
// are written, the controller keeps its code and the ring keeps its
// page index.  A new FIR tap set, a new matrix or the next GEMM A tile
// of a known kernel is then a re-arm, and an exact rerun is the re-arm
// that writes nothing; a job carrying the very program object the
// System was last armed from (a shared batch or A-tile program) skips
// even the compare (System::rerun()): the paper's controller rewriting
// microinstructions as data over preloaded configuration pages,
// applied to the fleet.  Any other program is a full load.
//
// The Ring's structure-keyed cycle-plan cache survives both paths, so
// a re-armed or reloaded known kernel compiles nothing.  Plan counters
// reset with the rest of the statistics, so a report differs from a
// fresh System's only in the ring.plan.* counters (and the
// ring.superstep.* counters that follow from them), which reflect the
// pooled System's warm cache.
//
// NOT thread-safe by design: every worker thread owns one pool, so
// the job hot path takes no locks at all.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rt/job.hpp"
#include "sim/system.hpp"

namespace sring::rt {

class SystemPool {
 public:
  /// `max_systems` bounds resident Systems (LRU eviction beyond it).
  explicit SystemPool(std::size_t max_systems = 4);

  struct Lease {
    System& system;  ///< armed and reset, ready to run `job`
    bool rearmed;    ///< re-armed a resident structure: no reload
  };

  /// Hand out a System armed for `job`: re-arms a resident System whose
  /// geometry, link and program structure match, else loads the
  /// program into a new System or the least recently used one.
  Lease acquire(const Job& job);

  // --- instrumentation ------------------------------------------------
  std::uint64_t systems_constructed() const noexcept { return constructed_; }
  /// Arms that loaded the program from scratch.
  std::uint64_t full_loads() const noexcept { return full_loads_; }
  /// Arms that re-armed a resident structure (exact reruns included).
  std::uint64_t fast_resets() const noexcept { return fast_resets_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    RingGeometry geometry;
    LinkRate link;
    std::unique_ptr<System> system;
    /// The program object `system` was last armed from.
    std::shared_ptr<const LoadableProgram> program;
    std::uint64_t last_use = 0;
  };

  std::size_t max_systems_;
  std::vector<Entry> entries_;  // small; linear scan beats a map here
  std::uint64_t tick_ = 0;
  std::uint64_t constructed_ = 0;
  std::uint64_t full_loads_ = 0;
  std::uint64_t fast_resets_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace sring::rt
