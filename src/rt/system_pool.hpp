// Per-worker System cache.
//
// Constructing a System and loading a program means re-validating and
// re-decoding every configuration page — the software counterpart of
// shipping configware over the paper's 250 MB/s host link.  The pool
// keeps a small LRU set of Systems keyed by (geometry, link) and
// remembers which program each one has loaded, so a job stream that
// repeats (geometry, program_key) pairs re-arms via the cheap
// System::reset_for_rerun() path instead of reloading: the paper's
// "preloaded configuration pages" argument, applied to the fleet.
//
// The Ring's structure-keyed cycle-plan cache survives both re-arm
// paths, reruns and full loads: a job that loads a known kernel with
// new immediates (a GEMM tile's matrix, a FIR's taps) compiles
// nothing.  Plan counters reset with the rest of the statistics, so a
// report differs from a fresh System's only in the ring.plan.*
// counters, which reflect the pooled System's warm cache.
//
// NOT thread-safe by design: every worker thread owns one pool, so
// the job hot path takes no locks at all.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rt/job.hpp"
#include "sim/system.hpp"

namespace sring::rt {

class SystemPool {
 public:
  /// `max_systems` bounds resident Systems (LRU eviction beyond it).
  explicit SystemPool(std::size_t max_systems = 4);

  struct Lease {
    System& system;       ///< loaded and reset, ready to run `job`
    bool reused_program;  ///< fast re-arm: reconfiguration was skipped
  };

  /// Hand out a System armed for `job`: reuses a cached instance when
  /// geometry and link match, and skips the program reload entirely
  /// when the (non-empty) program_key matches what that System last
  /// loaded.
  Lease acquire(const Job& job);

  // --- instrumentation ------------------------------------------------
  std::uint64_t systems_constructed() const noexcept { return constructed_; }
  std::uint64_t full_loads() const noexcept { return full_loads_; }
  std::uint64_t fast_resets() const noexcept { return fast_resets_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    RingGeometry geometry;
    LinkRate link;
    std::string program_key;  ///< empty: contents unknown, must reload
    std::unique_ptr<System> system;
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
