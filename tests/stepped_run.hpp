// The per-cycle reference of the fused superstep engine, for tests and
// bench_cycle: one System::step() per cycle under the stop rules of
// System::run_until_halt / run_until_outputs / run_cycles, with their
// budget-exceeded throw at the same cycle.  With the plan cache on,
// every planned cycle is then a one-cycle tape run from Ring::step;
// with Ring::set_plan_cache_enabled(false) it is the interpreter.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/error.hpp"
#include "rt/job.hpp"
#include "sim/system.hpp"

namespace sring {

/// Runs a System either through its run_* loops (fused where
/// eligible) or, when `stepped`, through step() alone.
struct Drive {
  bool stepped = false;

  void cycles(System& sys, std::uint64_t n) const {
    if (!stepped) {
      sys.run_cycles(n);
      return;
    }
    for (std::uint64_t i = 0; i < n; ++i) sys.step();
  }

  void until_halt(System& sys, std::uint64_t max_cycles,
                  std::uint64_t drain_cycles = 0) const {
    if (!stepped) {
      sys.run_until_halt(max_cycles, drain_cycles);
      return;
    }
    for (std::uint64_t n = 0; !sys.controller().halted(); ++n) {
      check(n < max_cycles, "System::run_until_halt: cycle budget exceeded");
      sys.step();
    }
    cycles(sys, drain_cycles);
  }

  void until_outputs(System& sys, std::size_t count,
                     std::uint64_t max_cycles) const {
    if (!stepped) {
      sys.run_until_outputs(count, max_cycles);
      return;
    }
    for (std::uint64_t n = 0; sys.host().received().size() < count; ++n) {
      check(n < max_cycles,
            "System::run_until_outputs: cycle budget exceeded");
      sys.step();
    }
  }

  /// `job`'s stop rule, as an rt worker runs it (input already sent).
  void job(System& sys, const rt::Job& job) const {
    if (job.run == rt::Job::Run::kUntilOutputs) {
      until_outputs(sys, job.expected_outputs, job.max_cycles);
    } else {
      until_halt(sys, job.max_cycles, job.drain_cycles);
    }
  }
};

}  // namespace sring
