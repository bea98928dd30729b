// Aggregate execution statistics of a simulation run.
#pragma once

#include <cstdint>
#include <string>

namespace sring {

struct SystemStats {
  std::uint64_t cycles = 0;
  std::uint64_t ring_stall_cycles = 0;   ///< host-input underflow cycles
  std::uint64_t ctrl_stall_cycles = 0;   ///< controller INPOP/WAIT stalls
  std::uint64_t dnode_ops = 0;           ///< Dnode instructions executed
  std::uint64_t arith_ops = 0;           ///< arithmetic ops (MAC/MSU = 2)
  std::uint64_t host_words_in = 0;       ///< words consumed by the ring
  std::uint64_t host_words_out = 0;      ///< words produced by the ring
  std::uint64_t ctrl_instructions = 0;
  std::uint64_t config_words_written = 0;
  std::uint64_t ctrl_inpop_stalls = 0;   ///< ctrl stalls on empty host FIFO
  std::uint64_t ctrl_wait_stalls = 0;    ///< ctrl stalls inside WAIT
  std::uint64_t bus_drives = 0;          ///< Dnode shared-bus drives
  std::uint64_t bus_conflicts = 0;       ///< cycles >1 Dnode drove the bus
  std::uint64_t switch_route_changes = 0;///< decoded route words changed
  std::uint64_t plan_compiles = 0;       ///< cycle plans compiled
  std::uint64_t plan_hits = 0;           ///< cycles served by a cached plan
  std::uint64_t plan_invalidations = 0;  ///< plans detached by config writes
  /// Detachments recovered by re-attaching a cached plan whose content
  /// key matched the rewritten configuration (subset of plan_hits);
  /// plan_invalidations - plan_content_hits is the true miss count.
  std::uint64_t plan_content_hits = 0;
  std::uint64_t plan_evictions = 0;      ///< plan-cache entries discarded

  /// Fraction of Dnode issue slots used, given the Dnode count.
  double utilization(std::size_t dnode_count) const noexcept;

  std::string to_string() const;
};

}  // namespace sring
