#include "sim/stats.hpp"

namespace sring {

double SystemStats::utilization(std::size_t dnode_count) const noexcept {
  if (cycles == 0 || dnode_count == 0) return 0.0;
  return static_cast<double>(dnode_ops) /
         (static_cast<double>(cycles) * static_cast<double>(dnode_count));
}

std::string SystemStats::to_string() const {
  std::string s;
  s += "cycles=" + std::to_string(cycles);
  s += " ring_stalls=" + std::to_string(ring_stall_cycles);
  s += " ctrl_stalls=" + std::to_string(ctrl_stall_cycles);
  s += " dnode_ops=" + std::to_string(dnode_ops);
  s += " arith_ops=" + std::to_string(arith_ops);
  s += " host_in=" + std::to_string(host_words_in);
  s += " host_out=" + std::to_string(host_words_out);
  s += " ctrl_instrs=" + std::to_string(ctrl_instructions);
  s += " cfg_writes=" + std::to_string(config_words_written);
  s += " inpop_stalls=" + std::to_string(ctrl_inpop_stalls);
  s += " wait_stalls=" + std::to_string(ctrl_wait_stalls);
  s += " bus_drives=" + std::to_string(bus_drives);
  s += " bus_conflicts=" + std::to_string(bus_conflicts);
  s += " route_changes=" + std::to_string(switch_route_changes);
  s += " plan_compiles=" + std::to_string(plan_compiles);
  s += " plan_hits=" + std::to_string(plan_hits);
  s += " plan_invalidations=" + std::to_string(plan_invalidations);
  s += " plan_content_hits=" + std::to_string(plan_content_hits);
  s += " plan_evictions=" + std::to_string(plan_evictions);
  return s;
}

}  // namespace sring
