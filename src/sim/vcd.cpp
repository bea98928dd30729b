#include "sim/vcd.hpp"

#include "sim/system.hpp"

namespace sring {

std::string VcdWriter::make_id(std::size_t index) {
  // Printable VCD identifiers: base-94 over '!'..'~'.
  std::string id;
  do {
    id.push_back(static_cast<char>('!' + index % 94));
    index /= 94;
  } while (index != 0);
  return id;
}

void VcdWriter::define(std::ostream& out, const std::string& name,
                       unsigned width, Signal& sig) {
  sig.id = make_id(next_id_++);
  sig.width = width;
  out << "$var wire " << width << " " << sig.id << " " << name
      << " $end\n";
}

VcdWriter::VcdWriter(std::ostream& out, const System& system,
                     const std::string& top_module)
    : out_(&out) {
  out << "$timescale 1ns $end\n";
  out << "$scope module " << top_module << " $end\n";
  define(out, "clk", 1, clock_);
  define(out, "bus[15:0]", 16, bus_);
  define(out, "ctrl_pc[15:0]", 16, pc_);
  define(out, "ctrl_halted", 1, halted_);
  define(out, "host_fifo_depth[15:0]", 16, fifo_depth_);
  const auto& g = system.ring().geometry();
  dnode_out_.resize(g.dnode_count());
  for (std::size_t layer = 0; layer < g.layers; ++layer) {
    for (std::size_t lane = 0; lane < g.lanes; ++lane) {
      define(out,
             "dnode_" + std::to_string(layer) + "_" +
                 std::to_string(lane) + "_out[15:0]",
             16, dnode_out_[layer * g.lanes + lane]);
    }
  }
  out << "$upscope $end\n$enddefinitions $end\n";
}

void VcdWriter::emit(Signal& sig, std::uint64_t value) {
  if (sig.emitted && value == sig.last) return;
  sig.last = value;
  sig.emitted = true;
  auto& out = *out_;
  if (sig.width == 1) {
    out << (value & 1) << sig.id << '\n';
    return;
  }
  out << 'b';
  bool leading = true;
  for (int bit = static_cast<int>(sig.width) - 1; bit >= 0; --bit) {
    const bool v = (value >> bit) & 1;
    if (v) leading = false;
    if (!leading || bit == 0) out << (v ? '1' : '0');
  }
  out << ' ' << sig.id << '\n';
}

void VcdWriter::sample(const System& system) {
  auto& out = *out_;
  // Two timesteps per cycle give a visible clock edge.
  out << '#' << (2 * time_) << '\n';
  emit(clock_, 1);
  emit(bus_, system.bus());
  emit(pc_, system.controller().pc() & 0xFFFF);
  emit(halted_, system.controller().halted() ? 1 : 0);
  emit(fifo_depth_,
       static_cast<std::uint64_t>(system.host().ring_in().size()) & 0xFFFF);
  const auto& g = system.ring().geometry();
  for (std::size_t layer = 0; layer < g.layers; ++layer) {
    for (std::size_t lane = 0; lane < g.lanes; ++lane) {
      emit(dnode_out_[layer * g.lanes + lane], system.ring().out(layer, lane));
    }
  }
  out << '#' << (2 * time_ + 1) << '\n';
  clock_.emitted = false;  // force the falling edge each cycle
  emit(clock_, 0);
  ++time_;
}

}  // namespace sring
