#include "kernels/mac_kernel.hpp"

#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "sim/system.hpp"

namespace sring::kernels {

LoadableProgram make_running_mac_program(const RingGeometry& g) {
  ProgramBuilder pb(g, "running_mac");

  PageBuilder page(g);
  SwitchRoute route;
  route.in1 = PortRoute::host();
  route.in2 = PortRoute::host();
  page.route(0, 0, route);
  page.mode(0, 0, DnodeMode::kLocal);
  pb.add_page(std::move(page));

  DnodeInstr mac;
  mac.op = DnodeOp::kMac;
  mac.src_a = DnodeSrc::kIn1;
  mac.src_b = DnodeSrc::kIn2;
  mac.src_c = DnodeSrc::kR0;
  mac.dst = DnodeDst::kR0;
  mac.host_en = true;
  pb.local_program(0, {mac});

  pb.page_switch(0);
  pb.halt();
  return std::move(pb).build();
}

MacResult run_running_mac(const RingGeometry& g, std::span<const Word> a,
                          std::span<const Word> b, LinkRate link) {
  check(a.size() == b.size(), "run_running_mac: length mismatch");
  System sys({g, link});
  sys.load(make_running_mac_program(g));

  std::vector<Word> interleaved;
  interleaved.reserve(2 * a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    interleaved.push_back(a[i]);
    interleaved.push_back(b[i]);
  }
  sys.host().send(interleaved);
  // Worst case: one pair per link-limited delivery; generous budget.
  sys.run_until_outputs(a.size(), 64 + 16 * a.size());

  MacResult result;
  result.partial_sums = sys.host().take_received();
  result.partial_sums.resize(a.size());
  result.stats = sys.stats();
  return result;
}

}  // namespace sring::kernels
