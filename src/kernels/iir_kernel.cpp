#include "kernels/iir_kernel.hpp"

#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "kernels/fir_kernel.hpp"
#include "sim/system.hpp"

namespace sring::kernels {

LoadableProgram make_iir1_program(const RingGeometry& g, Word a) {
  check(g.layers >= 2,
        "iir1: needs >= 2 layers (the feedback image of layer 0 lives "
        "in switch 1's pipeline)");
  ProgramBuilder pb(g, "iir1");

  PageBuilder page(g);
  SwitchRoute route;
  route.in1 = PortRoute::host();
  // fifo1 reads this Dnode's own output, one cycle delayed, from the
  // pipeline of the downstream switch (pipe 1 latches layer 0).
  route.fifo1 = {1, 0, 0};
  page.route(0, 0, route);
  page.mode(0, 0, DnodeMode::kLocal);
  pb.add_page(std::move(page));

  // Local program: MAC on even steps, NOP on odd steps.  The nop gap
  // lets y[n] travel out-register -> feedback pipeline before the next
  // recurrence step reads it.
  DnodeInstr mac;
  mac.op = DnodeOp::kMac;
  mac.src_a = DnodeSrc::kFifo1;  // y[n-1]
  mac.src_b = DnodeSrc::kImm;    // a
  mac.src_c = DnodeSrc::kIn1;    // x[n]
  mac.imm = a;
  mac.out_en = true;
  mac.host_en = true;
  pb.local_program(0, {mac, DnodeInstr{}});

  pb.page_switch(0);
  pb.halt();
  return std::move(pb).build();
}

LoadableProgram make_iir2_program(const RingGeometry& g, Word b0, Word a1,
                                  Word a2) {
  check(g.layers >= 2, "iir2: needs >= 2 layers");
  ProgramBuilder pb(g, "iir2");
  const auto y_pipe =
      static_cast<std::uint8_t>((1 + 1) % g.layers);  // image of layer 1

  PageBuilder page(g);
  // D1 at (0,0): folds b0*x[n] then a2*y[n-2].
  SwitchRoute r1;
  r1.fifo1 = {y_pipe, 0, 0};
  page.route(0, 0, r1);
  page.mode(0, 0, DnodeMode::kLocal);
  // D2 at (1,0): adds a1*y[n-1], emits y[n].
  SwitchRoute r2;
  r2.in1 = PortRoute::prev(0);
  r2.fifo1 = {y_pipe, 0, 0};
  page.route(1, 0, r2);
  page.mode(1, 0, DnodeMode::kLocal);
  pb.add_page(std::move(page));

  DnodeInstr d1_even;  // r0 = b0 * x[n]
  d1_even.op = DnodeOp::kMac;
  d1_even.src_a = DnodeSrc::kHost;
  d1_even.src_b = DnodeSrc::kImm;
  d1_even.src_c = DnodeSrc::kZero;
  d1_even.imm = b0;
  d1_even.dst = DnodeDst::kR0;
  DnodeInstr d1_odd;  // out = a2 * y[n-2] + r0
  d1_odd.op = DnodeOp::kMac;
  d1_odd.src_a = DnodeSrc::kFifo1;
  d1_odd.src_b = DnodeSrc::kImm;
  d1_odd.src_c = DnodeSrc::kR0;
  d1_odd.imm = a2;
  d1_odd.out_en = true;
  pb.local_program(0, {d1_even, d1_odd});

  DnodeInstr d2_even;  // y[n] = a1 * y[n-1] + in1, emit
  d2_even.op = DnodeOp::kMac;
  d2_even.src_a = DnodeSrc::kFifo1;
  d2_even.src_b = DnodeSrc::kImm;
  d2_even.src_c = DnodeSrc::kIn1;
  d2_even.imm = a1;
  d2_even.out_en = true;
  d2_even.host_en = true;
  pb.local_program(1 * g.lanes, {d2_even, DnodeInstr{}});

  pb.page_switch(0);
  pb.halt();
  return std::move(pb).build();
}

IirResult run_iir2(const RingGeometry& g, std::span<const Word> x, Word b0,
                   Word a1, Word a2) {
  System sys({g});
  sys.load(make_iir2_program(g, b0, a1, a2));
  // One padding word lets the final even cycle (which pops the next x
  // before y[N-1] is emitted) proceed.
  std::vector<Word> feed(x.begin(), x.end());
  feed.push_back(0);
  sys.host().send(feed);
  // One push per even cycle; the first is the pre-warm-up garbage.
  sys.run_until_outputs(x.size() + 1, 64 + 32 * x.size());

  IirResult result;
  const auto raw = sys.host().take_received();
  result.outputs.assign(raw.begin() + 1,
                        raw.begin() + 1 + static_cast<std::ptrdiff_t>(
                                              x.size()));
  result.stats = sys.stats();
  result.cycles_per_sample =
      x.empty() ? 0.0
                : static_cast<double>(result.stats.cycles) /
                      static_cast<double>(x.size());
  return result;
}

IirResult run_biquad_cascade(const RingGeometry& g, std::span<const Word> x,
                             const BiquadKernelCoeffs& c) {
  const std::vector<Word> fir_coeffs = {c.b0, c.b1, c.b2};
  const FirResult fir = run_spatial_fir(g, x, fir_coeffs);
  IirResult result = run_iir2(g, fir.outputs, 1, c.a1, c.a2);
  result.stats.cycles += fir.stats.cycles;
  result.stats.dnode_ops += fir.stats.dnode_ops;
  result.stats.arith_ops += fir.stats.arith_ops;
  result.stats.host_words_in += fir.stats.host_words_in;
  result.stats.host_words_out += fir.stats.host_words_out;
  result.cycles_per_sample =
      x.empty() ? 0.0
                : static_cast<double>(result.stats.cycles) /
                      static_cast<double>(x.size());
  return result;
}

IirResult run_iir1(const RingGeometry& g, std::span<const Word> x, Word a,
                   LinkRate link) {
  System sys({g, link});
  sys.load(make_iir1_program(g, a));
  sys.host().send(std::vector<Word>(x.begin(), x.end()));
  sys.run_until_outputs(x.size(), 64 + 32 * x.size());

  IirResult result;
  result.outputs = sys.host().take_received();
  result.outputs.resize(x.size());
  result.stats = sys.stats();
  result.cycles_per_sample =
      x.empty() ? 0.0
                : static_cast<double>(result.stats.cycles) /
                      static_cast<double>(x.size());
  return result;
}

}  // namespace sring::kernels
