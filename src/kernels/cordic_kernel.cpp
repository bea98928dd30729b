#include "kernels/cordic_kernel.hpp"

#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "sim/system.hpp"

namespace sring::kernels {

namespace {

/// Static routes shared by every compute page: X and Y read each
/// other's output registers through the downstream switches' pipes.
void apply_routes(PageBuilder& page, const RingGeometry& g) {
  SwitchRoute xr;  // X reads Y.out (layer 1's image lives in pipe 2)
  xr.fifo1 = {static_cast<std::uint8_t>(2 % g.layers), 0, 0};
  page.route(0, 0, xr);
  SwitchRoute yr;  // Y reads X.out (layer 0's image lives in pipe 1)
  yr.fifo1 = {1, 0, 0};
  page.route(1, 0, yr);
}

}  // namespace

LoadableProgram make_cordic_program(const RingGeometry& g,
                                    std::size_t samples,
                                    unsigned iterations) {
  check(g.layers >= 3, "cordic: needs >= 3 layers (X, Y, Z units)");
  check(iterations >= 1 && iterations <= dsp::kCordicIterations,
        "cordic: 1..12 iterations supported");
  check(samples >= 1, "cordic: at least one sample");
  ProgramBuilder pb(g, "cordic_rotate");
  const auto atan = dsp::cordic_atan_table();

  // Page 0: idle (also the inter-page settle step).
  PageBuilder idle(g);
  apply_routes(idle, g);
  const std::size_t page_idle = pb.add_page(std::move(idle));

  // Page LOAD: x0 = K_inv, y0 = 0, z0 = theta (pops the host FIFO).
  PageBuilder load(g);
  apply_routes(load, g);
  {
    DnodeInstr xi;
    xi.op = DnodeOp::kPass;
    xi.src_a = DnodeSrc::kImm;
    xi.imm = dsp::cordic_k_inv();
    xi.dst = DnodeDst::kR0;
    xi.out_en = true;
    load.instr(0, 0, xi);
    DnodeInstr yi;
    yi.op = DnodeOp::kPass;
    yi.src_a = DnodeSrc::kZero;
    yi.dst = DnodeDst::kR0;
    yi.out_en = true;
    load.instr(1, 0, yi);
    DnodeInstr zi;
    zi.op = DnodeOp::kPass;
    zi.src_a = DnodeSrc::kHost;
    zi.dst = DnodeDst::kR0;
    load.instr(2, 0, zi);
  }
  const std::size_t page_load = pb.add_page(std::move(load));

  // Page EMIT: x (cos) then y (sin) to the host.
  PageBuilder emit(g);
  apply_routes(emit, g);
  {
    DnodeInstr xe;
    xe.op = DnodeOp::kPass;
    xe.src_a = DnodeSrc::kR0;
    xe.host_en = true;
    emit.instr(0, 0, xe);
    DnodeInstr ye;
    ye.op = DnodeOp::kPass;
    ye.src_a = DnodeSrc::kR0;
    ye.host_en = true;
    emit.instr(1, 0, ye);
  }
  const std::size_t page_emit = pb.add_page(std::move(emit));

  // Per-iteration page chain: A shift+sign, B double, C direction on
  // the bus, D coupled update (bus visible one cycle after C).
  std::vector<std::size_t> chain;
  for (unsigned i = 0; i < iterations; ++i) {
    PageBuilder a(g);
    apply_routes(a, g);
    {
      DnodeInstr xs;  // r1 = y >> i
      xs.op = DnodeOp::kAsr;
      xs.src_a = DnodeSrc::kFifo1;
      xs.src_b = DnodeSrc::kImm;
      xs.imm = to_word(static_cast<std::int64_t>(i));
      xs.dst = DnodeDst::kR1;
      a.instr(0, 0, xs);
      DnodeInstr ys = xs;  // r1 = x >> i
      a.instr(1, 0, ys);
      DnodeInstr zt;  // r1 = (z < 0)
      zt.op = DnodeOp::kCmplt;
      zt.src_a = DnodeSrc::kR0;
      zt.src_b = DnodeSrc::kImm;
      zt.imm = 0;
      zt.dst = DnodeDst::kR1;
      a.instr(2, 0, zt);
    }
    chain.push_back(pb.add_page(std::move(a)));

    PageBuilder b(g);
    apply_routes(b, g);
    {
      DnodeInstr zd;  // r2 = r1 << 1
      zd.op = DnodeOp::kShl;
      zd.src_a = DnodeSrc::kR1;
      zd.src_b = DnodeSrc::kImm;
      zd.imm = 1;
      zd.dst = DnodeDst::kR2;
      b.instr(2, 0, zd);
    }
    chain.push_back(pb.add_page(std::move(b)));

    PageBuilder c(g);
    apply_routes(c, g);
    {
      DnodeInstr zb;  // bus <- 1 - r2  (the +1/-1 direction)
      zb.op = DnodeOp::kRsub;
      zb.src_a = DnodeSrc::kR2;
      zb.src_b = DnodeSrc::kImm;
      zb.imm = 1;
      zb.bus_en = true;
      c.instr(2, 0, zb);
    }
    chain.push_back(pb.add_page(std::move(c)));

    PageBuilder d(g);
    apply_routes(d, g);
    {
      DnodeInstr xu;  // x -= d * (y >> i)
      xu.op = DnodeOp::kMsu;
      xu.src_a = DnodeSrc::kBus;
      xu.src_b = DnodeSrc::kR1;
      xu.src_c = DnodeSrc::kR0;
      xu.dst = DnodeDst::kR0;
      xu.out_en = true;
      d.instr(0, 0, xu);
      DnodeInstr yu;  // y += d * (x >> i)
      yu.op = DnodeOp::kMac;
      yu.src_a = DnodeSrc::kBus;
      yu.src_b = DnodeSrc::kR1;
      yu.src_c = DnodeSrc::kR0;
      yu.dst = DnodeDst::kR0;
      yu.out_en = true;
      d.instr(1, 0, yu);
      DnodeInstr zu;  // z -= d * atan_i
      zu.op = DnodeOp::kMsu;
      zu.src_a = DnodeSrc::kBus;
      zu.src_b = DnodeSrc::kImm;
      zu.src_c = DnodeSrc::kR0;
      zu.imm = atan[i];
      zu.dst = DnodeDst::kR0;
      d.instr(2, 0, zu);
    }
    chain.push_back(pb.add_page(std::move(d)));
  }

  // Controller schedule per sample.
  pb.set_reg(1, samples);
  pb.ldi(2, 0);
  pb.label("sample");
  pb.page_switch(page_load);
  pb.page_switch(page_idle);  // settle: outs reach the pipes
  for (std::size_t p = 0; p < chain.size(); p += 4) {
    pb.page_switch(chain[p]);
    pb.page_switch(chain[p + 1]);
    pb.page_switch(chain[p + 2]);
    pb.page_switch(chain[p + 3]);
    pb.page_switch(page_idle);  // settle before the next shift reads
  }
  pb.page_switch(page_emit);
  pb.page_switch(page_idle);  // emit for exactly one cycle
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "sample");
  pb.halt();
  return std::move(pb).build();
}

CordicKernelResult run_cordic(const RingGeometry& g,
                              std::span<const Word> thetas_q12,
                              unsigned iterations) {
  check(!thetas_q12.empty(), "run_cordic: empty angle stream");
  System sys({g});
  sys.load(make_cordic_program(g, thetas_q12.size(), iterations));
  sys.host().send(std::vector<Word>(thetas_q12.begin(), thetas_q12.end()));
  sys.run_until_halt(64 + 80 * iterations * thetas_q12.size(),
                     /*drain_cycles=*/2);

  const auto raw = sys.host().take_received();
  check(raw.size() == 2 * thetas_q12.size(),
        "run_cordic: unexpected output count");
  CordicKernelResult result;
  result.outputs.reserve(thetas_q12.size());
  for (std::size_t i = 0; i < thetas_q12.size(); ++i) {
    result.outputs.push_back({raw[2 * i], raw[2 * i + 1]});
  }
  result.stats = sys.stats();
  result.cycles_per_sample = static_cast<double>(result.stats.cycles) /
                             static_cast<double>(thetas_q12.size());
  return result;
}

}  // namespace sring::kernels
