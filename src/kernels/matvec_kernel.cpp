#include "kernels/matvec_kernel.hpp"

#include <bit>

#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "kernels/jobs.hpp"
#include "sim/system.hpp"

namespace sring::kernels {

LoadableProgram make_matvec8_program(const RingGeometry& g,
                                     const dsp::Matrix8& m,
                                     std::size_t blocks) {
  check(g.dnode_count() >= dsp::kMatvecN,
        "matvec8: needs at least 8 Dnodes");
  check(blocks >= 1, "matvec8: at least one block");
  ProgramBuilder pb(g, "block_matvec8");

  // Page 0: idle.
  const std::size_t page_idle = pb.add_page(PageBuilder(g));

  // Pages 1..8: element j — every unit MACs its row coefficient with
  // the bus value.
  for (std::size_t j = 0; j < dsp::kMatvecN; ++j) {
    PageBuilder page(g);
    for (std::size_t k = 0; k < dsp::kMatvecN; ++k) {
      DnodeInstr mac;
      mac.op = DnodeOp::kMac;
      mac.src_a = DnodeSrc::kBus;
      mac.src_b = DnodeSrc::kImm;
      mac.src_c = j == 0 ? DnodeSrc::kZero : DnodeSrc::kR0;
      mac.imm = m[k][j];
      mac.dst = DnodeDst::kR0;
      mac.host_en = j == dsp::kMatvecN - 1;
      page.instr(k / g.lanes, k % g.lanes, mac);
    }
    pb.add_page(std::move(page));
  }

  // Controller: per block, 4 cycles per element (pop, broadcast,
  // pulse the element page, back to idle).
  pb.set_reg(1, blocks);
  pb.ldi(2, 0);
  pb.label("block");
  for (std::size_t j = 0; j < dsp::kMatvecN; ++j) {
    pb.inpop(3);
    pb.busw(3);
    pb.page_switch(1 + j);
    pb.page_switch(page_idle);
  }
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "block");
  pb.halt();
  return std::move(pb).build();
}

void set_matvec8_matrix(LoadableProgram& program, const dsp::Matrix8& m) {
  check(program.pages.size() == 1 + dsp::kMatvecN,
        "set_matvec8_matrix: not a matvec8 program");
  constexpr int kImmShift = std::countr_zero(kImmFieldMask);
  for (std::size_t j = 0; j < dsp::kMatvecN; ++j) {
    std::vector<std::uint64_t>& words = program.pages[1 + j].dnode_instr;
    for (std::size_t k = 0; k < dsp::kMatvecN; ++k) {
      words[k] = (words[k] & ~kImmFieldMask) |
                 (std::uint64_t{m[k][j]} << kImmShift);
    }
  }
}

MatvecResult run_block_matvec8(const RingGeometry& g, const dsp::Matrix8& m,
                               std::span<const Word> x) {
  const rt::Job job = make_matvec8_job(g, m, x);
  System sys({g});
  sys.load(*job.program);

  MatvecResult result;
  result.outputs = rt::run_on(sys, job);
  result.stats = sys.stats();
  result.cycles_per_block =
      static_cast<double>(result.stats.cycles) /
      static_cast<double>(x.size() / dsp::kMatvecN);
  return result;
}

}  // namespace sring::kernels
