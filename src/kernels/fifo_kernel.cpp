#include "kernels/fifo_kernel.hpp"

#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "sim/system.hpp"

namespace sring::kernels {

LoadableProgram make_fifo_program(const RingGeometry& g,
                                  std::size_t depth) {
  check(g.layers >= 2, "fifo: needs >= 2 layers");
  check(depth < g.fb_depth, "fifo: depth exceeds the pipeline depth");
  ProgramBuilder pb(g, "fifo_emulation");

  PageBuilder page(g);
  // Producer at (0,0): host -> output register.
  SwitchRoute in_route;
  in_route.in1 = PortRoute::host();
  page.route(0, 0, in_route);
  DnodeInstr produce;
  produce.op = DnodeOp::kPass;
  produce.src_a = DnodeSrc::kIn1;
  produce.out_en = true;
  page.instr(0, 0, produce);
  page.mode(0, 0, DnodeMode::kLocal);

  // Consumer at (1,0): feedback read at the requested depth -> host.
  SwitchRoute out_route;
  out_route.fifo1 = {1, 0, static_cast<std::uint8_t>(depth)};
  page.route(1, 0, out_route);
  DnodeInstr consume;
  consume.op = DnodeOp::kPass;
  consume.src_a = DnodeSrc::kFifo1;
  consume.host_en = true;
  page.instr(1, 0, consume);
  pb.add_page(std::move(page));

  // Producer local program (single PASS) — pure stand-alone operation.
  pb.local_program(0, {produce});

  pb.page_switch(0);
  pb.halt();
  return std::move(pb).build();
}

LoadableProgram make_lifo_program(const RingGeometry& g, std::size_t block,
                                  std::size_t blocks) {
  check(g.layers >= 2, "lifo: needs >= 2 layers");
  check(block >= 2 && block <= 8, "lifo: block size 2..8");
  check(2 * block - 3 < g.fb_depth,
        "lifo: feedback pipeline too shallow for this block size");
  check(blocks >= 1, "lifo: at least one block");
  ProgramBuilder pb(g, "lifo_emulation");

  const std::size_t page_idle = pb.add_page(PageBuilder(g));

  // WRITE: the writer streams the block into its output history.
  PageBuilder write(g);
  {
    SwitchRoute r;
    r.in1 = PortRoute::host();
    write.route(0, 0, r);
    DnodeInstr in;
    in.op = DnodeOp::kPass;
    in.src_a = DnodeSrc::kIn1;
    in.out_en = true;
    write.instr(0, 0, in);
  }
  const std::size_t page_write = pb.add_page(std::move(write));

  // READ_k: the reader emits sample block-1-k; k = 0 sees it directly
  // on the upstream output register, k >= 1 at feedback depth 2k-1.
  std::vector<std::size_t> read_pages;
  for (std::size_t k = 0; k < block; ++k) {
    PageBuilder read(g);
    SwitchRoute r;
    DnodeInstr out;
    out.op = DnodeOp::kPass;
    out.host_en = true;
    if (k == 0) {
      r.in1 = PortRoute::prev(0);
      out.src_a = DnodeSrc::kIn1;
    } else {
      r.fifo1 = {1, 0, static_cast<std::uint8_t>(2 * k - 1)};
      out.src_a = DnodeSrc::kFifo1;
    }
    read.route(1, 0, r);
    read.instr(1, 0, out);
    read_pages.push_back(pb.add_page(std::move(read)));
  }

  pb.set_reg(1, blocks);
  pb.ldi(2, 0);
  pb.label("block");
  pb.page_switch(page_write);
  if (block > 1) pb.wait(static_cast<std::uint32_t>(block - 1));
  for (const std::size_t p : read_pages) pb.page_switch(p);
  pb.page_switch(page_idle);
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "block");
  pb.halt();
  return std::move(pb).build();
}

FifoResult run_lifo(const RingGeometry& g, std::span<const Word> x,
                    std::size_t block) {
  check(!x.empty() && x.size() % block == 0,
        "run_lifo: length must be a positive multiple of the block size");
  const std::size_t blocks = x.size() / block;
  System sys({g});
  sys.load(make_lifo_program(g, block, blocks));
  sys.host().send(std::vector<Word>(x.begin(), x.end()));
  sys.run_until_halt(64 + 8 * block * blocks, /*drain_cycles=*/2);

  FifoResult result;
  result.outputs = sys.host().take_received();
  check(result.outputs.size() == x.size(),
        "run_lifo: unexpected output count");
  result.stats = sys.stats();
  return result;
}

FifoResult run_fifo(const RingGeometry& g, std::span<const Word> x,
                    std::size_t depth) {
  System sys({g});
  sys.load(make_fifo_program(g, depth));
  // Pad so the tail of x drains through the emulated FIFO.
  std::vector<Word> feed(x.begin(), x.end());
  feed.insert(feed.end(), depth + 2, 0);
  sys.host().send(feed);
  sys.run_until_outputs(x.size() + depth + 2, 64 + 8 * feed.size());

  FifoResult result;
  result.outputs = sys.host().take_received();
  result.outputs.resize(x.size() + depth + 2);
  result.stats = sys.stats();
  return result;
}

}  // namespace sring::kernels
