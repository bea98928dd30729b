#include "kernels/motion_estimation.hpp"

#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "kernels/jobs.hpp"
#include "sim/system.hpp"

namespace sring::kernels {

LoadableProgram make_sad_engine_program(const RingGeometry& g,
                                        std::size_t block_pixels,
                                        std::size_t batches) {
  check(g.lanes >= 2, "sad engine: needs 2 lanes per unit");
  check(block_pixels >= 1 && batches >= 1,
        "sad engine: empty workload");

  ProgramBuilder pb(g, "sad_engine");

  // Page WORK: lane 0 absdiff on two host words, lane 1 accumulates
  // the upstream lane-0 result (one pixel per unit per cycle).
  PageBuilder work(g);
  for (std::size_t layer = 0; layer < g.layers; ++layer) {
    SwitchRoute r0;
    r0.in1 = PortRoute::host();
    r0.in2 = PortRoute::host();
    work.route(layer, 0, r0);
    DnodeInstr ad;
    ad.op = DnodeOp::kAbsdiff;
    ad.src_a = DnodeSrc::kIn1;
    ad.src_b = DnodeSrc::kIn2;
    ad.out_en = true;
    work.instr(layer, 0, ad);

    // lane 1 reads its own layer's lane-0 output through the
    // downstream switch's pipeline (depth 0 = one cycle behind).
    SwitchRoute r1;
    r1.fifo1 = {static_cast<std::uint8_t>((layer + 1) % g.layers), 0, 0};
    work.route(layer, 1, r1);
    DnodeInstr acc;
    acc.op = DnodeOp::kAdd;
    acc.src_a = DnodeSrc::kFifo1;
    acc.src_b = DnodeSrc::kR0;
    acc.dst = DnodeDst::kR0;
    work.instr(layer, 1, acc);
  }
  const std::size_t page_work = pb.add_page(std::move(work));

  // Page DRAIN (one cycle): lane 0 idles (its output register holds
  // the last absdiff), lane 1 folds in the second-to-last absdiff that
  // is still inside the feedback pipeline.
  PageBuilder drain(g);
  for (std::size_t layer = 0; layer < g.layers; ++layer) {
    SwitchRoute r1;
    r1.fifo1 = {static_cast<std::uint8_t>((layer + 1) % g.layers), 0, 0};
    drain.route(layer, 1, r1);
    DnodeInstr acc;
    acc.op = DnodeOp::kAdd;
    acc.src_a = DnodeSrc::kFifo1;
    acc.src_b = DnodeSrc::kR0;
    acc.dst = DnodeDst::kR0;
    drain.instr(layer, 1, acc);
  }
  const std::size_t page_drain = pb.add_page(std::move(drain));

  // Page EMIT: lane 1 pushes acc + in-flight absdiff (the lane-0
  // output registered at the last WORK edge) to the host.
  PageBuilder emit(g);
  for (std::size_t layer = 0; layer < g.layers; ++layer) {
    SwitchRoute r1;
    r1.fifo1 = {static_cast<std::uint8_t>((layer + 1) % g.layers), 0, 0};
    emit.route(layer, 1, r1);
    DnodeInstr e;
    e.op = DnodeOp::kAdd;
    e.src_a = DnodeSrc::kFifo1;
    e.src_b = DnodeSrc::kR0;
    e.host_en = true;
    emit.instr(layer, 1, e);
  }
  const std::size_t page_emit = pb.add_page(std::move(emit));

  // Page RESET: clear accumulators and lane-0 output registers.
  PageBuilder reset(g);
  for (std::size_t layer = 0; layer < g.layers; ++layer) {
    DnodeInstr z0;
    z0.op = DnodeOp::kPass;
    z0.src_a = DnodeSrc::kZero;
    z0.out_en = true;
    reset.instr(layer, 0, z0);
    DnodeInstr z1;
    z1.op = DnodeOp::kPass;
    z1.src_a = DnodeSrc::kZero;
    z1.dst = DnodeDst::kR0;
    reset.instr(layer, 1, z1);
  }
  const std::size_t page_reset = pb.add_page(std::move(reset));

  // Controller: per batch, WORK for `block_pixels` cycles, EMIT,
  // RESET; the two loop-upkeep cycles run under the RESET page (no
  // host pops, so stream alignment is preserved).
  pb.set_reg(1, batches);
  pb.ldi(2, 0);
  pb.label("batch");
  pb.page_switch(page_work);
  if (block_pixels > 1) {
    pb.wait(static_cast<std::uint32_t>(block_pixels - 1));
  }
  pb.page_switch(page_drain);
  pb.page_switch(page_emit);
  pb.page_switch(page_reset);
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "batch");
  pb.halt();
  return std::move(pb).build();
}

std::vector<std::pair<int, int>> sad_displacements(int range) {
  std::vector<std::pair<int, int>> disp;
  for (int dy = -range; dy <= range; ++dy) {
    for (int dx = -range; dx <= range; ++dx) {
      disp.emplace_back(dx, dy);
    }
  }
  return disp;
}

/// Feed order within a WORK cycle: for each unit (layer) ascending,
/// its (ref, cand) pixel pair — matching the ring's documented host
/// pop order (layer asc, lane asc, in1 before in2).
std::vector<Word> make_sad_feed(const Image& ref, std::size_t rx,
                                std::size_t ry, const Image& cand,
                                const std::vector<std::pair<int, int>>& disp,
                                std::size_t units, std::size_t n) {
  std::vector<Word> feed;
  const std::size_t batches = (disp.size() + units - 1) / units;
  feed.reserve(batches * n * n * units * 2);
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t i = 0; i < n * n; ++i) {
      const std::size_t px = i % n;
      const std::size_t py = i / n;
      for (std::size_t u = 0; u < units; ++u) {
        const std::size_t c = b * units + u;
        if (c >= disp.size()) {
          feed.push_back(0);
          feed.push_back(0);
          continue;
        }
        const auto [dx, dy] = disp[c];
        feed.push_back(ref.at_clamped(
            static_cast<std::ptrdiff_t>(rx + px),
            static_cast<std::ptrdiff_t>(ry + py)));
        feed.push_back(cand.at_clamped(
            static_cast<std::ptrdiff_t>(rx + px) + dx,
            static_cast<std::ptrdiff_t>(ry + py) + dy));
      }
    }
  }
  return feed;
}

MotionEstimationResult run_motion_estimation(const RingGeometry& g,
                                             const Image& ref,
                                             std::size_t rx, std::size_t ry,
                                             const Image& cand, int range) {
  const rt::Job job = make_motion_estimation_job(g, ref, rx, ry, cand, range);
  System sys({g});
  sys.load(*job.program);

  MotionEstimationResult result;
  const std::vector<Word> sads = rt::run_on(sys, job);
  result.sads.assign(sads.begin(), sads.end());
  result.best = best_motion_vector(sads, range);
  result.stats = sys.stats();
  result.cycles = result.stats.cycles;
  result.report = RunReport::from_system(job.name, sys);
  result.report.extra("candidates", std::uint64_t{sads.size()})
      .extra("batches", std::uint64_t{(sads.size() + g.layers - 1) / g.layers})
      .extra("best_sad", std::uint64_t{result.best.sad});
  return result;
}

}  // namespace sring::kernels
