// Seeded differential over random controller page schedules.
//
// Each seed generates a ring, a repertoire of configuration pages (some
// with local-mode Dnodes, some copies of another page with only the
// immediates changed), random local programs and a controller loop
// that rotates, pulses and rewrites those pages: periodic and aperiodic
// (input-dependent) rotations, one-cycle pulses, byte-identical and
// immediate-only WRCFG rewrites, immediate-only WRLOC rewrites,
// WRCFG/WRMODE/WRSW/WRLOC mixed into the rotation, more pages than the
// plan cache holds, controller INPOP starvation and WAITs.
// The host feeds the input in bursts between uneven run_cycles budgets,
// sometimes through a limited link, and may reset for a rerun midway.
//
// A second generator builds counted loops whose bodies are entirely
// traceable (page rotations and pulses, register ALU ops, INPOP, BUSW,
// RDBUS, branches over all-global pages), so the fused loop records
// them and replays the loop tape, plus one guard-miss variant per
// seed: a data-dependent BEQ that flips after k iterations, INPOP
// starvation at a mid-body INPOP, output stops and run_cycles budgets
// that land mid-iteration, an untraceable WRCFG in the body (always,
// or on one iteration only), a rerun or a re-arm with new page
// immediates midway, and a second counted loop, either nested (it
// replays while the outer loop records) or following the first.
//
// A third generator enters a traced loop by falling into its head
// after a rerun, on a reset configuration that equals the entry page
// (the first iteration must replay) or differs from it (it must not),
// sometimes starving the replay before its first PAGE.
//
// Three runs must agree: the interpreter, the planned path stepped one
// System::step() per cycle, and the default.  Outputs, the live page after
// every run step and architectural statistics agree across all three;
// metrics agree minus ring.plan.* and ring.superstep.* against the
// interpreter, and minus ring.superstep.* between the two planned
// runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asm/program_builder.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "sim/system.hpp"
#include "stepped_run.hpp"

namespace sring {
namespace {

constexpr int kSeeds = 240;
constexpr int kTraceSeeds = 340;
constexpr int kFallThroughSeeds = 64;

const RingGeometry kGeometries[] = {{2, 1, 4}, {2, 2, 4}, {3, 2, 4},
                                    {4, 2, 8}};

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&options)[N]) {
  return options[rng.next_below(N)];
}

bool chance(Rng& rng, std::uint64_t percent) {
  return rng.next_below(100) < percent;
}

DnodeInstr random_instr(Rng& rng) {
  static const DnodeOp kOps[] = {
      DnodeOp::kPass, DnodeOp::kAdd,   DnodeOp::kSub,  DnodeOp::kMac,
      DnodeOp::kXor,  DnodeOp::kMin,   DnodeOp::kMulh, DnodeOp::kAbsdiff,
      DnodeOp::kAsr,  DnodeOp::kSelect};
  static const DnodeSrc kSrcs[] = {
      DnodeSrc::kIn1, DnodeSrc::kIn2,  DnodeSrc::kFifo1, DnodeSrc::kFifo2,
      DnodeSrc::kBus, DnodeSrc::kImm,  DnodeSrc::kR0,    DnodeSrc::kR1,
      DnodeSrc::kR2,  DnodeSrc::kR3,   DnodeSrc::kZero,  DnodeSrc::kIn1};
  static const DnodeDst kDsts[] = {DnodeDst::kNone, DnodeDst::kR0,
                                   DnodeDst::kR1, DnodeDst::kR2,
                                   DnodeDst::kR3};
  DnodeInstr in;
  if (chance(rng, 12)) return in;  // NOP
  in.op = pick(rng, kOps);
  const auto src = [&] {
    return chance(rng, 6) ? DnodeSrc::kHost : pick(rng, kSrcs);
  };
  in.src_a = src();
  in.src_b = src();
  in.src_c = src();
  in.dst = pick(rng, kDsts);
  in.imm = rng.next_word_in(-40, 40);
  in.out_en = chance(rng, 75);
  in.host_en = chance(rng, 30);
  in.bus_en = chance(rng, 12);
  return in;
}

FeedbackAddr random_fb(Rng& rng, const RingGeometry& g) {
  FeedbackAddr a;
  a.pipe = static_cast<std::uint8_t>(rng.next_below(g.switch_count()));
  a.lane = static_cast<std::uint8_t>(rng.next_below(g.lanes));
  a.depth = static_cast<std::uint8_t>(rng.next_below(g.fb_depth));
  return a;
}

SwitchRoute random_route(Rng& rng, const RingGeometry& g) {
  const auto port = [&] {
    switch (rng.next_below(6)) {
      case 0:
        return PortRoute::zero();
      case 1:
      case 2:
        return PortRoute::prev(
            static_cast<std::uint8_t>(rng.next_below(g.lanes)));
      case 3:
        return PortRoute::host();
      case 4:
        return PortRoute::feedback(random_fb(rng, g));
      default:
        return PortRoute::bus();
    }
  };
  SwitchRoute r;
  r.in1 = port();
  r.in2 = port();
  r.fifo1 = random_fb(rng, g);
  r.fifo2 = random_fb(rng, g);
  r.host_out_en = chance(rng, 15);
  r.host_out_lane = static_cast<std::uint8_t>(rng.next_below(g.lanes));
  return r;
}

struct Page {
  std::vector<DnodeInstr> instrs;  ///< per flat Dnode
  std::vector<bool> local;         ///< per flat Dnode
};

/// One host-side step: feed input words, run cycles, run until `n` more
/// output words arrived, reset for a rerun, or re-arm the case's
/// alternative program.
struct Action {
  enum Kind { kSend, kRun, kOutputs, kRerun, kRearm } kind = kRun;
  std::uint64_t n = 0;  ///< words to send / cycles to run / outputs
};

struct Case {
  RingGeometry g{};
  LinkRate link = LinkRate::unlimited();
  LoadableProgram program;
  LoadableProgram alt;  ///< kRearm target: the same structure
  std::vector<Word> input;
  std::vector<Action> drive;
  bool untraceable = false;  ///< every iteration runs a WRCFG
  std::uint64_t loop_len = 0;  ///< fall-through cases: cycles per iteration
};

Case make_case(int seed) {
  Rng rng(0xD1FFull * 1000003u + static_cast<std::uint64_t>(seed));
  Case c;
  c.g = pick(rng, kGeometries);
  const RingGeometry& g = c.g;
  const std::size_t n = g.dnode_count();
  if (chance(rng, 20)) {
    c.link = {1, 1 + static_cast<std::uint32_t>(rng.next_below(3))};
  }

  ProgramBuilder pb(g, "schedule_" + std::to_string(seed));

  // Local programs: lengths 1..8, so some combinations exceed the
  // superstep period cap.
  std::vector<std::vector<DnodeInstr>> locals(n);
  for (std::size_t d = 0; d < n; ++d) {
    const std::size_t len = 1 + rng.next_below(8);
    for (std::size_t s = 0; s < len; ++s) {
      locals[d].push_back(random_instr(rng));
    }
    pb.local_program(d, locals[d]);
  }

  // Page repertoire: sometimes more pages than the plan cache holds.
  const std::size_t npages =
      chance(rng, 25) ? 17 + rng.next_below(4) : 2 + rng.next_below(6);
  const std::uint64_t local_pct = chance(rng, 40) ? 30 : 0;
  std::vector<Page> pages(npages);
  std::vector<ConfigPage> built;
  for (std::size_t i = 0; i < npages; ++i) {
    Page& p = pages[i];
    if (i > 0 && chance(rng, 30)) {
      // Another page with new immediates: the same structure, one plan.
      const std::size_t src = rng.next_below(i);
      p = pages[src];
      ConfigPage cp = built[src];
      for (std::size_t d = 0; d < n; ++d) {
        p.instrs[d].imm = rng.next_word_in(-40, 40);
        if (!p.local[d]) cp.dnode_instr[d] = p.instrs[d].encode();
      }
      built.push_back(cp);
      pb.add_page(cp);
      continue;
    }
    PageBuilder page(g);
    p.instrs.resize(n);
    p.local.assign(n, false);
    for (std::size_t d = 0; d < n; ++d) {
      const std::size_t layer = d / g.lanes;
      const std::size_t lane = d % g.lanes;
      if (chance(rng, local_pct)) {
        p.local[d] = true;
        page.mode(layer, lane, DnodeMode::kLocal);
      } else if (chance(rng, 70)) {
        p.instrs[d] = random_instr(rng);
        page.instr(layer, lane, p.instrs[d]);
      }
      if (chance(rng, 70)) page.route(layer, lane, random_route(rng, g));
    }
    built.push_back(page.build());
    pb.add_page(built.back());
  }

  // Controller: a loop over a random straight-line body.  The body
  // starts with a page switch, so the live page at every point of it is
  // known and a byte-identical rewrite can be generated.
  pb.set_reg(1, 3 + rng.next_below(12));  // iterations
  pb.ldi(2, 0);
  pb.ldi(5, 1);
  pb.label("loop");
  std::size_t live = rng.next_below(npages);
  if (npages > Ring::kPlanCacheCapacity) {
    // Sweep the whole repertoire every iteration: the cache must evict.
    for (std::size_t p = 0; p < npages; ++p) pb.page_switch(p);
  }
  pb.page_switch(live);
  const std::size_t body = 4 + rng.next_below(14);
  int skip_labels = 0;
  for (std::size_t k = 0; k < body; ++k) {
    const std::uint64_t roll = rng.next_below(112);
    if (roll < 30) {  // rotation step, held a few cycles
      live = rng.next_below(npages);
      pb.page_switch(live);
      for (std::uint64_t h = rng.next_below(4); h > 0; --h) pb.nop();
    } else if (roll < 42) {  // one-cycle pulse
      const std::size_t pulse = rng.next_below(npages);
      pb.page_switch(pulse);
      pb.page_switch(live);
    } else if (roll < 50) {  // byte-identical rewrite of a live word
      const std::size_t d = rng.next_below(n);
      if (!pages[live].local[d]) pb.wrcfg(d, pages[live].instrs[d]);
    } else if (roll < 56) {
      pb.wrcfg(rng.next_below(n), random_instr(rng));
    } else if (roll < 61) {
      pb.wrmode(rng.next_below(n),
                chance(rng, 50) ? DnodeMode::kLocal : DnodeMode::kGlobal);
    } else if (roll < 66) {
      pb.wrsw(rng.next_below(g.switch_count()), rng.next_below(g.lanes),
              random_route(rng, g));
    } else if (roll < 71) {  // WRLOC, mostly into a running local program
      std::size_t d = rng.next_below(n);
      for (std::size_t k = 0; k < n && chance(rng, 70); ++k) {
        if (pages[live].local[(d + k) % n]) {
          d = (d + k) % n;
          break;
        }
      }
      const std::uint64_t kind = rng.next_below(10);
      if (kind < 2) {
        pb.wrloc(d, LocalControl::kLimitSlot, rng.next_below(8));
      } else if (kind < 4) {  // counter reset: same content, new phase
        pb.wrloc(d, LocalControl::kResetSlot, 0);
      } else {
        pb.wrloc(d, rng.next_below(kLocalProgramSlots),
                 random_instr(rng).encode());
      }
    } else if (roll < 79) {  // INPOP: starves when the FIFO runs dry
      pb.inpop(3);
      if (chance(rng, 50)) pb.busw(3);
    } else if (roll < 86) {  // aperiodic: skip a page on odd input
      const std::string skip = "skip" + std::to_string(skip_labels++);
      pb.inpop(3);
      pb.alu(RiscOp::kAnd, 4, 3, 5);
      pb.branch(RiscOp::kBeq, 4, 2, skip);
      pb.page_switch(rng.next_below(npages));
      pb.label(skip);
      pb.page_switch(live);
    } else if (roll < 91) {
      pb.wait(1 + static_cast<std::uint32_t>(rng.next_below(20)));
    } else if (roll < 95) {
      pb.outpush(1);
    } else if (roll < 100) {
      pb.ldi(6, static_cast<std::int32_t>(rng.next_below(200)));
      pb.busw(6);
    } else if (roll < 106) {  // new immediate for a live word
      const std::size_t d = rng.next_below(n);
      DnodeInstr in = pages[live].instrs[d];
      in.imm = rng.next_word_in(-40, 40);
      if (!pages[live].local[d]) pb.wrcfg(d, in);
    } else {  // new immediate for a local program slot
      const std::size_t d = rng.next_below(n);
      const std::size_t slot = rng.next_below(locals[d].size());
      DnodeInstr in = locals[d][slot];
      in.imm = rng.next_word_in(-40, 40);
      pb.wrloc(d, slot, in.encode());
    }
  }
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "loop");
  pb.halt();
  c.program = pb.build();

  // Host side: bursts of input between uneven budgets.
  const std::size_t total = 40 + rng.next_below(160);
  for (std::size_t i = 0; i < total; ++i) {
    c.input.push_back(rng.next_word_in(-300, 300));
  }
  std::size_t sent = 0;
  bool rerun = chance(rng, 30);
  for (int step = 0; step < 24; ++step) {
    if (sent < total && chance(rng, 60)) {
      const std::size_t k = std::min<std::size_t>(total - sent,
                                                  1 + rng.next_below(40));
      c.drive.push_back({Action::kSend, k});
      sent += k;
    }
    const std::uint64_t budget = chance(rng, 30) ? 200 : 12;
    c.drive.push_back({Action::kRun, 1 + rng.next_below(budget)});
    if (rerun && step == 12) {
      c.drive.push_back({Action::kRerun, 0});
      sent = 0;
      rerun = false;
    }
  }
  if (sent < total) c.drive.push_back({Action::kSend, total - sent});
  c.drive.push_back({Action::kRun, 600});
  return c;
}

/// A page of random global-mode instructions and routes.
ConfigPage random_global_page(Rng& rng, const RingGeometry& g) {
  PageBuilder page(g);
  for (std::size_t d = 0; d < g.dnode_count(); ++d) {
    const std::size_t layer = d / g.lanes;
    const std::size_t lane = d % g.lanes;
    if (chance(rng, 75)) page.instr(layer, lane, random_instr(rng));
    if (chance(rng, 70)) page.route(layer, lane, random_route(rng, g));
  }
  return page.build();
}

/// `page` with fresh immediates in every instruction word: the same
/// structure, one plan.
ConfigPage with_new_imms(Rng& rng, ConfigPage page) {
  for (std::uint64_t& w : page.dnode_instr) {
    DnodeInstr in = DnodeInstr::decode(w);
    in.imm = rng.next_word_in(-40, 40);
    w = in.encode();
  }
  return page;
}

/// `page` with every host read replaced by a zero operand: a loop over
/// such pages consumes host input only through the controller's INPOP.
ConfigPage without_host_pops(ConfigPage page) {
  for (std::uint64_t& w : page.dnode_instr) {
    DnodeInstr in = DnodeInstr::decode(w);
    for (DnodeSrc* src : {&in.src_a, &in.src_b, &in.src_c}) {
      if (*src == DnodeSrc::kHost) *src = DnodeSrc::kZero;
    }
    w = in.encode();
  }
  for (std::uint64_t& w : page.switch_route) {
    SwitchRoute r = SwitchRoute::decode(w);
    for (PortRoute* p : {&r.in1, &r.in2}) {
      if (p->kind == RouteKind::kHost) *p = PortRoute::zero();
    }
    w = r.encode();
  }
  return page;
}

/// Trace-case variants (seed % kTraceVariants).
enum TraceVariant {
  kPlain,       // traceable body, all input up front
  kBranchFlip,  // BEQ on the iteration counter takes the other path once
  kStarve,      // input in bursts: a mid-body INPOP starves
  kStops,       // output stops and run_cycles budgets mid-iteration
  kWrcfg,       // a WRCFG in the body: always, or on one iteration
  kRearm,       // a rerun or a re-arm with new page immediates midway
  kNested,      // a second counted loop, in the body or after it
  kHeadFlip,    // the flipping BEQ is the loop head: cycle 0 of an iteration
  kHeadStarve,  // the head is the only INPOP and the pages pop nothing
  kBoundary,    // run_cycles budgets that end on iteration boundaries
  kTraceVariants
};

/// A counted loop with a traceable body over all-global pages (see the
/// header comment), driven per its variant.
Case make_trace_case(int seed) {
  Rng rng(0x7ACEull * 1000003u + static_cast<std::uint64_t>(seed));
  const int variant = seed % kTraceVariants;
  Case c;
  c.g = pick(rng, kGeometries);
  const RingGeometry& g = c.g;
  const std::size_t n = g.dnode_count();
  ProgramBuilder pb(g, "trace_" + std::to_string(seed));
  ProgramBuilder alt(g, "trace_" + std::to_string(seed));

  const std::size_t npages = 2 + rng.next_below(7);
  std::vector<ConfigPage> pages;
  for (std::size_t i = 0; i < npages; ++i) {
    pages.push_back(i > 0 && chance(rng, 35)
                        ? with_new_imms(rng, pages[rng.next_below(i)])
                        : random_global_page(rng, g));
    if (variant == kHeadStarve) pages.back() = without_host_pops(pages.back());
    pb.add_page(pages.back());
    alt.add_page(with_new_imms(rng, pages.back()));
  }

  const std::uint64_t iterations = 4 + rng.next_below(40);
  const std::uint64_t flip = 1 + rng.next_below(iterations - 1);
  const bool wrcfg_always = variant == kWrcfg && chance(rng, 50);
  struct {
    bool after = false;  // follows the loop instead of nesting in it
    std::uint64_t iterations = 0;
    std::size_t a = 0;
    std::size_t b = 0;
  } second;
  if (variant == kNested) {
    second = {chance(rng, 50), 3 + rng.next_below(6),
              rng.next_below(npages), rng.next_below(npages)};
  }
  // Nested, its trace exists before the outer loop's second iteration,
  // so it replays while the outer loop records; after the loop, it is
  // lowered in the dispatch that replayed the first loop.
  const auto second_loop = [&](ProgramBuilder& b, std::size_t back) {
    b.set_reg(13, second.iterations);
    b.label("second");
    b.page_switch(second.a);
    b.inpop(3);
    b.busw(3);
    b.page_switch(second.b);
    b.addi(13, 13, -1);
    b.branch(RiscOp::kBne, 13, 2, "second");
    b.page_switch(back);
  };
  const auto emit = [&](const auto& f) {
    f(pb);
    f(alt);
  };
  emit([&](ProgramBuilder& b) {
    b.set_reg(1, iterations);
    b.ldi(2, 0);
    b.ldi(5, 1);
    b.set_reg(7, flip);
  });
  std::size_t live = rng.next_below(npages);
  const std::size_t head_pc = pb.build().controller_code.size();
  emit([&](ProgramBuilder& b) {
    b.label("loop");
    if (variant == kHeadStarve) b.inpop(3);
    if (variant != kHeadFlip) b.page_switch(live);
  });
  const std::size_t body = 3 + rng.next_below(12);
  const std::size_t special =
      variant == kHeadFlip ? 0 : rng.next_below(body);
  int labels = 0;
  for (std::size_t k = 0; k < body; ++k) {
    if (k == special && (variant == kBranchFlip || variant == kHeadFlip)) {
      // Data-dependent: the iteration counter meets r7 once.
      const std::string l = "flip" + std::to_string(labels++);
      const std::size_t a = rng.next_below(npages);
      const std::size_t b2 = rng.next_below(npages);
      emit([&](ProgramBuilder& b) {
        b.branch(RiscOp::kBeq, 1, 7, l);
        b.page_switch(a);
        b.jmp(l + "_done");
        b.label(l);
        b.page_switch(b2);
        b.label(l + "_done");
        b.page_switch(live);
      });
      continue;
    }
    if (k == special && variant == kNested && !second.after) {
      emit([&](ProgramBuilder& b) { second_loop(b, live); });
      continue;
    }
    if (k == special && variant == kWrcfg) {
      const std::string l = "wr" + std::to_string(labels++);
      const std::size_t d = rng.next_below(n);
      const DnodeInstr in = random_instr(rng);
      emit([&](ProgramBuilder& b) {
        if (!wrcfg_always) b.branch(RiscOp::kBne, 1, 7, l);
        b.wrcfg(d, in);
        b.label(l);
        b.page_switch(live);
      });
      continue;
    }
    const std::uint64_t roll = rng.next_below(100);
    const std::size_t page = rng.next_below(npages);
    static const RiscOp kAluOps[] = {RiscOp::kAdd, RiscOp::kSub,
                                     RiscOp::kXor, RiscOp::kShl,
                                     RiscOp::kAsr, RiscOp::kMul};
    const RiscOp op = pick(rng, kAluOps);
    const auto imm = static_cast<std::int32_t>(rng.next_below(200)) - 100;
    const std::uint64_t holds = rng.next_below(3);
    emit([&](ProgramBuilder& b) {
      if (roll < 30) {  // rotation step, held a few cycles
        b.page_switch(page);
        for (std::uint64_t h = holds; h > 0; --h) b.nop();
      } else if (roll < 45) {  // one-cycle pulse
        b.page_switch(page);
        b.page_switch(live);
      } else if (roll < 65) {  // pop and broadcast
        if (variant != kHeadStarve) b.inpop(3);
        b.busw(3);
      } else if (roll < 75) {
        b.ldi(6, imm);
        b.busw(6);
      } else if (roll < 82) {
        b.emit({RiscOp::kRdbus, 8, 0, 0, 0});
        b.alu(op, 9, 8, 3);
      } else if (roll < 92) {
        b.alu(op, 10, 9, 3);
        b.addi(11, 10, imm);
        b.emit({RiscOp::kLdih, 12, 0, 0, imm & 0xFFFF});
      } else {
        b.mov(9, 11);
        b.busw(9);
      }
    });
    if (roll < 30) live = page;
  }
  emit([&](ProgramBuilder& b) {
    b.page_switch(live);
    b.addi(1, 1, -1);
    b.branch(RiscOp::kBne, 1, 2, "loop");
  });
  // Every instruction of the body takes one cycle while input lasts.
  const std::size_t loop_len = pb.build().controller_code.size() - head_pc;
  emit([&](ProgramBuilder& b) {
    if (second.after) second_loop(b, live);
    b.halt();
  });
  c.program = pb.build();
  c.alt = alt.build();
  c.untraceable = wrcfg_always;

  // Host side.  Plenty of input, all up front unless the variant
  // starves the controller.
  const std::size_t total = 600 + rng.next_below(600);
  for (std::size_t i = 0; i < total; ++i) {
    c.input.push_back(rng.next_word_in(-300, 300));
  }
  switch (variant) {
    case kHeadStarve:  // each feed lasts whole iterations: the head starves
    case kStarve: {
      const std::uint64_t runs = variant == kStarve ? 60 : 300;
      std::size_t sent = 0;
      while (sent < total) {
        const std::size_t k =
            std::min<std::size_t>(total - sent, 1 + rng.next_below(12));
        c.drive.push_back({Action::kSend, k});
        sent += k;
        c.drive.push_back({Action::kRun, 1 + rng.next_below(runs)});
      }
      break;
    }
    case kStops:
      c.drive.push_back({Action::kSend, total});
      for (int step = 0; step < 30; ++step) {
        if (chance(rng, 50)) {
          c.drive.push_back({Action::kOutputs, 1 + rng.next_below(30)});
        } else {
          c.drive.push_back({Action::kRun, 1 + rng.next_below(50)});
        }
      }
      break;
    case kBoundary:
      c.drive.push_back({Action::kSend, total});
      c.drive.push_back(
          {Action::kRun, head_pc + loop_len * (1 + rng.next_below(3))});
      for (std::uint64_t k = 2 + rng.next_below(6); k > 0; --k) {
        c.drive.push_back({Action::kRun, loop_len * (1 + rng.next_below(4))});
      }
      break;
    case kRearm: {
      const std::size_t half = total / 2;
      c.drive.push_back({Action::kSend, half});
      c.drive.push_back({Action::kRun, 40 + rng.next_below(300)});
      c.drive.push_back(
          {chance(rng, 50) ? Action::kRerun : Action::kRearm, 0});
      c.drive.push_back({Action::kSend, total - half});
      break;
    }
    default:
      c.drive.push_back({Action::kSend, total});
      c.drive.push_back({Action::kRun, 1 + rng.next_below(400)});
      break;
  }
  c.drive.push_back({Action::kRun, 2000});
  return c;
}

/// A counted loop entered by falling into its head after a rerun, on
/// the reset configuration.  Its traceable body opens with a register
/// broadcast and an INPOP before its first PAGE, and every iteration
/// ends on the entry page: the all-zero page (`zero_entry`, equal to
/// the reset configuration) or a random one.  With `starve`, the rerun
/// gets no input for a while, so a replay of the first iteration stops
/// at the INPOP, before any PAGE.
Case make_fall_through_case(int seed, bool zero_entry, bool starve) {
  Rng rng(0xFA11ull * 1000003u + static_cast<std::uint64_t>(seed));
  Case c;
  c.g = pick(rng, kGeometries);
  ProgramBuilder pb(c.g, "fall_through_" + std::to_string(seed));
  const std::size_t npages = 2 + rng.next_below(5);
  for (std::size_t i = 0; i < npages; ++i) {
    pb.add_page(random_global_page(rng, c.g));
  }
  const std::size_t entry = zero_entry
                                ? pb.add_page(ConfigPage::zeroed(c.g))
                                : rng.next_below(npages);
  const std::uint64_t iterations = 4 + rng.next_below(16);
  pb.set_reg(1, iterations);
  pb.ldi(2, 0);
  pb.label("loop");
  pb.ldi(6, static_cast<std::int32_t>(rng.next_below(200)));
  pb.busw(6);
  pb.inpop(3);
  pb.busw(3);
  c.loop_len = 4;
  for (std::size_t k = 2 + rng.next_below(6); k > 0; --k) {
    if (chance(rng, 60)) {
      pb.page_switch(rng.next_below(npages));
      ++c.loop_len;
    } else {
      pb.inpop(3);
      pb.busw(3);
      c.loop_len += 2;
    }
  }
  pb.page_switch(entry);
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "loop");
  pb.halt();
  c.loop_len += 3;
  c.program = pb.build();

  const std::size_t total = iterations * c.loop_len;
  for (std::size_t i = 0; i < total; ++i) {
    c.input.push_back(rng.next_word_in(-300, 300));
  }
  c.drive.push_back({Action::kSend, total});
  c.drive.push_back({Action::kRun, 4000});
  c.drive.push_back({Action::kRerun, 0});
  if (starve) c.drive.push_back({Action::kRun, 1 + rng.next_below(20)});
  c.drive.push_back({Action::kSend, total});
  c.drive.push_back({Action::kRun, 4000});
  return c;
}

enum class Mode { kInterpreter, kPerCycle, kDefault };

/// Metrics snapshot minus the instruments under the given prefixes.
std::string metrics_without(const obs::Registry& reg,
                            std::initializer_list<std::string_view> drop) {
  obs::JsonValue out = obs::JsonValue::object();
  for (const auto& [name, counter] : reg.counters()) {
    bool skip = false;
    for (const std::string_view p : drop) {
      skip = skip || std::string_view(name).substr(0, p.size()) == p;
    }
    if (!skip) out.set(name, counter.value());
  }
  for (const auto& [name, hist] : reg.histograms()) {
    out.set(name, hist.to_json());
  }
  return out.dump();
}

struct Outcome {
  std::vector<Word> outputs;
  SystemStats stats;
  obs::Registry metrics;
  std::uint64_t superstep_cycles = 0;
  std::uint64_t trace_cycles = 0;
  std::uint64_t output_stop_timeouts = 0;  ///< kOutputs past its budget
  std::vector<std::ptrdiff_t> live_pages;  ///< after every kRun
  /// Controller instructions of the last arm not replayed from a trace.
  std::uint64_t stepped = 0;
};

Outcome run_case(const Case& c, Mode mode) {
  System sys({c.g, c.link});
  sys.ring().set_plan_cache_enabled(mode != Mode::kInterpreter);
  const Drive drive{mode != Mode::kDefault};
  sys.load(c.program);
  Outcome o;
  std::size_t sent = 0;
  for (const Action& a : c.drive) {
    switch (a.kind) {
      case Action::kSend:
        sys.host().send(std::span<const Word>(c.input).subspan(sent, a.n));
        sent += a.n;
        break;
      case Action::kRun:
        drive.cycles(sys, a.n);
        o.live_pages.push_back(sys.config().live_page());
        break;
      case Action::kOutputs:
        // The budget throws at the same cycle on every path.
        try {
          drive.until_outputs(sys, sys.host().received().size() + a.n, 300);
        } catch (const SimError&) {
          ++o.output_stop_timeouts;
        }
        break;
      case Action::kRerun:
      case Action::kRearm: {
        const std::vector<Word> first = sys.host().take_received();
        o.outputs.insert(o.outputs.end(), first.begin(), first.end());
        o.trace_cycles += sys.ring().trace_cycles();
        EXPECT_TRUE(
            sys.rearm(a.kind == Action::kRerun ? c.program : c.alt));
        sent = 0;
        break;
      }
    }
  }
  const std::vector<Word> rest = sys.host().take_received();
  o.outputs.insert(o.outputs.end(), rest.begin(), rest.end());
  o.stats = sys.stats();
  o.metrics = sys.metrics();
  o.superstep_cycles = sys.ring().superstep_cycles();
  o.trace_cycles += sys.ring().trace_cycles();
  o.stepped = o.stats.ctrl_instructions - sys.ring().trace_cycles();
  return o;
}

SystemStats arch_only(SystemStats s) {
  s.plan_compiles = 0;
  s.plan_hits = 0;
  s.plan_invalidations = 0;
  s.plan_content_hits = 0;
  s.plan_evictions = 0;
  return s;
}

/// Run `c` three ways and require them to agree; returns the default
/// run.
Outcome run_three_ways(const Case& c) {
  const Outcome interp = run_case(c, Mode::kInterpreter);
  const Outcome percycle = run_case(c, Mode::kPerCycle);
  Outcome fused_run = run_case(c, Mode::kDefault);

  EXPECT_EQ(interp.outputs, percycle.outputs);
  EXPECT_EQ(interp.outputs, fused_run.outputs);
  EXPECT_EQ(interp.live_pages, percycle.live_pages);
  EXPECT_EQ(interp.live_pages, fused_run.live_pages);
  EXPECT_EQ(arch_only(interp.stats).to_string(),
            arch_only(percycle.stats).to_string());
  EXPECT_EQ(percycle.stats.to_string(), fused_run.stats.to_string());
  const std::string ref =
      metrics_without(interp.metrics, {"ring.plan.", "ring.superstep."});
  EXPECT_EQ(ref, metrics_without(percycle.metrics,
                                 {"ring.plan.", "ring.superstep."}));
  EXPECT_EQ(metrics_without(percycle.metrics, {"ring.superstep."}),
            metrics_without(fused_run.metrics, {"ring.superstep."}));
  EXPECT_EQ(percycle.superstep_cycles, 0u);
  EXPECT_EQ(interp.output_stop_timeouts, fused_run.output_stop_timeouts);
  EXPECT_EQ(percycle.output_stop_timeouts, fused_run.output_stop_timeouts);
  return fused_run;
}

TEST(PageScheduleDifferential, InterpreterPerCycleAndFusedAgree) {
  std::uint64_t fused = 0;
  std::uint64_t cycles = 0;
  std::uint64_t compiles = 0;
  std::uint64_t evictions = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = make_case(seed);
    const Outcome fused_run = run_three_ways(c);
    if (testing::Test::HasFailure()) return;

    fused += fused_run.superstep_cycles;
    cycles += fused_run.stats.cycles;
    compiles += fused_run.stats.plan_compiles;
    evictions += fused_run.stats.plan_evictions;
  }
  // The generator must reach the paths it exists for.
  EXPECT_GT(compiles, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(fused, cycles / 10);
}

TEST(PageScheduleDifferential, TracedLoopsAndGuardMissesAgree) {
  std::uint64_t traced[kTraceVariants] = {};
  std::uint64_t instructions[kTraceVariants] = {};
  std::uint64_t timeouts = 0;
  for (int seed = 0; seed < kTraceSeeds; ++seed) {
    SCOPED_TRACE("trace seed " + std::to_string(seed));
    const Case c = make_trace_case(seed);
    const Outcome fused_run = run_three_ways(c);
    if (testing::Test::HasFailure()) return;
    traced[seed % kTraceVariants] += fused_run.trace_cycles;
    instructions[seed % kTraceVariants] += fused_run.stats.ctrl_instructions;
    timeouts += fused_run.output_stop_timeouts;
    // A body without guard misses replays all but its first iterations;
    // one that writes a configuration word every iteration never does.
    if (seed % kTraceVariants == kPlain) {
      EXPECT_GT(fused_run.trace_cycles, 0u);
    }
    if (c.untraceable) {
      EXPECT_EQ(fused_run.trace_cycles, 0u);
    }
  }
  // Every variant must replay loop tapes, or it tests nothing.
  for (int v = 0; v < kTraceVariants; ++v) {
    SCOPED_TRACE("variant " + std::to_string(v));
    EXPECT_GT(traced[v], instructions[v] / 10)
        << traced[v] << " traced cycles, " << instructions[v]
        << " controller instructions";
  }
  EXPECT_LT(timeouts, static_cast<std::uint64_t>(kTraceSeeds));
}

TEST(PageScheduleDifferential, FallThroughHeadReplaysOnlyOnTheEntryContent) {
  for (int seed = 0; seed < kFallThroughSeeds; ++seed) {
    SCOPED_TRACE("fall-through seed " + std::to_string(seed));
    const bool zero_entry = seed % 2 == 0;
    const bool starve = seed % 4 >= 2;
    const Case c = make_fall_through_case(seed, zero_entry, starve);
    const Outcome fused_run = run_three_ways(c);
    if (testing::Test::HasFailure()) return;
    if (starve) continue;
    // The rerun's first iteration replays exactly when the reset
    // configuration holds the entry page's content: then only the
    // prologue and the loop exit run cycle by cycle.
    if (zero_entry) {
      EXPECT_LT(fused_run.stepped, c.loop_len);
    } else {
      EXPECT_GE(fused_run.stepped, c.loop_len);
    }
  }
}

}  // namespace
}  // namespace sring
