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
// replays while the outer loop records) or following the first.  Four
// variants run long loops, whose replay spans cover several
// iterations each: the loop exits inside a span, budgets and output
// stops land deep inside spans, INPOP starves in a later iteration of
// a span, and an inner loop whose count changes every outer iteration
// exits early under an outer loop over a long input.
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
#include <span>
#include <string>
#include <vector>

#include "asm/program_builder.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "page_schedules.hpp"
#include "sim/system.hpp"
#include "stepped_run.hpp"

namespace sring {
namespace {

using namespace schedules;

constexpr int kSeeds = 240;
constexpr int kTraceSeeds = 476;
constexpr int kFallThroughSeeds = 64;

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
  // Long loops: a replay span covers up to twice the iterations the
  // replay has run, so these stop inside multi-iteration spans.
  kLongExit,    // one long run: the loop exits inside a span
  kLongStops,   // budgets and output stops deep inside spans
  kLateStarve,  // input for a few iterations at a time: INPOP starves late
  kNestedExit,  // an inner loop of 1-4 iterations under a long outer loop
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
  const bool long_loop = variant >= kLongExit;
  ProgramBuilder pb(g, "trace_" + std::to_string(seed));
  ProgramBuilder alt(g, "trace_" + std::to_string(seed));

  const std::size_t npages = 2 + rng.next_below(7);
  std::vector<ConfigPage> pages;
  for (std::size_t i = 0; i < npages; ++i) {
    pages.push_back(i > 0 && chance(rng, 35)
                        ? with_new_imms(rng, pages[rng.next_below(i)])
                        : random_global_page(rng, g));
    // Long loops consume input only through INPOP, so it lasts.
    if (variant == kHeadStarve || long_loop) {
      pages.back() = without_host_pops(pages.back());
    }
    pb.add_page(pages.back());
    alt.add_page(with_new_imms(rng, pages.back()));
  }

  const std::uint64_t iterations =
      long_loop ? 40 + rng.next_below(160) : 4 + rng.next_below(40);
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
  if (variant == kNestedExit) {
    second = {false, 0, rng.next_below(npages), rng.next_below(npages)};
  }
  // Nested, its trace exists before the outer loop's second iteration,
  // so it replays while the outer loop records; after the loop, it is
  // lowered in the dispatch that replayed the first loop.
  const auto second_loop = [&](ProgramBuilder& b, std::size_t back) {
    if (variant == kNestedExit) {  // (r1 & 3) + 1 iterations
      b.ldi(14, 3);
      b.alu(RiscOp::kAnd, 13, 1, 14);
      b.addi(13, 13, 1);
    } else {
      b.set_reg(13, second.iterations);
    }
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
    if (k == special && (variant == kNested || variant == kNestedExit) &&
        !second.after) {
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
  const std::size_t total =
      600 + rng.next_below(600) + (long_loop ? iterations * (loop_len + 8) : 0);
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
    case kLongStops:
      c.drive.push_back({Action::kSend, total});
      for (int step = 0; step < 12; ++step) {
        if (chance(rng, 50)) {
          c.drive.push_back({Action::kOutputs, 20 + rng.next_below(400)});
        } else {
          c.drive.push_back(
              {Action::kRun,
               loop_len * (4 + rng.next_below(30)) + rng.next_below(loop_len)});
        }
      }
      break;
    case kLateStarve: {  // each feed lasts a few iterations of a longer run
      const auto& code = c.program.controller_code;
      const auto inpops = static_cast<std::size_t>(std::count_if(
          code.begin() + static_cast<std::ptrdiff_t>(head_pc),
          code.begin() + static_cast<std::ptrdiff_t>(head_pc + loop_len),
          [](std::uint32_t w) {
            return RiscInstr::decode(w).op == RiscOp::kInpop;
          }));
      std::size_t sent = 0;
      while (sent < total) {
        const std::size_t k = std::min<std::size_t>(
            total - sent, 1 + inpops * (2 + rng.next_below(6)));
        c.drive.push_back({Action::kSend, k});
        sent += k;
        c.drive.push_back({Action::kRun, loop_len * (8 + rng.next_below(20))});
      }
      break;
    }
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
  c.drive.push_back(
      {Action::kRun, 2000 + (long_loop ? iterations * (loop_len + 30) : 0)});
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
    if (seed % kTraceVariants == kPlain ||
        seed % kTraceVariants == kLongExit) {
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
