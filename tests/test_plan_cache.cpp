// The Ring's structure-keyed plan cache: hardware multiplexing over a
// repertoire of configuration pages must compile each distinct
// structure once (not once per rewrite, nor once per immediate),
// re-attach cached plans on rewrites that keep the structure — the
// same bytes, or new immediates read live the very next cycle — and,
// through the per-page index, on page swaps in any order, drop that
// index whenever it could lie (local-control writes, eviction,
// reruns), bound its memory via LRU eviction, keep its plans across
// reruns and program loads, and stay bit-identical to the interpreter
// through all of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "asm/program_builder.hpp"
#include "common/rng.hpp"
#include "core/ring.hpp"
#include "sim/system.hpp"
#include "stepped_run.hpp"

namespace sring {
namespace {

constexpr RingGeometry kGeom{4, 2, 8};

std::vector<Word> signal(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Word> x(n);
  for (auto& w : x) w = rng.next_word_in(-100, 100);
  return x;
}

/// Statistics with the plan counters blanked: everything here must be
/// identical between the planned and the interpreted execution.
SystemStats arch_only(SystemStats s) {
  s.plan_compiles = 0;
  s.plan_hits = 0;
  s.plan_invalidations = 0;
  s.plan_content_hits = 0;
  s.plan_evictions = 0;
  return s;
}

/// Pops one host word and emits word + imm (latching it into `dst`).
DnodeInstr adder(Word imm, DnodeDst dst = DnodeDst::kNone) {
  DnodeInstr add;
  add.op = DnodeOp::kAdd;
  add.src_a = DnodeSrc::kHost;
  add.src_b = DnodeSrc::kImm;
  add.dst = dst;
  add.imm = imm;
  add.host_en = true;
  return add;
}

ConfigPage adder_page(const RingGeometry& g, Word imm) {
  return PageBuilder(g).instr(0, 0, adder(imm)).build();
}

/// Page p emits word + (p + 1) like adder_page, but with a structure of
/// its own for every p < 5 * dnode_count(): the adder sits on Dnode
/// p % dnode_count() and latches into another register on every wrap.
ConfigPage structured_page(const RingGeometry& g, std::size_t p) {
  const std::size_t d = p % g.dnode_count();
  const auto dst = static_cast<DnodeDst>(p / g.dnode_count() % 5);
  return PageBuilder(g)
      .instr(d / g.lanes, d % g.lanes, adder(static_cast<Word>(p + 1), dst))
      .build();
}

/// Page that hands Dnode (0, 0) to its local program.
ConfigPage local_page(const RingGeometry& g) {
  return PageBuilder(g).mode(0, 0, DnodeMode::kLocal).build();
}

/// How the pages of make_page_cycle_program differ from each other.
enum class Repertoire {
  kImmediates,  ///< one structure: only the immediates differ
  kStructures,  ///< structured_page: every page its own structure
};

/// K single-Dnode pages pulsed round-robin by the controller, one cycle
/// each with an idle page between pulses — the synthetic core of the
/// matvec8 hardware-multiplexing pattern.  Page p pops one host word
/// and emits word + (first_imm + p).
LoadableProgram make_page_cycle_program(const RingGeometry& g,
                                        std::size_t npages,
                                        std::size_t iters, Repertoire kind,
                                        Word first_imm = 1) {
  ProgramBuilder pb(g, "page_cycle");
  const std::size_t idle = pb.add_page(PageBuilder(g));
  for (std::size_t p = 0; p < npages; ++p) {
    if (kind == Repertoire::kImmediates) {
      pb.add_page(adder_page(g, static_cast<Word>(first_imm + p)));
    } else {
      pb.add_page(structured_page(g, p));
    }
  }
  pb.set_reg(1, iters);
  pb.ldi(2, 0);
  pb.label("loop");
  for (std::size_t p = 0; p < npages; ++p) {
    pb.page_switch(1 + p);
    pb.page_switch(idle);
  }
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "loop");
  pb.halt();
  return pb.build();
}

struct PageCycleRun {
  std::vector<Word> outputs;
  SystemStats stats;
  std::uint64_t cycles = 0;
  std::uint64_t evictions = 0;
};

PageCycleRun run_page_cycle(const LoadableProgram& program,
                            const std::vector<Word>& input,
                            bool plan_enabled, bool superstep) {
  System sys({kGeom});
  sys.ring().set_plan_cache_enabled(plan_enabled);
  sys.load(program);
  sys.host().send(input);
  Drive{!superstep}.until_outputs(sys, input.size(),
                                  64 + 16 * input.size());
  PageCycleRun r;
  r.outputs = sys.host().take_received();
  r.stats = sys.stats();
  r.cycles = sys.cycle();
  r.evictions = sys.ring().plan_evictions();
  return r;
}

TEST(PlanCache, PageRepertoireCompilesOncePerStructure) {
  constexpr std::size_t kPages = 4;
  constexpr std::size_t kIters = 60;
  const LoadableProgram program = make_page_cycle_program(
      kGeom, kPages, kIters, Repertoire::kImmediates);
  const std::vector<Word> x = signal(31, kPages * kIters);

  const PageCycleRun planned = run_page_cycle(program, x, true, true);

  // Ground truth: page p adds p + 1 to its popped word.
  std::vector<Word> expected(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    expected[i] = static_cast<Word>(x[i] + (i % kPages) + 1);
  }
  EXPECT_EQ(planned.outputs, expected);

  // The element pages differ only in immediates: one structure for
  // all of them plus the all-NOP idle/boot structure, each compiled
  // exactly once across 60 rewrites each.
  EXPECT_EQ(planned.stats.plan_compiles, 2u);
  EXPECT_EQ(planned.evictions, 0u);
  EXPECT_GT(planned.stats.plan_content_hits, 0u)
      << "rewritten pages of a known structure must re-attach";
  // Every detach after warm-up re-attaches a cached plan: true misses
  // (invalidations minus content hits) are bounded by the first
  // sighting of each structure, not by the rewrite count.
  EXPECT_LE(planned.stats.plan_invalidations -
                planned.stats.plan_content_hits,
            2u);
  EXPECT_GT(planned.stats.plan_hits, planned.cycles / 2)
      << "the multiplexed loop must run predominantly from cached plans";
}

TEST(PlanCache, PageRepertoireBitExactAcrossPaths) {
  constexpr std::size_t kPages = 4;
  constexpr std::size_t kIters = 40;
  for (const Repertoire kind :
       {Repertoire::kImmediates, Repertoire::kStructures}) {
    SCOPED_TRACE(kind == Repertoire::kImmediates ? "immediates" : "structures");
    const LoadableProgram program =
        make_page_cycle_program(kGeom, kPages, kIters, kind);
    const std::vector<Word> x = signal(32, kPages * kIters);

    const PageCycleRun fused = run_page_cycle(program, x, true, true);
    const PageCycleRun percycle = run_page_cycle(program, x, true, false);
    const PageCycleRun interp = run_page_cycle(program, x, false, false);

    EXPECT_EQ(fused.outputs, interp.outputs);
    EXPECT_EQ(percycle.outputs, interp.outputs);
    EXPECT_EQ(fused.cycles, interp.cycles);
    EXPECT_EQ(arch_only(fused.stats).to_string(),
              arch_only(interp.stats).to_string());
    // The superstep engine may not move anything, plan counters
    // included.
    EXPECT_EQ(fused.stats.to_string(), percycle.stats.to_string());
    EXPECT_EQ(interp.stats.plan_compiles, 0u);
    EXPECT_EQ(interp.stats.plan_hits, 0u);
  }
}

TEST(PlanCache, EvictionBoundsCacheAndStaysBitExact) {
  // More distinct structures than kPlanCacheCapacity: the cache must
  // evict (bounded memory) and the adversarial thrash pattern must
  // still be bit-identical to the interpreter.
  constexpr std::size_t kPages = Ring::kPlanCacheCapacity + 4;
  constexpr std::size_t kIters = 8;
  const LoadableProgram program = make_page_cycle_program(
      kGeom, kPages, kIters, Repertoire::kStructures);
  const std::vector<Word> x = signal(33, kPages * kIters);

  const PageCycleRun planned = run_page_cycle(program, x, true, true);
  const PageCycleRun interp = run_page_cycle(program, x, false, false);

  EXPECT_GT(planned.evictions, 0u)
      << "a repertoire wider than the cache must trigger LRU eviction";
  EXPECT_EQ(planned.outputs, interp.outputs);
  EXPECT_EQ(planned.cycles, interp.cycles);
  EXPECT_EQ(arch_only(planned.stats).to_string(),
            arch_only(interp.stats).to_string());
}

TEST(PlanCache, ByteIdenticalRewriteReattachesWithoutRecompile) {
  ConfigMemory cfg({2, 1, 4});
  Ring ring({2, 1, 4});
  HostFifo in;
  std::vector<Word> out;

  DnodeInstr a;
  a.op = DnodeOp::kPass;
  a.src_a = DnodeSrc::kImm;
  a.imm = 7;
  a.out_en = true;
  DnodeInstr b = a;
  b.dst = DnodeDst::kR0;  // another structure
  b.imm = 9;

  cfg.write_dnode_instr(0, a.encode());
  ring.step(cfg, 0, in, out);  // first sighting: interpreter
  ring.step(cfg, 0, in, out);  // second sighting: compile
  ring.step(cfg, 0, in, out);  // stamp hit
  ASSERT_EQ(ring.plan_compiles(), 1u);
  ASSERT_EQ(ring.plan_invalidations(), 0u);

  // Rewriting the SAME bytes bumps the generation (stamp mismatch) but
  // not the content: the cached plan re-attaches the same cycle, no
  // recompile, and the cycle still counts as a hit.
  cfg.write_dnode_instr(0, a.encode());
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_invalidations(), 1u);
  EXPECT_EQ(ring.plan_content_hits(), 1u);
  EXPECT_EQ(ring.plan_compiles(), 1u);
  EXPECT_EQ(ring.plan_hits(), 2u);

  // A genuinely new structure is a true miss: interpret, then compile
  // on the second sighting.
  cfg.write_dnode_instr(0, b.encode());
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_invalidations(), 2u);
  EXPECT_EQ(ring.plan_content_hits(), 1u);
  EXPECT_EQ(ring.plan_compiles(), 1u);
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_compiles(), 2u);

  // Flipping back to the first structure re-attaches its cached plan.
  cfg.write_dnode_instr(0, a.encode());
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_compiles(), 2u);
  EXPECT_EQ(ring.plan_content_hits(), 2u);
  EXPECT_EQ(ring.out(0, 0), 7u);
}

TEST(PlanCache, ImmOnlyRewriteKeepsThePlanAndReadsTheNewValue) {
  ConfigMemory cfg({2, 1, 4});
  Ring ring({2, 1, 4});
  HostFifo in;
  std::vector<Word> out;

  DnodeInstr a;
  a.op = DnodeOp::kPass;
  a.src_a = DnodeSrc::kImm;
  a.imm = 7;
  a.out_en = true;
  cfg.write_dnode_instr(0, a.encode());
  ring.step(cfg, 0, in, out);  // first sighting: interpreter
  ring.step(cfg, 0, in, out);  // second sighting: compile
  ASSERT_EQ(ring.plan_compiles(), 1u);
  ASSERT_EQ(ring.out(0, 0), 7u);

  // Each rewrite changes only the immediate: the same entry re-attaches
  // and the very cycle after the write already latches the new value.
  for (const Word imm : {9, 11, 0x7fff, 7}) {
    a.imm = imm;
    cfg.write_dnode_instr(0, a.encode());
    ring.step(cfg, 0, in, out);
    EXPECT_EQ(ring.out(0, 0), imm);
  }
  EXPECT_EQ(ring.plan_compiles(), 1u);
  EXPECT_EQ(ring.plan_invalidations(), 4u);
  EXPECT_EQ(ring.plan_content_hits(), 4u);
  EXPECT_EQ(ring.plan_hits(), 4u);
}

TEST(PlanCache, RearmKeepsCompiledPlansWarm) {
  constexpr std::size_t kPages = 4;
  constexpr std::size_t kIters = 30;
  const LoadableProgram program = make_page_cycle_program(
      kGeom, kPages, kIters, Repertoire::kImmediates);
  const std::vector<Word> x = signal(34, kPages * kIters);

  System sys({kGeom});
  sys.load(program);
  sys.host().send(x);
  sys.run_until_outputs(x.size(), 64 + 16 * x.size());
  const std::vector<Word> first = sys.host().take_received();
  EXPECT_EQ(sys.ring().plan_compiles(), 2u);

  ASSERT_TRUE(sys.rearm(program));
  sys.host().send(x);
  sys.run_until_outputs(x.size(), 64 + 16 * x.size());

  EXPECT_EQ(sys.host().take_received(), first);
  EXPECT_EQ(sys.ring().plan_compiles(), 0u)
      << "rerun of the same program must be served from the warm cache";
  EXPECT_GT(sys.ring().plan_content_hits(), 0u)
      << "warm entries re-attach through the content check";
}

TEST(PlanCache, LoadOfNewImmediatesCompilesNothing) {
  // A second program of the same structure with other immediates (a
  // new matrix tile or tap set): the load keeps the cache, so the whole
  // run is served by the plans the first program compiled.
  constexpr std::size_t kPages = 4;
  constexpr std::size_t kIters = 30;
  const std::vector<Word> x = signal(37, kPages * kIters);

  System sys({kGeom});
  sys.load(make_page_cycle_program(kGeom, kPages, kIters,
                                   Repertoire::kImmediates));
  sys.host().send(x);
  sys.run_until_outputs(x.size(), 64 + 16 * x.size());
  ASSERT_EQ(sys.ring().plan_compiles(), 2u);
  sys.host().take_received();

  sys.load(make_page_cycle_program(kGeom, kPages, kIters,
                                   Repertoire::kImmediates, 50));
  sys.host().send(x);
  sys.run_until_outputs(x.size(), 64 + 16 * x.size());
  std::vector<Word> expected(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    expected[i] = static_cast<Word>(x[i] + (i % kPages) + 50);
  }
  EXPECT_EQ(sys.host().take_received(), expected);
  EXPECT_EQ(sys.ring().plan_compiles(), 0u);
  EXPECT_GT(sys.ring().plan_content_hits(), 0u);

  // Pages of other structures are clean misses after a load; only
  // structured_page(0) is adder_page's structure, and re-attaches.
  sys.load(make_page_cycle_program(kGeom, kPages, kIters,
                                   Repertoire::kStructures));
  sys.host().send(x);
  sys.run_until_outputs(x.size(), 64 + 16 * x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    expected[i] = static_cast<Word>(x[i] + (i % kPages) + 1);
  }
  EXPECT_EQ(sys.host().take_received(), expected);
  EXPECT_EQ(sys.ring().plan_compiles(), kPages - 1);
}

/// Runs `program` with the plan cache on (fused or stepped)
/// or off, to its halt.
struct HaltedRun {
  std::vector<Word> outputs;
  SystemStats stats;
  std::uint64_t superstep_cycles = 0;
};

HaltedRun run_to_halt(const LoadableProgram& program,
                      const std::vector<Word>& input, bool plan_enabled,
                      bool superstep) {
  System sys({kGeom});
  sys.ring().set_plan_cache_enabled(plan_enabled);
  sys.load(program);
  sys.host().send(input);
  Drive{!superstep}.until_halt(sys, 64 + 16 * input.size(), 2);
  HaltedRun r;
  r.outputs = sys.host().take_received();
  r.stats = sys.stats();
  r.superstep_cycles = sys.ring().superstep_cycles();
  return r;
}

/// Every (output - input) difference of a one-pop-one-push adder run,
/// in order.
std::vector<Word> added(const std::vector<Word>& in,
                        const std::vector<Word>& out) {
  std::vector<Word> d;
  for (std::size_t i = 0; i < out.size() && i < in.size(); ++i) {
    d.push_back(static_cast<Word>(out[i] - in[i]));
  }
  return d;
}

TEST(PlanCache, ImmOnlyWrcfgInsideTheFusedLoopReadsTheNewValue) {
  // The controller rewrites the running adder's immediate every few
  // cycles from inside the superstep loop: each WRCFG keeps the entry
  // (no compile), and the next cycle must already add the new value.
  ProgramBuilder pb(kGeom, "wrcfg_imm");
  const std::size_t page = pb.add_page(adder_page(kGeom, 1));
  constexpr std::size_t kWrites = 6;
  pb.set_reg(1, 5);
  pb.ldi(2, 0);
  pb.page_switch(page);
  pb.label("loop");
  for (std::size_t k = 0; k < kWrites; ++k) {
    pb.wrcfg(0, adder(static_cast<Word>(10 * (k + 2))));
    pb.nop();
    pb.nop();
  }
  pb.page_switch(page);  // back to imm 1: the page's own immediates
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "loop");
  pb.halt();
  const LoadableProgram program = pb.build();
  const std::vector<Word> x = signal(38, 400);

  const HaltedRun fused = run_to_halt(program, x, true, true);
  const HaltedRun percycle = run_to_halt(program, x, true, false);
  const HaltedRun interp = run_to_halt(program, x, false, false);
  ASSERT_GT(interp.outputs.size(), 50u);
  EXPECT_EQ(fused.outputs, interp.outputs);
  EXPECT_EQ(percycle.outputs, interp.outputs);
  EXPECT_EQ(arch_only(fused.stats).to_string(),
            arch_only(interp.stats).to_string());
  EXPECT_EQ(fused.stats.to_string(), percycle.stats.to_string());
  // The idle boot image and the adder: two structures, however many
  // immediates the controller writes.
  EXPECT_EQ(fused.stats.plan_compiles, 2u);
  EXPECT_GT(fused.superstep_cycles, fused.stats.cycles / 2)
      << "the rewrites must run inside fused dispatches";
  const std::vector<Word> d = added(x, fused.outputs);
  for (std::size_t k = 0; k < kWrites; ++k) {
    const auto imm = static_cast<Word>(10 * (k + 2));
    EXPECT_NE(std::find(d.begin(), d.end(), imm), d.end()) << imm;
  }
}

TEST(PlanCache, ImmOnlyWrlocKeepsThePlanAndReadsTheNewValue) {
  // The controller rewrites the immediate of a running local program:
  // each WRLOC keeps the entry, and the next cycle adds the new value.
  ProgramBuilder pb(kGeom, "wrloc_imm");
  const std::size_t page = pb.add_page(local_page(kGeom));
  pb.local_program(0, {adder(1)});
  constexpr std::size_t kWrites = 6;
  pb.set_reg(1, 5);
  pb.ldi(2, 0);
  pb.page_switch(page);
  pb.label("loop");
  for (std::size_t k = 0; k < kWrites; ++k) {
    pb.wrloc(0, 0, adder(static_cast<Word>(10 * (k + 2))).encode());
    pb.nop();
    pb.nop();
  }
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "loop");
  pb.halt();
  const LoadableProgram program = pb.build();
  const std::vector<Word> x = signal(39, 400);

  const HaltedRun fused = run_to_halt(program, x, true, true);
  const HaltedRun interp = run_to_halt(program, x, false, false);
  ASSERT_GT(interp.outputs.size(), 50u);
  EXPECT_EQ(fused.outputs, interp.outputs);
  EXPECT_EQ(arch_only(fused.stats).to_string(),
            arch_only(interp.stats).to_string());
  EXPECT_EQ(fused.stats.plan_compiles, 2u);
  EXPECT_GT(fused.stats.plan_content_hits, kWrites);
  const std::vector<Word> d = added(x, fused.outputs);
  for (std::size_t k = 0; k < kWrites; ++k) {
    const auto imm = static_cast<Word>(10 * (k + 2));
    EXPECT_NE(std::find(d.begin(), d.end(), imm), d.end()) << imm;
  }
}

// --- per-page index ----------------------------------------------------

/// One ConfigMemory driving a planned Ring and an interpreter Ring in
/// lockstep: every swap() applies a page and steps both on the same
/// host word.
struct PageDriver {
  explicit PageDriver(const RingGeometry& g) : cfg(g), planned(g), interp(g) {
    interp.set_plan_cache_enabled(false);
  }
  void swap(std::size_t page, Word x) {
    cfg.apply_page(page);
    planned_in.push_back(x);
    interp_in.push_back(x);
    planned.step(cfg, 0, planned_in, planned_out);
    interp.step(cfg, 0, interp_in, interp_out);
  }
  void write_local(std::size_t dnode, std::size_t slot, std::uint64_t v) {
    planned.write_local(dnode, slot, v);
    interp.write_local(dnode, slot, v);
  }
  void reset_for_rerun() {
    planned.reset_for_rerun();
    interp.reset_for_rerun();
  }

  ConfigMemory cfg;
  Ring planned;
  Ring interp;
  HostFifo planned_in;
  HostFifo interp_in;
  std::vector<Word> planned_out;
  std::vector<Word> interp_out;
};

TEST(PlanCache, ByteIdenticalPagesShareOneCompiledEntry) {
  PageDriver d(kGeom);
  const std::size_t a = d.cfg.add_page(adder_page(kGeom, 5));
  const std::size_t b = d.cfg.add_page(adder_page(kGeom, 5));
  d.swap(a, 1);  // first sighting: interpreted
  d.swap(a, 2);  // second sighting: compiled
  ASSERT_EQ(d.planned.plan_compiles(), 1u);
  d.swap(b, 3);  // same bytes under another page: the same entry
  EXPECT_EQ(d.planned.plan_compiles(), 1u);
  EXPECT_EQ(d.planned.plan_content_hits(), 1u);
  for (Word i = 0; i < 8; ++i) d.swap(i % 2 == 0 ? a : b, 10 + i);
  EXPECT_EQ(d.planned.plan_compiles(), 1u);
  EXPECT_EQ(d.planned.plan_invalidations(), 9u);
  EXPECT_EQ(d.planned.plan_content_hits(), 9u);
  EXPECT_EQ(d.planned_out, d.interp_out);
  ASSERT_EQ(d.planned_out.size(), 11u);
  EXPECT_EQ(d.planned_out.back(), 17 + 5);
}

TEST(PlanCache, PagesDifferingOnlyInImmediatesShareOneEntry) {
  constexpr std::size_t kPages = 6;
  PageDriver d(kGeom);
  for (std::size_t p = 0; p < kPages; ++p) {
    d.cfg.add_page(adder_page(kGeom, static_cast<Word>(7 * p + 1)));
  }
  const std::vector<Word> x = signal(40, 300);
  Rng order(41);
  std::vector<Word> expected;
  for (std::size_t k = 0; k < x.size(); ++k) {
    const auto p = static_cast<std::size_t>(order.next_below(kPages));
    const std::uint64_t compiles = d.planned.plan_compiles();
    const std::uint64_t content_hits = d.planned.plan_content_hits();
    d.swap(p, x[k]);
    expected.push_back(static_cast<Word>(x[k] + 7 * p + 1));
    // One structure: the first swap interprets, the second compiles,
    // every later one re-attaches, whichever page it names.
    EXPECT_EQ(d.planned.plan_compiles() - compiles, k == 1 ? 1u : 0u) << k;
    EXPECT_EQ(d.planned.plan_content_hits() - content_hits,
              k >= 2 ? 1u : 0u)
        << k;
  }
  EXPECT_EQ(d.planned.plan_compiles(), 1u);
  EXPECT_EQ(d.planned_out, d.interp_out);
  EXPECT_EQ(d.planned_out, expected);
}

TEST(PlanCache, LocalProgramsDifferingOnlyInImmediatesShareOneEntry) {
  PageDriver d(kGeom);
  const std::size_t l = d.cfg.add_page(local_page(kGeom));
  const std::size_t a = d.cfg.add_page(adder_page(kGeom, 100));
  d.write_local(0, 0, adder(1).encode());
  for (Word i = 0; i < 6; ++i) d.swap(i % 2 == 0 ? l : a, i);
  ASSERT_EQ(d.planned.plan_compiles(), 2u);

  // WRLOC of a new immediate between swaps: same structure, so both
  // entries re-attach, and the local page adds the new value at once.
  for (Word k = 2; k < 8; ++k) {
    d.write_local(0, 0, adder(k).encode());
    const std::uint64_t content_hits = d.planned.plan_content_hits();
    d.swap(l, 10 * k);
    EXPECT_EQ(d.planned_out.back(), 10 * k + k);
    d.swap(a, 10 * k + 1);
    EXPECT_EQ(d.planned_out.back(), 10 * k + 1 + 100);
    EXPECT_EQ(d.planned.plan_content_hits() - content_hits, 2u);
  }
  EXPECT_EQ(d.planned.plan_compiles(), 2u);
  EXPECT_EQ(d.planned_out, d.interp_out);
}

TEST(PlanCache, AperiodicPageOrderCompilesOncePerStructure) {
  constexpr std::size_t kPages = 12;
  static_assert(kPages <= Ring::kPlanCacheCapacity);
  PageDriver d(kGeom);
  for (std::size_t p = 0; p < kPages; ++p) {
    d.cfg.add_page(structured_page(kGeom, p));
  }
  const std::vector<Word> x = signal(35, 600);
  Rng order(36);
  std::vector<unsigned> seen(kPages, 0);
  for (const Word w : x) {
    const auto p = static_cast<std::size_t>(order.next_below(kPages));
    const std::uint64_t compiles = d.planned.plan_compiles();
    const std::uint64_t content_hits = d.planned.plan_content_hits();
    d.swap(p, w);
    // First sighting interprets, the second compiles, every later
    // one re-attaches the cached plan.
    EXPECT_EQ(d.planned.plan_compiles() - compiles, seen[p] == 1 ? 1u : 0u)
        << "page " << p << " sighting " << seen[p];
    EXPECT_EQ(d.planned.plan_content_hits() - content_hits,
              seen[p] >= 2 ? 1u : 0u)
        << "page " << p << " sighting " << seen[p];
    ++seen[p];
  }
  EXPECT_EQ(d.planned.plan_compiles(), kPages);
  EXPECT_EQ(d.planned.plan_evictions(), 0u);
  EXPECT_EQ(d.planned_out, d.interp_out);
}

TEST(PlanCache, LocalWriteBetweenSwapsDropsThePageIndex) {
  PageDriver d(kGeom);
  const std::size_t l = d.cfg.add_page(local_page(kGeom));
  const std::size_t a = d.cfg.add_page(adder_page(kGeom, 100));
  d.write_local(0, 0, adder(1).encode());
  for (Word i = 0; i < 6; ++i) d.swap(i % 2 == 0 ? l : a, i);
  ASSERT_EQ(d.planned.plan_compiles(), 2u);

  // WRLOC of another structure between swaps: every page's structure
  // now includes the new local program, so no cached plan may
  // re-attach.
  d.write_local(0, 0, adder(2, DnodeDst::kR1).encode());
  const std::uint64_t content_hits = d.planned.plan_content_hits();
  d.swap(l, 10);
  d.swap(a, 11);
  EXPECT_EQ(d.planned.plan_content_hits(), content_hits);
  for (Word i = 0; i < 6; ++i) d.swap(i % 2 == 0 ? l : a, 20 + i);
  EXPECT_EQ(d.planned.plan_compiles(), 4u);
  EXPECT_EQ(d.planned_out, d.interp_out);
  EXPECT_EQ(d.planned_out.back(), 25 + 100);
  EXPECT_EQ(d.planned_out[d.planned_out.size() - 2], 24 + 2);
}

TEST(PlanCache, EvictionDropsThePageIndex) {
  constexpr std::size_t kPages = Ring::kPlanCacheCapacity + 4;
  PageDriver d(kGeom);
  for (std::size_t p = 0; p < kPages; ++p) {
    d.cfg.add_page(structured_page(kGeom, p));
  }
  // Compile every page in turn: page 0's entry is the first evicted
  // and its storage is recompiled for a later page.
  Word w = 0;
  for (std::size_t p = 0; p < kPages; ++p) {
    d.swap(p, ++w);
    d.swap(p, ++w);
  }
  ASSERT_GT(d.planned.plan_evictions(), 0u);
  const std::uint64_t content_hits = d.planned.plan_content_hits();
  d.swap(0, ++w);  // evicted: a first sighting again
  EXPECT_EQ(d.planned.plan_content_hits(), content_hits);
  EXPECT_EQ(d.planned_out, d.interp_out);
  EXPECT_EQ(d.planned_out.back(), w + 1);
}

TEST(PlanCache, ResetForRerunDropsThePageIndex) {
  PageDriver d(kGeom);
  const std::size_t l = d.cfg.add_page(local_page(kGeom));
  const std::size_t a = d.cfg.add_page(adder_page(kGeom, 100));
  d.write_local(0, 0, adder(1).encode());
  for (Word i = 0; i < 6; ++i) d.swap(i % 2 == 0 ? l : a, i);
  ASSERT_EQ(d.planned.plan_compiles(), 2u);

  // A rerun with another local program written by as many WRLOCs: the
  // same ConfigMemory and local generation, different structure.
  d.reset_for_rerun();
  d.write_local(0, 0, adder(3, DnodeDst::kR2).encode());
  d.swap(l, 10);
  d.swap(a, 11);
  EXPECT_EQ(d.planned.plan_content_hits(), 0u);
  for (Word i = 0; i < 6; ++i) d.swap(i % 2 == 0 ? l : a, 20 + i);
  EXPECT_EQ(d.planned.plan_compiles(), 2u);
  EXPECT_EQ(d.planned_out, d.interp_out);
  EXPECT_EQ(d.planned_out[d.planned_out.size() - 2], 24 + 3);
}

}  // namespace
}  // namespace sring
