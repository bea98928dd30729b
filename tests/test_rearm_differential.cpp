// Seeded re-arm differential.
//
// Each seed generates a family of programs that share one structure:
// kernel programs (spatial FIR taps, matvec8 matrices) with rewritten
// page immediates, and generated programs with boot-time local
// programs, page rotations and data-dependent WRLOC/WRMODE whose page
// immediates are rewritten per member.  The family runs as a chain of
// arms on one pooled System (the first a full load, every later one a
// re-arm) and again on a fresh System per program.  Outputs and
// RunReports must be byte-identical, apart from the ring.plan.* and
// ring.superstep.* counters, which describe how warm the pooled
// System's plan cache was, not the simulated machine.
//
// A program that differs in one opcode, one route, one controller word
// or one local_init slot is a different structure: it must take a full
// load, and still match a fresh System.
//
// Chains that re-arm one program object (nothing compared) or new
// objects match fresh Systems too, and reading every ring state
// accessor in the middle of a run changes no later output or report.
//
// Pooled matvec8 and GEMM-tile arms of several block counts,
// interleaved on one pool, must replay the controller loop trace their
// System recorded on an earlier arm, and still match fresh Systems.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "asm/program_builder.hpp"
#include "common/rng.hpp"
#include "core/local_control.hpp"
#include "kernels/fir_kernel.hpp"
#include "kernels/jobs.hpp"
#include "kernels/matvec_kernel.hpp"
#include "rt/system_pool.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "tile/gemm_job.hpp"

namespace sring {
namespace {

constexpr int kSeeds = 48;
constexpr std::size_t kMembers = 5;

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
      DnodeOp::kPass, DnodeOp::kAdd, DnodeOp::kSub,  DnodeOp::kMac,
      DnodeOp::kXor,  DnodeOp::kMin, DnodeOp::kMulh, DnodeOp::kAsr};
  static const DnodeSrc kSrcs[] = {
      DnodeSrc::kIn1, DnodeSrc::kIn2, DnodeSrc::kFifo1, DnodeSrc::kBus,
      DnodeSrc::kImm, DnodeSrc::kR0,  DnodeSrc::kR1,    DnodeSrc::kZero};
  static const DnodeDst kDsts[] = {DnodeDst::kNone, DnodeDst::kR0,
                                   DnodeDst::kR1};
  DnodeInstr in;
  if (chance(rng, 10)) return in;  // NOP
  in.op = pick(rng, kOps);
  const auto src = [&] {
    return chance(rng, 5) ? DnodeSrc::kHost : pick(rng, kSrcs);
  };
  in.src_a = src();
  in.src_b = src();
  in.src_c = src();
  in.dst = pick(rng, kDsts);
  in.imm = rng.next_word_in(-40, 40);
  in.out_en = chance(rng, 75);
  in.host_en = chance(rng, 30);
  in.bus_en = chance(rng, 10);
  return in;
}

SwitchRoute random_route(Rng& rng, const RingGeometry& g) {
  const auto fb = [&] {
    return FeedbackAddr{static_cast<std::uint8_t>(rng.next_below(g.layers)),
                        static_cast<std::uint8_t>(rng.next_below(g.lanes)),
                        static_cast<std::uint8_t>(rng.next_below(g.fb_depth))};
  };
  const auto port = [&] {
    switch (rng.next_below(5)) {
      case 0:
        return PortRoute::zero();
      case 1:
        return PortRoute::host();
      case 2:
        return PortRoute::feedback(fb());
      default:
        return PortRoute::prev(
            static_cast<std::uint8_t>(rng.next_below(g.lanes)));
    }
  };
  SwitchRoute r;
  r.in1 = port();
  r.in2 = port();
  r.fifo1 = fb();
  r.fifo2 = fb();
  r.host_out_en = chance(rng, 15);
  r.host_out_lane = static_cast<std::uint8_t>(rng.next_below(g.lanes));
  return r;
}

/// A controller sequence picking one of two configuration writes on the
/// parity of an input word: every run reaches the same local generation
/// (or write count), with data-dependent contents.
void emit_on_parity(ProgramBuilder& pb, const std::string& label,
                    const auto& odd, const auto& even) {
  pb.inpop(3);
  pb.alu(RiscOp::kAnd, 4, 3, 5);
  pb.branch(RiscOp::kBeq, 4, 2, label + "_even");
  odd();
  pb.jmp(label + "_done");
  pb.label(label + "_even");
  even();
  pb.label(label + "_done");
}

/// The generated structure: local programs in local_init, a page
/// repertoire, and a controller loop of rotations, pulses, host pops,
/// immediate rewrites and data-dependent WRLOC/WRMODE.
LoadableProgram make_generated(Rng& rng, const RingGeometry& g) {
  const std::size_t n = g.dnode_count();
  ProgramBuilder pb(g, "rearm");
  std::vector<std::vector<DnodeInstr>> locals(n);
  for (std::size_t d = 0; d < n; ++d) {
    const std::size_t len = 1 + rng.next_below(4);
    for (std::size_t s = 0; s < len; ++s) locals[d].push_back(random_instr(rng));
    pb.local_program(d, locals[d]);
  }

  const std::size_t npages = 2 + rng.next_below(5);
  // (page, dnode) pairs running the local program in that page.
  std::vector<std::pair<std::size_t, std::size_t>> local_on;
  for (std::size_t p = 0; p < npages; ++p) {
    PageBuilder page(g);
    for (std::size_t d = 0; d < n; ++d) {
      const std::size_t layer = d / g.lanes;
      const std::size_t lane = d % g.lanes;
      if (chance(rng, 25)) {
        page.mode(layer, lane, DnodeMode::kLocal);
        local_on.emplace_back(p, d);
      } else if (chance(rng, 75)) {
        page.instr(layer, lane, random_instr(rng));
      }
      if (chance(rng, 70)) page.route(layer, lane, random_route(rng, g));
    }
    pb.add_page(std::move(page));
  }

  // A data-dependent local program rewrite: mostly into a page's
  // running local program, which that page then pulses often enough to
  // compile and index a plan.  Every run reaches the same local
  // generation here, with another program on other data.
  const auto emit_local_rewrite = [&](const std::string& label,
                                      std::size_t live) {
    std::size_t d = rng.next_below(n);
    std::size_t q = npages;
    if (!local_on.empty() && chance(rng, 80)) {
      std::tie(q, d) = local_on[rng.next_below(local_on.size())];
    }
    const std::size_t slot = rng.next_below(locals[d].size());
    const DnodeInstr odd = random_instr(rng);
    const DnodeInstr even = random_instr(rng);
    emit_on_parity(
        pb, label, [&] { pb.wrloc(d, slot, odd.encode()); },
        [&] { pb.wrloc(d, slot, even.encode()); });
    if (q == npages) return;
    for (int pulse = 0; pulse < 3; ++pulse) {
      pb.page_switch(q);
      pb.nop();
      pb.page_switch(live);
    }
  };

  pb.set_reg(1, 2 + rng.next_below(6));  // iterations
  pb.ldi(2, 0);
  pb.ldi(5, 1);
  std::size_t live = rng.next_below(npages);
  // Sometimes the only local rewrite comes first, before any page is
  // live: a run then indexes its plans at one local generation, which
  // the next run reaches before attaching any plan, with another local
  // program on other data.
  const bool prologue_only = chance(rng, 35);
  if (prologue_only) emit_local_rewrite("prologue", live);
  pb.label("loop");
  pb.page_switch(live);
  const std::size_t body = 4 + rng.next_below(10);
  for (std::size_t k = 0; k < body; ++k) {
    const std::string label = "k" + std::to_string(k);
    std::uint64_t roll = rng.next_below(100);
    if (prologue_only && ((roll >= 35 && roll < 50) ||
                          (roll >= 60 && roll < 70))) {
      roll = 0;  // no local writes in the loop: a rotation instead
    }
    if (roll < 25) {  // rotation, held a few cycles
      live = rng.next_below(npages);
      pb.page_switch(live);
      for (std::uint64_t h = rng.next_below(3); h > 0; --h) pb.nop();
    } else if (roll < 35) {  // one-cycle pulse
      pb.page_switch(rng.next_below(npages));
      pb.page_switch(live);
    } else if (roll < 50) {
      emit_local_rewrite(label, live);
    } else if (roll < 60) {  // data-dependent mode switch
      const std::size_t d = rng.next_below(n);
      emit_on_parity(
          pb, label, [&] { pb.wrmode(d, DnodeMode::kLocal); },
          [&] { pb.wrmode(d, DnodeMode::kGlobal); });
    } else if (roll < 70) {  // counter reset or new LIMIT
      const std::size_t d = rng.next_below(n);
      if (chance(rng, 50)) {
        pb.wrloc(d, LocalControl::kResetSlot, 0);
      } else {
        pb.wrloc(d, LocalControl::kLimitSlot, rng.next_below(4));
      }
    } else if (roll < 80) {  // INPOP + broadcast
      pb.inpop(3);
      pb.busw(3);
    } else if (roll < 88) {  // a live word rewritten
      pb.wrcfg(rng.next_below(n), random_instr(rng));
    } else if (roll < 94) {
      pb.wait(1 + static_cast<std::uint32_t>(rng.next_below(12)));
    } else {
      pb.outpush(1);
    }
  }
  // The last rewrite of a run sets the local generation a run ends at.
  if (!prologue_only) emit_local_rewrite("tail", live);
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "loop");
  pb.halt();
  return std::move(pb).build();
}

/// `base` with fresh immediates on about two thirds of its page words:
/// the same structure.
LoadableProgram with_new_imms(Rng& rng, const LoadableProgram& base) {
  LoadableProgram p = base;
  for (ConfigPage& page : p.pages) {
    for (std::uint64_t& w : page.dnode_instr) {
      if (!chance(rng, 65)) continue;
      DnodeInstr in = DnodeInstr::decode(w);
      in.imm = rng.next_word_in(-40, 40);
      w = in.encode();
    }
  }
  return p;
}

struct Member {
  LoadableProgram program;
  std::vector<Word> input;
};

struct Family {
  RingGeometry g{};
  LinkRate link = LinkRate::unlimited();
  std::uint64_t cycles = 0;  ///< run budget per member
  std::vector<Member> members;
};

std::vector<Word> random_input(Rng& rng, std::size_t n) {
  std::vector<Word> x(n);
  for (Word& w : x) w = rng.next_word_in(-300, 300);
  return x;
}

Family make_family(int seed) {
  Rng rng(0x4EA43ull * 1000003u + static_cast<std::uint64_t>(seed));
  Family f;
  switch (seed % 3) {
    case 0: {  // spatial FIR: one tap count, new taps per member
      f.g = {8, 2, 16};
      const std::size_t taps = 1 + rng.next_below(7);
      for (std::size_t m = 0; m < kMembers; ++m) {
        const std::vector<Word> coeffs = random_input(rng, taps);
        f.members.push_back({kernels::make_spatial_fir_program(f.g, coeffs),
                             random_input(rng, 24 + rng.next_below(40))});
      }
      f.cycles = 200;
      break;
    }
    case 1: {  // matvec8: one block count, a new matrix per member
      f.g = chance(rng, 50) ? RingGeometry{8, 2, 16} : RingGeometry{4, 2, 8};
      const std::size_t blocks = 1 + rng.next_below(4);
      LoadableProgram program = kernels::make_matvec8_program(f.g, {}, blocks);
      for (std::size_t m = 0; m < kMembers; ++m) {
        dsp::Matrix8 matrix{};
        for (auto& row : matrix) {
          for (Word& w : row) w = rng.next_word_in(-128, 127);
        }
        kernels::set_matvec8_matrix(program, matrix);
        f.members.push_back(
            {program, random_input(rng, blocks * dsp::kMatvecN)});
      }
      f.cycles = 48 * blocks + 16;
      break;
    }
    default: {  // generated, sometimes behind a limited link
      f.g = pick(rng, kGeometries);
      if (chance(rng, 25)) {
        f.link = {1, 1 + static_cast<std::uint32_t>(rng.next_below(3))};
      }
      const LoadableProgram base = make_generated(rng, f.g);
      for (std::size_t m = 0; m < kMembers; ++m) {
        // Now and then an exact rerun: the re-arm that writes nothing.
        LoadableProgram p = m > 0 && chance(rng, 20)
                                ? f.members.back().program
                                : with_new_imms(rng, base);
        f.members.push_back({std::move(p), random_input(rng, 160)});
      }
      f.cycles = 400;
      break;
    }
  }
  return f;
}

/// RunReport JSON minus the plan-cache and superstep counters.
std::string report_normalized(RunReport r) {
  for (const char* name :
       {"ring.plan.compiles", "ring.plan.hits", "ring.plan.invalidations",
        "ring.plan.content_hits", "ring.plan.evictions",
        "ring.superstep.dispatches", "ring.superstep.cycles",
        "ring.superstep.trace_cycles"}) {
    r.metrics.counter(name).set(0);
  }
  return r.to_json().dump();
}

struct Outcome {
  std::vector<Word> outputs;
  std::string report;
};

Outcome run_member(System& sys, const Member& m, std::uint64_t cycles) {
  sys.host().send(m.input);
  sys.run_cycles(cycles);
  return {sys.host().take_received(),
          report_normalized(RunReport::from_system("member", sys))};
}

Outcome run_fresh(const Family& f, const LoadableProgram& program,
                  const Member& m) {
  System sys({f.g, f.link});
  sys.load(program);
  return run_member(sys, m, f.cycles);
}

rt::Job job_of(const Family& f, const LoadableProgram& program) {
  rt::Job job;
  job.program = std::make_shared<const LoadableProgram>(program);
  job.link = f.link;
  return job;
}

TEST(RearmDifferential, ChainOfArmsMatchesFreshSystems) {
  std::uint64_t rearms = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Family f = make_family(seed);
    rt::SystemPool pool(1);
    for (std::size_t i = 0; i < f.members.size(); ++i) {
      SCOPED_TRACE("member " + std::to_string(i));
      const Member& m = f.members[i];
      const rt::SystemPool::Lease lease = pool.acquire(job_of(f, m.program));
      ASSERT_EQ(lease.rearmed, i > 0) << "one structure: only arm 0 loads";
      const Outcome pooled = run_member(lease.system, m, f.cycles);
      const Outcome fresh = run_fresh(f, m.program, m);
      ASSERT_EQ(pooled.outputs, fresh.outputs);
      ASSERT_EQ(pooled.report, fresh.report);
    }
    EXPECT_EQ(pool.full_loads(), 1u);
    rearms += pool.fast_resets();
  }
  EXPECT_EQ(rearms, kSeeds * (kMembers - 1));
}

TEST(RearmDifferential, ChainsFromOneProgramObjectMatchFreshSystems) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Family f = make_family(seed);
    // One object per member, each armed twice in a row (the second arm
    // by object identity, with nothing compared), then member 0's
    // object again after the others.
    std::vector<std::shared_ptr<const LoadableProgram>> objects;
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < f.members.size(); ++i) {
      objects.push_back(
          std::make_shared<const LoadableProgram>(f.members[i].program));
      order.insert(order.end(), {i, i});
    }
    order.push_back(0);
    rt::SystemPool pool(1);
    for (std::size_t k = 0; k < order.size(); ++k) {
      SCOPED_TRACE("arm " + std::to_string(k));
      const Member& m = f.members[order[k]];
      rt::Job job;
      job.program = objects[order[k]];
      job.link = f.link;
      const rt::SystemPool::Lease lease = pool.acquire(job);
      ASSERT_EQ(lease.rearmed, k > 0);
      const Outcome pooled = run_member(lease.system, m, f.cycles);
      const Outcome fresh = run_fresh(f, m.program, m);
      ASSERT_EQ(pooled.outputs, fresh.outputs);
      ASSERT_EQ(pooled.report, fresh.report);
    }
    EXPECT_EQ(pool.full_loads(), 1u);
  }
}

/// Read every state accessor of `ring`: outputs, registers, local
/// control units, edges and feedback occupancy.  Returns a digest of
/// what was read.
std::uint64_t read_state(const Ring& ring) {
  const RingGeometry& g = ring.geometry();
  std::uint64_t h = ring.edges();
  for (std::size_t layer = 0; layer < g.layers; ++layer) {
    for (std::size_t lane = 0; lane < g.lanes; ++lane) {
      h = h * 31 + ring.out(layer, lane);
      for (std::size_t r = 0; r < kDnodeRegCount; ++r) {
        h = h * 31 + ring.reg(layer, lane, r);
      }
      const LocalControl& lc = ring.local(layer * g.lanes + lane);
      h = h * 31 + lc.counter() + lc.limit();
    }
  }
  for (std::size_t sw = 0; sw < g.switch_count(); ++sw) {
    EXPECT_EQ(ring.fb_occupancy(sw),
              std::min<std::uint64_t>(ring.edges(), g.fb_depth));
  }
  return h;
}

// The state accessors only read: reading every one of them in the
// middle of a run changes neither the later outputs nor the report,
// and a re-arm follows either.
TEST(RearmDifferential, ReadingStateMidRunChangesNothing) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Family f = make_family(seed);
    System plain({f.g, f.link});
    System probed({f.g, f.link});
    for (std::size_t i = 0; i < f.members.size(); ++i) {
      SCOPED_TRACE("member " + std::to_string(i));
      const Member& m = f.members[i];
      for (System* sys : {&plain, &probed}) {
        if (i == 0) {
          sys->load(m.program);
        } else {
          ASSERT_TRUE(sys->rearm(m.program));
        }
        sys->host().send(m.input);
        sys->run_cycles(f.cycles / 2);
        if (sys == &probed) (void)read_state(sys->ring());
        sys->run_cycles(f.cycles - f.cycles / 2);
      }
      EXPECT_EQ(read_state(plain.ring()), read_state(probed.ring()));
      const Outcome untouched{
          plain.host().take_received(),
          report_normalized(RunReport::from_system("member", plain))};
      const Outcome read_mid{
          probed.host().take_received(),
          report_normalized(RunReport::from_system("member", probed))};
      const Outcome fresh = run_fresh(f, m.program, m);
      ASSERT_EQ(untouched.outputs, fresh.outputs);
      ASSERT_EQ(read_mid.outputs, fresh.outputs);
      ASSERT_EQ(untouched.report, read_mid.report);
      ASSERT_EQ(read_mid.report, fresh.report);
    }
  }
}

/// `base` with one structural change, by kind: an opcode, a route, a
/// controller word or a local_init slot.
LoadableProgram mutated(Rng& rng, const LoadableProgram& base, int kind) {
  LoadableProgram p = base;
  ConfigPage& page = p.pages[rng.next_below(p.pages.size())];
  switch (kind) {
    case 0: {  // one opcode
      std::uint64_t& w = page.dnode_instr[rng.next_below(
          page.dnode_instr.size())];
      DnodeInstr in = DnodeInstr::decode(w);
      in.op = in.op == DnodeOp::kAdd ? DnodeOp::kSub : DnodeOp::kAdd;
      w = in.encode();
      break;
    }
    case 1: {  // one route: flip its host-out enable
      std::uint64_t& w = page.switch_route[rng.next_below(
          page.switch_route.size())];
      SwitchRoute r = SwitchRoute::decode(w);
      r.host_out_en = !r.host_out_en;
      w = r.encode();
      break;
    }
    case 2: {  // one controller word: the first LDI's immediate
      RiscInstr in = RiscInstr::decode(p.controller_code.front());
      in.imm += 1;
      p.controller_code.front() = in.encode();
      break;
    }
    default: {  // one local_init slot, changed only in its immediate
      for (LocalWrite& lw : p.local_init) {
        if (lw.slot >= kLocalProgramSlots) continue;
        DnodeInstr in = DnodeInstr::decode(lw.value);
        in.imm = static_cast<Word>(in.imm + 1);
        lw.value = in.encode();
        break;
      }
      break;
    }
  }
  return p;
}

TEST(RearmDifferential, OneStructuralChangeForcesAFullLoad) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(0x5EEDull * 7919u + static_cast<std::uint64_t>(seed));
    Family f;
    f.g = pick(rng, kGeometries);
    f.cycles = 300;
    const LoadableProgram base = make_generated(rng, f.g);
    const Member probe{base, random_input(rng, 160)};
    for (int kind = 0; kind < 4; ++kind) {
      SCOPED_TRACE("mutation " + std::to_string(kind));
      const LoadableProgram other = mutated(rng, base, kind);
      ASSERT_NE(other, base);
      rt::SystemPool pool(1);
      (void)pool.acquire(job_of(f, base));
      const rt::SystemPool::Lease lease = pool.acquire(job_of(f, other));
      EXPECT_FALSE(lease.rearmed);
      EXPECT_EQ(pool.full_loads(), 2u);
      EXPECT_EQ(pool.fast_resets(), 0u);
      const Outcome pooled = run_member(lease.system, probe, f.cycles);
      const Outcome fresh = run_fresh(f, other, probe);
      ASSERT_EQ(pooled.outputs, fresh.outputs);
      ASSERT_EQ(pooled.report, fresh.report);

      // And back: the base is a different structure again.
      EXPECT_FALSE(pool.acquire(job_of(f, base)).rearmed);
    }
  }
}

/// Run `job` the way a runtime worker does.
Outcome run_job(System& sys, const rt::Job& job) {
  sys.host().send(job.input);
  if (job.run == rt::Job::Run::kUntilOutputs) {
    sys.run_until_outputs(job.expected_outputs, job.max_cycles);
  } else {
    sys.run_until_halt(job.max_cycles, job.drain_cycles);
  }
  return {sys.host().take_received(),
          report_normalized(RunReport::from_system(job.name, sys))};
}

TEST(RearmDifferential, MatvecAndGemmTileArmsReplayTheLoopTrace) {
  const RingGeometry g{8, 2, 16};
  Rng rng(0x7AACEull);
  // Arms of four matvec8 block counts (one structure each, a new matrix
  // per arm) and of a tiled GEMM (one structure, a new A tile per
  // step), interleaved so every structure re-arms its own System.
  std::vector<rt::Job> arms;
  const std::size_t block_counts[] = {2, 3, 7, 16};
  for (int round = 0; round < 4; ++round) {
    for (const std::size_t blocks : block_counts) {
      dsp::Matrix8 m{};
      for (auto& row : m) {
        for (Word& w : row) w = rng.next_word_in(-128, 127);
      }
      arms.push_back(kernels::make_matvec8_job(
          g, m, random_input(rng, blocks * dsp::kMatvecN)));
      arms.back().name = "matvec8." + std::to_string(blocks);
    }
  }
  tile::GemmSpec spec;
  spec.m = 16;
  spec.k = 16;
  spec.n = 24;
  spec.tile_n = 4;
  spec.shift = 5;
  const tile::TileSchedule sched = tile::plan_gemm(spec, 64);
  const auto a = tile::random_operand(spec.m * spec.k, spec.dtype, 41);
  const auto b = tile::random_operand(spec.k * spec.n, spec.dtype, 42);
  tile::Scratchpad spad(64);
  tile::GemmJobBuilder builder(g, spad);
  std::vector<rt::Job> interleaved;
  for (std::size_t i = 0; i < std::max(arms.size(), sched.steps.size());
       ++i) {
    if (i < arms.size()) interleaved.push_back(std::move(arms[i]));
    if (i < sched.steps.size()) {
      interleaved.push_back(builder.build(sched, sched.steps[i], a, b));
      interleaved.back().name = "gemm.tile";
    }
  }
  arms = std::move(interleaved);

  rt::SystemPool pool(8);
  std::map<std::string, int> seen;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const rt::Job& job = arms[i];
    SCOPED_TRACE("arm " + std::to_string(i) + " " + job.name);
    const rt::SystemPool::Lease lease = pool.acquire(job);
    const int arm = seen[job.name]++;
    ASSERT_EQ(lease.rearmed, arm > 0) << "one structure per name";
    const Outcome pooled = run_job(lease.system, job);
    if (arm > 0) {
      // A matvec8 iteration is 34 instructions; a re-arm falls into the
      // loop head on the reset configuration, which equals the idle
      // entry page, so its first iteration replays too and only the
      // prologue and the loop exit run cycle by cycle.
      const std::uint64_t stepped =
          lease.system.stats().ctrl_instructions -
          lease.system.ring().trace_cycles();
      EXPECT_LT(stepped, 34u)
          << "a re-arm must replay the trace recorded before, from its "
             "first iteration";
    }
    System fresh({g});
    fresh.load(*job.program);
    const Outcome want = run_job(fresh, job);
    ASSERT_EQ(pooled.outputs, want.outputs);
    ASSERT_EQ(pooled.report, want.report);
  }
  EXPECT_EQ(pool.full_loads(), seen.size());
}

}  // namespace
}  // namespace sring
