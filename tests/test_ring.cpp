// Behavioral tests for the Ring operating layer: systolic movement,
// ring closure, feedback pipelines, host I/O, stalls, bus, local mode.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "core/ring.hpp"

namespace sring {
namespace {

DnodeInstr pass_out(DnodeSrc src) {
  DnodeInstr i;
  i.op = DnodeOp::kPass;
  i.src_a = src;
  i.out_en = true;
  return i;
}

SwitchRoute in1_prev(std::uint8_t lane) {
  SwitchRoute r;
  r.in1 = PortRoute::prev(lane);
  return r;
}

struct Harness {
  explicit Harness(const RingGeometry& g) : cfg(g), ring(g) {}

  Ring::CycleResult step(Word bus = 0) {
    return ring.step(cfg, bus, in, out);
  }

  ConfigMemory cfg;
  Ring ring;
  HostFifo in;
  std::vector<Word> out;
};

TEST(Ring, SystolicForwardMovement) {
  // 4 layers x 1 lane: layer 0 reads host, layers 1..3 forward.
  Harness h({4, 1, 4});
  SwitchRoute host_route;
  host_route.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, host_route.encode());
  h.cfg.write_dnode_instr(0, pass_out(DnodeSrc::kIn1).encode());
  for (std::size_t l = 1; l < 4; ++l) {
    h.cfg.write_switch_route(l, 0, in1_prev(0).encode());
    h.cfg.write_dnode_instr(l, pass_out(DnodeSrc::kIn1).encode());
  }
  h.in.assign({101, 102, 103, 104, 105, 106, 107, 108});

  // After k+1 cycles the first word reaches layer k's output register.
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), 101u);
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), 102u);
  EXPECT_EQ(h.ring.out(1, 0), 101u);
  h.step();
  h.step();
  EXPECT_EQ(h.ring.out(3, 0), 101u);
  EXPECT_EQ(h.ring.out(2, 0), 102u);
}

TEST(Ring, ClosesIntoARing) {
  // Layer 0 forwards from layer 3 (the ring wrap), no host involved.
  Harness h({4, 1, 4});
  for (std::size_t l = 0; l < 4; ++l) {
    h.cfg.write_switch_route(l, 0, in1_prev(0).encode());
    h.cfg.write_dnode_instr(l, pass_out(DnodeSrc::kIn1).encode());
  }
  // Seed layer 3's output register directly.
  DnodeInstr seed;
  seed.op = DnodeOp::kPass;
  seed.src_a = DnodeSrc::kImm;
  seed.imm = 77;
  seed.out_en = true;
  h.cfg.write_dnode_instr(3, seed.encode());
  h.step();
  EXPECT_EQ(h.ring.out(3, 0), 77u);
  // Restore forwarding; the token must travel 3 -> 0 -> 1 -> 2 -> 3.
  h.cfg.write_dnode_instr(3, pass_out(DnodeSrc::kIn1).encode());
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), 77u) << "wrap from last to first";
  h.step();
  EXPECT_EQ(h.ring.out(1, 0), 77u);
}

TEST(Ring, FeedbackPipelineDelaysByDepthPlusOne) {
  // Lane 0 streams the host; a second lane reads the same stream via
  // the feedback pipeline at increasing depth.
  Harness h({2, 2, 8});
  SwitchRoute l0;
  l0.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, l0.encode());
  h.cfg.write_dnode_instr(0, pass_out(DnodeSrc::kIn1).encode());

  // Layer 1 lane 0: direct PREV route.  Layer 1 lane 1: feedback read
  // of pipe 1 (which latches layer 0) at depth 2.
  h.cfg.write_switch_route(1, 0, in1_prev(0).encode());
  h.cfg.write_dnode_instr(2, pass_out(DnodeSrc::kIn1).encode());
  SwitchRoute fbr;
  fbr.in1 = PortRoute::feedback({1, 0, 2});
  h.cfg.write_switch_route(1, 1, fbr.encode());
  h.cfg.write_dnode_instr(3, pass_out(DnodeSrc::kIn1).encode());

  for (Word v = 1; v <= 10; ++v) h.in.push_back(v);
  for (int c = 0; c < 9; ++c) h.step();
  // Direct path: layer1 lane0 lags layer0 by 1 cycle; feedback at
  // depth 2 lags the direct path by 3 more (1 latch + 2 depth).
  const Word direct = h.ring.out(1, 0);
  const Word fb = h.ring.out(1, 1);
  EXPECT_EQ(as_signed(direct) - as_signed(fb), 3);
}

TEST(Ring, HostPopOrderIsDeterministic) {
  // Two Dnodes in layer 0 both read host on in1: pops must go lane 0
  // first, then lane 1.
  Harness h({1, 2, 4});
  SwitchRoute hr;
  hr.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, hr.encode());
  h.cfg.write_switch_route(0, 1, hr.encode());
  h.cfg.write_dnode_instr(0, pass_out(DnodeSrc::kIn1).encode());
  h.cfg.write_dnode_instr(1, pass_out(DnodeSrc::kIn1).encode());
  h.in.assign({5, 6});
  const auto res = h.step();
  EXPECT_EQ(res.host_words_in, 2u);
  EXPECT_EQ(h.ring.out(0, 0), 5u);
  EXPECT_EQ(h.ring.out(0, 1), 6u);
}

TEST(Ring, SamePortReadTwicePopsOnce) {
  // in1 used as both operands: a single port, a single pop.
  Harness h({1, 1, 4});
  SwitchRoute hr;
  hr.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, hr.encode());
  DnodeInstr add;
  add.op = DnodeOp::kAdd;
  add.src_a = DnodeSrc::kIn1;
  add.src_b = DnodeSrc::kIn1;
  add.out_en = true;
  h.cfg.write_dnode_instr(0, add.encode());
  h.in.assign({21, 99});
  const auto res = h.step();
  EXPECT_EQ(res.host_words_in, 1u);
  EXPECT_EQ(h.ring.out(0, 0), 42u);
  EXPECT_EQ(h.in.size(), 1u);
}

TEST(Ring, StallsAtomicallyOnUnderflow) {
  // Two host ports needed, only one word available: full stall, the
  // word must NOT be consumed.
  Harness h({1, 2, 4});
  SwitchRoute hr;
  hr.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, hr.encode());
  h.cfg.write_switch_route(0, 1, hr.encode());
  h.cfg.write_dnode_instr(0, pass_out(DnodeSrc::kIn1).encode());
  h.cfg.write_dnode_instr(1, pass_out(DnodeSrc::kIn1).encode());
  h.in.assign({5});
  const auto res = h.step();
  EXPECT_TRUE(res.stalled);
  EXPECT_EQ(res.ops, 0u);
  EXPECT_EQ(h.in.size(), 1u);
  EXPECT_EQ(h.ring.out(0, 0), 0u);
  // Providing the second word un-stalls.
  h.in.push_back(6);
  EXPECT_FALSE(h.step().stalled);
}

TEST(Ring, NopDnodesNeedNoHostData) {
  Harness h({1, 1, 4});
  SwitchRoute hr;
  hr.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, hr.encode());
  // Instruction is NOP: the host route must not pop or stall.
  const auto res = h.step();
  EXPECT_FALSE(res.stalled);
  EXPECT_EQ(res.host_words_in, 0u);
}

TEST(Ring, HostEnPushesResults) {
  Harness h({1, 1, 4});
  DnodeInstr i;
  i.op = DnodeOp::kPass;
  i.src_a = DnodeSrc::kImm;
  i.imm = 123;
  i.host_en = true;
  h.cfg.write_dnode_instr(0, i.encode());
  h.step();
  h.step();
  ASSERT_EQ(h.out.size(), 2u);
  EXPECT_EQ(h.out[0], 123u);
}

TEST(Ring, SwitchHostOutTapsUpstreamLane) {
  Harness h({2, 1, 4});
  DnodeInstr i;
  i.op = DnodeOp::kPass;
  i.src_a = DnodeSrc::kImm;
  i.imm = 7;
  i.out_en = true;
  h.cfg.write_dnode_instr(0, i.encode());
  SwitchRoute tap;  // switch 1 taps layer 0's lane 0
  tap.host_out_en = true;
  tap.host_out_lane = 0;
  h.cfg.write_switch_route(1, 0, tap.encode());
  h.step();  // layer0 out becomes 7 at the edge; tap saw pre-edge 0
  h.step();
  ASSERT_GE(h.out.size(), 2u);
  EXPECT_EQ(h.out[0], 0u);
  EXPECT_EQ(h.out[1], 7u);
}

TEST(Ring, BusValueVisibleAndDnodeCanDriveIt) {
  Harness h({1, 1, 4});
  DnodeInstr i;
  i.op = DnodeOp::kAdd;
  i.src_a = DnodeSrc::kBus;
  i.src_b = DnodeSrc::kImm;
  i.imm = 1;
  i.out_en = true;
  i.bus_en = true;
  h.cfg.write_dnode_instr(0, i.encode());
  const auto res = h.step(to_word(41));
  EXPECT_EQ(h.ring.out(0, 0), to_word(42));
  ASSERT_TRUE(res.bus_drive.has_value());
  EXPECT_EQ(*res.bus_drive, to_word(42));
}

TEST(Ring, LocalModeRunsPrivateProgram) {
  Harness h({1, 1, 4});
  // Local program: alternately emit 10 and 20.
  DnodeInstr a = pass_out(DnodeSrc::kImm);
  a.imm = 10;
  DnodeInstr b = pass_out(DnodeSrc::kImm);
  b.imm = 20;
  h.ring.write_local(0, 0, a.encode());
  h.ring.write_local(0, 1, b.encode());
  h.ring.write_local(0, LocalControl::kLimitSlot, 1);
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), 10u);
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), 20u);
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), 10u);
}

TEST(Ring, LocalCounterResetsOnModeEntry) {
  Harness h({1, 1, 4});
  DnodeInstr a = pass_out(DnodeSrc::kImm);
  a.imm = 10;
  DnodeInstr b = pass_out(DnodeSrc::kImm);
  b.imm = 20;
  h.ring.write_local(0, 0, a.encode());
  h.ring.write_local(0, 1, b.encode());
  h.ring.write_local(0, LocalControl::kLimitSlot, 1);
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.step();  // slot 0
  h.cfg.write_dnode_mode(0, DnodeMode::kGlobal);
  h.step();  // global nop; local counter now at 1
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), 10u)
      << "re-entering local mode must restart the program at slot 0";
}

TEST(Ring, StalledCycleDoesNotCommitModeTransition) {
  // local -> global where every global-mode cycle stalls -> local:
  // no global cycle ever advanced, so the local program must CONTINUE
  // where it left off, not restart at slot 0.  (Regression: the fetch
  // phase used to update the mode tracking before the stall check, so
  // the stalled global cycles "committed" the transition and re-entry
  // spuriously restarted the program.)
  Harness h({1, 1, 4});
  DnodeInstr a = pass_out(DnodeSrc::kImm);
  a.imm = 10;
  DnodeInstr b = pass_out(DnodeSrc::kImm);
  b.imm = 20;
  h.ring.write_local(0, 0, a.encode());
  h.ring.write_local(0, 1, b.encode());
  h.ring.write_local(0, LocalControl::kLimitSlot, 1);
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.step();  // slot 0 -> 10; counter now 1
  EXPECT_EQ(h.ring.out(0, 0), 10u);

  // Global instruction needs a host word that never arrives.
  h.cfg.write_dnode_instr(0, pass_out(DnodeSrc::kHost).encode());
  h.cfg.write_dnode_mode(0, DnodeMode::kGlobal);
  EXPECT_TRUE(h.step().stalled);
  EXPECT_TRUE(h.step().stalled);
  EXPECT_EQ(h.ring.local(0).counter(), 1u)
      << "stalled cycles must not touch the local counter";

  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), 20u)
      << "no global cycle committed: the program continues at slot 1";
}

TEST(Ring, ModeEntryStallKeepsLocalCounterUntouched) {
  // Entering local mode on a cycle that stalls: the counter reset
  // belongs to the commit phase, so the stalled cycles leave it alone
  // and the retry still starts the program at slot 0.
  Harness h({1, 1, 4});
  DnodeInstr eat = pass_out(DnodeSrc::kHost);
  DnodeInstr emit = pass_out(DnodeSrc::kImm);
  emit.imm = 20;
  h.ring.write_local(0, 0, eat.encode());
  h.ring.write_local(0, 1, emit.encode());
  h.ring.write_local(0, LocalControl::kLimitSlot, 1);

  // Advance the counter to 1 with a committed local cycle, then run a
  // committed global NOP cycle (counter keeps its value).
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.in.push_back(1);
  ASSERT_FALSE(h.step().stalled);
  h.cfg.write_dnode_mode(0, DnodeMode::kGlobal);
  ASSERT_FALSE(h.step().stalled);
  ASSERT_EQ(h.ring.local(0).counter(), 1u);

  // Re-entry fetches slot 0, which pops -- and the FIFO is empty.
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  EXPECT_TRUE(h.step().stalled);
  EXPECT_EQ(h.ring.local(0).counter(), 1u)
      << "the entry reset must not happen on a stalled cycle";
  h.in.push_back(9);
  EXPECT_FALSE(h.step().stalled);
  EXPECT_EQ(h.ring.out(0, 0), 9u) << "retry runs slot 0";
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), 20u) << "then slot 1";
}

TEST(Ring, StallLeavesStatisticsUntouched) {
  // A stalled cycle is a pure retry: every instrumentation counter
  // must read exactly as before the attempt.
  // The interpreter stalls every attempt; with the plan cache on, the
  // seed cycle is the structure's first sighting (interpreted) and the
  // stalls run its compiled tape.
  for (const bool planned : {false, true}) {
    SCOPED_TRACE(planned ? "planned" : "interpreted");
    Harness h({2, 2, 4});
    h.ring.set_plan_cache_enabled(planned);
    SwitchRoute r00;  // dnode(0,0): host operand + a consumed fb read
    r00.in1 = PortRoute::host();
    r00.fifo1 = {1, 0, 2};
    h.cfg.write_switch_route(0, 0, r00.encode());
    DnodeInstr add;
    add.op = DnodeOp::kAdd;
    add.src_a = DnodeSrc::kIn1;
    add.src_b = DnodeSrc::kFifo1;
    add.out_en = true;
    add.host_en = true;
    add.bus_en = true;
    h.cfg.write_dnode_instr(0, add.encode());
    SwitchRoute tap;  // switch 1 lane 0 forwards to the host
    tap.host_out_en = true;
    h.cfg.write_switch_route(1, 0, tap.encode());
    // Flat Dnode 1 runs a two-slot local program (LIMIT 1).
    DnodeInstr local10 = pass_out(DnodeSrc::kImm);
    local10.imm = 10;
    DnodeInstr local20 = pass_out(DnodeSrc::kImm);
    local20.imm = 20;
    h.ring.write_local(1, 0, local10.encode());
    h.ring.write_local(1, 1, local20.encode());
    h.ring.write_local(1, LocalControl::kLimitSlot, 1);
    h.cfg.write_dnode_mode(1, DnodeMode::kLocal);

    h.in.push_back(3);
    ASSERT_FALSE(h.step().stalled);  // one committed cycle seeds stats
    // The seed cycle moved the local counter, so a stall that advanced
    // it would show.
    ASSERT_EQ(h.ring.local(1).counter(), 1u);

    const auto ops = h.ring.ops_per_dnode();
    const auto local_cycles = h.ring.local_cycles_per_dnode();
    const auto global_cycles = h.ring.global_cycles_per_dnode();
    const auto fb_reads = h.ring.fb_reads_per_pipe();
    const auto fb_depths = h.ring.fb_read_depth_counts();
    const auto host_out_words = h.ring.host_out_words_per_switch();
    const auto bus_drives = h.ring.bus_drives();
    const auto pipe_pushes = h.ring.edges();
    const auto out_words = h.out.size();
    const auto counter = h.ring.local(1).counter();

    for (int c = 0; c < 3; ++c) {  // FIFO empty: every attempt stalls
      const auto res = h.step();
      ASSERT_TRUE(res.stalled);
      EXPECT_EQ(res.ops, 0u);
      EXPECT_EQ(res.host_words_in, 0u);
      EXPECT_EQ(res.host_words_out, 0u);
      EXPECT_FALSE(res.bus_drive.has_value());
    }

    EXPECT_EQ(h.ring.ops_per_dnode(), ops);
    EXPECT_EQ(h.ring.local_cycles_per_dnode(), local_cycles);
    EXPECT_EQ(h.ring.global_cycles_per_dnode(), global_cycles);
    EXPECT_EQ(h.ring.fb_reads_per_pipe(), fb_reads);
    EXPECT_EQ(h.ring.fb_read_depth_counts(), fb_depths);
    EXPECT_EQ(h.ring.host_out_words_per_switch(), host_out_words);
    EXPECT_EQ(h.ring.bus_drives(), bus_drives);
    EXPECT_EQ(h.ring.edges(), pipe_pushes);
    EXPECT_EQ(h.out.size(), out_words);
    EXPECT_EQ(h.ring.local(1).counter(), counter);
    EXPECT_EQ(h.ring.plan_compiles(), planned ? 1u : 0u);
  }
}

TEST(Ring, CountsOpsAndUtilization) {
  Harness h({2, 1, 4});
  h.cfg.write_dnode_instr(0, pass_out(DnodeSrc::kImm).encode());
  for (int c = 0; c < 10; ++c) h.step();
  EXPECT_EQ(h.ring.ops_per_dnode()[0], 10u);
  EXPECT_EQ(h.ring.ops_per_dnode()[1], 0u);
}

TEST(Ring, MacCountsAsTwoArithOps) {
  Harness h({1, 1, 4});
  DnodeInstr mac;
  mac.op = DnodeOp::kMac;
  mac.src_a = DnodeSrc::kImm;
  mac.src_b = DnodeSrc::kImm;
  mac.src_c = DnodeSrc::kR0;
  mac.dst = DnodeDst::kR0;
  mac.imm = 1;
  h.cfg.write_dnode_instr(0, mac.encode());
  const auto res = h.step();
  EXPECT_EQ(res.ops, 1u);
  EXPECT_EQ(res.arith_ops, 2u);
}

TEST(Ring, OutOfGeometryFeedbackReadRejectedAtRuntime) {
  // The route encoding allows pipe/depth values larger than this
  // instance provides; the ring must reject them when executed, not
  // read out of bounds.
  Harness h({2, 1, 4});
  SwitchRoute r;
  r.in1 = PortRoute::feedback({7, 0, 0});  // pipe 7 does not exist
  DnodeInstr i = pass_out(DnodeSrc::kIn1);
  ConfigPage page = ConfigPage::zeroed({2, 1, 4});
  page.dnode_instr[0] = i.encode();
  page.switch_route[0] = r.encode();
  h.cfg.add_page(page);
  h.cfg.apply_page(0);
  EXPECT_THROW(h.step(), SimError);

  // Same for a depth beyond the pipeline.
  Harness h2({2, 1, 4});
  SwitchRoute r2;
  r2.fifo1 = {1, 0, 9};  // depth 9 in a 4-deep pipeline
  DnodeInstr i2 = pass_out(DnodeSrc::kFifo1);
  h2.cfg.write_dnode_instr(0, i2.encode());
  h2.cfg.write_switch_route(0, 0, r2.encode());
  EXPECT_THROW(h2.step(), SimError);
}

// --- Dnode and feedback-pipeline behaviour at the ring level ----------

DnodeInstr imm_to(DnodeDst dst, int imm, bool out_en = false) {
  DnodeInstr i;
  i.op = DnodeOp::kPass;
  i.src_a = DnodeSrc::kImm;
  i.imm = to_word(imm);
  i.dst = dst;
  i.out_en = out_en;
  return i;
}

TEST(Ring, RegisterWriteLandsAtTheEdge) {
  // R1 <- R1 + 42: the cycle reads R1 as latched at the last edge (0),
  // and the write is visible only after this cycle's edge.
  Harness h({1, 1, 4});
  DnodeInstr add;
  add.op = DnodeOp::kAdd;
  add.src_a = DnodeSrc::kR1;
  add.src_b = DnodeSrc::kImm;
  add.imm = 42;
  add.dst = DnodeDst::kR1;
  add.out_en = true;
  h.cfg.write_dnode_instr(0, add.encode());
  EXPECT_EQ(h.ring.reg(0, 0, 1), 0u);
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), 42u) << "R1 read its pre-edge value, 0";
  EXPECT_EQ(h.ring.reg(0, 0, 1), 42u);
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), 84u);
}

TEST(Ring, ExecutesAndLatchesAtTheEdge) {
  Harness h({1, 1, 4});
  SwitchRoute hr;
  hr.in1 = PortRoute::host();
  hr.in2 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, hr.encode());
  DnodeInstr add;
  add.op = DnodeOp::kAdd;
  add.src_a = DnodeSrc::kIn1;
  add.src_b = DnodeSrc::kIn2;
  add.dst = DnodeDst::kR0;
  add.out_en = true;
  h.cfg.write_dnode_instr(0, add.encode());
  h.in.assign({to_word(30), to_word(12)});
  EXPECT_EQ(h.ring.out(0, 0), 0u) << "output register is master-slave";
  EXPECT_EQ(h.ring.reg(0, 0, 0), 0u);
  const auto res = h.step();
  EXPECT_EQ(res.ops, 1u);
  EXPECT_EQ(h.ring.out(0, 0), to_word(42));
  EXPECT_EQ(h.ring.reg(0, 0, 0), to_word(42));
}

TEST(Ring, RegisterToRegisterOpInOneCycle) {
  Harness h({1, 1, 4});
  h.cfg.write_dnode_instr(0, imm_to(DnodeDst::kR1, 6).encode());
  h.step();
  h.cfg.write_dnode_instr(0, imm_to(DnodeDst::kR2, 7).encode());
  h.step();
  DnodeInstr mul;
  mul.op = DnodeOp::kMul;
  mul.src_a = DnodeSrc::kR1;
  mul.src_b = DnodeSrc::kR2;
  mul.dst = DnodeDst::kR1;  // result into one of the two registers
  h.cfg.write_dnode_instr(0, mul.encode());
  h.step();
  EXPECT_EQ(h.ring.reg(0, 0, 1), to_word(42));
  EXPECT_EQ(h.ring.reg(0, 0, 2), to_word(7));
}

TEST(Ring, MacUsesThirdOperand) {
  Harness h({1, 1, 4});
  h.cfg.write_dnode_instr(0, imm_to(DnodeDst::kR0, 100).encode());
  h.step();
  SwitchRoute hr;
  hr.in1 = PortRoute::host();
  h.cfg.write_switch_route(0, 0, hr.encode());
  DnodeInstr mac;
  mac.op = DnodeOp::kMac;
  mac.src_a = DnodeSrc::kIn1;
  mac.src_b = DnodeSrc::kImm;
  mac.src_c = DnodeSrc::kR0;
  mac.dst = DnodeDst::kR0;
  mac.imm = to_word(3);
  h.cfg.write_dnode_instr(0, mac.encode());
  h.in.assign({to_word(5)});
  h.step();
  EXPECT_EQ(h.ring.reg(0, 0, 0), to_word(115));
}

TEST(Ring, NopDoesNothing) {
  Harness h({1, 1, 4});
  const auto res = h.step();
  EXPECT_EQ(res.ops, 0u);
  EXPECT_EQ(h.ring.out(0, 0), 0u);
}

TEST(Ring, OutputHoldsWhenNotDriven) {
  Harness h({1, 1, 4});
  h.cfg.write_dnode_instr(0, imm_to(DnodeDst::kNone, 55, true).encode());
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), to_word(55));
  // Now an instruction without outEn: the output register must hold.
  h.cfg.write_dnode_instr(0, imm_to(DnodeDst::kR3, 99).encode());
  h.step();
  EXPECT_EQ(h.ring.out(0, 0), to_word(55));
  EXPECT_EQ(h.ring.reg(0, 0, 3), to_word(99));
}

TEST(Ring, StallDiscardsTheCycle) {
  // Dnode 0 writes R0 and its output; Dnode 1 writes R2 from a host
  // word that is not there yet, so the whole cycle stalls.
  Harness h({1, 2, 4});
  h.cfg.write_dnode_instr(0, imm_to(DnodeDst::kR0, 1, true).encode());
  DnodeInstr eat;
  eat.op = DnodeOp::kPass;
  eat.src_a = DnodeSrc::kHost;
  eat.dst = DnodeDst::kR2;
  h.cfg.write_dnode_instr(1, eat.encode());
  EXPECT_TRUE(h.step().stalled);
  EXPECT_EQ(h.ring.out(0, 0), 0u);
  EXPECT_EQ(h.ring.reg(0, 0, 0), 0u);
  EXPECT_EQ(h.ring.reg(0, 1, 2), 0u);
  h.in.push_back(7);
  EXPECT_FALSE(h.step().stalled);
  EXPECT_EQ(h.ring.out(0, 0), 1u);
  EXPECT_EQ(h.ring.reg(0, 0, 0), 1u);
  EXPECT_EQ(h.ring.reg(0, 1, 2), 7u);
}

TEST(Ring, LocalCounterAdvancesOnlyInLocalMode) {
  Harness h({1, 1, 4});
  h.ring.write_local(0, LocalControl::kLimitSlot, 3);
  h.step();  // global-mode NOP
  EXPECT_EQ(h.ring.local(0).counter(), 0);
  h.cfg.write_dnode_mode(0, DnodeMode::kLocal);
  h.step();  // local-mode NOP
  EXPECT_EQ(h.ring.local(0).counter(), 1);
}

/// Layer 0 streams two host words per cycle into its two lanes; layer 1
/// lane k outputs the feedback read fifo1 = reads[k] (pipe 1 latches
/// layer 0).
struct FeedbackProbe {
  explicit FeedbackProbe(const RingGeometry& g) : h(g) {
    SwitchRoute host_in;
    host_in.in1 = PortRoute::host();
    for (std::size_t lane = 0; lane < g.lanes; ++lane) {
      h.cfg.write_switch_route(0, lane, host_in.encode());
      h.cfg.write_dnode_instr(lane, pass_out(DnodeSrc::kIn1).encode());
      h.cfg.write_dnode_instr(g.lanes + lane,
                              pass_out(DnodeSrc::kFifo1).encode());
    }
  }
  void read(std::size_t lane, FeedbackAddr addr) {
    SwitchRoute r;
    r.fifo1 = addr;
    h.cfg.write_switch_route(1, lane, r.encode());
  }
  Harness h;
};

TEST(Ring, FeedbackDelaySemantics) {
  // Layer 0 outputs (10, 20), (11, 21), (12, 22) after cycles 1-3; the
  // edge of cycle k + 1 latches the k-th vector, which the cycle after
  // reads at depth 0.
  FeedbackProbe p({2, 2, 4});
  p.h.in.assign({10, 20, 11, 21, 12, 22, 13, 23, 14, 24});
  p.read(0, {1, 0, 0});
  p.read(1, {1, 1, 0});
  for (int c = 0; c < 3; ++c) p.h.step();
  EXPECT_EQ(p.h.ring.out(1, 0), 10u);
  EXPECT_EQ(p.h.ring.out(1, 1), 20u);
  p.read(1, {1, 0, 1});
  p.h.step();
  EXPECT_EQ(p.h.ring.out(1, 0), 11u);
  EXPECT_EQ(p.h.ring.out(1, 1), 10u);
  p.read(0, {1, 0, 2});
  p.read(1, {1, 1, 1});
  p.h.step();
  EXPECT_EQ(p.h.ring.out(1, 0), 10u);
  EXPECT_EQ(p.h.ring.out(1, 1), 21u);
}

TEST(Ring, FeedbackDepthPropertyHolds) {
  // Layer 0 outputs v after cycle v.  Read in cycle t at depth d, the
  // pipeline has latched k = t - 2 vectors 1..k and returns the
  // (k-d)-th.
  FeedbackProbe p({2, 1, 8});
  for (Word v = 1; v <= 24; ++v) p.h.in.push_back(v);
  for (std::size_t t = 1; t <= 22; ++t) {
    const std::size_t d = t % 8;
    p.read(0, {1, 0, static_cast<std::uint8_t>(d)});
    p.h.step();
    if (t >= 2 && d < t - 2) {
      EXPECT_EQ(p.h.ring.out(1, 0), static_cast<Word>(t - 2 - d))
          << "cycle " << t << " depth " << d;
    }
  }
}

TEST(Ring, FeedbackBoundsAndReset) {
  // A lane or a depth beyond this instance's pipelines is rejected
  // when read.
  for (const FeedbackAddr bad :
       {FeedbackAddr{1, 2, 0}, FeedbackAddr{1, 0, 3}}) {
    FeedbackProbe p({2, 2, 3});
    p.h.in.assign({1, 2});
    p.read(0, bad);
    EXPECT_THROW(p.h.step(), SimError);
  }
  // A reset clears every stage.
  FeedbackProbe p({2, 2, 3});
  p.h.in.assign({5, 6, 5, 6, 5, 6, 5, 6});
  p.read(0, {1, 0, 0});
  for (int c = 0; c < 3; ++c) p.h.step();
  ASSERT_EQ(p.h.ring.out(1, 0), 5u);
  p.h.ring.reset_for_rerun();
  EXPECT_EQ(p.h.ring.edges(), 0u);
  EXPECT_EQ(p.h.ring.fb_occupancy(1), 0u);
  p.h.step();
  EXPECT_EQ(p.h.ring.out(1, 0), 0u);
}

TEST(Ring, GeometryMismatchRejected) {
  Ring ring({2, 1, 4});
  ConfigMemory cfg({4, 1, 4});
  HostFifo in;
  std::vector<Word> out;
  EXPECT_THROW(ring.step(cfg, 0, in, out), SimError);
}

}  // namespace
}  // namespace sring
