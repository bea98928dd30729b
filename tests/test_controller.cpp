// Unit tests for the RISC configuration controller.
#include <gtest/gtest.h>

#include <vector>

#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "ctrl/controller.hpp"

namespace sring {
namespace {

struct Harness {
  Harness() : cfg({2, 2, 8}), ring({2, 2, 8}) {}

  Controller::StepResult step() {
    const Controller::StepContext ctx{cfg, ring, bus, in, out, cycle};
    auto res = ctrl.step(ctx);
    if (res.bus_drive) bus = *res.bus_drive;
    ++cycle;
    return res;
  }

  /// Run until halt, with a safety bound.
  void run(int max_cycles = 10000) {
    for (int i = 0; i < max_cycles && !ctrl.halted(); ++i) step();
    ASSERT_TRUE(ctrl.halted()) << "program did not halt";
  }

  Controller ctrl;
  ConfigMemory cfg;
  Ring ring;
  Word bus = 0;
  HostFifo in;
  std::vector<Word> out;
  std::uint64_t cycle = 0;
};

std::vector<std::uint32_t> code(std::initializer_list<RiscInstr> instrs) {
  std::vector<std::uint32_t> words;
  for (const auto& i : instrs) words.push_back(i.encode());
  return words;
}

TEST(Controller, ArithmeticAndMoves) {
  Harness h;
  h.ctrl.load_program(code({
      {RiscOp::kLdi, 1, 0, 0, 100},
      {RiscOp::kLdi, 2, 0, 0, -3},
      {RiscOp::kAdd, 3, 1, 2, 0},
      {RiscOp::kSub, 4, 1, 2, 0},
      {RiscOp::kMul, 5, 1, 2, 0},
      {RiscOp::kMov, 6, 5, 0, 0},
      {RiscOp::kHalt, 0, 0, 0, 0},
  }));
  h.run();
  EXPECT_EQ(h.ctrl.reg(3), 97u);
  EXPECT_EQ(h.ctrl.reg(4), 103u);
  EXPECT_EQ(static_cast<std::int64_t>(h.ctrl.reg(5)), -300);
  EXPECT_EQ(h.ctrl.reg(6), h.ctrl.reg(5));
}

TEST(Controller, LogicAndShifts) {
  Harness h;
  h.ctrl.load_program(code({
      {RiscOp::kLdi, 1, 0, 0, 0x0FF0},
      {RiscOp::kLdi, 2, 0, 0, 0x00FF},
      {RiscOp::kAnd, 3, 1, 2, 0},
      {RiscOp::kOr, 4, 1, 2, 0},
      {RiscOp::kXor, 5, 1, 2, 0},
      {RiscOp::kLdi, 6, 0, 0, 4},
      {RiscOp::kShl, 7, 2, 6, 0},
      {RiscOp::kShr, 8, 1, 6, 0},
      {RiscOp::kLdi, 9, 0, 0, -16},
      {RiscOp::kAsr, 10, 9, 6, 0},
      {RiscOp::kHalt, 0, 0, 0, 0},
  }));
  h.run();
  EXPECT_EQ(h.ctrl.reg(3), 0x00F0u);
  EXPECT_EQ(h.ctrl.reg(4), 0x0FFFu);
  EXPECT_EQ(h.ctrl.reg(5), 0x0F0Fu);
  EXPECT_EQ(h.ctrl.reg(7), 0x0FF0u);
  EXPECT_EQ(h.ctrl.reg(8), 0x00FFu);
  EXPECT_EQ(static_cast<std::int64_t>(h.ctrl.reg(10)), -1);
}

TEST(Controller, LdihBuildsWideConstants) {
  Harness h;
  h.ctrl.load_program(code({
      {RiscOp::kLdi, 1, 0, 0, 0x1234},
      {RiscOp::kLdih, 1, 0, 0, 0x5678},
      {RiscOp::kLdih, 1, 0, 0, static_cast<std::int32_t>(0x9ABC) - 65536},
      {RiscOp::kHalt, 0, 0, 0, 0},
  }));
  h.run();
  EXPECT_EQ(h.ctrl.reg(1), 0x123456789ABCull);
}

TEST(Controller, BranchesAndLoop) {
  // Sum 1..10 with a BLT loop.
  Harness h;
  ProgramBuilder pb({2, 2, 8}, "loop");
  pb.ldi(1, 0);    // acc
  pb.ldi(2, 1);    // i
  pb.ldi(3, 11);   // bound
  pb.label("loop");
  pb.alu(RiscOp::kAdd, 1, 1, 2);
  pb.addi(2, 2, 1);
  pb.branch(RiscOp::kBlt, 2, 3, "loop");
  pb.halt();
  h.ctrl.load_program(pb.build().controller_code);
  h.run();
  EXPECT_EQ(h.ctrl.reg(1), 55u);
}

TEST(Controller, WaitStallsForExactCycles) {
  Harness h;
  h.ctrl.load_program(code({
      {RiscOp::kWait, 0, 0, 0, 5},
      {RiscOp::kHalt, 0, 0, 0, 0},
  }));
  int cycles = 0;
  while (!h.ctrl.halted()) {
    h.step();
    ++cycles;
  }
  // WAIT 5 occupies 5 cycles, HALT 1.
  EXPECT_EQ(cycles, 6);
}

TEST(Controller, InpopStallsUntilDataArrives) {
  Harness h;
  h.ctrl.load_program(code({
      {RiscOp::kInpop, 1, 0, 0, 0},
      {RiscOp::kOutpush, 0, 1, 0, 0},
      {RiscOp::kHalt, 0, 0, 0, 0},
  }));
  auto r1 = h.step();
  EXPECT_TRUE(r1.stalled);
  EXPECT_EQ(h.ctrl.pc(), 0u);
  h.in.push_back(to_word(9));
  h.step();
  EXPECT_EQ(h.ctrl.reg(1), 9u);
  h.step();
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0], 9u);
}

TEST(Controller, ConfigWrites) {
  Harness h;
  DnodeInstr instr;
  instr.op = DnodeOp::kAdd;
  instr.src_a = DnodeSrc::kIn1;
  instr.src_b = DnodeSrc::kIn2;
  instr.out_en = true;
  SwitchRoute route;
  route.in1 = PortRoute::prev(1);

  ProgramBuilder pb({2, 2, 8}, "cfg");
  pb.wrcfg(3, instr);
  pb.wrmode(2, DnodeMode::kLocal);
  pb.wrsw(1, 1, route);
  pb.wrloc(1, 0, instr.encode());
  pb.wrloc(1, LocalControl::kLimitSlot, 0);
  pb.halt();
  h.ctrl.load_program(pb.build().controller_code);
  h.run();
  EXPECT_EQ(h.cfg.dnode_instr(3), instr);
  EXPECT_EQ(h.cfg.dnode_mode(2), DnodeMode::kLocal);
  EXPECT_EQ(h.cfg.switch_route(1, 1), route);
  EXPECT_EQ(h.ring.local(1).current(), instr);
}

TEST(Controller, PageApplication) {
  Harness h;
  ConfigPage page = ConfigPage::zeroed({2, 2, 8});
  DnodeInstr instr;
  instr.op = DnodeOp::kNot;
  instr.src_a = DnodeSrc::kIn1;
  instr.out_en = true;
  page.dnode_instr[0] = instr.encode();
  h.cfg.add_page(page);
  h.ctrl.load_program(code({
      {RiscOp::kPage, 0, 0, 0, 0},
      {RiscOp::kHalt, 0, 0, 0, 0},
  }));
  h.run();
  EXPECT_EQ(h.cfg.dnode_instr(0), instr);
}

TEST(Controller, PagerUsesRegisterIndex) {
  Harness h;
  h.cfg.add_page(ConfigPage::zeroed({2, 2, 8}));
  h.ctrl.load_program(code({
      {RiscOp::kLdi, 1, 0, 0, 0},
      {RiscOp::kPager, 0, 1, 0, 0},
      {RiscOp::kHalt, 0, 0, 0, 0},
  }));
  h.run();
  EXPECT_GT(h.cfg.words_written(), 0u);
}

TEST(Controller, BusReadWrite) {
  Harness h;
  h.ctrl.load_program(code({
      {RiscOp::kLdi, 1, 0, 0, 321},
      {RiscOp::kBusw, 0, 1, 0, 0},
      {RiscOp::kRdbus, 2, 0, 0, 0},
      {RiscOp::kHalt, 0, 0, 0, 0},
  }));
  h.run();
  EXPECT_EQ(h.ctrl.reg(2), 321u);
}

TEST(Controller, FifoCountsAndCycleCounter) {
  Harness h;
  h.in.assign({1, 2, 3});
  h.out.assign({9});
  h.ctrl.load_program(code({
      {RiscOp::kIncnt, 1, 0, 0, 0},
      {RiscOp::kOutcnt, 2, 0, 0, 0},
      {RiscOp::kRdcyc, 3, 0, 0, 0},
      {RiscOp::kHalt, 0, 0, 0, 0},
  }));
  h.run();
  EXPECT_EQ(h.ctrl.reg(1), 3u);
  EXPECT_EQ(h.ctrl.reg(2), 1u);
  EXPECT_EQ(h.ctrl.reg(3), 2u);  // RDCYC executed on cycle 2
}

TEST(Controller, HaltIsSticky) {
  Harness h;
  h.ctrl.load_program(code({{RiscOp::kHalt, 0, 0, 0, 0}}));
  h.step();
  EXPECT_TRUE(h.ctrl.halted());
  const auto res = h.step();
  EXPECT_TRUE(res.halted);
  EXPECT_FALSE(res.executed);
}

TEST(Controller, RunningOffProgramEndThrows) {
  Harness h;
  h.ctrl.load_program(code({{RiscOp::kNop, 0, 0, 0, 0}}));
  h.step();
  EXPECT_THROW(h.step(), SimError);
}

TEST(Controller, SetRegMaterializesArbitraryConstants) {
  // Property: ProgramBuilder::set_reg reproduces any 64-bit value.
  const std::uint64_t cases[] = {0,
                                 1,
                                 0x7FFF,
                                 0x8000,
                                 0xFFFF,
                                 0x10000,
                                 0xFEDCBA9876543210ull,
                                 0xFFFFFFFFFFFFFFFFull,
                                 0x8000000000000000ull,
                                 42,
                                 static_cast<std::uint64_t>(-42)};
  for (const auto value : cases) {
    Harness h;
    ProgramBuilder pb({2, 2, 8}, "setreg");
    pb.set_reg(5, value);
    pb.halt();
    h.ctrl.load_program(pb.build().controller_code);
    h.run();
    EXPECT_EQ(h.ctrl.reg(5), value) << "value=" << value;
  }
}

}  // namespace
}  // namespace sring
