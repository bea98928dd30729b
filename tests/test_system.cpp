// Integration tests of the full System (controller + ring + host link).
#include <gtest/gtest.h>

#include <sstream>

#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/fir.hpp"
#include "obs/sinks.hpp"
#include "sim/system.hpp"

namespace sring {
namespace {

RingGeometry geom() { return {4, 2, 16}; }

/// A minimal program: one Dnode in local mode computes a running MAC of
/// host pairs and streams every partial sum back.
LoadableProgram running_mac_program() {
  ProgramBuilder pb(geom(), "running_mac");
  PageBuilder page(geom());
  SwitchRoute r;
  r.in1 = PortRoute::host();
  r.in2 = PortRoute::host();
  page.route(0, 0, r);
  page.mode(0, 0, DnodeMode::kLocal);
  pb.add_page(page);

  DnodeInstr mac;
  mac.op = DnodeOp::kMac;
  mac.src_a = DnodeSrc::kIn1;
  mac.src_b = DnodeSrc::kIn2;
  mac.src_c = DnodeSrc::kR0;
  mac.dst = DnodeDst::kR0;
  mac.host_en = true;
  pb.local_program(0, {mac});

  pb.page_switch(0);
  pb.halt();
  return pb.build();
}

TEST(System, RunningMacMatchesGoldenModel) {
  System sys({geom()});
  sys.load(running_mac_program());

  Rng rng(11);
  std::vector<Word> a(64), b(64), interleaved;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.next_word_in(-100, 100);
    b[i] = rng.next_word_in(-100, 100);
    interleaved.push_back(a[i]);
    interleaved.push_back(b[i]);
  }
  sys.host().send(interleaved);
  sys.run_until_outputs(a.size(), 10000);

  const auto expected = dsp::running_mac_reference(a, b);
  const auto got = sys.host().take_received();
  ASSERT_GE(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "at index " << i;
  }
}

TEST(System, StatsAccumulate) {
  System sys({geom()});
  sys.load(running_mac_program());
  std::vector<Word> data(32, 1);
  sys.host().send(data);
  sys.run_until_outputs(16, 10000);
  const auto stats = sys.stats();
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_EQ(stats.host_words_in, 32u);
  EXPECT_GE(stats.host_words_out, 16u);
  EXPECT_GT(stats.dnode_ops, 0u);
  EXPECT_EQ(stats.arith_ops, 2 * stats.dnode_ops) << "all ops are MACs";
  EXPECT_GT(stats.config_words_written, 0u);
  EXPECT_GT(stats.utilization(geom().dnode_count()), 0.0);
}

TEST(System, RingStallsWhenHostDataRunsOut) {
  System sys({geom()});
  sys.load(running_mac_program());
  sys.host().send(std::vector<Word>{1, 1});  // one pair only
  sys.run_cycles(50);
  const auto stats = sys.stats();
  EXPECT_EQ(stats.host_words_in, 2u);
  EXPECT_GT(stats.ring_stall_cycles, 0u);
}

TEST(System, LoadRejectsWrongGeometry) {
  System sys({geom()});
  ProgramBuilder pb({2, 2, 16}, "other");
  pb.halt();
  EXPECT_THROW(sys.load(pb.build()), SimError);
}

TEST(System, LoadResetsState) {
  System sys({geom()});
  sys.load(running_mac_program());
  sys.host().send(std::vector<Word>{3, 3, 4, 4});
  sys.run_until_outputs(2, 1000);
  sys.load(running_mac_program());
  EXPECT_EQ(sys.cycle(), 0u);
  EXPECT_FALSE(sys.controller().halted());
  EXPECT_EQ(sys.ring().reg(0, 0, 0), 0u);
}

TEST(System, RunUntilHaltHonorsBudget) {
  System sys({geom()});
  ProgramBuilder pb(geom(), "spin");
  pb.label("spin");
  pb.jmp("spin");
  sys.load(pb.build());
  EXPECT_THROW(sys.run_until_halt(100), SimError);
}

TEST(System, BandwidthLimitedLinkStarvesTheRing) {
  // Ideal link vs a link that delivers one word every 4 cycles: the
  // limited system must take roughly 8x longer per MAC pair.
  const std::size_t pairs = 64;
  std::vector<Word> data(2 * pairs, 3);

  System fast({geom()});
  fast.load(running_mac_program());
  fast.host().send(data);
  fast.run_until_outputs(pairs, 100000);
  const auto fast_cycles = fast.stats().cycles;

  System slow({geom(), LinkRate{1, 4}});
  slow.load(running_mac_program());
  slow.host().send(data);
  slow.run_until_outputs(pairs, 100000);
  const auto slow_cycles = slow.stats().cycles;

  EXPECT_GT(slow_cycles, 6 * fast_cycles);
  EXPECT_GT(slow.stats().ring_stall_cycles, 0u);
}

TEST(System, HybridModeRunsLocalAndGlobalDnodesTogether) {
  // Paper §4.2: "all Dnodes have not to run in the same mode, allowing
  // the Systolic Ring to compute either in global mode, local mode or
  // hybrid mode".  Dnode 0.0 runs a stand-alone MAC stream while the
  // controller simultaneously retargets Dnode 1.0 (global mode)
  // between two constants every few cycles.
  System sys({geom()});
  ProgramBuilder pb(geom(), "hybrid");

  PageBuilder page(geom());
  SwitchRoute r;
  r.in1 = PortRoute::host();
  r.in2 = PortRoute::host();
  page.route(0, 0, r);
  page.mode(0, 0, DnodeMode::kLocal);
  pb.add_page(page);

  DnodeInstr mac;
  mac.op = DnodeOp::kMac;
  mac.src_a = DnodeSrc::kIn1;
  mac.src_b = DnodeSrc::kIn2;
  mac.src_c = DnodeSrc::kR0;
  mac.dst = DnodeDst::kR0;
  mac.host_en = true;
  pb.local_program(0, {mac});

  DnodeInstr emit_a;
  emit_a.op = DnodeOp::kPass;
  emit_a.src_a = DnodeSrc::kImm;
  emit_a.imm = 1111;
  emit_a.host_en = true;
  DnodeInstr emit_b = emit_a;
  emit_b.imm = 2222;

  const std::size_t dnode10 = 1 * geom().lanes;
  pb.page_switch(0);
  pb.ldi(1, 4);
  pb.ldi(2, 0);
  pb.label("loop");
  pb.wrcfg(dnode10, emit_a);  // several cycles of 1111
  pb.wrcfg(dnode10, emit_b);  // then 2222, while the MAC never pauses
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "loop");
  pb.halt();
  sys.load(pb.build());

  std::vector<Word> pairs;
  for (Word i = 1; i <= 40; ++i) {
    pairs.push_back(i);
    pairs.push_back(1);
  }
  sys.host().send(pairs);
  sys.run_until_halt(1000, /*drain_cycles=*/2);

  // Split the interleaved output stream by producer.
  const auto raw = sys.host().take_received();
  std::vector<Word> mac_out;
  bool saw_1111 = false;
  bool saw_2222 = false;
  for (const Word w : raw) {
    if (w == 1111) {
      saw_1111 = true;
    } else if (w == 2222) {
      saw_2222 = true;
    } else {
      mac_out.push_back(w);
    }
  }
  EXPECT_TRUE(saw_1111 && saw_2222)
      << "the globally reconfigured Dnode must have emitted both values";
  // The stand-alone MAC stream is the exact running sum 1+2+...+n.
  ASSERT_GE(mac_out.size(), 10u);
  for (std::size_t n = 0; n < mac_out.size(); ++n) {
    EXPECT_EQ(as_signed(mac_out[n]),
              static_cast<std::int32_t>((n + 1) * (n + 2) / 2))
        << "n=" << n;
  }
}

TEST(System, TraceProducesOneLinePerCycle) {
  System sys({geom()});
  sys.load(running_mac_program());
  std::ostringstream os;
  obs::TextSink trace(os);
  sys.set_trace(&trace);
  sys.host().send(std::vector<Word>{1, 2, 3, 4});
  sys.run_cycles(5);
  std::size_t lines = 0;
  for (const char c : os.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 5u);
  EXPECT_NE(os.str().find("cyc"), std::string::npos);
}

}  // namespace
}  // namespace sring
