// Random controller page schedules and the comparisons the seeded
// differentials apply to them.
//
// make_case(seed) generates a ring, a repertoire of configuration
// pages (some with local-mode Dnodes, some copies of another page with
// only the immediates changed), random local programs and a controller
// loop that rotates, pulses and rewrites those pages, with the host
// feeding the input in bursts between uneven run_cycles budgets (see
// test_page_schedule_differential.cpp).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "asm/program_builder.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "sim/system.hpp"

namespace sring::schedules {

inline const RingGeometry kGeometries[] = {{2, 1, 4}, {2, 2, 4}, {3, 2, 4},
                                    {4, 2, 8}};

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&options)[N]) {
  return options[rng.next_below(N)];
}

inline bool chance(Rng& rng, std::uint64_t percent) {
  return rng.next_below(100) < percent;
}

inline DnodeInstr random_instr(Rng& rng) {
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

inline FeedbackAddr random_fb(Rng& rng, const RingGeometry& g) {
  FeedbackAddr a;
  a.pipe = static_cast<std::uint8_t>(rng.next_below(g.switch_count()));
  a.lane = static_cast<std::uint8_t>(rng.next_below(g.lanes));
  a.depth = static_cast<std::uint8_t>(rng.next_below(g.fb_depth));
  return a;
}

inline SwitchRoute random_route(Rng& rng, const RingGeometry& g) {
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

inline Case make_case(int seed) {
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

/// Metrics snapshot minus the instruments under the given prefixes.
inline std::string metrics_without(
    const obs::Registry& reg, std::initializer_list<std::string_view> drop) {
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

/// `s` without the ring.plan.* counters, which only the paths move.
inline SystemStats arch_only(SystemStats s) {
  s.plan_compiles = 0;
  s.plan_hits = 0;
  s.plan_invalidations = 0;
  s.plan_content_hits = 0;
  s.plan_evictions = 0;
  return s;
}

}  // namespace sring::schedules
