#include "core/cycle_plan.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/error.hpp"

namespace sring {

namespace {

std::size_t upstream_of(const RingGeometry& geom, std::size_t layer) noexcept {
  return (layer + geom.layers - 1) % geom.layers;
}

std::size_t lcm_of(std::size_t a, std::size_t b) noexcept {
  std::size_t x = a;
  std::size_t y = b;
  while (y != 0) {
    const std::size_t t = x % y;
    x = y;
    y = t;
  }
  return a / x * b;
}

/// Compile one microinstruction against its switch route.  Performs
/// exactly the validation the interpreter does on a non-stalled cycle:
/// for a non-NOP instruction both input routes and both fifo addresses
/// are range-checked whether or not the instruction reads them (the
/// interpreter samples all four unconditionally), while operand
/// resolution — and host pops — happen only for sources the
/// instruction consumes.
PlannedSlot compile_slot(const RingGeometry& geom, const DnodeInstr& instr,
                         const SwitchRoute& route, std::size_t up_layer) {
  PlannedSlot ps;
  ps.instr = instr;
  // The plan is keyed by structure and serves every immediate: the
  // tape reads imm live, so the copy holds none that could go stale.
  ps.instr.imm = 0;
  ps.nop = instr.op == DnodeOp::kNop;
  if (ps.nop) return ps;  // the interpreter skips routing for NOP
  ps.is_mac = instr.op == DnodeOp::kMac || instr.op == DnodeOp::kMsu;

  const auto compile_port = [&](const PortRoute& p, DnodeSrc src,
                                PlannedSlot::Port& kind, std::uint16_t& prev,
                                FeedbackAddr& fb) {
    switch (p.kind) {
      case RouteKind::kZero:
      case RouteKind::kHost:
      case RouteKind::kBus:
        break;
      case RouteKind::kPrev:
        check(p.lane < geom.lanes, "Ring: route lane out of range");
        break;
      case RouteKind::kFeedback:
        p.fb.check_in_range(geom.switch_count(), geom.lanes, geom.fb_depth);
        break;
      case RouteKind::kKindCount:
        throw SimError("Ring: bad route kind");
    }
    if (!instr_reads(instr, src)) return;  // operand unused: stays kZero
    switch (p.kind) {
      case RouteKind::kZero:
        break;
      case RouteKind::kPrev:
        kind = PlannedSlot::Port::kPrev;
        prev = static_cast<std::uint16_t>(up_layer * geom.lanes + p.lane);
        break;
      case RouteKind::kHost:
        kind = PlannedSlot::Port::kHost;
        ++ps.pops;
        break;
      case RouteKind::kFeedback:
        kind = PlannedSlot::Port::kFeedback;
        fb = p.fb;
        break;
      case RouteKind::kBus:
        kind = PlannedSlot::Port::kBus;
        break;
      case RouteKind::kKindCount:
        break;
    }
  };
  compile_port(route.in1, DnodeSrc::kIn1, ps.in1, ps.in1_prev, ps.in1_fb);
  compile_port(route.in2, DnodeSrc::kIn2, ps.in2, ps.in2_prev, ps.in2_fb);

  route.fifo1.check_in_range(geom.switch_count(), geom.lanes, geom.fb_depth);
  route.fifo2.check_in_range(geom.switch_count(), geom.lanes, geom.fb_depth);
  ps.read_fifo1 = instr_reads(instr, DnodeSrc::kFifo1);
  ps.read_fifo2 = instr_reads(instr, DnodeSrc::kFifo2);
  ps.fifo1 = route.fifo1;
  ps.fifo2 = route.fifo2;

  if (instr_reads(instr, DnodeSrc::kHost)) {
    ps.direct_pop = true;
    ++ps.pops;
  }
  return ps;
}

}  // namespace

void compile_cycle_plan(const RingGeometry& geom, const ConfigMemory& cfg,
                        const std::vector<LocalControl>& locals,
                        CyclePlan& plan) {
  const std::size_t n = geom.dnode_count();
  plan.static_pops = 0;
  plan.superstep_period = 1;
  plan.dnodes.assign(n, PlannedDnode{});
  plan.local_dnodes.clear();
  plan.global_dnodes.clear();
  plan.host_taps.clear();

  for (std::size_t layer = 0; layer < geom.layers; ++layer) {
    const std::size_t up = upstream_of(geom, layer);
    for (std::size_t lane = 0; lane < geom.lanes; ++lane) {
      const std::size_t i = layer * geom.lanes + lane;
      PlannedDnode& pd = plan.dnodes[i];
      const SwitchRoute& route = cfg.switch_route(layer, lane);
      pd.is_local = cfg.dnode_mode(i) == DnodeMode::kLocal;
      if (pd.is_local) {
        plan.local_dnodes.push_back(static_cast<std::uint16_t>(i));
        const LocalControl& lc = locals[i];
        // The counter never exceeds LIMIT (writes clamp, advance
        // wraps), so slots above it are unreachable and stay NOP.
        for (std::size_t s = 0; s <= lc.limit(); ++s) {
          pd.local[s] = compile_slot(geom, lc.instr_at(s), route, up);
        }
        pd.local_len = static_cast<std::uint8_t>(lc.limit() + 1);
        if (plan.superstep_period != 0) {
          plan.superstep_period =
              lcm_of(plan.superstep_period, pd.local_len);
          if (plan.superstep_period > kMaxSuperstepPeriod) {
            plan.superstep_period = 0;  // schedule too long to unroll
          }
        }
      } else {
        plan.global_dnodes.push_back(static_cast<std::uint16_t>(i));
        pd.global = compile_slot(geom, cfg.dnode_instr(i), route, up);
        plan.static_pops += pd.global.pops;
      }
    }
  }

  // Host-out taps fire independently of the downstream instruction.
  for (std::size_t s = 0; s < geom.switch_count(); ++s) {
    for (std::size_t lane = 0; lane < geom.lanes; ++lane) {
      const SwitchRoute& route = cfg.switch_route(s, lane);
      if (!route.host_out_en) continue;
      check(route.host_out_lane < geom.lanes,
            "Ring: host-out lane out of range");
      HostTapPlan tap;
      tap.src = static_cast<std::uint32_t>(upstream_of(geom, s) * geom.lanes +
                                           route.host_out_lane);
      tap.sw = static_cast<std::uint32_t>(s);
      plan.host_taps.push_back(tap);
    }
  }
}

namespace {

/// Clear `t` for `period` phases.
void begin_tape(SuperstepTape& t, std::size_t period) {
  t.valid = false;
  t.period = period;
  t.base_counters.clear();
  t.ops.clear();
  t.sources.clear();
  t.phases.assign(period + 1, {});
  t.effects.clear();
  t.gather.clear();
  t.consts.clear();
  t.slots = 0;
  t.carry.clear();
  t.written.clear();
  t.taps.clear();
  t.phase_cycles.assign(period, 0);
}

/// The constant slot of each immediate a tape reads (0: none yet):
/// configuration immediate word `from` at [from], local immediate
/// `from` at [locals + from].
struct ConstSlots {
  std::size_t locals = 0;
  std::vector<std::uint16_t> at;

  /// Room for configuration immediate words below `words` and every
  /// local immediate of `n` Dnodes.
  ConstSlots(std::size_t words, std::size_t n)
      : locals(words), at(words + n * kLocalProgramSlots, 0) {}
};

/// Lower phase `p` of `t`: `plan` with every local Dnode at slot
/// (counter + local_phase) % local_len, kImm operands of global Dnodes
/// reading immediate word imm_base + dnode.  `writes` receives the
/// phase's written slots, sorted.
void lower_phase(const RingGeometry& geom, const CyclePlan& plan,
                 const std::vector<LocalControl>& locals,
                 std::size_t local_phase, std::size_t imm_base, std::size_t p,
                 SuperstepTape& t, ConstSlots& const_slots,
                 std::vector<std::uint16_t>& writes) {
  const std::size_t n = geom.dnode_count();
  const TapeLayout lay{n};
  SuperstepTape::Phase& at = t.phases[p];
  at.ops = static_cast<std::uint32_t>(t.ops.size());
  at.effects = static_cast<std::uint32_t>(t.effects.size());
  at.taps = static_cast<std::uint32_t>(t.taps.size());
  at.gather = static_cast<std::uint32_t>(t.gather.size());
  const auto window = [&](const FeedbackAddr& fb) {
    const std::uint16_t to = lay.win(t.gather.size() - at.gather);
    t.gather.push_back(
        {static_cast<std::uint32_t>(fb.depth * n +
                                    upstream_of(geom, fb.pipe) * geom.lanes +
                                    fb.lane),
         to});
    return to;
  };
  const auto constant = [&](std::size_t from, bool local) {
    std::uint16_t& slot = const_slots.at[local ? const_slots.locals + from : from];
    if (slot == 0) {
      slot = static_cast<std::uint16_t>(lay.consts() + t.consts.size());
      t.consts.push_back({static_cast<std::uint32_t>(from), slot, local});
    }
    return slot;
  };
  t.taps.insert(t.taps.end(), plan.host_taps.begin(), plan.host_taps.end());
  std::uint16_t pops = 0;
  // Ascending Dnode order: the documented host pop and output drain
  // order.
  for (std::uint16_t i = 0; i < n; ++i) {
    const PlannedDnode& pd = plan.dnodes[i];
    const auto slot = static_cast<std::uint8_t>(
        pd.is_local ? (locals[i].counter() + local_phase) % pd.local_len
                    : 0);
    const PlannedSlot& ps = pd.is_local ? pd.local[slot] : pd.global;
    if (ps.nop) continue;
    // Pop ordinals in the documented order: in1, in2, direct host.
    std::uint16_t in1_pop = 0;
    std::uint16_t in2_pop = 0;
    std::uint16_t host_pop = 0;
    if (ps.in1 == PlannedSlot::Port::kHost) in1_pop = pops++;
    if (ps.in2 == PlannedSlot::Port::kHost) in2_pop = pops++;
    if (ps.direct_pop) host_pop = pops++;

    const auto port = [&](PlannedSlot::Port kind, std::uint16_t prev,
                          const FeedbackAddr& fb, std::uint16_t pop) {
      switch (kind) {
        case PlannedSlot::Port::kZero:
          break;
        case PlannedSlot::Port::kPrev:
          return lay.out(prev);
        case PlannedSlot::Port::kHost:
          return lay.pop(pop);
        case PlannedSlot::Port::kFeedback:
          return window(fb);
        case PlannedSlot::Port::kBus:
          return TapeLayout::kBus;
      }
      return TapeLayout::kZero;
    };
    const DnodeInstr& in = ps.instr;
    const auto ref = [&](DnodeSrc src) -> std::uint16_t {
      switch (src) {
        case DnodeSrc::kZero:
        case DnodeSrc::kSrcCount:
          break;
        case DnodeSrc::kIn1:
          return port(ps.in1, ps.in1_prev, ps.in1_fb, in1_pop);
        case DnodeSrc::kIn2:
          return port(ps.in2, ps.in2_prev, ps.in2_fb, in2_pop);
        case DnodeSrc::kFifo1:
          return window(ps.fifo1);
        case DnodeSrc::kFifo2:
          return window(ps.fifo2);
        case DnodeSrc::kBus:
          return TapeLayout::kBus;
        case DnodeSrc::kHost:
          return lay.pop(host_pop);
        case DnodeSrc::kImm:
          return pd.is_local ? constant(i * kLocalProgramSlots + slot, true)
                             : constant(imm_base + i, false);
        case DnodeSrc::kR0:
        case DnodeSrc::kR1:
        case DnodeSrc::kR2:
        case DnodeSrc::kR3:
          return lay.reg(i, static_cast<std::size_t>(src) -
                                static_cast<std::size_t>(DnodeSrc::kR0));
      }
      return TapeLayout::kZero;
    };

    TapeOp op;
    op.op = in.op;
    op.host_en = in.host_en;
    op.bus_en = in.bus_en;
    op.a = ref(in.src_a);
    if (op_uses_b(in.op)) op.b = ref(in.src_b);
    if (op_uses_c(in.op)) op.c = ref(in.src_c);
    op.dst = in.dst != DnodeDst::kNone ? lay.reg(i, dst_reg_index(in.dst))
                                       : lay.val(i);
    op.out = in.out_en ? lay.out(i) : lay.sink();
    if (in.dst != DnodeDst::kNone) writes.push_back(op.dst);
    if (op.out != lay.sink()) writes.push_back(op.out);
    t.ops.push_back(op);
    t.sources.push_back({i, slot, &ps});
  }
  at.pops = pops;
  std::sort(writes.begin(), writes.end());

  // PASS ops first: the loop runs them as moves, without the ALU
  // dispatch.  Order within a phase is free: every op reads the
  // current buffer and writes its own slots of the next (or the sink).
  at.alu = at.ops;
  for (auto m = at.ops; m < t.ops.size(); ++m) {
    if (t.ops[m].op == DnodeOp::kPass) {
      std::swap(t.ops[m], t.ops[at.alu]);
      std::swap(t.sources[m], t.sources[at.alu]);
      ++at.alu;
    }
  }
  // Host and bus effects drain in Dnode order.
  for (auto m = at.ops; m < t.ops.size(); ++m) {
    if (t.ops[m].host_en || t.ops[m].bus_en) t.effects.push_back(m);
  }
  std::sort(t.effects.begin() + at.effects, t.effects.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return t.sources[a].dnode < t.sources[b].dnode;
            });
}

/// Close `t`: phase bounds, the per-phase carry lists (what the
/// previous phase wrote and this one does not) and the written set.
/// `t` stays invalid when a slot lies beyond a 16-bit offset.
void finish_tape(const RingGeometry& geom, SuperstepTape& t,
                 const std::vector<std::vector<std::uint16_t>>& writes) {
  const std::size_t period = t.period;
  t.slots = TapeLayout{geom.dnode_count()}.consts() + t.consts.size();
  if (t.slots > std::size_t{1} << 16) return;
  SuperstepTape::Phase& end = t.phases[period];
  end.ops = static_cast<std::uint32_t>(t.ops.size());
  end.gather = static_cast<std::uint32_t>(t.gather.size());
  end.effects = static_cast<std::uint32_t>(t.effects.size());
  end.taps = static_cast<std::uint32_t>(t.taps.size());
  for (std::size_t p = 0; p < period; ++p) {
    t.phases[p].carry = static_cast<std::uint32_t>(t.carry.size());
    const auto& prev = writes[(p + period - 1) % period];
    std::set_difference(prev.begin(), prev.end(), writes[p].begin(),
                        writes[p].end(), std::back_inserter(t.carry));
    t.written.insert(t.written.end(), writes[p].begin(), writes[p].end());
  }
  end.carry = static_cast<std::uint32_t>(t.carry.size());
  t.pop_sum.assign(period + 1, 0);
  t.out_sum.assign(period + 1, 0);
  for (std::size_t p = 0; p < period; ++p) {
    const SuperstepTape::Phase& a = t.phases[p];
    const SuperstepTape::Phase& b = t.phases[p + 1];
    std::uint32_t outs = b.taps - a.taps;
    for (std::uint32_t j = a.effects; j < b.effects; ++j) {
      outs += t.ops[t.effects[j]].host_en ? 1u : 0u;
    }
    t.pop_sum[p + 1] = t.pop_sum[p] + a.pops;
    t.out_sum[p + 1] = t.out_sum[p] + outs;
  }
  std::sort(t.written.begin(), t.written.end());
  t.written.erase(std::unique(t.written.begin(), t.written.end()),
                  t.written.end());
  t.valid = true;
}

}  // namespace

void compile_tape(const RingGeometry& geom, const CyclePlan& plan,
                  const std::vector<LocalControl>& locals, SuperstepTape& t) {
  const std::size_t period = plan.superstep_period;
  begin_tape(t, period);
  for (const std::uint16_t i : plan.local_dnodes) {
    t.base_counters.push_back(locals[i].counter());
  }
  std::vector<std::vector<std::uint16_t>> writes(period);
  ConstSlots const_slots(geom.dnode_count(), geom.dnode_count());
  for (std::size_t p = 0; p < period; ++p) {
    lower_phase(geom, plan, locals, p, 0, p, t, const_slots, writes[p]);
  }
  finish_tape(geom, t, writes);
}

void compile_loop_tape(const RingGeometry& geom,
                       std::span<const CyclePlan* const> plans,
                       std::span<const std::size_t> pages,
                       const std::vector<LocalControl>& locals,
                       SuperstepTape& t) {
  const std::size_t n = geom.dnode_count();
  begin_tape(t, plans.size());
  std::vector<std::vector<std::uint16_t>> writes(plans.size());
  ConstSlots const_slots((*std::max_element(pages.begin(), pages.end()) + 1) * n,
                         n);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    lower_phase(geom, *plans[i], locals, 0, pages[i] * n, i, t, const_slots,
                writes[i]);
  }
  finish_tape(geom, t, writes);
}

std::uint64_t tape_fit(std::span<const std::uint32_t> sum, std::size_t s,
                       std::uint64_t c) noexcept {
  const std::size_t period = sum.size() - 1;
  const std::uint64_t total = sum[period];
  if (total == 0) return ~std::uint64_t{0};
  // Phases x from 0 whose prefix stays <= sum[s] + c: whole periods,
  // then the phases of the next whose prefix fits the rest.  A smaller
  // c only shortens the answer, so clamping it keeps the product exact.
  const std::uint64_t v = sum[s] + std::min(c, std::uint64_t{1} << 40);
  const auto part = std::upper_bound(sum.begin(), sum.begin() + period,
                                     v % total) -
                    sum.begin();
  return v / total * period + static_cast<std::uint64_t>(part) - s - 1;
}

std::ptrdiff_t tape_phase(const SuperstepTape& t, const CyclePlan& plan,
                          const std::vector<LocalControl>& locals) noexcept {
  for (std::size_t p = 0; p < t.period; ++p) {
    bool match = true;
    for (std::size_t k = 0; k < plan.local_dnodes.size() && match; ++k) {
      const std::uint16_t i = plan.local_dnodes[k];
      match = (t.base_counters[k] + p) % plan.dnodes[i].local_len ==
              locals[i].counter();
    }
    if (match) return static_cast<std::ptrdiff_t>(p);
  }
  return -1;
}

}  // namespace sring
