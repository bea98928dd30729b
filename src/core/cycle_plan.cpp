#include "core/cycle_plan.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"
#include "core/local_control.hpp"

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
                        const std::vector<Dnode>& dnodes, CyclePlan& plan) {
  const std::size_t n = geom.dnode_count();
  plan.valid = false;
  plan.static_pops = 0;
  plan.superstep_period = 1;
  plan.dnodes.assign(n, PlannedDnode{});
  plan.local_dnodes.clear();
  plan.global_dnodes.clear();
  plan.exec_dnodes.clear();
  plan.host_taps.clear();

  for (std::size_t layer = 0; layer < geom.layers; ++layer) {
    const std::size_t up = upstream_of(geom, layer);
    for (std::size_t lane = 0; lane < geom.lanes; ++lane) {
      const std::size_t i = layer * geom.lanes + lane;
      PlannedDnode& pd = plan.dnodes[i];
      const SwitchRoute& route = cfg.switch_route(layer, lane);
      bool active = false;  // some reachable slot is non-NOP
      pd.is_local = cfg.dnode_mode(i) == DnodeMode::kLocal;
      if (pd.is_local) {
        plan.local_dnodes.push_back(static_cast<std::uint16_t>(i));
        const LocalControl& lc = dnodes[i].local();
        // The counter never exceeds LIMIT (writes clamp, advance
        // wraps), so slots above it are unreachable and stay NOP.
        for (std::size_t s = 0; s <= lc.limit(); ++s) {
          pd.local[s] = compile_slot(geom, lc.instr_at(s), route, up);
          active = active || !pd.local[s].nop;
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
        active = !pd.global.nop;
        plan.static_pops += pd.global.pops;
      }
      if (active) {
        plan.exec_dnodes.push_back(static_cast<std::uint16_t>(i));
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

void compile_tape(const RingGeometry& geom, const CyclePlan& plan,
                  const std::vector<Dnode>& dnodes, SuperstepTape& t) {
  const std::size_t n = geom.dnode_count();
  const TapeLayout lay{n};
  const std::size_t period = plan.superstep_period;
  t.period = period;
  t.base_counters.clear();
  for (const std::uint16_t i : plan.local_dnodes) {
    t.base_counters.push_back(dnodes[i].local().counter());
  }
  t.ops.clear();
  t.sources.clear();
  t.begin.assign(period + 1, 0);
  t.pops.assign(period, 0);
  t.effects.clear();
  t.effects_begin.assign(period + 1, 0);
  t.carry.clear();
  t.carry_begin.assign(period + 1, 0);
  t.written.clear();
  t.imm.clear();
  t.phase_cycles.assign(period, 0);
  t.reads_window = false;

  const auto window = [&](const FeedbackAddr& fb) {
    return TapeRef{TapeRef::kWindow,
                   static_cast<std::uint16_t>(
                       fb.depth * n + upstream_of(geom, fb.pipe) * geom.lanes +
                       fb.lane)};
  };
  std::vector<std::vector<std::uint16_t>> writes(period);
  for (std::size_t p = 0; p < period; ++p) {
    t.begin[p] = static_cast<std::uint32_t>(t.ops.size());
    t.effects_begin[p] = static_cast<std::uint32_t>(t.effects.size());
    std::uint16_t pops = 0;
    for (const std::uint16_t i : plan.exec_dnodes) {
      const PlannedDnode& pd = plan.dnodes[i];
      const PlannedSlot& ps =
          pd.is_local
              ? pd.local[(dnodes[i].local().counter() + p) % pd.local_len]
              : pd.global;
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
            return TapeRef{TapeRef::kState, lay.out(prev)};
          case PlannedSlot::Port::kHost:
            return TapeRef{TapeRef::kPops, pop};
          case PlannedSlot::Port::kFeedback:
            return window(fb);
          case PlannedSlot::Port::kBus:
            return TapeRef{TapeRef::kState, TapeLayout::kBus};
        }
        return TapeRef{};
      };
      const DnodeInstr& in = ps.instr;
      const auto ref = [&](DnodeSrc src) {
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
            return TapeRef{TapeRef::kState, TapeLayout::kBus};
          case DnodeSrc::kHost:
            return TapeRef{TapeRef::kPops, host_pop};
          case DnodeSrc::kImm:
            t.imm.push_back(in.imm);
            return TapeRef{TapeRef::kImm,
                           static_cast<std::uint16_t>(t.imm.size() - 1)};
          case DnodeSrc::kR0:
          case DnodeSrc::kR1:
          case DnodeSrc::kR2:
          case DnodeSrc::kR3:
            return TapeRef{
                TapeRef::kState,
                lay.reg(i, static_cast<std::size_t>(src) -
                               static_cast<std::size_t>(DnodeSrc::kR0))};
        }
        return TapeRef{};
      };

      TapeOp op;
      op.op = in.op;
      op.host_en = in.host_en;
      op.bus_en = in.bus_en;
      op.a = ref(in.src_a);
      if (op_uses_b(in.op)) op.b = ref(in.src_b);
      if (op_uses_c(in.op)) op.c = ref(in.src_c);
      op.dst = in.dst != DnodeDst::kNone ? lay.reg(i, dst_reg_index(in.dst))
                                         : lay.sink();
      op.out = in.out_en ? lay.out(i) : lay.sink();
      t.reads_window = t.reads_window || op.a.base == TapeRef::kWindow ||
                       op.b.base == TapeRef::kWindow ||
                       op.c.base == TapeRef::kWindow;
      if (op.dst != lay.sink()) writes[p].push_back(op.dst);
      if (op.out != lay.sink()) writes[p].push_back(op.out);
      if (op.host_en || op.bus_en) {
        t.effects.push_back(static_cast<std::uint32_t>(t.ops.size()));
      }
      t.ops.push_back(op);
      t.sources.push_back({i, &ps});
    }
    t.pops[p] = pops;
    std::sort(writes[p].begin(), writes[p].end());
  }
  t.begin[period] = static_cast<std::uint32_t>(t.ops.size());
  t.effects_begin[period] = static_cast<std::uint32_t>(t.effects.size());

  for (std::size_t p = 0; p < period; ++p) {
    t.carry_begin[p] = static_cast<std::uint32_t>(t.carry.size());
    const auto& prev = writes[(p + period - 1) % period];
    std::set_difference(prev.begin(), prev.end(), writes[p].begin(),
                        writes[p].end(), std::back_inserter(t.carry));
    t.written.insert(t.written.end(), writes[p].begin(), writes[p].end());
  }
  t.carry_begin[period] = static_cast<std::uint32_t>(t.carry.size());
  std::sort(t.written.begin(), t.written.end());
  t.written.erase(std::unique(t.written.begin(), t.written.end()),
                  t.written.end());
  t.valid = true;
}

std::ptrdiff_t tape_phase(const SuperstepTape& t, const CyclePlan& plan,
                          const std::vector<Dnode>& dnodes) noexcept {
  for (std::size_t p = 0; p < t.period; ++p) {
    bool match = true;
    for (std::size_t k = 0; k < plan.local_dnodes.size() && match; ++k) {
      const std::uint16_t i = plan.local_dnodes[k];
      match = (t.base_counters[k] + p) % plan.dnodes[i].local_len ==
              dnodes[i].local().counter();
    }
    if (match) return static_cast<std::ptrdiff_t>(p);
  }
  return -1;
}

}  // namespace sring
