#include "sim/system.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/error.hpp"
#include "isa/dnode_instr.hpp"
#include "isa/risc_instr.hpp"

namespace sring {

System::System(const SystemConfig& config)
    : geom_(config.geometry),
      cfg_(config.geometry),
      ring_(config.geometry),
      host_(config.link) {
  geom_.validate();
  route_marks_.assign(geom_.switch_count(), 0);
}

void System::load(const LoadableProgram& program) {
  check(program.geometry.layers == geom_.layers &&
            program.geometry.lanes == geom_.lanes,
        "System::load: program was built for a different ring geometry");
  loaded_ = false;  // a load that throws leaves no program to re-arm
  cfg_ = ConfigMemory(geom_);
  for (const auto& page : program.pages) cfg_.add_page(page);
  ctrl_.load_program(program.controller_code);
  local_init_ = program.local_init;
  reset_common(/*same_structure=*/false);
  loaded_ = true;
}

bool System::rearm(const LoadableProgram& program) {
  if (!loaded_ || program.geometry.layers != geom_.layers ||
      program.geometry.lanes != geom_.lanes ||
      program.controller_code != ctrl_.program() ||
      program.local_init != local_init_ || !cfg_.patch_imms(program.pages)) {
    return false;
  }
  rerun();
  return true;
}

void System::rerun() {
  check(loaded_, "System::rerun: no program armed");
  cfg_.reset_live();
  ctrl_.reset();
  reset_common(/*same_structure=*/true);
}

void System::reset_common(bool same_structure) {
  // Re-arms and loads alike keep the ring's compiled plan cache warm
  // (structure keys re-verified before reuse): a new program of a known
  // kernel differs from it only in immediates.
  ring_.reset_for_rerun();
  for (const auto& lw : local_init_) {
    ring_.write_local(lw.dnode, lw.slot, lw.value);
  }
  ring_.finish_arm(same_structure);
  host_.reset();
  bus_ = 0;
  cycle_ = 0;
  stats_ = SystemStats{};
  host_depth_counts_.fill(0);
  route_marks_.assign(geom_.switch_count(), 0);
}

void System::set_trace(obs::EventSink* sink) {
  sink_ = sink;
  // A planned ring cycle fills the per-Dnode fetch/effect views only
  // while a sink can observe them.
  ring_.set_trace_views(sink_ != nullptr);
  if (sink_ == nullptr) return;
  if (tracks_.empty()) tracks_ = obs::make_tracks(geom_.layers, geom_.lanes);
  route_marks_ = cfg_.route_changes_per_switch();
  sink_->begin(tracks_);
}

void System::step() {
  host_.tick();

  {  // sample the ring-visible input-FIFO depth (post link tick)
    const std::size_t depth = host_.ring_in().size();
    ++host_depth_counts_[kDepthLut[depth < kDepthLutMax ? depth
                                                        : kDepthLutMax]];
  }

  finish_cycle(step_controller(bus_, cycle_));
}

Controller::StepResult System::step_controller(Word bus,
                                               std::uint64_t cycle) {
  const Controller::StepContext ctx{cfg_,
                                    ring_,
                                    bus,
                                    host_.ring_in(),
                                    host_.ring_out(),
                                    cycle};
  const auto ctrl_res = ctrl_.step(ctx);
  if (ctrl_res.stalled) ++stats_.ctrl_stall_cycles;
  if (ctrl_res.executed) ++stats_.ctrl_instructions;
  return ctrl_res;
}

void System::finish_cycle(const Controller::StepResult& ctrl_res) {
  // Controller bus writes are visible to the Dnodes in the same cycle.
  const Word bus_for_ring = ctrl_res.bus_drive.value_or(bus_);

  const auto ring_res =
      ring_.step(cfg_, bus_for_ring, host_.ring_in(), host_.ring_out());
  if (ring_res.stalled) ++stats_.ring_stall_cycles;
  stats_.dnode_ops += ring_res.ops;
  stats_.arith_ops += ring_res.arith_ops;
  stats_.host_words_in += ring_res.host_words_in;
  stats_.host_words_out += ring_res.host_words_out;

  // Dnode bus drives become visible next cycle.
  bus_ = ring_res.bus_drive.value_or(bus_for_ring);

  ++cycle_;
  ++stats_.cycles;
  if (sink_ != nullptr) emit_cycle_events(ctrl_res, ring_res);
}

void System::emit_cycle_events(const Controller::StepResult& ctrl_res,
                               const Ring::CycleResult& ring_res) {
  using obs::Event;
  const std::uint64_t cyc = cycle_;  // post-edge label, first cycle is 1

  // Controller: one event per cycle while running.
  if (ctrl_res.executed) {
    sink_->event(Event{cyc, obs::kControllerTrack, to_mnemonic(ctrl_res.op),
                       static_cast<std::int64_t>(ctrl_.pc()), 1});
  } else if (ctrl_res.stalled) {
    sink_->event(Event{
        cyc, obs::kControllerTrack,
        ctrl_res.stall_cause == Controller::StallCause::kInpop
            ? std::string_view{"stall.inpop"}
            : std::string_view{"stall.wait"},
        static_cast<std::int64_t>(ctrl_.pc()), 1});
  }

  // Shared bus: who drove it this cycle.
  if (ctrl_res.bus_drive.has_value()) {
    sink_->event(Event{cyc, obs::kBusTrack, "busw",
                       as_signed(*ctrl_res.bus_drive), 1});
  }
  if (ring_res.bus_drive.has_value()) {
    sink_->event(Event{cyc, obs::kBusTrack, "drive",
                       as_signed(*ring_res.bus_drive), 1});
  }

  // Ring-wide conditions and host traffic.
  if (ring_res.stalled) {
    sink_->event(Event{cyc, obs::kRingTrack, "stall.host_in", 0, 1});
  }
  if (ring_res.host_words_in > 0) {
    sink_->event(Event{cyc, obs::kRingTrack, "host.in",
                       static_cast<std::int64_t>(ring_res.host_words_in), 1});
  }
  if (ring_res.host_words_out > 0) {
    sink_->event(Event{cyc, obs::kRingTrack, "host.out",
                       static_cast<std::int64_t>(ring_res.host_words_out),
                       1});
  }

  // Dnode issue slots: one event per instruction actually executed.
  if (!ring_res.stalled) {
    const auto effects = ring_.last_effects();
    const auto& fetched = ring_.last_fetched();
    for (std::size_t i = 0; i < effects.size(); ++i) {
      if (!effects[i].executed) continue;
      sink_->event(Event{cyc, obs::dnode_track(i),
                         to_mnemonic(fetched[i]->op),
                         as_signed(effects[i].result), 1});
    }
  }

  // Switch reconfiguration: decoded route words changed this cycle
  // (WRSW or page swap executed by the controller above).
  const auto& changes = cfg_.route_changes_per_switch();
  for (std::size_t s = 0; s < changes.size(); ++s) {
    if (changes[s] != route_marks_[s]) {
      sink_->event(
          Event{cyc, obs::switch_track(geom_.dnode_count(), s),
                "route.update",
                static_cast<std::int64_t>(changes[s] - route_marks_[s]), 1});
      route_marks_[s] = changes[s];
    }
  }

  sink_->cycle_end(
      obs::CycleState{cyc, ctrl_.pc(), ctrl_.halted(), bus_, &ring_});
}

SystemStats System::stats() const {
  SystemStats s = stats_;
  s.config_words_written = cfg_.words_written();
  s.ctrl_inpop_stalls = ctrl_.inpop_stall_cycles();
  s.ctrl_wait_stalls = ctrl_.wait_stall_cycles();
  s.bus_drives = ring_.bus_drives();
  s.bus_conflicts = ring_.bus_conflicts();
  s.switch_route_changes = cfg_.route_changes_total();
  s.plan_compiles = ring_.plan_compiles();
  s.plan_hits = ring_.plan_hits();
  s.plan_invalidations = ring_.plan_invalidations();
  s.plan_content_hits = ring_.plan_content_hits();
  s.plan_evictions = ring_.plan_evictions();
  return s;
}

std::span<const std::uint64_t> ElementCounters::operator[](
    Array a) const noexcept {
  const std::size_t n = geometry.dnode_count();
  const std::size_t s = geometry.switch_count();
  if (a <= kGlobalCycles) return {data.data() + a * n, n};
  const std::size_t first = 4 * n + (a - kRouteChanges) * s;
  return {data.data() + first, a == kFbReadDepth ? s * geometry.fb_depth : s};
}

void ElementCounters::name_into(obs::Registry& reg) const {
  if (empty()) return;
  const auto& self = *this;
  char name[64];
  for (std::size_t layer = 0; layer < geometry.layers; ++layer) {
    for (std::size_t lane = 0; lane < geometry.lanes; ++lane) {
      const std::size_t i = layer * geometry.lanes + lane;
      const auto set = [&](const char* leaf, std::uint64_t v) {
        std::snprintf(name, sizeof(name), "dnode.%zu.%zu.%s", layer, lane,
                      leaf);
        reg.counter(name).set(v);
      };
      set("issue", self[kIssue][i]);
      set("mac", self[kMac][i]);
      set("alu", self[kIssue][i] - self[kMac][i]);
      set("local_cycles", self[kLocalCycles][i]);
      set("global_cycles", self[kGlobalCycles][i]);
    }
  }

  const std::size_t fb_depth = geometry.fb_depth;
  std::vector<std::uint64_t> depth_bounds(fb_depth);
  for (std::size_t d = 0; d < fb_depth; ++d) depth_bounds[d] = d;
  for (std::size_t sw = 0; sw < geometry.switch_count(); ++sw) {
    const auto set = [&](const char* leaf, std::uint64_t v) {
      std::snprintf(name, sizeof(name), "switch.%zu.%s", sw, leaf);
      reg.counter(name).set(v);
    };
    set("route_changes", self[kRouteChanges][sw]);
    set("host_out_words", self[kHostOutWords][sw]);
    set("fb_reads", self[kFbReads][sw]);
    set("fb_occupancy", self[kFbOccupancy][sw]);
    std::snprintf(name, sizeof(name), "switch.%zu.fb_read_depth", sw);
    const auto depths = self[kFbReadDepth].subspan(sw * fb_depth, fb_depth);
    reg.put_histogram(name, obs::Histogram::from_counts(
                                depth_bounds, {depths.begin(), depths.end()}));
  }
}

namespace {

/// Slot of `name` in kRingCounterNames, or the table size.
std::size_t find_slot(std::string_view name) noexcept {
  return static_cast<std::size_t>(
      std::find(kRingCounterNames.begin(), kRingCounterNames.end(), name) -
      kRingCounterNames.begin());
}

}  // namespace

obs::Counter& RingMetrics::counter(std::string_view name) {
  const std::size_t i = captured ? find_slot(name) : counters.size();
  return i < counters.size() ? counters[i] : adhoc.counter(name);
}

const obs::Counter* RingMetrics::find_counter(
    std::string_view name) const noexcept {
  const std::size_t i = captured ? find_slot(name) : counters.size();
  return i < counters.size() ? &counters[i] : adhoc.find_counter(name);
}

void RingMetrics::render_into(obs::Registry& reg) const {
  if (captured) {
    for (std::size_t i = 0; i < counters.size(); ++i) {
      reg.counter(kRingCounterNames[i]).set(counters[i].value());
    }
    reg.put_histogram(
        "host.in_fifo_depth",
        obs::Histogram::from_counts(
            {kHostDepthBounds.begin(), kHostDepthBounds.end()},
            {host_in_fifo_depth.begin(), host_in_fifo_depth.end()}));
  }
  reg.merge_from(adhoc);
}

obs::Registry System::metrics() const {
  obs::Registry reg;
  ring_metrics().render_into(reg);
  element_counters().name_into(reg);
  return reg;
}

RingMetrics System::ring_metrics() const {
  const SystemStats s = stats();
  RingMetrics m;
  m.captured = true;
  const auto set = [&m](std::size_t slot, std::uint64_t v) {
    m.counters[slot].set(v);
  };
  set(ring_slot("sys.cycles"), s.cycles);
  set(ring_slot("sys.ring_stall_cycles"), s.ring_stall_cycles);
  set(ring_slot("sys.dnode_ops"), s.dnode_ops);
  set(ring_slot("sys.arith_ops"), s.arith_ops);
  set(ring_slot("ctrl.instructions"), s.ctrl_instructions);
  set(ring_slot("ctrl.stall.inpop"), s.ctrl_inpop_stalls);
  set(ring_slot("ctrl.stall.wait"), s.ctrl_wait_stalls);
  set(ring_slot("ctrl.bus_writes"), ctrl_.bus_writes());
  set(ring_slot("bus.dnode_drives"), s.bus_drives);
  set(ring_slot("bus.conflicts"), s.bus_conflicts);
  set(ring_slot("cfg.words_written"), s.config_words_written);
  set(ring_slot("cfg.route_changes"), s.switch_route_changes);
  set(ring_slot("ring.plan.compiles"), s.plan_compiles);
  set(ring_slot("ring.plan.hits"), s.plan_hits);
  set(ring_slot("ring.plan.invalidations"), s.plan_invalidations);
  set(ring_slot("ring.plan.content_hits"), s.plan_content_hits);
  set(ring_slot("ring.plan.evictions"), s.plan_evictions);
  // Superstep engine activity.  These are the ONLY values allowed to
  // differ between superstep and per-cycle execution of the same run.
  set(RingMetrics::kSuperstepDispatches, ring_.superstep_dispatches());
  set(RingMetrics::kSuperstepCycles, ring_.superstep_cycles());
  set(RingMetrics::kTraceCycles, ring_.trace_cycles());
  set(ring_slot("host.words_in"), s.host_words_in);
  set(ring_slot("host.words_out"), s.host_words_out);
  set(ring_slot("host.link_words_to_core"), host_.words_to_core());
  set(ring_slot("host.link_words_to_host"), host_.words_to_host());
  m.host_in_fifo_depth = host_depth_counts_;
  return m;
}

ElementCounters System::element_counters() const {
  ElementCounters e;
  e.geometry = geom_;
  const std::size_t switches = geom_.switch_count();
  e.data.reserve(4 * geom_.dnode_count() + (4 + geom_.fb_depth) * switches);
  // Appended in ElementCounters::Array order.
  for (const std::vector<std::uint64_t>* v :
       {&ring_.ops_per_dnode(), &ring_.mac_ops_per_dnode(),
        &ring_.local_cycles_per_dnode(), &ring_.global_cycles_per_dnode(),
        &cfg_.route_changes_per_switch(), &ring_.host_out_words_per_switch(),
        &ring_.fb_reads_per_pipe()}) {
    e.data.insert(e.data.end(), v->begin(), v->end());
  }
  for (std::size_t sw = 0; sw < switches; ++sw) {
    e.data.push_back(ring_.fb_occupancy(sw));
  }
  const auto& depths = ring_.fb_read_depth_counts();
  e.data.insert(e.data.end(), depths.begin(), depths.end());
  return e;
}

std::uint64_t System::try_superstep(std::uint64_t cycle_budget,
                                    std::size_t host_out_stop) {
  if (sink_ != nullptr || !host_.unlimited()) return 0;
  // The controller steps inside the fused loop through this hook; its
  // statistics land in stats_ exactly as step() would count them.  A
  // loop-tape replay runs on its registers and credits the rest here.
  struct Hook final : Ring::ControlHook {
    explicit Hook(System& s) : sys(s) {}
    Step step(Word bus, std::uint64_t cycle) override {
      const std::uint64_t pc = sys.ctrl_.pc();
      last = sys.step_controller(bus, cycle);
      return {last.bus_drive,
              sys.ctrl_.halted() || sys.ctrl_.wait_cycles_remaining() > 0,
              last.instr, pc, sys.ctrl_.pc()};
    }
    std::uint64_t code_id() override { return sys.ctrl_.code_id(); }
    std::uint64_t* registers() override {
      return sys.ctrl_.replay_registers();
    }
    void credit_replay(const ReplayCredit& c) override {
      sys.ctrl_.credit_replay(c.pc, c.instructions, c.bus_writes);
      sys.stats_.ctrl_instructions += c.instructions;
      if (c.swaps > 0) sys.cfg_.credit_swaps(c.page, c.swaps, c.route_changes);
    }
    System& sys;
    Controller::StepResult last;
  } hook(*this);

  // A controller parked in a multi-cycle WAIT is as inert as a halted
  // one: cap the fused run at its wake-up.  An active one runs inside.
  const bool waiting = !ctrl_.halted() && ctrl_.wait_cycles_remaining() > 0;
  const Ring::SuperstepContext ctx{
      .cfg = cfg_,
      .bus = bus_,
      .host_in = host_.ring_in(),
      .host_out = host_.ring_out(),
      .max_cycles = waiting ? std::min<std::uint64_t>(
                                  cycle_budget, ctrl_.wait_cycles_remaining())
                            : cycle_budget,
      .host_out_stop = host_out_stop,
      .probe = {host_depth_counts_.data(), kDepthLut.data(), kDepthLutMax},
      .control = waiting || ctrl_.halted() ? nullptr : &hook,
      .cycle = cycle_};
  const Ring::SuperstepResult res = ring_.run_planned(ctx);
  if (res.cycles == 0 && !res.ring_pending) return 0;

  // Flush what the skipped per-cycle steps would have accounted.  The
  // host link is NOT ticked: publish_to_host reproduces the mirror's
  // one-tick lag so received() matches the per-cycle timeline exactly.
  if (waiting) {
    ctrl_.skip_wait(res.cycles);
    stats_.ctrl_stall_cycles += res.cycles;
  }
  stats_.cycles += res.cycles;
  stats_.ring_stall_cycles += res.ring_stalls;
  stats_.dnode_ops += res.ops;
  stats_.arith_ops += res.arith_ops;
  stats_.host_words_in += res.host_words_in;
  stats_.host_words_out += res.host_words_out;
  cycle_ += res.cycles;
  bus_ = res.bus;
  host_.publish_to_host(res.out_size_at_last_top);
  if (!res.ring_pending) return res.cycles;
  // The controller already stepped the next cycle (its tick and depth
  // sample are done too); only its ring evaluation is left.
  finish_cycle(hook.last);
  return res.cycles + 1;
}

template <typename Done>
void System::run_until(Done done, std::uint64_t max_cycles,
                       std::size_t host_out_stop, const char* overrun) {
  for (std::uint64_t n = 0; !done(n);) {
    const std::uint64_t k = try_superstep(max_cycles - n, host_out_stop);
    if (k > 0) {
      n += k;
      continue;
    }
    check(n++ < max_cycles, overrun);
    step();
  }
}

void System::run_until_halt(std::uint64_t max_cycles,
                            std::uint64_t drain_cycles) {
  run_until([this](std::uint64_t) { return ctrl_.halted(); }, max_cycles,
            std::numeric_limits<std::size_t>::max(),
            "System::run_until_halt: cycle budget exceeded");
  run_cycles(drain_cycles);
}

void System::run_until_outputs(std::size_t count, std::uint64_t max_cycles) {
  run_until([this, count](std::uint64_t) {
    return host_.received().size() >= count;
  }, max_cycles, count, "System::run_until_outputs: cycle budget exceeded");
}

void System::run_cycles(std::uint64_t n) {
  // Never throws: the loop stops as the budget runs out.
  run_until([n](std::uint64_t done) { return done >= n; }, n,
            std::numeric_limits<std::size_t>::max(), "");
}

}  // namespace sring
