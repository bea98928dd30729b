#include "sim/system.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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
  const char* no_superstep = std::getenv("SRING_NO_SUPERSTEP");
  superstep_enabled_ = no_superstep == nullptr || *no_superstep == '\0';
}

void System::load(const LoadableProgram& program) {
  check(program.geometry.layers == geom_.layers &&
            program.geometry.lanes == geom_.lanes,
        "System::load: program was built for a different ring geometry");
  cfg_ = ConfigMemory(geom_);
  for (const auto& page : program.pages) cfg_.add_page(page);
  ctrl_.load_program(program.controller_code);
  reset_common(program, /*keep_plans=*/false);
}

void System::reset_for_rerun(const LoadableProgram& program) {
  check(program.geometry.layers == geom_.layers &&
            program.geometry.lanes == geom_.lanes,
        "System::reset_for_rerun: wrong ring geometry");
  check(cfg_.page_count() == program.pages.size(),
        "System::reset_for_rerun: a different program is loaded");
  cfg_.reset_live();
  ctrl_.reset();
  reset_common(program, /*keep_plans=*/true);
}

void System::reset_common(const LoadableProgram& program, bool keep_plans) {
  // A rerun keeps the ring's compiled plan cache warm (content keys
  // re-verified before reuse); a fresh load drops it.
  if (keep_plans) {
    ring_.reset_for_rerun();
  } else {
    ring_.reset();
  }
  for (const auto& lw : program.local_init) {
    ring_.write_local(lw.dnode, lw.slot, lw.value);
  }
  host_.reset();
  bus_ = 0;
  cycle_ = 0;
  stats_ = SystemStats{};
  host_depth_counts_.fill(0);
  route_marks_.assign(geom_.switch_count(), 0);
}

void System::set_trace(obs::EventSink* sink) {
  sink_ = sink;
  // The planned ring path maintains the full per-Dnode fetch/effect
  // views only while a sink can observe them.
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
  s.plan_seq_fusions = ring_.plan_seq_fusions();
  s.plan_seq_hits = ring_.plan_seq_hits();
  return s;
}

void ElementCounters::name_into(obs::Registry& reg) const {
  if (empty()) return;
  char name[64];
  for (std::size_t layer = 0; layer < geometry.layers; ++layer) {
    for (std::size_t lane = 0; lane < geometry.lanes; ++lane) {
      const std::size_t i = layer * geometry.lanes + lane;
      const auto set = [&](const char* leaf, std::uint64_t v) {
        std::snprintf(name, sizeof(name), "dnode.%zu.%zu.%s", layer, lane,
                      leaf);
        reg.counter(name).set(v);
      };
      set("issue", issue[i]);
      set("mac", mac[i]);
      set("alu", issue[i] - mac[i]);
      set("local_cycles", local_cycles[i]);
      set("global_cycles", global_cycles[i]);
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
    set("route_changes", route_changes[sw]);
    set("host_out_words", host_out_words[sw]);
    set("fb_reads", fb_reads[sw]);
    set("fb_occupancy", fb_occupancy[sw]);
    std::snprintf(name, sizeof(name), "switch.%zu.fb_read_depth", sw);
    const auto first = fb_read_depth_counts.begin() +
                       static_cast<std::ptrdiff_t>(sw * fb_depth);
    reg.put_histogram(name, obs::Histogram::from_counts(
                                depth_bounds,
                                {first, first + static_cast<std::ptrdiff_t>(
                                                    fb_depth)}));
  }
}

obs::Registry System::metrics() const {
  obs::Registry reg = ring_metrics();
  element_counters().name_into(reg);
  return reg;
}

obs::Registry System::ring_metrics() const {
  obs::Registry reg;
  const SystemStats s = stats();

  reg.counter("sys.cycles").set(s.cycles);
  reg.counter("sys.ring_stall_cycles").set(s.ring_stall_cycles);
  reg.counter("sys.dnode_ops").set(s.dnode_ops);
  reg.counter("sys.arith_ops").set(s.arith_ops);

  reg.counter("ctrl.instructions").set(s.ctrl_instructions);
  reg.counter("ctrl.stall.inpop").set(s.ctrl_inpop_stalls);
  reg.counter("ctrl.stall.wait").set(s.ctrl_wait_stalls);
  reg.counter("ctrl.bus_writes").set(ctrl_.bus_writes());

  reg.counter("bus.dnode_drives").set(s.bus_drives);
  reg.counter("bus.conflicts").set(s.bus_conflicts);

  reg.counter("cfg.words_written").set(s.config_words_written);
  reg.counter("cfg.route_changes").set(s.switch_route_changes);

  reg.counter("ring.plan.compiles").set(s.plan_compiles);
  reg.counter("ring.plan.hits").set(s.plan_hits);
  reg.counter("ring.plan.invalidations").set(s.plan_invalidations);
  reg.counter("ring.plan.content_hits").set(s.plan_content_hits);
  reg.counter("ring.plan.evictions").set(s.plan_evictions);
  reg.counter("ring.plan.seq_fusions").set(s.plan_seq_fusions);
  reg.counter("ring.plan.seq_hits").set(s.plan_seq_hits);

  // Superstep engine activity.  These are the ONLY values allowed to
  // differ between superstep and per-cycle execution of the same run.
  reg.counter("ring.superstep.dispatches").set(ring_.superstep_dispatches());
  reg.counter("ring.superstep.cycles").set(ring_.superstep_cycles());

  reg.counter("host.words_in").set(s.host_words_in);
  reg.counter("host.words_out").set(s.host_words_out);
  reg.counter("host.link_words_to_core").set(host_.words_to_core());
  reg.counter("host.link_words_to_host").set(host_.words_to_host());
  reg.put_histogram(
      "host.in_fifo_depth",
      obs::Histogram::from_counts(
          {kHostDepthBounds.begin(), kHostDepthBounds.end()},
          {host_depth_counts_.begin(), host_depth_counts_.end()}));
  return reg;
}

ElementCounters System::element_counters() const {
  ElementCounters e;
  e.geometry = geom_;
  e.issue = ring_.ops_per_dnode();
  e.mac = ring_.mac_ops_per_dnode();
  e.local_cycles = ring_.local_cycles_per_dnode();
  e.global_cycles = ring_.global_cycles_per_dnode();
  e.route_changes = cfg_.route_changes_per_switch();
  e.host_out_words = ring_.host_out_words_per_switch();
  e.fb_reads = ring_.fb_reads_per_pipe();
  e.fb_occupancy.resize(geom_.switch_count());
  for (std::size_t sw = 0; sw < e.fb_occupancy.size(); ++sw) {
    e.fb_occupancy[sw] = ring_.pipeline(sw).occupancy();
  }
  e.fb_read_depth_counts = ring_.fb_read_depth_counts();
  return e;
}

std::uint64_t System::try_superstep(std::uint64_t cycle_budget,
                                    std::size_t host_out_stop) {
  if (!superstep_enabled_ || sink_ != nullptr || !host_.unlimited()) {
    return 0;
  }
  // The controller steps inside the fused loop through this hook; its
  // statistics land in stats_ exactly as step() would count them.
  struct Hook final : Ring::ControlHook {
    explicit Hook(System& s) : sys(s) {}
    Step step(Word bus, std::uint64_t cycle) override {
      last = sys.step_controller(bus, cycle);
      return {last.bus_drive,
              sys.ctrl_.halted() || sys.ctrl_.wait_cycles_remaining() > 0};
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

void System::run_until_halt(std::uint64_t max_cycles,
                            std::uint64_t drain_cycles) {
  std::uint64_t n = 0;
  while (!ctrl_.halted()) {
    const std::uint64_t k =
        try_superstep(max_cycles - n, std::numeric_limits<std::size_t>::max());
    if (k > 0) {
      n += k;
      continue;
    }
    check(n++ < max_cycles, "System::run_until_halt: cycle budget exceeded");
    step();
  }
  run_cycles(drain_cycles);
}

void System::run_until_outputs(std::size_t count, std::uint64_t max_cycles) {
  std::uint64_t n = 0;
  while (host_.received().size() < count) {
    const std::uint64_t k = try_superstep(max_cycles - n, count);
    if (k > 0) {
      n += k;
      continue;
    }
    check(n++ < max_cycles,
          "System::run_until_outputs: cycle budget exceeded");
    step();
  }
}

void System::run_cycles(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n;) {
    const std::uint64_t k =
        try_superstep(n - i, std::numeric_limits<std::size_t>::max());
    if (k > 0) {
      i += k;
      continue;
    }
    step();
    ++i;
  }
}

}  // namespace sring
