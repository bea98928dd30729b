// Top-level cycle-accurate model: Ring + configuration layer + RISC
// configuration controller + host interface (paper fig. 2).
//
// Per-cycle ordering (one call to step()):
//   1. the host link moves words under its bandwidth limit;
//   2. the controller executes one instruction; a BUSW result is
//      visible to the Dnodes in the same cycle (the controller sits
//      upstream of the operating layer's bus);
//   3. the ring evaluates one cycle; a Dnode bus drive becomes visible
//      the next cycle;
//   4. statistics and the cycle counter advance; if an event sink is
//      attached, the cycle's events and post-edge state are published.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/config_memory.hpp"
#include "core/ring.hpp"
#include "ctrl/controller.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "sim/host_interface.hpp"
#include "sim/program.hpp"
#include "sim/stats.hpp"

namespace sring {

struct SystemConfig {
  RingGeometry geometry;
  LinkRate link = LinkRate::unlimited();
};

/// Names of the ring-wide counters, in RingMetrics slot order: the
/// one table that renders the block.
inline constexpr std::array<std::string_view, 24> kRingCounterNames{
    "sys.cycles",              "sys.ring_stall_cycles",
    "sys.dnode_ops",           "sys.arith_ops",
    "ctrl.instructions",       "ctrl.stall.inpop",
    "ctrl.stall.wait",         "ctrl.bus_writes",
    "bus.dnode_drives",        "bus.conflicts",
    "cfg.words_written",       "cfg.route_changes",
    "ring.plan.compiles",      "ring.plan.hits",
    "ring.plan.invalidations", "ring.plan.content_hits",
    "ring.plan.evictions",     "ring.superstep.dispatches",
    "ring.superstep.cycles",   "ring.superstep.trace_cycles",
    "host.words_in",           "host.words_out",
    "host.link_words_to_core", "host.link_words_to_host",
};

/// Slot of `name` in kRingCounterNames; an unknown name does not
/// compile.
consteval std::size_t ring_slot(std::string_view name) {
  std::size_t i = 0;
  while (kRingCounterNames.at(i) != name) ++i;
  return i;
}

/// Ring-wide counters of one run in a fixed typed block: the sys.*,
/// ctrl.*, bus.*, cfg.*, ring.plan.*, ring.superstep.* and host.*
/// counters plus the host.in_fifo_depth bucket counts.  Capturing it
/// is a handful of stores; names are attached only by render_into(),
/// when a snapshot or a serialized report asks for them.
///
/// A block no System captured (a report built by hand) keeps its
/// instruments in `adhoc`, so counter() / find_counter() work on
/// every RunReport.
struct RingMetrics {
  static constexpr std::size_t kSuperstepDispatches =
      ring_slot("ring.superstep.dispatches");
  static constexpr std::size_t kSuperstepCycles =
      ring_slot("ring.superstep.cycles");
  static constexpr std::size_t kTraceCycles =
      ring_slot("ring.superstep.trace_cycles");

  /// host.in_fifo_depth: bucket i counts cycles with input-FIFO depth
  /// <= kHostDepthBounds[i], the last bucket the overflow.
  static constexpr std::array<std::uint64_t, 10> kHostDepthBounds{
      0, 1, 2, 4, 8, 16, 32, 64, 128, 256};

  bool captured = false;  ///< filled by System::ring_metrics()
  std::array<obs::Counter, kRingCounterNames.size()> counters{};
  std::array<std::uint64_t, kHostDepthBounds.size() + 1>
      host_in_fifo_depth{};
  obs::Registry adhoc;

  std::uint64_t value(std::size_t slot) const noexcept {
    return counters[slot].value();
  }

  /// Get or create the counter at `name`: a typed slot when captured
  /// and `name` is in the table, otherwise an `adhoc` instrument.
  obs::Counter& counter(std::string_view name);
  const obs::Counter* find_counter(std::string_view name) const noexcept;

  /// Add every instrument to `reg` under its name.
  void render_into(obs::Registry& reg) const;
};

/// Per-Dnode and per-switch counters of one run, copied flat from the
/// Ring and ConfigMemory into one buffer, so capturing, copying and
/// freeing them is one allocation each.  Their instrument names are
/// built only by name_into(), when a snapshot or a serialized report
/// actually needs them.
struct ElementCounters {
  /// The arrays in buffer order: four per Dnode (indexed layer * lanes
  /// + lane), four per switch, then geometry.fb_depth read-depth counts
  /// per switch, switch-major.
  enum Array : std::size_t {
    kIssue, kMac, kLocalCycles, kGlobalCycles,      // per Dnode
    kRouteChanges, kHostOutWords, kFbReads, kFbOccupancy,  // per switch
    kFbReadDepth
  };

  RingGeometry geometry;            ///< shape of the arrays
  std::vector<std::uint64_t> data;  ///< every array, back to back

  bool empty() const noexcept { return data.empty(); }

  /// One array, located from `geometry` (never a stored pointer, so a
  /// copy reads its own buffer).
  std::span<const std::uint64_t> operator[](Array a) const noexcept;

  /// Add the dnode.<layer>.<lane>.* and switch.<s>.* instruments to
  /// `reg` — the one place their names are built.
  void name_into(obs::Registry& reg) const;
};

class System {
 public:
  explicit System(const SystemConfig& config);

  /// Load an application: fresh configuration memory with the
  /// program's pages, controller program loaded, ring state cleared,
  /// host FIFOs drained.  The ring keeps its structure-keyed plan cache,
  /// as rearm() does: a program that differs from an earlier one only
  /// in immediates (new taps, a new matrix tile) compiles nothing,
  /// which shows up only in the ring.plan.* counters.
  void load(const LoadableProgram& program);

  /// Arm `program` without reloading it, when it has the structure of
  /// the program last load()ed — the same geometry, the same pages
  /// outside their imm16 fields (kImmFieldMask), exactly the same
  /// controller code and exactly the same local_init, decided by
  /// comparing content: one pass over the page words compares them and
  /// writes the immediates that differ (ConfigMemory::patch_imms keeps
  /// the decoded pages current), then rerun() arms it.  The pages stay
  /// decoded in configuration memory — the software analogue of the
  /// paper's preloaded configuration layer — and the ring keeps its
  /// page index.  Afterwards the machine's architectural state, outputs
  /// and statistics are indistinguishable from a freshly constructed
  /// System that just load()ed `program`, with ONE carve-out: the
  /// ring.plan.* counters, and the ring.superstep.* counters that
  /// follow from them, reflect the warm plan cache.  Returns false,
  /// changing nothing, on any other program.
  [[nodiscard]] bool rearm(const LoadableProgram& program);

  /// Arm the program last armed again, unchanged: reset the live
  /// configuration, the controller (keeping its code) and the rest as
  /// load() does, with nothing compared or written.  Equivalent to
  /// rearm() of that program; the caller vouches that it is the same
  /// content (SystemPool: the very program object it last armed).
  void rerun();

  /// Advance one clock cycle.
  void step();

  // The run_* calls dispatch fused supersteps wherever per-cycle
  // stepping could not observe the difference (see try_superstep()):
  // outputs, SystemStats and every metric but ring.superstep.* equal
  // those of calling step() once per cycle under the same stop rule.

  /// Run until the controller halts (or `max_cycles` elapse; throws if
  /// exceeded), then `drain_cycles` extra cycles for in-flight data.
  void run_until_halt(std::uint64_t max_cycles,
                      std::uint64_t drain_cycles = 0);

  /// Run until the host has received `count` words in total (throws
  /// after `max_cycles`).
  void run_until_outputs(std::size_t count, std::uint64_t max_cycles);

  /// Run `n` cycles.
  void run_cycles(std::uint64_t n);

  // --- accessors --------------------------------------------------------
  Ring& ring() noexcept { return ring_; }
  const Ring& ring() const noexcept { return ring_; }
  ConfigMemory& config() noexcept { return cfg_; }
  const ConfigMemory& config() const noexcept { return cfg_; }
  Controller& controller() noexcept { return ctrl_; }
  const Controller& controller() const noexcept { return ctrl_; }
  HostInterface& host() noexcept { return host_; }
  const HostInterface& host() const noexcept { return host_; }

  std::uint64_t cycle() const noexcept { return cycle_; }
  Word bus() const noexcept { return bus_; }
  SystemStats stats() const;

  /// Named snapshot of every instrument in the machine: ring_metrics()
  /// and element_counters(), rendered.  Assembling the snapshot never
  /// perturbs the run.
  obs::Registry metrics() const;

  /// The ring-wide part of metrics() as a typed block.
  RingMetrics ring_metrics() const;

  /// The per-element part of metrics() as flat arrays: per-Dnode
  /// issue/mix/mode counters, per-switch route and feedback activity.
  ElementCounters element_counters() const;

  /// Attach / detach a structured event sink.  The sink is borrowed —
  /// never owned — by raw pointer: it must outlive every step() made
  /// while attached (detach with nullptr first otherwise).  Attaching
  /// calls sink->begin() with the track table; the System never calls
  /// sink->end() — finalizing the output is the owner's job.  With no
  /// sink attached the per-cycle cost is a single null check.
  void set_trace(obs::EventSink* sink);

 private:
  void reset_common(bool same_structure);
  /// The controller's part of a cycle (counts its statistics).
  Controller::StepResult step_controller(Word bus, std::uint64_t cycle);
  /// The rest of a cycle after the controller stepped: ring evaluation,
  /// statistics, bus, cycle counter, trace events.
  void finish_cycle(const Controller::StepResult& ctrl_res);
  void emit_cycle_events(const Controller::StepResult& ctrl_res,
                         const Ring::CycleResult& ring_res);

  /// The one run loop behind run_until_halt / run_until_outputs /
  /// run_cycles: fused supersteps where eligible, step() otherwise,
  /// until `done(n)` holds after n cycles; throws `overrun` when a
  /// further step would exceed `max_cycles`.  `host_out_stop` as in
  /// try_superstep().
  template <typename Done>
  void run_until(Done done, std::uint64_t max_cycles,
                 std::size_t host_out_stop, const char* overrun);

  /// Try to run a fused superstep covering up to `cycle_budget` cycles
  /// (see Ring::run_planned).  Eligible only while per-cycle stepping
  /// could not observe anything a fused run skips: no trace sink and an
  /// unlimited host link.  A halted controller, or one in a multi-cycle
  /// WAIT (the fused run is then capped at the wake-up), stays outside
  /// the loop; an active one steps inside it.
  /// `host_out_stop` carries run_until_outputs' target into the ring
  /// (SIZE_MAX otherwise).  Returns the cycles completed, 0 when
  /// ineligible or nothing ran — the caller must then fall back to
  /// step() so progress is guaranteed.
  std::uint64_t try_superstep(std::uint64_t cycle_budget,
                              std::size_t host_out_stop);

  RingGeometry geom_;
  bool loaded_ = false;  // a program is loaded and can be re-armed
  std::vector<LocalWrite> local_init_;  // the loaded program's
  ConfigMemory cfg_;
  Ring ring_;
  Controller ctrl_;
  HostInterface host_;
  Word bus_ = 0;
  std::uint64_t cycle_ = 0;
  SystemStats stats_;

  // Input-FIFO depth sampled once per cycle into the buckets of
  // RingMetrics::host_in_fifo_depth.  The depth->bucket map is a
  // compile-time LUT so the per-cycle sample is one clamped load
  // instead of a linear bound scan.
  static constexpr auto& kHostDepthBounds = RingMetrics::kHostDepthBounds;
  static constexpr std::size_t kDepthLutMax = kHostDepthBounds.back() + 1;
  static constexpr auto kDepthLut = [] {
    std::array<std::uint8_t, kDepthLutMax + 1> lut{};
    for (std::size_t d = 0; d < lut.size(); ++d) {
      std::size_t b = 0;
      while (b < kHostDepthBounds.size() && d > kHostDepthBounds[b]) ++b;
      lut[d] = static_cast<std::uint8_t>(b);
    }
    return lut;
  }();
  std::array<std::uint64_t, kHostDepthBounds.size() + 1>
      host_depth_counts_{};

  obs::EventSink* sink_ = nullptr;
  std::vector<obs::Track> tracks_;          // built on sink attachment
  std::vector<std::uint64_t> route_marks_;  // per-switch change watermark
};

}  // namespace sring
