// The Ring operating layer (paper §4.2).
//
// `layers` Dnode layers of `lanes` Dnodes each, closed into a ring.
// Switch s routes data from layer s-1 (mod layers) into layer s and
// owns the feedback pipeline that latches layer s-1's outputs every
// clock edge.
//
// The datapath state lives once, in flat form: two buffers of every
// Dnode's four registers and registered output (TapeLayout) and one
// feedback window shared by every switch's pipeline, each row the
// pre-edge output vector of one clock edge.  The interpreter and the
// superstep tapes both read and write that state.
//
// Per-cycle evaluation order (one call to step()):
//   1. every Dnode's microinstruction is fetched from the configuration
//      memory (global mode) or its local control unit (local mode) — a
//      Dnode entering local mode this cycle fetches slot 0;
//   2. the host-FIFO pops required by this cycle are counted; if the
//      input FIFO cannot satisfy them the whole ring stalls (systolic
//      back-pressure) and NO state advances — not the local counters,
//      not the mode-transition tracking, not any statistic.  A stalled
//      cycle is a pure retry: re-issuing it later behaves exactly as if
//      the stall never happened;
//   3. switches resolve each Dnode's in1/in2/fifo1/fifo2 operands from
//      the upstream output registers (previous edge), the feedback
//      pipelines, the bus, or freshly popped host words (pop order:
//      layer-ascending, lane-ascending, port order in1, in2, direct
//      host operand);
//   4. all Dnodes execute combinationally and stage their writes;
//   5. commit: mode transitions take architectural effect (a Dnode
//      entering local mode resets its counter), register files and
//      output registers latch, local counters advance, every feedback
//      pipeline latches its upstream layer's pre-edge output vector,
//      switch host-out taps and Dnode hostEn results append to the
//      host output stream.
//
// Cycle-plan cache: compiled CyclePlans are cached in a small bounded
// pool keyed by configuration *structure* — a hash of the live
// configuration bytes plus the local-control programs with every
// immediate (the imm16 field, kImmFieldMask) masked out — not by write
// generation.  A plan holds no immediates: its tape reads them from
// the live configuration and from the Ring's copy of the local
// programs' immediates every cycle.  A configuration write detaches
// the current plan, but if the resulting structure was seen before
// (hardware multiplexing: configware pages pulsed in rotation, a new
// coefficient set or matrix tile, or a word rewritten with the same
// value), the cached plan re-attaches instead of recompiling.  Unknown
// structure is interpreted and compiled on its second sighting.  A
// page swap back to a page that had a plan attached re-attaches
// through a per-page index in O(1): a page's structure is immutable
// (ConfigMemory::patch_imms rewrites only immediates), so under the
// same ConfigMemory and local programs the page index alone identifies
// the structure; the index survives a System re-arm of the same
// structure.  One lookup (lookup()) serves step() and the fused
// loop alike.  The cache outlives every reset: a System keeps it
// across reruns and program loads alike, so a pooled System that loads
// a new matrix or tap set of a known kernel compiles nothing.
//
// Every planned cycle runs from the plan's superstep tape: one cycle
// per step(), many per run_planned() dispatch.  Inside a dispatch that
// steps the controller, a counted controller loop whose every cycle is
// traceable (register, branch, BUSW, RDBUS, INPOP and PAGE
// instructions over compiled all-global plans) is recorded once and
// replayed from a loop tape: one phase per loop cycle, each carrying
// its controller instruction, guarded per cycle, with the controller,
// configuration and plan-cache counters credited in bulk when the
// replay stops (see run_planned()).  An interpreted cycle reads the
// same flat state and window and leaves both buffers equal, so a tape
// can follow it directly.  A plan whose local programs repeat with a
// period above kMaxSuperstepPeriod has no tape and is interpreted.  Outputs and
// architectural statistics are bit-exact with the interpreter; only
// the ring.plan.* counters differ.  set_plan_cache_enabled(false)
// forces the interpreter: the reference the planned paths are tested
// against.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/host_fifo.hpp"
#include "core/config_memory.hpp"
#include "core/cycle_plan.hpp"
#include "core/local_control.hpp"
#include "core/switch.hpp"
#include "isa/risc_instr.hpp"

namespace sring {

class Ring {
 public:
  explicit Ring(const RingGeometry& g);

  const RingGeometry& geometry() const noexcept { return geom_; }

  /// What one Dnode's instruction produced in the last cycle.
  struct Effects {
    bool executed = false;  ///< true for any op other than NOP
    Word result = 0;
    bool out_en = false;
    bool bus_en = false;
    bool host_en = false;
  };

  /// Outcome of one clock cycle.
  struct CycleResult {
    bool stalled = false;          ///< host input underflow: no state change
    unsigned ops = 0;              ///< Dnode instructions executed (non-NOP)
    unsigned arith_ops = 0;        ///< arithmetic operations (MAC/MSU = 2)
    unsigned host_words_in = 0;    ///< words popped from the input FIFO
    unsigned host_words_out = 0;   ///< words pushed to the output stream
    std::optional<Word> bus_drive; ///< bus value driven by a Dnode, if any
  };

  /// Advance one clock cycle.  `bus` is the shared-bus value visible to
  /// the Dnodes this cycle; host traffic uses the given FIFOs.  A
  /// compiled plan runs one cycle of its tape, anything else the
  /// interpreter.
  CycleResult step(const ConfigMemory& cfg, Word bus,
                   HostFifo& host_in, std::vector<Word>& host_out);

  /// Host-FIFO depth histogram probe handed into run_planned(): the
  /// System's per-cycle depth sample, so fused cycles record exactly
  /// the histogram per-cycle execution would.  `lut` maps a clamped
  /// depth (index 0..lut_max) to a bucket counter in `counts`.
  struct HostDepthProbe {
    std::uint64_t* counts = nullptr;
    const std::uint8_t* lut = nullptr;
    std::size_t lut_max = 0;
  };

  /// The configuration controller as a fused dispatch sees it.  The
  /// System implements it around Controller::step, so the controller's
  /// own counters and the System's controller statistics advance
  /// exactly as per-cycle stepping would advance them.
  class ControlHook {
   public:
    struct Step {
      std::optional<Word> bus_drive;  ///< BUSW value, visible this cycle
      bool inert = false;  ///< controller halted or in a WAIT afterwards
      /// The instruction completed this cycle (null when the controller
      /// stalled or is halted), the pc it ran at and the pc the next
      /// cycle starts at: what a loop trace records.
      const RiscInstr* instr = nullptr;
      std::uint64_t pc = 0;
      std::uint64_t next_pc = 0;
    };
    /// Execute the controller's part of one cycle: `bus` is the bus at
    /// the top of the cycle, `cycle` what RDCYC reads.
    virtual Step step(Word bus, std::uint64_t cycle) = 0;

    /// Identity of the loaded controller code: a loop trace replays
    /// only under the code it was recorded from.
    virtual std::uint64_t code_id() = 0;
    /// The controller's register file, which a loop-tape replay runs
    /// the recorded instructions on in place.
    virtual std::uint64_t* registers() = 0;

    /// What a stopped replay leaves to account: `instructions` cycles
    /// of one instruction each, `bus_writes` of them BUSW, the next
    /// instruction at `pc`; `swaps` of them PAGE, the last to `page`,
    /// with `route_changes` decoded-route changes per switch.
    struct ReplayCredit {
      std::uint64_t instructions = 0;
      std::uint64_t bus_writes = 0;
      std::uint64_t pc = 0;
      std::uint64_t swaps = 0;
      std::size_t page = 0;
      std::span<const std::uint64_t> route_changes;
    };
    /// Credit the controller, its statistics and the configuration
    /// memory exactly as that many step() calls would have.
    virtual void credit_replay(const ReplayCredit& credit) = 0;

   protected:
    ~ControlHook() = default;
  };

  /// Everything one fused dispatch (run_planned()) needs.
  struct SuperstepContext {
    const ConfigMemory& cfg;
    Word bus = 0;  ///< bus value at the top of the first cycle
    HostFifo& host_in;
    std::vector<Word>& host_out;
    std::uint64_t max_cycles = 0;
    /// Stop once host_out reached this size, with the per-cycle host
    /// visibility lag (SIZE_MAX: no stop; the caller admitted the first
    /// cycle against its own stop condition).
    std::size_t host_out_stop = 0;
    HostDepthProbe probe{};
    /// Non-null while the controller is neither halted nor in a WAIT:
    /// it then runs inside the loop, one step() per cycle.  Null: the
    /// controller is inert for the whole dispatch.
    ControlHook* control = nullptr;
    std::uint64_t cycle = 0;  ///< cycle counter at the first cycle
  };

  /// Outcome of one fused dispatch: per-cycle tallies accumulated over
  /// every completed cycle and flushed once.
  struct SuperstepResult {
    std::uint64_t cycles = 0;       ///< cycles completed, stalled included
    std::uint64_t ring_stalls = 0;  ///< of those, ring (host-input) stalls
    std::uint64_t ops = 0;
    std::uint64_t arith_ops = 0;
    std::uint64_t host_words_in = 0;
    std::uint64_t host_words_out = 0;
    /// host_out.size() at the top of the last cycle started — what a
    /// per-cycle host mirror (one tick behind) has published by then.
    std::size_t out_size_at_last_top = 0;
    Word bus = 0;  ///< bus value after the last completed cycle
    bool bus_driven = false;  ///< a Dnode drove `bus` in the last cycle
    /// The controller stepped one more cycle whose configuration change
    /// the loop cannot serve: the caller must finish that cycle's ring
    /// evaluation through step() (the controller's part is done).
    bool ring_pending = false;
  };

  /// Superstep engine: execute up to `max_cycles` consecutive cycles of
  /// the attached plan from its cached tape — flat micro-ops over a
  /// double-buffered flat state (bus, registers, outputs) and one
  /// feedback-history window shared by every pipeline, with every
  /// per-op statistic flushed once per dispatch.  Returns an empty
  /// result (and touches nothing) unless the plan is current and
  /// eligible.
  ///
  /// With ctx.control set, the controller runs inside the loop and
  /// every configuration change goes through the plan lookup step()
  /// uses: any compiled all-global plan it yields continues inside the
  /// loop.  Anything else (a first sighting, an interpret-only plan, a
  /// local-mode plan) ends the dispatch with ring_pending set, and the
  /// step() that finishes the cycle reuses that lookup.  Ring stalls
  /// are then counted inside the loop.
  ///
  /// Controller loop traces: after a taken backward branch to pc H the
  /// loop records the next iteration (H up to the branch back to H,
  /// taken or not).  If every cycle of
  /// it was traceable — NOP, LDI, LDIH, MOV, register ALU ops, ADDI,
  /// branches, JMP, BUSW, RDBUS, INPOP or PAGE, no stall, a compiled
  /// all-global plan on a live page — and it ends on the page and plan
  /// it began with, it is lowered into the Ring's one loop tape (a
  /// new trace replaces the last), keyed on the controller code, H and
  /// the plans it uses.  A replay that starts drops the recording in
  /// progress: an outer loop is recorded only over iterations that
  /// run cycle by cycle.  The next time the controller reaches H (a
  /// branch back to it, or falling into it) with that plan attached and
  /// the live image holding the entry page's content (that page, or an
  /// equal reset or word-written image, which stays live until the
  /// first PAGE), the loop replays the tape: each
  /// cycle runs its instruction inline on the controller's registers,
  /// then its phase, without a controller step, configuration write or
  /// plan lookup.  The guards above (budget, output stop, INPOP's word
  /// and the phase's host pops present) size a span of whole
  /// iterations, at most twice as many as the replay has run (one at
  /// first), and each conditional branch must resolve as recorded; on
  /// a miss the replay stops at that cycle boundary and the cycle runs
  /// as before.  A stopped
  /// replay credits the controller (pc, instruction and bus-write
  /// counts), the configuration memory (live page, generation, words
  /// written, route changes) and ring.plan.* exactly as per-cycle
  /// execution would have, and attaches the live page's plan.  A trace
  /// is valid exactly while the page index it was lowered under is:
  /// it survives a same-structure re-arm and lapses with an eviction,
  /// a reset that does not carry the index, or a program load.
  ///
  /// Without a controller, the dispatch stops before an impending
  /// stall (step() replays it).  Both modes stop at the output stop and
  /// the cycle budget, and in-loop controller mode also once the
  /// controller goes inert.  Without a controller step in the cycle
  /// (no controller, or a replay), those guards are checked once per
  /// span: the cycles the budget, the input FIFO's words and the output
  /// stop all admit are sized from the tape's pop and output prefix
  /// sums and run with no per-cycle check.  Architectural state, outputs and
  /// statistics are bit-identical with the same cycles run through
  /// step(); only the ring.superstep.* counters differ.
  SuperstepResult run_planned(const SuperstepContext& ctx);

  // --- state access (read-only) ----------------------------------------
  /// Registered output of a Dnode: the value latched at the last edge.
  Word out(std::size_t layer, std::size_t lane) const;
  /// Register `r` of a Dnode's register file.
  Word reg(std::size_t layer, std::size_t lane, std::size_t r) const;
  /// Local control unit of the Dnode at flat index `dnode_index`.
  const LocalControl& local(std::size_t dnode_index) const;
  /// Clock edges (non-stalled cycles) since construction or the last
  /// reset; every feedback pipeline latches once per edge.
  std::uint64_t edges() const noexcept { return edges_; }

  /// Stages of pipeline `sw` holding post-reset data: min(edges(),
  /// fb_depth).
  std::size_t fb_occupancy(std::size_t sw) const;

  /// Write a local-control register of a Dnode (controller WRLOC path).
  /// Invalidates the compiled cycle plan and refreshes the local
  /// immediate the planned path reads.
  void write_local(std::size_t dnode_index, std::size_t slot,
                   std::uint64_t value);

  /// Cumulative executed-instruction count per Dnode (utilization).
  const std::vector<std::uint64_t>& ops_per_dnode() const noexcept {
    return ops_per_dnode_;
  }

  // --- instrumentation (observation only, reset_for_rerun() clears) ---
  /// MAC/MSU instructions per Dnode (the rest of ops_per_dnode is the
  /// plain-ALU mix).
  const std::vector<std::uint64_t>& mac_ops_per_dnode() const noexcept {
    return mac_ops_per_dnode_;
  }
  /// Non-stalled cycles each Dnode spent in local (stand-alone) mode.
  const std::vector<std::uint64_t>& local_cycles_per_dnode()
      const noexcept {
    return local_cycles_per_dnode_;
  }
  /// Non-stalled cycles each Dnode spent under global configuration.
  const std::vector<std::uint64_t>& global_cycles_per_dnode()
      const noexcept {
    return global_cycles_per_dnode_;
  }
  /// Host-out words forwarded by each switch's tap.
  const std::vector<std::uint64_t>& host_out_words_per_switch()
      const noexcept {
    return host_out_words_per_switch_;
  }
  /// Feedback reads per pipeline.
  const std::vector<std::uint64_t>& fb_reads_per_pipe() const noexcept {
    return fb_reads_per_pipe_;
  }
  /// Feedback reads per pipeline by depth, stride geometry().fb_depth:
  /// entry [pipe * fb_depth + depth] counts reads of that pipe at that
  /// depth.
  const std::vector<std::uint64_t>& fb_read_depth_counts() const noexcept {
    return fb_read_depth_counts_;
  }
  std::uint64_t bus_drives() const noexcept { return bus_drives_; }
  /// Cycles in which more than one Dnode drove the shared bus (the
  /// highest Dnode index won; the others were lost drives).
  std::uint64_t bus_conflicts() const noexcept { return bus_conflicts_; }

  // --- cycle-plan cache -----------------------------------------------
  /// Bound on cached plans.  Eviction is LRU by attachment; the bound
  /// covers page-rotation kernels (one entry per pulsed page) with
  /// room to spare, while capping memory at a few tens of KB.
  static constexpr std::size_t kPlanCacheCapacity = 16;

  /// Cycle plans compiled since construction/reset — one per *distinct*
  /// configuration structure, not one per rewrite or per immediate.
  std::uint64_t plan_compiles() const noexcept { return plan_compiles_; }
  /// Cycles executed from a compiled plan (attached or re-attached).
  std::uint64_t plan_hits() const noexcept { return plan_hits_; }
  /// Times the attached plan was detached because the configuration
  /// changed.  plan_invalidations - plan_content_hits is the true miss
  /// count (structure never seen compiled before).
  std::uint64_t plan_invalidations() const noexcept {
    return plan_invalidations_;
  }
  /// Detachments recovered by re-attaching a cached plan whose
  /// structure key matched the rewritten configuration (immediates may
  /// differ) — the cycles that were recompiles (or interpreter
  /// fallbacks) before the structure-keyed cache.  Subset of
  /// plan_hits.
  std::uint64_t plan_content_hits() const noexcept {
    return plan_content_hits_;
  }
  /// Cache entries discarded to stay within kPlanCacheCapacity.
  std::uint64_t plan_evictions() const noexcept { return plan_evictions_; }
  /// Superstep dispatches (run_planned() calls that completed >= 1
  /// cycle) and total cycles they covered, controller-driven and
  /// ring-stalled cycles included.  Observability only: these
  /// are the ONLY counters allowed to differ between superstep and
  /// per-cycle execution.
  std::uint64_t superstep_dispatches() const noexcept {
    return superstep_dispatches_;
  }
  std::uint64_t superstep_cycles() const noexcept {
    return superstep_cycles_;
  }
  /// Of superstep_cycles(), those replayed from a controller loop tape.
  std::uint64_t trace_cycles() const noexcept { return trace_cycles_; }
  /// Enable/disable the cycle-plan cache: the one path selector, the
  /// seam to the reference interpreter.  Disabling detaches the current
  /// plan without counting an invalidation — it is a tooling action,
  /// not a configuration write.
  void set_plan_cache_enabled(bool enabled) noexcept;
  /// Bumped by every write_local() and reset, never repeated; part of
  /// the plan invalidation key.
  std::uint64_t local_generation() const noexcept {
    return local_generation_;
  }

  // --- last-cycle views for event tracing ------------------------------
  // Valid immediately after a non-stalled step(); the System's event
  // emitter is the only intended consumer.  A planned cycle fills them
  // only while trace mode is on (the System toggles it with the sink),
  // and last_fetched() only for the Dnodes last_effects() marks
  // executed.
  std::span<const Effects> last_effects() const noexcept {
    return effects_;
  }
  const std::vector<const DnodeInstr*>& last_fetched() const noexcept {
    return fetched_;
  }
  /// Fill the per-Dnode trace views (last_effects/last_fetched) on
  /// planned cycles too.  The System sets this together with its
  /// event sink.
  void set_trace_views(bool on) noexcept { trace_views_ = on; }

  /// Clear all architectural state (configuration memory is separate)
  /// but KEEP the compiled plan cache — every System arm, a re-arm and
  /// a program load alike.  The local programs are cleared, so the
  /// local generation moves on and the page index lapses (unless
  /// finish_arm() carries it): cached plans then re-attach only after
  /// their structure is re-verified against the live configuration,
  /// which makes a program of a new structure a clean miss.  Counters
  /// are zeroed; outputs and architectural statistics after a reset
  /// are bit-identical to a fresh System, only the ring.plan.*
  /// counters reflect the warm cache.  The flat state and the window
  /// are zeroed in place.
  void reset_for_rerun();

  /// Mark the end of a System arm: reset_for_rerun() plus the
  /// program's boot-time local writes.  `same_structure` says the
  /// ConfigMemory is the one the previous arm used, its pages changed
  /// at most in immediates, and the boot-time writes were the same:
  /// the local programs then equal those the previous arm ended with,
  /// so a page index built under them is carried to the new local
  /// generation instead of lapsing.
  void finish_arm(bool same_structure) noexcept;

 private:
  /// One cached compiled plan, keyed by configuration structure.
  struct PlanCacheEntry {
    std::uint64_t key_hash = 0;  ///< content_hash(cfg) mixed w/ local hash
    /// Full structure snapshot backing the hash: live instruction
    /// words, widened mode bytes, route words, then per-Dnode local
    /// limit + raw slots, every instruction word with kImmFieldMask
    /// cleared.  Collision guard — the content lookup attaches a hash
    /// match only after this compares equal.
    std::vector<std::uint64_t> content;
    std::uint32_t sightings = 0;  ///< compile on the second sighting
    std::uint64_t last_use = 0;   ///< LRU clock for eviction
    /// Compiled; the entry is interpret-only when its plan has no tape
    /// (superstep_period 0) and is then never attached.
    bool compiled = false;
    CyclePlan plan;
    SuperstepTape tape;  ///< lowered on the first run of `plan`
  };

  /// One recorded controller cycle of a loop trace.
  struct TraceCycle {
    RiscInstr instr;
    std::uint64_t pc = 0;
    PlanCacheEntry* plan = nullptr;  ///< attached after its step
    std::uint32_t page = 0;          ///< live after its step
    bool taken = false;              ///< branch outcome a replay expects
  };
  /// A controller loop recorded over one iteration and lowered into a
  /// loop tape (see run_planned()).
  struct LoopTrace {
    std::uint64_t code_id = 0;
    std::uint64_t head = 0;   ///< pc of cycle 0
    std::uint64_t epoch = 0;  ///< index_epoch_ when lowered
    PlanCacheEntry* entry = nullptr;  ///< attached at the top of cycle 0
    std::size_t entry_page = 0;       ///< live there and after the last cycle
    std::vector<TraceCycle> cycles;
    /// What cycles [0, j) of an iteration count, row j of
    /// cycles.size() + 1: PAGE cycles (kCreditSwaps), BUSW cycles
    /// (kCreditBusWrites), then route changes per switch.
    std::vector<std::uint64_t> credit;
    SuperstepTape tape;
  };
  static constexpr std::size_t kCreditSwaps = 0;
  static constexpr std::size_t kCreditBusWrites = 1;
  static constexpr std::size_t kCreditRoutes = 2;
  /// Longest loop iteration a trace records.
  static constexpr std::size_t kMaxTraceCycles = 256;

  std::size_t flat_index(std::size_t layer, std::size_t lane) const;
  std::size_t upstream_layer(std::size_t layer) const noexcept;

  /// Validate `addr` against the geometry and read it from the window.
  Word read_feedback(const FeedbackAddr& addr) const;

  /// Record one feedback read actually consumed by an instruction.
  void note_fb_read(const FeedbackAddr& addr);

  /// Reference path: re-interpret ConfigMemory + local programs over
  /// the flat state and the window.
  CycleResult step_interpreted(const ConfigMemory& cfg, Word bus,
                               HostFifo& host_in,
                               std::vector<Word>& host_out);
  /// Dnode hostEn pushes and bus drives (after the clock edge).
  void drain_effects(CycleResult& result, std::vector<Word>& host_out);

  // --- plan cache internals -------------------------------------------
  /// The one plan lookup, once per cycle: the attached plan while it
  /// is current (a hit), else lookup_changed().  Returns the attached
  /// entry to run this cycle from, or nullptr to interpret it.
  PlanCacheEntry* lookup(const ConfigMemory& cfg) {
    if (current_plan_ != nullptr && plan_current(current_plan_->plan, cfg)) {
      ++plan_hits_;
      return current_plan_;
    }
    return lookup_changed(cfg);
  }
  /// The configuration changed: page index, content lookup, then first
  /// sighting (interpret) or second sighting (compile).
  PlanCacheEntry* lookup_changed(const ConfigMemory& cfg);
  /// Hash of the local-control structure (limits + raw slots without
  /// immediates), cached per local_generation_.
  std::uint64_t local_content_hash();
  /// Combined structure key of the live configuration.
  std::uint64_t live_key_hash(const ConfigMemory& cfg);
  /// Append the full live structure (see PlanCacheEntry::content).
  void build_content(const ConfigMemory& cfg,
                     std::vector<std::uint64_t>& out) const;
  bool content_matches(const ConfigMemory& cfg,
                       const std::vector<std::uint64_t>& content) const;
  /// The entry the page index holds for the live page, or nullptr.
  PlanCacheEntry* indexed(const ConfigMemory& cfg) const noexcept {
    // No page live (-1) wraps past the end.
    const auto page = static_cast<std::size_t>(cfg.live_page());
    return page < page_index_.size() && page_index_uid_ == cfg.uid() &&
                   page_index_local_gen_ == local_generation_
               ? page_index_[page]
               : nullptr;
  }
  /// Find the entry for the live structure (hash + content verify), or
  /// nullptr.
  PlanCacheEntry* find_entry(const ConfigMemory& cfg, std::uint64_t key);
  /// Insert a fresh entry for the live structure, evicting the LRU entry
  /// at capacity.  Returns the (possibly reused) entry.
  PlanCacheEntry* insert_entry(const ConfigMemory& cfg, std::uint64_t key);
  /// Make `e` the attached plan: restamp the validity key, index it
  /// under the live page, arm the mode sync unless the plan's local set
  /// is the one already synced.
  void attach_plan(PlanCacheEntry* e, const ConfigMemory& cfg);
  /// Drop every page-index entry (and with them every loop trace).
  void clear_page_index() noexcept {
    page_index_.clear();
    ++index_epoch_;
  }
  /// True while `plan` still describes the live configuration.
  bool plan_current(const CyclePlan& plan,
                    const ConfigMemory& cfg) const noexcept {
    return plan.cfg_uid == cfg.uid() &&
           plan.cfg_generation == cfg.generation() &&
           plan.local_generation == local_generation_;
  }
  /// First advancing cycle under an attachment: commit mode
  /// transitions exactly as the interpreter would.
  void sync_modes(const CyclePlan& plan);

  // --- superstep internals --------------------------------------------
  /// Run `entry`'s tape (see run_planned(); step() runs one cycle).
  SuperstepResult run_tape(PlanCacheEntry& entry, const SuperstepContext& ctx);
  /// Queue `t` for the statistics flush.
  void queue_tape(SuperstepTape& t) {
    if (!t.queued) {
      t.queued = true;
      ran_.push_back(&t);
    }
  }

  // --- controller loop traces (see run_planned()) -----------------------
  /// After a controller step inside the loop (the cycle runs under
  /// `entry`; `stalled`: its ring half stalls): record it, and return
  /// the trace to enter at the top of the next cycle, if any.
  LoopTrace* note_step(const ControlHook::Step& cs, PlanCacheEntry* entry,
                       const ConfigMemory& cfg, bool stalled,
                       std::uint64_t code_id);
  /// Lower the recording just completed, if replay can credit it.
  void lower_trace(const ConfigMemory& cfg, std::uint64_t code_id);
  /// Stop replaying `t` at the top of cycle `at` after `iters` whole
  /// iterations: credit what the replay skipped and attach the live
  /// page's plan.
  void end_replay(LoopTrace& t, std::uint64_t iters, std::size_t at,
                  const ConfigMemory& cfg, ControlHook& control);
  /// Start running `e`'s tape and set `phase`: continue the last tape
  /// at its next phase (`continued`), or settle it and pick the phase
  /// the local counters select, (re)lowering `e`'s tape if needed.
  /// Queues `e` for the flush; the running loop owns the buffers
  /// afterwards.
  SuperstepTape& enter_tape(PlanCacheEntry& e, std::size_t& phase,
                            bool& continued);
  /// The next buffer takes the last tape's written slots from the
  /// current one, so any tape can run next.
  void settle_last_tape() noexcept;
  /// Widen both buffers to the slots `t` addresses, keeping their
  /// contents.
  void fit_stride(const SuperstepTape& t);
  /// Fill `t`'s constant slots in both buffers from `imms` (the
  /// configuration immediates it reads) and the local immediates.
  void load_consts(const SuperstepTape& t, const Word* imms) noexcept;
  /// Settle the per-op statistics of the cycles `e`'s tape ran since
  /// its last flush (no-op when it ran none).
  void flush_tape(SuperstepTape& t, SuperstepResult& res);

  RingGeometry geom_;
  std::vector<LocalControl> locals_;       // [layer * lanes + lane]
  std::vector<DnodeMode> last_mode_;       // mode at last NON-stalled cycle
  std::vector<std::uint64_t> ops_per_dnode_;
  std::vector<std::uint64_t> mac_ops_per_dnode_;
  std::vector<std::uint64_t> local_cycles_per_dnode_;
  std::vector<std::uint64_t> global_cycles_per_dnode_;
  std::vector<std::uint64_t> host_out_words_per_switch_;
  std::vector<std::uint64_t> fb_reads_per_pipe_;
  std::vector<std::uint64_t> fb_read_depth_counts_;  // [pipe*fb_depth+depth]
  std::uint64_t bus_drives_ = 0;
  std::uint64_t bus_conflicts_ = 0;

  // Plan cache (see header comment).  current_plan_ is the attached
  // entry; its plan is current while the stamped (cfg uid, cfg
  // generation, local_generation_) match the live values.
  std::vector<std::unique_ptr<PlanCacheEntry>> plan_cache_;
  PlanCacheEntry* current_plan_ = nullptr;
  std::uint64_t plan_use_clock_ = 0;
  bool plan_enabled_ = true;
  bool mode_synced_ = false;     // planned path applied mode transitions
  // last_mode_ is exactly "local for synced_local_, global elsewhere"
  // while synced_valid_ (an interpreted cycle may leave any mix).
  std::vector<std::uint16_t> synced_local_;
  bool synced_valid_ = true;
  bool trace_views_ = false;     // maintain full effects_/fetched_
  std::uint64_t local_generation_ = 0;
  // The local programs' immediates, [dnode * kLocalProgramSlots + slot]
  // (the source of a tape's local constants); write_local() and resets
  // keep them current.
  std::vector<Word> local_imm_;
  std::uint64_t local_hash_ = 0;
  std::uint64_t local_hash_gen_ = ~std::uint64_t{0};
  // Page index: page_index_[p] is the entry attached while page p was
  // live (nullptr: none yet), valid for one (cfg uid, local_generation_)
  // pair.  Cleared by an eviction (it reuses an entry); a WRLOC or a
  // reset lapses it by moving the local generation, and finish_arm()
  // carries it across a same-structure re-arm.  index_epoch_ moves
  // whenever the index is cleared or restamped: a loop trace lowered
  // under another epoch names plans the index may no longer hold.
  std::vector<PlanCacheEntry*> page_index_;
  std::uint64_t page_index_uid_ = 0;
  std::uint64_t page_index_local_gen_ = 0;
  std::uint64_t index_epoch_ = 0;
  std::uint64_t armed_local_gen_ = 0;  // local generation at finish_arm()
  std::uint64_t plan_compiles_ = 0;
  std::uint64_t plan_hits_ = 0;
  std::uint64_t plan_invalidations_ = 0;
  std::uint64_t plan_content_hits_ = 0;
  std::uint64_t plan_evictions_ = 0;

  // Per-cycle scratch (members to avoid per-step allocations).
  struct PortNeed {
    bool in1_host = false;
    bool in2_host = false;
    bool direct_host = false;
  };
  std::vector<const DnodeInstr*> fetched_;
  std::vector<bool> is_local_;
  std::vector<PortNeed> needs_;
  std::vector<Effects> effects_;

  // The datapath state: flat_ holds two TapeLayout buffers back to
  // back, stride_ words each (the state and the operand slots of the
  // widest tape lowered), the current one at offset cur_; window_
  // holds the feedback history, one pre-edge output row per edge,
  // depth 0 at row head_.
  std::vector<Word> flat_;
  std::size_t stride_ = 0;
  std::vector<Word> window_;
  std::size_t window_slack_ = 0; // rows pushed before a relocation
  std::size_t cur_ = 0;
  std::size_t head_ = 0;
  std::uint64_t edges_ = 0;      // clock edges since the last reset
  // A local program may differ from the reset one: written through
  // write_local() since the last reset.
  bool locals_written_ = false;
  // Tape and phase of the last tape cycle: the next buffer lacks
  // that phase's writes unless the same tape continues.
  SuperstepTape* last_tape_ = nullptr;
  std::size_t last_phase_ = 0;
  std::vector<SuperstepTape*> ran_;  // tapes with unflushed cycles
  // A dispatch ended with ring_pending: its lookup, for the step()
  // that finishes the cycle.
  std::optional<PlanCacheEntry*> handoff_;
  std::uint64_t superstep_dispatches_ = 0;
  std::uint64_t superstep_cycles_ = 0;

  // Controller loop traces: the recording in progress (one per
  // dispatch), the one lowered trace (a new one overwrites it), and
  // the replay's credit scratch.
  struct Recorder {
    bool on = false;
    std::uint64_t head = 0;
    std::uint64_t next_pc = 0;  ///< pc the next recorded cycle runs at
    PlanCacheEntry* entry = nullptr;
    std::size_t entry_page = 0;
    std::vector<TraceCycle> cycles;
  } rec_;
  std::unique_ptr<LoopTrace> trace_;
  std::vector<std::uint64_t> credit_;
  std::uint64_t trace_cycles_ = 0;
};

}  // namespace sring
