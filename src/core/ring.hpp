// The Ring operating layer (paper §4.2).
//
// `layers` Dnode layers of `lanes` Dnodes each, closed into a ring.
// Switch s routes data from layer s-1 (mod layers) into layer s and
// owns the feedback pipeline that latches layer s-1's outputs every
// clock edge.
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
// pool keyed by configuration *content* — a hash of the live
// configuration bytes plus the local-control programs — not by write
// generation.  A configuration write detaches the current plan, but if
// the resulting content was seen before (hardware multiplexing:
// configware pages pulsed in rotation, or a word rewritten with the
// byte-identical value), the cached plan re-attaches in O(1) instead
// of recompiling.  Unknown content is interpreted and compiled on its
// second sighting.  On top of the cache, the Ring watches the sequence
// of plan attachments: a periodic rotation (period capped like the
// superstep LCM) is fused so each detach predicts its successor and
// verifies it by provenance in O(1) — no hashing, no lookup.  Outputs
// and architectural statistics are bit-exact with the interpreter; only
// the ring.plan.* counters differ.  Set the SRING_NO_PLAN_CACHE
// environment variable (any non-empty value, read at Ring
// construction) or call set_plan_cache_enabled(false) to force the
// interpreter.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/host_fifo.hpp"
#include "core/config_memory.hpp"
#include "core/cycle_plan.hpp"
#include "core/dnode.hpp"
#include "core/feedback_pipeline.hpp"
#include "core/switch.hpp"

namespace sring {

class Ring {
 public:
  explicit Ring(const RingGeometry& g);

  const RingGeometry& geometry() const noexcept { return geom_; }

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
  /// the Dnodes this cycle; host traffic uses the given FIFOs.
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
    };
    /// Execute the controller's part of one cycle: `bus` is the bus at
    /// the top of the cycle, `cycle` what RDCYC reads.
    virtual Step step(Word bus, std::uint64_t cycle) = 0;

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
    HostDepthProbe probe;
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
  /// With ctx.control set, the controller runs inside the loop: a
  /// configuration change the fused rotation predicts re-attaches the
  /// next plan and its tape in O(1); anything else (a content lookup,
  /// a first sighting or compile, a word write, WRLOC, a local-mode
  /// plan) ends the dispatch with ring_pending set.  That mode serves
  /// only period-1, all-global plans, and only once a rotation over
  /// pages is fused.  Ring stalls are then counted inside the loop.
  ///
  /// Without a controller, the dispatch stops before an impending
  /// stall (the per-cycle path replays it).  Both modes stop at the
  /// output stop and the cycle budget, and in-loop controller mode
  /// also once the controller goes inert.  Architectural state,
  /// outputs and statistics are bit-identical with the same cycles run
  /// through step(); only the ring.superstep.* counters differ.
  SuperstepResult run_planned(const SuperstepContext& ctx);

  // --- state access ---------------------------------------------------
  Dnode& dnode(std::size_t layer, std::size_t lane);
  const Dnode& dnode(std::size_t layer, std::size_t lane) const;
  Dnode& dnode_flat(std::size_t index);
  const Dnode& dnode_flat(std::size_t index) const;

  const FeedbackPipeline& pipeline(std::size_t sw) const;

  /// Write a local-control register of a Dnode (controller WRLOC path).
  /// Invalidates the compiled cycle plan.
  void write_local(std::size_t dnode_index, std::size_t slot,
                   std::uint64_t value);

  /// Cumulative executed-instruction count per Dnode (utilization).
  const std::vector<std::uint64_t>& ops_per_dnode() const noexcept {
    return ops_per_dnode_;
  }

  // --- instrumentation (observation only, reset() clears) -------------
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
  /// configuration content, not one per rewrite.
  std::uint64_t plan_compiles() const noexcept { return plan_compiles_; }
  /// Cycles executed from a compiled plan (attached or re-attached).
  std::uint64_t plan_hits() const noexcept { return plan_hits_; }
  /// Times the attached plan was detached because the configuration
  /// changed.  plan_invalidations - plan_content_hits is the true miss
  /// count (content never seen compiled before).
  std::uint64_t plan_invalidations() const noexcept {
    return plan_invalidations_;
  }
  /// Detachments recovered by re-attaching a cached plan whose content
  /// key matched the rewritten configuration — the cycles that were
  /// recompiles (or interpreter fallbacks) before the content-keyed
  /// cache.  Subset of plan_hits.
  std::uint64_t plan_content_hits() const noexcept {
    return plan_content_hits_;
  }
  /// Cache entries discarded to stay within kPlanCacheCapacity.
  std::uint64_t plan_evictions() const noexcept { return plan_evictions_; }
  /// Periodic plan-attachment sequences recognized and fused.
  std::uint64_t plan_seq_fusions() const noexcept {
    return plan_seq_fusions_;
  }
  /// Re-attachments served by sequence prediction (O(1) provenance
  /// check, no hash/lookup).  Subset of plan_content_hits.
  std::uint64_t plan_seq_hits() const noexcept { return plan_seq_hits_; }
  bool plan_cache_enabled() const noexcept { return plan_enabled_; }
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
  /// Enable/disable the cycle-plan cache at runtime (A/B comparisons).
  /// Disabling detaches the current plan without counting an
  /// invalidation — it is a tooling action, not a configuration write.
  void set_plan_cache_enabled(bool enabled) noexcept;
  /// Bumped by every write_local(); part of the plan invalidation key.
  std::uint64_t local_generation() const noexcept {
    return local_generation_;
  }

  // --- last-cycle views for event tracing ------------------------------
  // Valid immediately after a non-stalled step(); the System's event
  // emitter is the only intended consumer.  The planned path maintains
  // the full per-Dnode views only while trace mode is on (the System
  // toggles it with the sink) — with tracing off it skips inactive
  // Dnodes entirely.
  std::span<const Dnode::Effects> last_effects() const noexcept {
    return effects_;
  }
  const std::vector<const DnodeInstr*>& last_fetched() const noexcept {
    return fetched_;
  }
  /// Keep the per-Dnode trace views (last_effects/last_fetched) exact
  /// on the planned path.  The System sets this together with its
  /// event sink.
  void set_trace_views(bool on) noexcept { trace_views_ = on; }

  /// Clear all architectural state (configuration memory is separate).
  /// Also drops the whole plan cache and zeroes the plan counters.
  void reset();

  /// Clear architectural state but KEEP the compiled plan cache — the
  /// pooled-rerun fast path.  Cached plans re-attach on the rerun only
  /// after their content key is re-verified against the live
  /// configuration (provenance hints are dropped, so the first
  /// re-attachment per entry does a full content compare), which makes
  /// a rerun of a different program a clean miss.  Counters are zeroed
  /// and the sequence fusion state cleared; outputs and architectural
  /// statistics of a rerun are bit-identical to a fresh System, only
  /// the ring.plan.* counters reflect the warm cache.
  void reset_for_rerun();

 private:
  /// One cached compiled plan, keyed by configuration content.
  struct PlanCacheEntry {
    std::uint64_t key_hash = 0;  ///< content_hash(cfg) mixed w/ local hash
    /// Full content snapshot backing the hash: live instruction words,
    /// widened mode bytes, route words, then per-Dnode local limit +
    /// raw slots.  Collision guard — a hash match attaches only after
    /// this compares equal (or the provenance hint proves identity).
    std::vector<std::uint64_t> content;
    // Provenance hint: the content is byte-identical to the live image
    // whenever the same ConfigMemory (uid) has the same immutable page
    // applied and no local-control write happened since — an O(1)
    // identity proof that skips the content compare.  src_page == -1
    // (word-written image) never matches.
    std::uint64_t src_uid = 0;
    std::ptrdiff_t src_page = -1;
    std::uint64_t src_local_gen = 0;
    std::uint32_t sightings = 0;  ///< compile on the second sighting
    std::uint64_t last_use = 0;   ///< LRU clock for eviction
    bool compiled = false;
    CyclePlan plan;
    SuperstepTape tape;  ///< lowered on the first dispatch of `plan`
  };

  std::size_t flat_index(std::size_t layer, std::size_t lane) const;
  std::size_t upstream_layer(std::size_t layer) const noexcept;

  Word read_feedback(const FeedbackAddr& addr) const;

  /// Record one feedback read actually consumed by an instruction.
  void note_fb_read(const FeedbackAddr& addr);

  /// Reference path: re-interpret ConfigMemory + local programs.
  CycleResult step_interpreted(const ConfigMemory& cfg, Word bus,
                               HostFifo& host_in,
                               std::vector<Word>& host_out);
  /// Fast path: execute one cycle from a compiled plan.
  CycleResult step_planned(const CyclePlan& plan, Word bus,
                           HostFifo& host_in, std::vector<Word>& host_out);
  /// Clock-edge tail of the interpreter: capture pre-edge outputs,
  /// commit every Dnode, latch the feedback pipelines.
  void commit_edge();
  /// Dnode hostEn pushes and bus drives (after commit_edge()).
  void drain_effects(CycleResult& result, std::vector<Word>& host_out);

  // --- plan cache internals -------------------------------------------
  /// Hash of the local-control content (limits + raw slots), cached
  /// per local_generation_.
  std::uint64_t local_content_hash();
  /// Combined content key of the live configuration.
  std::uint64_t live_key_hash(const ConfigMemory& cfg);
  /// Append the full live content (see PlanCacheEntry::content).
  void build_content(const ConfigMemory& cfg,
                     std::vector<std::uint64_t>& out) const;
  bool content_matches(const ConfigMemory& cfg,
                       const std::vector<std::uint64_t>& content) const;
  bool hint_matches(const PlanCacheEntry& e,
                    const ConfigMemory& cfg) const noexcept {
    return e.src_page >= 0 && e.src_uid == cfg.uid() &&
           e.src_page == cfg.live_page() &&
           e.src_local_gen == local_generation_;
  }
  /// Find the entry for the live content (hash + hint-or-content
  /// verify), or nullptr.
  PlanCacheEntry* find_entry(const ConfigMemory& cfg, std::uint64_t key);
  /// Shared architectural-state reset (Dnodes, pipes, statistics).
  void reset_arch_state();
  /// Insert a fresh entry for the live content, evicting the LRU entry
  /// at capacity.  Returns the (possibly reused) entry.
  PlanCacheEntry* insert_entry(const ConfigMemory& cfg, std::uint64_t key);
  /// Make `e` the attached plan: restamp the validity key, refresh the
  /// provenance hint, arm the mode sync unless the plan's local set is
  /// the one already synced, record the attachment in the sequence
  /// history.
  void attach_plan(PlanCacheEntry* e, const ConfigMemory& cfg);
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
  /// `e`'s tape, (re)lowered when missing or when the local counters
  /// match none of its phases; `phase` receives the current phase.
  SuperstepTape& tape_for(PlanCacheEntry& e, std::size_t& phase);
  /// Copy the Dnode registers and outputs into both flat buffers.
  void load_flat(Word bus);
  /// Copy the pipelines' history into the window below the `edges` rows
  /// a dispatch already pushed from depth-0 row `head`.
  void load_window(std::size_t head, std::uint64_t edges);
  /// Write `state` back to the Dnodes and latch the `edges` rows pushed
  /// from depth-0 row `head` into the pipelines.
  void store_flat(const Word* state, std::size_t head, std::uint64_t edges);
  /// Settle the per-op statistics of the cycles `e`'s tape ran since
  /// its last flush (no-op when it ran none).
  void flush_tape(PlanCacheEntry& e, SuperstepResult& res);
  /// Record an attachment in the history and try to detect a periodic
  /// sequence (no-op while fused).
  void note_attach(PlanCacheEntry* e);
  void unfuse() noexcept;

  RingGeometry geom_;
  std::vector<Dnode> dnodes_;              // [layer * lanes + lane]
  std::vector<FeedbackPipeline> pipes_;    // one per switch / layer
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
  bool pre_outs_valid_ = false;  // pre_outs_[i] == dnodes_[i].out()
  bool trace_views_ = false;     // maintain full effects_/fetched_
  std::uint64_t local_generation_ = 0;
  std::uint64_t local_hash_ = 0;
  std::uint64_t local_hash_gen_ = ~std::uint64_t{0};
  // Sequence fusion: history of recent attachments while hunting for a
  // period; the fused sequence and its cursor afterwards.
  std::vector<PlanCacheEntry*> plan_history_;
  std::vector<PlanCacheEntry*> seq_;
  std::size_t seq_pos_ = 0;
  bool seq_fused_ = false;
  std::uint64_t plan_compiles_ = 0;
  std::uint64_t plan_hits_ = 0;
  std::uint64_t plan_invalidations_ = 0;
  std::uint64_t plan_content_hits_ = 0;
  std::uint64_t plan_evictions_ = 0;
  std::uint64_t plan_seq_fusions_ = 0;
  std::uint64_t plan_seq_hits_ = 0;

  // Per-cycle scratch (members to avoid per-step allocations).
  struct PortNeed {
    bool in1_host = false;
    bool in2_host = false;
    bool direct_host = false;
  };
  std::vector<const DnodeInstr*> fetched_;
  std::vector<bool> is_local_;
  std::vector<PortNeed> needs_;
  std::vector<Dnode::Effects> effects_;
  std::vector<Word> pre_outs_;             // [layer * lanes + lane]
  std::vector<std::uint8_t> local_slot_;   // planned path: slot per Dnode
  std::vector<std::uint16_t> exec_scratch_;  // planned path: executed Dnodes

  // Superstep state (reused across dispatches) + counters.
  std::vector<Word> flat_;       // two TapeLayout buffers, back to back
  std::vector<Word> window_;     // feedback history, one outs row each
  std::size_t window_slack_ = 0; // rows pushed before a relocation
  std::vector<Word> op_vals_;    // this cycle's micro-op results
  std::uint64_t superstep_dispatches_ = 0;
  std::uint64_t superstep_cycles_ = 0;
};

}  // namespace sring
