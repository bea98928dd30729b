// Decoded cycle plan — the Ring's compiled hot path.
//
// The paper's hardware multiplexing lets the controller rewrite any
// configuration word every cycle, but between rewrites the
// configuration layer is stable.  Re-interpreting ConfigMemory every
// cycle (fetch mode word, fetch microinstruction, decode route kinds,
// re-derive host-pop needs, re-validate feedback addresses) made the
// interpreter the throughput ceiling.  A CyclePlan flattens the current
// configuration page + per-Dnode mode vector into pre-resolved operand
// sources, pre-validated route indices, a host-pop schedule and the
// host-out tap list, so steady-state cycles execute straight from the
// plan.
//
// A plan captures the configuration's *structure* only: immediates
// compile as 0, and the tape holds them in constant slots that the
// Ring refills from the ConfigMemory's live image and its copy of the
// local programs' immediates (SuperstepTape::consts).  One plan
// therefore serves every configuration that differs from it only in
// immediates — a GEMM tile's matrix or a FIR's taps are data, as in
// the paper's controller, which rewrites microinstructions as data
// every cycle.
//
// Attachment contract: a plan is *attached* (executing without any
// per-cycle checks beyond the stamp compare) exactly while
//   (cfg.uid(), cfg.generation(), ring local-control generation)
// match the values stamped at the last attach.  Every ConfigMemory
// write path (WRCFG/WRMODE/WRSW, page swaps, reset_live) bumps the
// generation; Ring::write_local (the controller's WRLOC path) bumps
// the local generation.  A stamp mismatch only *detaches* — compiled
// plans live in the Ring's bounded structure-keyed cache and re-attach
// whenever the rewritten configuration's structure matches a cached
// key (see Ring), so hardware multiplexing over a repertoire of
// configurations compiles each distinct structure once, not once per
// rewrite or per coefficient set.  The interpreter remains the
// reference for structure never seen twice.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/config_memory.hpp"
#include "core/local_control.hpp"
#include "core/switch.hpp"
#include "isa/dnode_instr.hpp"

namespace sring {

/// Everything one Dnode needs to execute one specific microinstruction:
/// the decoded instruction plus its operand routing with all validation
/// hoisted to compile time.
struct PlannedSlot {
  /// Pre-resolved source of one input port.  kHost always pops (a host
  /// route whose operand the instruction never reads compiles to
  /// kZero, matching the interpreter's "no pop, value 0" behaviour).
  enum class Port : std::uint8_t { kZero, kPrev, kHost, kFeedback, kBus };

  DnodeInstr instr{};            ///< decoded copy, imm = 0 (read live)
  bool nop = true;
  bool is_mac = false;           ///< MAC/MSU: counts as two arith ops
  Port in1 = Port::kZero;
  Port in2 = Port::kZero;
  std::uint16_t in1_prev = 0;    ///< flat upstream Dnode index (kPrev)
  std::uint16_t in2_prev = 0;
  FeedbackAddr in1_fb{};         ///< pre-validated (kFeedback)
  FeedbackAddr in2_fb{};
  bool read_fifo1 = false;       ///< instruction consumes fifo1/fifo2
  bool read_fifo2 = false;
  FeedbackAddr fifo1{};          ///< pre-validated
  FeedbackAddr fifo2{};
  bool direct_pop = false;       ///< instruction reads the HOST source
  std::uint8_t pops = 0;         ///< host words this slot consumes
};

/// Per-Dnode plan: one slot in global mode, the whole local
/// microprogram (slots 0..limit) in stand-alone mode.
struct PlannedDnode {
  bool is_local = false;
  /// Local program length (limit + 1); 1 when !is_local.
  std::uint8_t local_len = 1;
  PlannedSlot global;                                  ///< !is_local
  std::array<PlannedSlot, kLocalProgramSlots> local{}; ///< is_local
};

/// One switch host-out tap: which pre-edge output word it forwards.
struct HostTapPlan {
  std::uint32_t src = 0;  ///< flat index into the pre-edge output vector
  std::uint32_t sw = 0;   ///< owning switch (per-switch statistics)
};

/// Superstep schedules repeat with the LCM of the active local program
/// lengths.  Periods beyond this cap (mixed 5/7/8-step programs can
/// reach 840) are not worth unrolling — the plan gets no tape and the
/// Ring interprets it.
inline constexpr std::size_t kMaxSuperstepPeriod = 64;

struct CyclePlan {
  // Invalidation key captured at compile time (see header comment).
  std::uint64_t cfg_uid = 0;
  std::uint64_t cfg_generation = 0;
  std::uint64_t local_generation = 0;

  std::size_t static_pops = 0;  ///< host pops from global-mode Dnodes
  /// LCM of local program lengths (the schedule repeat period for the
  /// superstep engine); 0 when it would exceed kMaxSuperstepPeriod.
  std::size_t superstep_period = 1;
  std::vector<PlannedDnode> dnodes;          ///< [layer * lanes + lane]
  std::vector<std::uint16_t> local_dnodes;   ///< flat indices, ascending
  std::vector<std::uint16_t> global_dnodes;  ///< flat indices, ascending
  std::vector<HostTapPlan> host_taps;        ///< switch-asc, lane-asc
};

/// Flat state the superstep tape runs over, one buffer per clock
/// phase: a constant zero, the shared bus, four registers per Dnode,
/// one output register per Dnode, a sink slot that absorbs output
/// writes an instruction does not make, and one value slot per Dnode
/// that holds its result when it writes no register.  Slot 0 is never
/// written; value slots are read only in the cycle that wrote them.
///
/// Past the state (from size()) lie a tape's operand slots, so that a
/// micro-op reads every operand from the current buffer at one offset:
/// this cycle's host pops (pop(k), at most three per Dnode) and the
/// window words the phase reads (win(k), at most one per operand), both
/// gathered before the phase's ops run, then from consts() the tape's
/// immediates, held in both buffers.
struct TapeLayout {
  static constexpr std::uint16_t kZero = 0;
  static constexpr std::uint16_t kBus = 1;
  static constexpr std::uint16_t kRegs = 2;

  std::size_t dnodes = 0;

  std::uint16_t reg(std::size_t dnode, std::size_t r) const noexcept {
    return static_cast<std::uint16_t>(kRegs + 4 * dnode + r);
  }
  std::uint16_t outs() const noexcept {
    return static_cast<std::uint16_t>(kRegs + 4 * dnodes);
  }
  std::uint16_t out(std::size_t dnode) const noexcept {
    return static_cast<std::uint16_t>(outs() + dnode);
  }
  std::uint16_t sink() const noexcept {
    return static_cast<std::uint16_t>(outs() + dnodes);
  }
  std::uint16_t val(std::size_t dnode) const noexcept {
    return static_cast<std::uint16_t>(sink() + 1 + dnode);
  }
  std::size_t size() const noexcept { return sink() + 1u + dnodes; }
  std::uint16_t pop(std::size_t k) const noexcept {
    return static_cast<std::uint16_t>(size() + k);
  }
  std::uint16_t win(std::size_t k) const noexcept {
    return static_cast<std::uint16_t>(size() + 3 * dnodes + k);
  }
  std::size_t consts() const noexcept { return size() + 6 * dnodes; }
};

/// One non-NOP Dnode slot lowered for the superstep loop: the ALU
/// operation, the buffer slots of its three operands (unused ones read
/// the zero slot) and the state slots the result latches into.
struct TapeOp {
  DnodeOp op = DnodeOp::kNop;
  bool host_en = false;
  bool bus_en = false;
  std::uint16_t a = TapeLayout::kZero;
  std::uint16_t b = TapeLayout::kZero;
  std::uint16_t c = TapeLayout::kZero;
  /// Register slot, or the Dnode's value slot: the result is there
  /// after the op either way.
  std::uint16_t dst = 0;
  std::uint16_t out = 0;  ///< output-register slot, or the sink
};

/// A plan's schedule lowered to flat micro-ops, unrolled over the
/// superstep period.  Phase p serves the cycles in which every local
/// Dnode k runs slot (base_counters[k] + p) % local_len.  Cached with
/// its plan; valid until the plan recompiles.
///
/// A loop tape (compile_loop_tape) has one phase per cycle of a
/// recorded controller loop instead: phase i is the all-global plan
/// cycle i ran, its immediates read from that cycle's page.
struct SuperstepTape {
  /// Where a micro-op came from (statistics flush, trace views).
  struct Source {
    std::uint16_t dnode = 0;
    std::uint8_t local_slot = 0;  ///< program slot of a local-mode Dnode
    const PlannedSlot* slot = nullptr;
  };

  bool valid = false;
  std::size_t period = 1;
  std::vector<std::uint8_t> base_counters;  ///< per plan.local_dnodes
  std::vector<TapeOp> ops;                  ///< phase-major
  std::vector<Source> sources;              ///< parallel to ops
  /// Where phase p's entries begin in each per-phase list; entry
  /// `period` ends them.  `pops` is phase p's own count of host words
  /// (0 in the last entry).  One row per phase, so a cycle reads its
  /// bounds from one place.
  struct Phase {
    std::uint32_t ops = 0;      ///< into ops and sources
    /// Into ops: the phase's PASS ops come first and run as plain
    /// moves, its other ops from here.
    std::uint32_t alu = 0;
    std::uint32_t effects = 0;  ///< into effects
    std::uint32_t gather = 0;   ///< into gather
    std::uint32_t carry = 0;    ///< into carry
    std::uint32_t taps = 0;     ///< into taps
    std::uint32_t pops = 0;
  };
  std::vector<Phase> phases;                ///< [period + 1]
  /// Prefix sums over phases [0, p), [period + 1]: the host words the
  /// cycles consume (a loop tape adds each replayed INPOP's word) and
  /// the host words they output.  A guard-free span is sized from them
  /// (tape_sum, tape_fit).
  std::vector<std::uint32_t> pop_sum;
  std::vector<std::uint32_t> out_sum;
  /// Indices into ops of the hostEn/busEn micro-ops, phase-major and
  /// in Dnode order within a phase (the order their effects drain).
  std::vector<std::uint32_t> effects;
  /// Per phase: the window words its ops read, as offsets from the
  /// depth-0 row (row-major: depth * dnodes + upstream Dnode), and the
  /// win() slots they are copied into before the ops run.
  struct Gather {
    std::uint32_t from = 0;
    std::uint16_t to = 0;
  };
  std::vector<Gather> gather;
  /// The immediates the ops read, one constant slot each in both
  /// buffers: word `from` of the configuration's immediates (a plan
  /// tape reads ConfigMemory::live_imms(), a loop tape page_imms()) or,
  /// `local`, of the local programs' (Dnode * kLocalProgramSlots +
  /// slot).  The Ring refills them wherever the configuration may have
  /// changed: at every dispatch, after every controller step and when
  /// a replay starts.  So a page swap or a WRCFG/WRLOC that changes
  /// only immediates keeps the same plan and tape.
  struct Const {
    std::uint32_t from = 0;
    std::uint16_t slot = 0;
    bool local = false;
  };
  std::vector<Const> consts;
  /// Buffer words the tape addresses: the state, the gather slots and
  /// its constants.
  std::size_t slots = 0;
  /// Per phase: slots the previous phase wrote and this one does not,
  /// copied forward so both state buffers stay in step.
  std::vector<std::uint16_t> carry;
  /// Every slot some phase writes (carried on a switch to another tape).
  std::vector<std::uint16_t> written;
  /// Host-out taps per phase, switch order.
  std::vector<HostTapPlan> taps;
  /// Cycles executed per phase since the last statistics flush.
  std::vector<std::uint64_t> phase_cycles;
  bool queued = false;  ///< in the Ring's flush queue (unflushed cycles)
};

/// What the `k` cycles from phase `s` add to a prefix-summed per-phase
/// count (SuperstepTape::pop_sum, out_sum), wrapping the period.
inline std::uint64_t tape_sum(std::span<const std::uint32_t> sum,
                              std::size_t s, std::uint64_t k) noexcept {
  const std::size_t period = sum.size() - 1;
  const std::uint64_t end = s + k;
  return end / period * sum[period] + sum[end % period] - sum[s];
}

/// The most cycles from phase `s` whose tape_sum stays <= `c`
/// (UINT64_MAX when a whole period sums to 0).
std::uint64_t tape_fit(std::span<const std::uint32_t> sum, std::size_t s,
                       std::uint64_t c) noexcept;

/// Lower `plan` into `tape`, starting phase 0 at the local counters
/// `locals` hold now.
void compile_tape(const RingGeometry& geom, const CyclePlan& plan,
                  const std::vector<LocalControl>& locals, SuperstepTape& tape);

/// Lower a recorded controller loop into `tape`: phase i runs the
/// all-global `plans[i]` with its kImm operands reading word
/// pages[i] * dnode_count + dnode of ConfigMemory::page_imms().  The
/// tape stays invalid when its slots lie beyond a 16-bit offset.
void compile_loop_tape(const RingGeometry& geom,
                       std::span<const CyclePlan* const> plans,
                       std::span<const std::size_t> pages,
                       const std::vector<LocalControl>& locals,
                       SuperstepTape& tape);

/// Phase of a valid `tape` that the local counters select, or
/// -1 when no phase matches (the tape must be recompiled).
std::ptrdiff_t tape_phase(const SuperstepTape& tape, const CyclePlan& plan,
                          const std::vector<LocalControl>& locals) noexcept;

/// Compile the live configuration + local-control programs into `plan`
/// (storage is reused across recompiles; the caller stamps the
/// invalidation key).  Throws SimError on any route the
/// interpreter would reject at execution time — pre-validation must
/// not accept configurations the cycle-accurate path rejects.
void compile_cycle_plan(const RingGeometry& geom, const ConfigMemory& cfg,
                        const std::vector<LocalControl>& locals,
                        CyclePlan& plan);

}  // namespace sring
