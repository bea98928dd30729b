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
// Attachment contract: a plan is *attached* (executing without any
// per-cycle checks beyond the stamp compare) exactly while
//   (cfg.uid(), cfg.generation(), ring local-control generation)
// match the values stamped at the last attach.  Every ConfigMemory
// write path (WRCFG/WRMODE/WRSW, page swaps, reset_live) bumps the
// generation; Ring::write_local (the controller's WRLOC path) bumps
// the local generation.  A stamp mismatch only *detaches* — compiled
// plans live in the Ring's bounded content-keyed cache and re-attach
// whenever the rewritten configuration's content matches a cached key
// (see Ring), so hardware multiplexing over a repertoire of
// configurations recompiles each distinct content once, not once per
// rewrite.  The interpreter remains the reference for content never
// seen twice.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/config_memory.hpp"
#include "core/dnode.hpp"
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

  DnodeInstr instr{};            ///< decoded copy (owned by the plan)
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
/// reach 840) are not worth unrolling — the plan marks them
/// superstep-ineligible and the per-cycle planned path handles them.
inline constexpr std::size_t kMaxSuperstepPeriod = 64;

struct CyclePlan {
  bool valid = false;
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
  /// Active Dnodes (some reachable non-NOP slot), ascending.  The
  /// per-cycle planned path and the tape lowering iterate only these —
  /// the ascending order preserves the documented host pop and output
  /// drain order.
  std::vector<std::uint16_t> exec_dnodes;
  std::vector<HostTapPlan> host_taps;        ///< switch-asc, lane-asc
};

/// Flat state the superstep tape runs over, one vector per buffer:
/// a constant zero, the shared bus, four registers per Dnode, one
/// output register per Dnode, and a sink slot that absorbs writes an
/// instruction does not make.  Slot 0 is never written.
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
  std::size_t size() const noexcept { return sink() + 1u; }
};

/// One operand of a tape micro-op: word `off` of one of four bases —
/// the current state buffer, the feedback window at its depth-0 row
/// (row-major: depth * dnodes + upstream Dnode), this cycle's host
/// pops (in pop order), or the tape's immediates.
struct TapeRef {
  enum Base : std::uint8_t { kState = 0, kWindow, kPops, kImm };
  std::uint8_t base = kState;
  std::uint16_t off = TapeLayout::kZero;
};

/// One non-NOP Dnode slot lowered for the superstep loop: the ALU
/// operation, its three operands (unused ones read the zero slot) and
/// the state slots the result latches into.
struct TapeOp {
  DnodeOp op = DnodeOp::kNop;
  bool host_en = false;
  bool bus_en = false;
  TapeRef a, b, c;
  std::uint16_t dst = 0;  ///< register slot, or the sink
  std::uint16_t out = 0;  ///< output-register slot, or the sink
};

/// A plan's schedule lowered to flat micro-ops, unrolled over the
/// superstep period.  Phase p serves the cycles in which every local
/// Dnode k runs slot (base_counters[k] + p) % local_len.  Cached with
/// its plan; valid until the plan recompiles.
struct SuperstepTape {
  /// Where a micro-op came from (statistics flush).
  struct Source {
    std::uint16_t dnode = 0;
    const PlannedSlot* slot = nullptr;
  };

  bool valid = false;
  std::size_t period = 1;
  std::vector<std::uint8_t> base_counters;  ///< per plan.local_dnodes
  std::vector<TapeOp> ops;                  ///< phase-major
  std::vector<Source> sources;              ///< parallel to ops
  std::vector<std::uint32_t> begin;         ///< [period + 1] into ops
  std::vector<std::uint32_t> pops;          ///< [period] host words
  /// Indices into ops of the hostEn/busEn micro-ops, phase-major.
  std::vector<std::uint32_t> effects;
  std::vector<std::uint32_t> effects_begin;  ///< [period + 1]
  /// Per phase: slots the previous phase wrote and this one does not,
  /// copied forward so both state buffers stay in step.
  std::vector<std::uint16_t> carry;
  std::vector<std::uint32_t> carry_begin;   ///< [period + 1]
  /// Every slot some phase writes (carried on a switch to another tape).
  std::vector<std::uint16_t> written;
  std::vector<Word> imm;
  bool reads_window = false;  ///< some operand reads the feedback window
  /// Cycles executed per phase since the last statistics flush.
  std::vector<std::uint64_t> phase_cycles;
};

/// Lower `plan` into `tape`, starting phase 0 at the local counters
/// the Dnodes hold now.
void compile_tape(const RingGeometry& geom, const CyclePlan& plan,
                  const std::vector<Dnode>& dnodes, SuperstepTape& tape);

/// Phase of a valid `tape` that the Dnodes' local counters select, or
/// -1 when no phase matches (the tape must be recompiled).
std::ptrdiff_t tape_phase(const SuperstepTape& tape, const CyclePlan& plan,
                          const std::vector<Dnode>& dnodes) noexcept;

/// Compile the live configuration + local-control programs into `plan`
/// (storage is reused across recompiles; the caller stamps the
/// invalidation key and `valid`).  Throws SimError on any route the
/// interpreter would reject at execution time — pre-validation must
/// not accept configurations the cycle-accurate path rejects.
void compile_cycle_plan(const RingGeometry& geom, const ConfigMemory& cfg,
                        const std::vector<Dnode>& dnodes, CyclePlan& plan);

}  // namespace sring
