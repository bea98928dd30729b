// RISC configuration controller (paper §3).
//
// A small sequential core with its own program memory whose job is to
// manage the configuration of the operating layer dynamically — it can
// rewrite individual configuration words (WRCFG/WRMODE/WRSW/WRLOC) or
// swap a full preloaded page per cycle (PAGE/PAGER) — and to move data
// between the host FIFOs, the shared bus and the ring.
//
// It executes exactly one instruction per clock cycle; INPOP on an
// empty host FIFO and WAIT stall it in place.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/host_fifo.hpp"
#include "core/config_memory.hpp"
#include "core/ring.hpp"
#include "isa/risc_instr.hpp"

namespace sring {

class Controller {
 public:
  Controller() = default;
  explicit Controller(std::vector<std::uint32_t> program);

  /// Replace the program and reset architectural state.
  void load_program(std::vector<std::uint32_t> program);
  /// The loaded program, as encoded words.
  const std::vector<std::uint32_t>& program() const noexcept {
    return program_;
  }

  /// Everything the controller can touch during one cycle.
  struct StepContext {
    ConfigMemory& cfg;
    Ring& ring;
    Word bus;                      ///< bus value at the start of the cycle
    HostFifo& host_in;
    std::vector<Word>& host_out;
    std::uint64_t cycle;           ///< global cycle counter (RDCYC)
  };

  /// Why a cycle stalled (observability; `kNone` when not stalled).
  enum class StallCause : std::uint8_t { kNone = 0, kInpop, kWait };

  struct StepResult {
    bool halted = false;          ///< controller is (now) halted
    bool stalled = false;         ///< instruction could not complete
    bool executed = false;        ///< an instruction completed this cycle
    StallCause stall_cause = StallCause::kNone;
    RiscOp op = RiscOp::kNop;     ///< opcode completed, when executed
    /// The decoded instruction completed, when executed (valid until
    /// the next load_program()).
    const RiscInstr* instr = nullptr;
    std::optional<Word> bus_drive;///< BUSW value, visible this cycle
  };

  /// Execute one cycle.  No-op once halted.
  StepResult step(const StepContext& ctx);

  bool halted() const noexcept { return halted_; }
  std::uint64_t pc() const noexcept { return pc_; }
  std::uint64_t instructions_executed() const noexcept {
    return instructions_; }

  // --- stall-cause instrumentation (observation only) ----------------
  std::uint64_t inpop_stall_cycles() const noexcept {
    return inpop_stalls_; }
  std::uint64_t wait_stall_cycles() const noexcept { return wait_stalls_; }
  std::uint64_t bus_writes() const noexcept { return bus_writes_; }

  // --- superstep support ---------------------------------------------
  /// Cycles left in an in-flight WAIT (0 when not waiting).  While
  /// waiting the controller is as inert as when halted, so the
  /// superstep engine may fuse up to this many ring cycles.
  std::uint64_t wait_cycles_remaining() const noexcept {
    return wait_remaining_; }

  /// Account `cycles` WAIT stall cycles at once, exactly as that many
  /// per-cycle step() calls would have.  Requires
  /// cycles <= wait_cycles_remaining().
  void skip_wait(std::uint64_t cycles);

  // --- loop-tape replay support (Ring::run_tape) -----------------------
  /// Process-unique identity of the loaded code, fresh on every
  /// load_program(): a recorded loop trace replays only under the code
  /// it was recorded from.
  std::uint64_t code_id() const noexcept { return code_id_; }
  /// The register file a replay runs the recorded instructions on.
  std::uint64_t* replay_registers() noexcept { return regs_.data(); }
  /// Account `instructions` replayed instructions, `bus_writes` of them
  /// BUSW, ending with the next instruction at `pc` — exactly what as
  /// many step() calls would have counted.
  void credit_replay(std::uint64_t pc, std::uint64_t instructions,
                     std::uint64_t bus_writes) noexcept {
    pc_ = pc;
    instructions_ += instructions;
    bus_writes_ += bus_writes;
  }

  std::uint64_t reg(std::size_t index) const;
  void set_reg(std::size_t index, std::uint64_t value);

  /// Reset PC/registers/halt state; keeps the loaded program.
  void reset();

 private:
  std::vector<std::uint32_t> program_;
  // Decode-once cache filled lazily at first execution of each word,
  // so a data word the PC never reaches still faults only if executed
  // (exactly the eager-decode-per-cycle timing), while steady-state
  // loops skip the field extraction entirely.
  std::vector<RiscInstr> decoded_;
  std::vector<std::uint8_t> decoded_valid_;
  std::array<std::uint64_t, kRiscRegCount> regs_{};
  std::uint64_t pc_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint32_t wait_remaining_ = 0;
  std::uint64_t inpop_stalls_ = 0;
  std::uint64_t wait_stalls_ = 0;
  std::uint64_t bus_writes_ = 0;
  std::uint64_t code_id_ = 0;
  bool halted_ = false;
};

}  // namespace sring
