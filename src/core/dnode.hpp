// The Dnode (paper §4.1): the coarse-grained reconfigurable block.
//
// 16-bit ALU + hardwired multiplier (single-cycle MAC), a 4x16-bit
// register file with master-slave timing, a registered systolic output,
// and the local control unit for stand-alone mode.  One Dnode executes
// exactly one microinstruction per clock cycle.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "core/alu.hpp"
#include "core/local_control.hpp"
#include "core/register_file.hpp"
#include "isa/dnode_instr.hpp"

namespace sring {

class Dnode {
 public:
  /// Operand values resolved by the upstream switch for this cycle.
  struct Inputs {
    Word in1 = 0;
    Word in2 = 0;
    Word fifo1 = 0;
    Word fifo2 = 0;
    Word bus = 0;
    Word host = 0;  ///< word popped for a direct `host` operand source
  };

  /// What the instruction produced this cycle (register/output writes
  /// are staged internally; bus/host effects are the caller's job).
  struct Effects {
    bool executed = false;  ///< true for any op other than NOP
    Word result = 0;
    bool out_en = false;
    bool bus_en = false;
    bool host_en = false;
  };

  /// Evaluate `instr` with this cycle's inputs.  Register and output
  /// writes are staged; nothing is visible until commit().  Defined
  /// inline (with resolve/commit) so the ring's per-cycle and fused
  /// superstep loops inline the whole operand-resolve → ALU → stage
  /// chain without LTO.
  Effects execute(const DnodeInstr& instr, const Inputs& inputs) {
    Effects eff;
    if (instr.op == DnodeOp::kNop) return eff;

    const Word a = resolve(instr.src_a, instr, inputs);
    const Word b = op_uses_b(instr.op) ? resolve(instr.src_b, instr, inputs)
                                       : Word{0};
    const Word c = op_uses_c(instr.op) ? resolve(instr.src_c, instr, inputs)
                                       : Word{0};
    const Word result = alu_execute(instr.op, a, b, c);

    if (instr.dst != DnodeDst::kNone) {
      regs_.stage_write(dst_reg_index(instr.dst), result);
    }
    if (instr.out_en) {
      staged_out_ = result;
    }
    eff.executed = true;
    eff.result = result;
    eff.out_en = instr.out_en;
    eff.bus_en = instr.bus_en;
    eff.host_en = instr.host_en;
    return eff;
  }

  /// Clock edge: apply staged writes.  `advance_local` additionally
  /// steps the local control unit's counter (local-mode Dnodes).
  void commit(bool advance_local) {
    regs_.commit();
    if (staged_out_) {
      out_ = *staged_out_;
      staged_out_.reset();
    }
    if (advance_local) local_.advance();
  }

  /// Drop staged writes (ring stall: the cycle did not happen).
  void discard() noexcept;

  /// Registered systolic output as visible during the current cycle.
  Word out() const noexcept { return out_; }
  /// Directly set the output register (superstep write-back).
  void set_out(Word value) noexcept { out_ = value; }

  RegisterFile& regs() noexcept { return regs_; }
  const RegisterFile& regs() const noexcept { return regs_; }
  LocalControl& local() noexcept { return local_; }
  const LocalControl& local() const noexcept { return local_; }

  /// Clear the registers and the output; the local program stays.
  void reset_datapath();

 private:
  Word resolve(DnodeSrc src, const DnodeInstr& instr,
               const Inputs& inputs) const {
    switch (src) {
      case DnodeSrc::kZero:
        return 0;
      case DnodeSrc::kIn1:
        return inputs.in1;
      case DnodeSrc::kIn2:
        return inputs.in2;
      case DnodeSrc::kFifo1:
        return inputs.fifo1;
      case DnodeSrc::kFifo2:
        return inputs.fifo2;
      case DnodeSrc::kBus:
        return inputs.bus;
      case DnodeSrc::kHost:
        return inputs.host;
      case DnodeSrc::kImm:
        return instr.imm;
      case DnodeSrc::kR0:
        return regs_.read(0);
      case DnodeSrc::kR1:
        return regs_.read(1);
      case DnodeSrc::kR2:
        return regs_.read(2);
      case DnodeSrc::kR3:
        return regs_.read(3);
      case DnodeSrc::kSrcCount:
        break;
    }
    raise_sim_error("Dnode::resolve: bad operand source");
  }

  RegisterFile regs_;
  LocalControl local_;
  Word out_ = 0;
  std::optional<Word> staged_out_;
};

}  // namespace sring
