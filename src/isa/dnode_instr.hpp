// Dnode microinstruction format.
//
// The paper specifies the Dnode datapath (16-bit ALU + hardwired
// multiplier, MAC in one cycle, 4x16 register file, master-slave
// registers) but not an encoding.  We define a 48-bit microinstruction
// packed into a uint64_t:
//
//   bits  0..5   opcode
//   bits  6..9   srcA
//   bits 10..13  srcB
//   bits 14..17  srcC        (third operand: MAC/MSU accumulator, SELECT)
//   bits 18..20  dst         (R0..R3 or NONE)
//   bit  21      outEn       (drive the systolic output register)
//   bit  22      busEn       (drive the shared bus next cycle)
//   bit  23      hostEn      (push the result into the host output FIFO)
//   bits 24..39  imm16       (value of the IMM operand source)
//
// All operations complete in a single clock cycle, including MAC
// (multiplier and adder chained combinationally), reproducing the
// paper's "up to two arithmetic operations each clock cycle".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sring {

/// Dnode ALU/multiplier operation.  Signed two's-complement semantics;
/// results wrap to 16 bits unless the op is a saturating variant.
enum class DnodeOp : std::uint8_t {
  kNop = 0,   ///< no operation; produces 0, writes nothing
  kPass,      ///< result = A
  kAdd,       ///< result = A + B
  kSub,       ///< result = A - B
  kRsub,      ///< result = B - A
  kAdds,      ///< result = saturate(A + B)
  kSubs,      ///< result = saturate(A - B)
  kMul,       ///< result = low 16 bits of A * B
  kMulh,      ///< result = high 16 bits of the 32-bit signed product
  kMac,       ///< result = A * B + C   (single-cycle multiply-accumulate)
  kMsu,       ///< result = C - A * B
  kAnd,       ///< result = A & B
  kOr,        ///< result = A | B
  kXor,       ///< result = A ^ B
  kNot,       ///< result = ~A
  kShl,       ///< result = A << (B & 15)
  kShr,       ///< result = logical A >> (B & 15)
  kAsr,       ///< result = arithmetic A >> (B & 15)
  kAbs,       ///< result = |A|  (|-32768| wraps to -32768)
  kAbsdiff,   ///< result = |A - B|   (the SAD primitive)
  kMin,       ///< result = min(A, B) signed
  kMax,       ///< result = max(A, B) signed
  kCmpeq,     ///< result = (A == B) ? 1 : 0
  kCmplt,     ///< result = (A < B) ? 1 : 0 signed
  kSelect,    ///< result = (A != 0) ? B : C
  kOpCount,
};

/// Operand source of a Dnode microinstruction (paper fig. 3: "In(1,2),
/// fifo(1,2), bus, Rp(i,j)"; we add ZERO, HOST and an immediate).
enum class DnodeSrc : std::uint8_t {
  kZero = 0,  ///< constant 0
  kIn1,       ///< first input routed by the upstream switch
  kIn2,       ///< second input routed by the upstream switch
  kFifo1,     ///< first feedback-pipeline read routed by the switch
  kFifo2,     ///< second feedback-pipeline read routed by the switch
  kBus,       ///< shared bus (controller <-> Dnodes)
  kHost,      ///< host input port (pops the host input FIFO)
  kImm,       ///< the microinstruction's 16-bit immediate
  kR0,        ///< register file entry 0
  kR1,
  kR2,
  kR3,
  kSrcCount,
};

/// Result destination inside the Dnode.  kNone is zero so that the
/// all-zero microinstruction word is the canonical NOP.
enum class DnodeDst : std::uint8_t {
  kNone = 0,  ///< result not written to the register file
  kR0,
  kR1,
  kR2,
  kR3,
  kDstCount,
};

/// Register-file index of a destination (dst must not be kNone).
inline std::size_t dst_reg_index(DnodeDst dst) {
  check(dst != DnodeDst::kNone && dst != DnodeDst::kDstCount,
        "dst_reg_index: not a register destination");
  return static_cast<std::size_t>(dst) - 1;
}

/// Decoded Dnode microinstruction.
struct DnodeInstr {
  DnodeOp op = DnodeOp::kNop;
  DnodeSrc src_a = DnodeSrc::kZero;
  DnodeSrc src_b = DnodeSrc::kZero;
  DnodeSrc src_c = DnodeSrc::kZero;
  DnodeDst dst = DnodeDst::kNone;
  bool out_en = false;
  bool bus_en = false;
  bool host_en = false;
  Word imm = 0;

  bool operator==(const DnodeInstr&) const = default;

  /// Pack into the canonical 48-bit encoding.
  std::uint64_t encode() const noexcept;

  /// Unpack; throws SimError on a malformed word (bad enum field).
  static DnodeInstr decode(std::uint64_t word);

  /// Human-readable one-line form, e.g. "mac r0, in1, in2, r0 out".
  std::string to_string() const;
};

/// The imm16 field (bits 24..39) of an encoded microinstruction.  A
/// word with this field cleared is the instruction's *structure*: the
/// Ring keys its cycle plans by structure and reads immediates live.
inline constexpr std::uint64_t kImmFieldMask = std::uint64_t{0xFFFF} << 24;

/// True if the operation reads its B (respectively C) operand.
/// Inline constexpr: queried per operand per executed Dnode per cycle,
/// and must constant-fold inside the ring's fused superstep loop.
constexpr bool op_uses_b(DnodeOp op) noexcept {
  switch (op) {
    case DnodeOp::kNop:
    case DnodeOp::kPass:
    case DnodeOp::kNot:
    case DnodeOp::kAbs:
      return false;
    default:
      return true;
  }
}

constexpr bool op_uses_c(DnodeOp op) noexcept {
  switch (op) {
    case DnodeOp::kMac:
    case DnodeOp::kMsu:
    case DnodeOp::kSelect:
      return true;
    default:
      return false;
  }
}

/// True if `instr` reads the given operand source anywhere (A, or B/C
/// when the operation consumes them).  NOP reads nothing.
constexpr bool instr_reads(const DnodeInstr& instr, DnodeSrc src) noexcept {
  if (instr.op == DnodeOp::kNop) return false;
  if (instr.src_a == src) return true;
  if (op_uses_b(instr.op) && instr.src_b == src) return true;
  if (op_uses_c(instr.op) && instr.src_c == src) return true;
  return false;
}

/// Lower-case mnemonic ("mac"); stable, used by assembler and traces.
std::string_view to_mnemonic(DnodeOp op) noexcept;
std::string_view to_mnemonic(DnodeSrc src) noexcept;
std::string_view to_mnemonic(DnodeDst dst) noexcept;

/// Parse a mnemonic; empty optional if unknown.
std::optional<DnodeOp> parse_dnode_op(std::string_view text) noexcept;
std::optional<DnodeSrc> parse_dnode_src(std::string_view text) noexcept;
std::optional<DnodeDst> parse_dnode_dst(std::string_view text) noexcept;

}  // namespace sring
