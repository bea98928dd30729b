// Instruction set of the RISC configuration controller.
//
// The paper specifies a "custom RISC core with a dedicated instruction
// set" able to rewrite up to the entire configuration memory each
// clock cycle; it does not publish the encoding.  Ours:
//
//   32-bit fixed-width instructions; the opcode always sits in bits
//   26..31 and the remaining fields are placed per operand format
//   (three register slots FA = bits 22..25, FB = bits 18..21,
//   FC = bits 14..17, and a 16-bit immediate in bits 0..15):
//
//     kRdImm    rd=FA, imm          kRaRbImm  ra=FA, rb=FB, imm
//     kRdRa     rd=FA, ra=FB        kImm      imm
//     kRdRaRb   rd=FA, ra=FB, rb=FC kRa       ra=FA
//     kRdRaImm  rd=FA, ra=FB, imm   kRd       rd=FA
//     kRaRb     ra=FA, rb=FB        kNone     (no operands)
//
//   Fields a format does not use are zero in the encoding, so
//   encode() canonicalizes and decode(encode(x)) == canonical(x).
//
//   16 general-purpose 64-bit registers r0..r15 (64-bit so that a full
//   48-bit Dnode microinstruction or 64-bit switch route fits in one
//   register), a program counter, and a cycle counter.
//
// The "entire configuration in one cycle" capability is realized by
// PAGE/PAGER, which apply a preloaded full-configuration page (all
// Dnode microinstructions, modes and switch routes) atomically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sring {

inline constexpr std::size_t kRiscRegCount = 16;

/// Controller opcode.  rd/ra/rb are register indices, `imm` the 16-bit
/// immediate field.
enum class RiscOp : std::uint8_t {
  kNop = 0,
  kHalt,     ///< stop the controller (the ring keeps cycling)
  kLdi,      ///< rd = sign_extend(imm)
  kLdih,     ///< rd = (rd << 16) | uimm   (builds wide constants)
  kMov,      ///< rd = ra
  kAdd,      ///< rd = ra + rb
  kSub,      ///< rd = ra - rb
  kMul,      ///< rd = ra * rb
  kAnd,      ///< rd = ra & rb
  kOr,       ///< rd = ra | rb
  kXor,      ///< rd = ra ^ rb
  kShl,      ///< rd = ra << (rb & 63)
  kShr,      ///< rd = ra >> (rb & 63)  logical
  kAsr,      ///< rd = ra >> (rb & 63)  arithmetic
  kAddi,     ///< rd = ra + sign_extend(imm)
  kBeq,      ///< if (ra == rb) pc += 1 + imm
  kBne,      ///< if (ra != rb) pc += 1 + imm
  kBlt,      ///< if (ra < rb) signed, pc += 1 + imm
  kBge,      ///< if (ra >= rb) signed, pc += 1 + imm
  kJmp,      ///< pc += 1 + imm
  kWrcfg,    ///< config.dnode_instr[ra] = rb  (48-bit microinstruction)
  kWrmode,   ///< config.dnode_mode[ra] = rb   (0 global, 1 local)
  kWrloc,    ///< dnode[ra / 16].local[ra % 16] = rb (slots 0..7 program,
             ///<   8 = LIMIT, 9 = counter reset; see LocalControl)
  kWrsw,     ///< switch route: ra = switch*16 + lane, rb = packed route
  kPage,     ///< apply configuration page `uimm` atomically
  kPager,    ///< apply configuration page `ra` atomically
  kBusw,     ///< drive the shared bus with low 16 bits of ra
  kRdbus,    ///< rd = current bus value (zero-extended)
  kInpop,    ///< rd = pop host input FIFO (stalls while empty)
  kOutpush,  ///< push low 16 bits of ra into the host output FIFO
  kIncnt,    ///< rd = number of words waiting in the host input FIFO
  kOutcnt,   ///< rd = number of words in the host output FIFO
  kRdcyc,    ///< rd = current cycle counter
  kWait,     ///< stall for uimm cycles
  kOpCount,
};

/// Decoded controller instruction.
struct RiscInstr {
  RiscOp op = RiscOp::kNop;
  std::uint8_t rd = 0;
  std::uint8_t ra = 0;
  std::uint8_t rb = 0;
  std::int32_t imm = 0;  ///< signed value of the 16-bit immediate field

  bool operator==(const RiscInstr&) const = default;

  std::uint32_t encode() const;
  static RiscInstr decode(std::uint32_t word);
  std::string to_string() const;
};

/// Operand shape of an opcode, used by the assembler and printer.
enum class RiscFormat : std::uint8_t {
  kNone,      ///< nop, halt
  kRdImm,     ///< ldi/ldih rd, imm
  kRdRa,      ///< mov/rdbus... rd, ra
  kRdRaRb,    ///< add rd, ra, rb
  kRdRaImm,   ///< addi rd, ra, imm
  kRaRbImm,   ///< beq ra, rb, imm(label)
  kImm,       ///< jmp imm(label), page imm, wait imm
  kRa,        ///< busw/outpush/pager ra
  kRd,        ///< rd-only: rdbus/inpop/incnt/outcnt/rdcyc rd
  kRaRb,      ///< wrcfg/wrmode/wrloc/wrsw ra, rb
};

RiscFormat format_of(RiscOp op) noexcept;

/// True for branch/jump ops whose immediate is a pc-relative offset
/// (the assembler lets these take label operands).
bool is_branch(RiscOp op) noexcept;

/// The value a register-writing ALU instruction (LDI through ASR, and
/// ADDI) leaves in rd, given rd's old value and the values of ra and
/// rb: the one definition the controller and the loop-tape replay
/// share.
constexpr std::uint64_t risc_alu(const RiscInstr& in, std::uint64_t rd,
                                 std::uint64_t a, std::uint64_t b) noexcept {
  const auto simm =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm));
  switch (in.op) {
    case RiscOp::kLdi:
      return simm;
    case RiscOp::kLdih:
      return (rd << 16) | (static_cast<std::uint64_t>(in.imm) & 0xFFFFu);
    case RiscOp::kMov:
      return a;
    case RiscOp::kAdd:
      return a + b;
    case RiscOp::kSub:
      return a - b;
    case RiscOp::kMul:
      return a * b;
    case RiscOp::kAnd:
      return a & b;
    case RiscOp::kOr:
      return a | b;
    case RiscOp::kXor:
      return a ^ b;
    case RiscOp::kShl:
      return a << (b & 63u);
    case RiscOp::kShr:
      return a >> (b & 63u);
    case RiscOp::kAsr:
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >>
                                        (b & 63u));
    case RiscOp::kAddi:
      return a + simm;
    default:
      return rd;
  }
}

/// Whether branch `op` (BEQ, BNE, BLT, BGE; JMP always) is taken with
/// ra = a and rb = b.
constexpr bool risc_taken(RiscOp op, std::uint64_t a,
                          std::uint64_t b) noexcept {
  switch (op) {
    case RiscOp::kBeq:
      return a == b;
    case RiscOp::kBne:
      return a != b;
    case RiscOp::kBlt:
      return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
    case RiscOp::kBge:
      return static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b);
    default:
      return op == RiscOp::kJmp;
  }
}

std::string_view to_mnemonic(RiscOp op) noexcept;
std::optional<RiscOp> parse_risc_op(std::string_view text) noexcept;

}  // namespace sring
