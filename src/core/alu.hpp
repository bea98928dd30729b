// Combinational Dnode datapath: 16-bit ALU + hardwired multiplier.
//
// The multiplier and the adder can be chained in the same cycle (MAC /
// MSU), which is the paper's "up to two arithmetic operations each
// clock cycle".
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"
#include "isa/dnode_instr.hpp"

namespace sring {

/// Evaluate one Dnode operation.  Pure combinational function: signed
/// two's-complement semantics, results wrap to 16 bits except for the
/// saturating variants (kAdds/kSubs).  The operands are fetched on
/// demand: `get_a`, `get_b` and `get_c` run only for the ones `op`
/// reads.  Always inlined: this is the innermost call of every executed
/// Dnode cycle and must fold into the ring's fused loop, which GCC's
/// size heuristics otherwise leave to a call per micro-op.
template <typename GetA, typename GetB, typename GetC>
[[gnu::always_inline]] inline Word alu_apply(DnodeOp op, GetA get_a,
                                             GetB get_b, GetC get_c) noexcept {
  const auto sa = [&] { return as_signed(get_a()); };
  const auto sb = [&] { return as_signed(get_b()); };
  const auto sc = [&] { return as_signed(get_c()); };
  switch (op) {
    case DnodeOp::kNop:
      return 0;
    case DnodeOp::kPass:
      return get_a();
    case DnodeOp::kAdd:
      return to_word(sa() + sb());
    case DnodeOp::kSub:
      return to_word(sa() - sb());
    case DnodeOp::kRsub:
      return to_word(sb() - sa());
    case DnodeOp::kAdds:
      return to_word_saturated(sa() + sb());
    case DnodeOp::kSubs:
      return to_word_saturated(sa() - sb());
    case DnodeOp::kMul:
      return to_word(static_cast<std::int64_t>(sa()) * sb());
    case DnodeOp::kMulh:
      return to_word((static_cast<std::int64_t>(sa()) * sb()) >> 16);
    case DnodeOp::kMac:
      return to_word(static_cast<std::int64_t>(sa()) * sb() + sc());
    case DnodeOp::kMsu:
      return to_word(sc() - static_cast<std::int64_t>(sa()) * sb());
    case DnodeOp::kAnd:
      return static_cast<Word>(get_a() & get_b());
    case DnodeOp::kOr:
      return static_cast<Word>(get_a() | get_b());
    case DnodeOp::kXor:
      return static_cast<Word>(get_a() ^ get_b());
    case DnodeOp::kNot:
      return static_cast<Word>(~get_a());
    case DnodeOp::kShl:
      return to_word(static_cast<std::int64_t>(get_a()) << (get_b() & 15u));
    case DnodeOp::kShr:
      return static_cast<Word>(get_a() >> (get_b() & 15u));
    case DnodeOp::kAsr:
      return to_word(sa() >> (get_b() & 15u));
    case DnodeOp::kAbs: {
      const std::int32_t a = sa();
      return to_word(a < 0 ? -a : a);  // |-32768| wraps to -32768
    }
    case DnodeOp::kAbsdiff: {
      const std::int32_t a = sa();
      const std::int32_t b = sb();
      return to_word(a >= b ? a - b : b - a);
    }
    case DnodeOp::kMin:
      return to_word(std::min(sa(), sb()));
    case DnodeOp::kMax:
      return to_word(std::max(sa(), sb()));
    case DnodeOp::kCmpeq:
      return get_a() == get_b() ? 1u : 0u;
    case DnodeOp::kCmplt:
      return sa() < sb() ? 1u : 0u;
    case DnodeOp::kSelect:
      return get_a() != 0 ? get_b() : get_c();
    case DnodeOp::kOpCount:
      break;
  }
  return 0;
}

/// alu_apply() over operand values.
inline Word alu_execute(DnodeOp op, Word a, Word b, Word c) noexcept {
  return alu_apply(op, [a] { return a; }, [b] { return b; },
                   [c] { return c; });
}

}  // namespace sring
