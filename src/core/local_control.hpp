// Dnode local control unit ("stand-alone" mode).
//
// Paper §4.1: nine registers — eight microinstruction registers plus a
// LIMIT register — an up-to-8-state counter and an 8-to-1 multiplexer.
// Each cycle the counter addresses one of the eight instruction
// registers; after LIMIT it wraps to zero, so the Dnode loops over a
// private microprogram of 1..8 steps with no controller involvement.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"
#include "isa/dnode_instr.hpp"

namespace sring {

class LocalControl {
 public:
  /// Slot indices accepted by write(): 0..7 are the microinstruction
  /// registers, kLimitSlot sets LIMIT, kResetSlot resets the counter.
  static constexpr std::size_t kLimitSlot = 8;
  static constexpr std::size_t kResetSlot = 9;

  /// Write one local register.  For kLimitSlot the low 3 bits of
  /// `value` become LIMIT; for kResetSlot the counter is cleared.
  void write(std::size_t slot, std::uint64_t value);

  /// Microinstruction currently selected by the counter (pre-decoded
  /// at write time; the fetch path never re-decodes).
  const DnodeInstr& current() const;

  /// Microinstruction in a specific slot (0..kLocalProgramSlots-1).
  /// Lets the Ring fetch slot 0 for a mode-entry cycle without
  /// touching the counter, and the cycle-plan compiler snapshot the
  /// whole program.
  const DnodeInstr& instr_at(std::size_t slot) const;

  /// Advance the counter (clock edge while the Dnode runs in local
  /// mode): wraps to 0 after reaching LIMIT.
  void advance() noexcept;

  /// Advance the counter by `cycles` clock edges at once — the
  /// superstep engine's end-of-run fixup, equivalent to that many
  /// advance() calls.
  void advance_by(std::uint64_t cycles) noexcept {
    counter_ = static_cast<std::uint8_t>(
        (counter_ + cycles) % (static_cast<std::uint64_t>(limit_) + 1));
  }

  void reset_counter() noexcept { counter_ = 0; }

  std::uint8_t counter() const noexcept { return counter_; }
  std::uint8_t limit() const noexcept { return limit_; }

  /// Raw (encoded) microinstruction registers — with their immediates
  /// masked, the local half of the plan cache's structure key.
  /// Together with limit() this is the whole architectural content of
  /// the unit (the counter is runtime state, not content).
  const std::array<std::uint64_t, kLocalProgramSlots>& raw_slots()
      const noexcept {
    return slots_;
  }

 private:
  std::array<std::uint64_t, kLocalProgramSlots> slots_{};
  std::array<DnodeInstr, kLocalProgramSlots> decoded_{};
  std::uint8_t limit_ = 0;
  std::uint8_t counter_ = 0;
};

}  // namespace sring
