// Programmatic construction of loadable programs.
//
// The kernel generators (src/kernels) use this instead of emitting
// assembly text: a PageBuilder composes configuration pages, and the
// ProgramBuilder emits controller code with label fixups and 64-bit
// constant materialization.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/config_memory.hpp"
#include "isa/risc_instr.hpp"
#include "sim/program.hpp"

namespace sring {

/// Composes one configuration page for a given geometry.
class PageBuilder {
 public:
  explicit PageBuilder(const RingGeometry& g);

  PageBuilder& instr(std::size_t layer, std::size_t lane,
                     const DnodeInstr& instruction);
  PageBuilder& mode(std::size_t layer, std::size_t lane, DnodeMode m);
  PageBuilder& route(std::size_t sw, std::size_t lane,
                     const SwitchRoute& r);

  const ConfigPage& page() const noexcept { return page_; }
  ConfigPage build() const& { return page_; }
  ConfigPage build() && { return std::move(page_); }

 private:
  std::size_t flat(std::size_t layer, std::size_t lane) const;

  RingGeometry geom_;
  ConfigPage page_;
};

/// Emits controller code and assembles the full loadable program.
class ProgramBuilder {
 public:
  ProgramBuilder(const RingGeometry& g, std::string name);

  /// Scratch registers used by the convenience emitters below; user
  /// code should avoid them.
  static constexpr std::uint8_t kScratchA = 14;
  static constexpr std::uint8_t kScratchB = 15;

  // --- raw emission ------------------------------------------------------
  ProgramBuilder& emit(const RiscInstr& instruction);
  ProgramBuilder& label(const std::string& name);

  // --- plain instruction helpers ------------------------------------------
  ProgramBuilder& nop();
  ProgramBuilder& halt();
  ProgramBuilder& ldi(std::uint8_t rd, std::int32_t imm16);
  /// Materialize an arbitrary 64-bit constant (LDI + LDIH chain).
  ProgramBuilder& set_reg(std::uint8_t rd, std::uint64_t value);
  ProgramBuilder& mov(std::uint8_t rd, std::uint8_t ra);
  ProgramBuilder& addi(std::uint8_t rd, std::uint8_t ra, std::int32_t imm);
  ProgramBuilder& alu(RiscOp op, std::uint8_t rd, std::uint8_t ra,
                      std::uint8_t rb);
  ProgramBuilder& branch(RiscOp op, std::uint8_t ra, std::uint8_t rb,
                         const std::string& label);
  ProgramBuilder& jmp(const std::string& label);
  ProgramBuilder& page_switch(std::size_t page_index);
  ProgramBuilder& wait(std::uint32_t cycles);
  ProgramBuilder& inpop(std::uint8_t rd);
  ProgramBuilder& outpush(std::uint8_t ra);
  ProgramBuilder& busw(std::uint8_t ra);

  // --- configuration-write helpers (use the scratch registers) -------------
  ProgramBuilder& wrcfg(std::size_t dnode, const DnodeInstr& instruction);
  ProgramBuilder& wrmode(std::size_t dnode, DnodeMode mode);
  ProgramBuilder& wrloc(std::size_t dnode, std::size_t slot,
                        std::uint64_t value);
  ProgramBuilder& wrsw(std::size_t sw, std::size_t lane,
                       const SwitchRoute& route);

  // --- program assembly -----------------------------------------------------
  /// Register a configuration page (moved in); returns its index.
  std::size_t add_page(ConfigPage page);
  std::size_t add_page(PageBuilder pb) {
    return add_page(std::move(pb).build());
  }

  /// Preload a local-control register at load time.
  ProgramBuilder& local_init(std::size_t dnode, std::size_t slot,
                             std::uint64_t value);
  /// Preload a whole local microprogram (slots 0..n-1 plus LIMIT).
  ProgramBuilder& local_program(std::size_t dnode,
                                const std::vector<DnodeInstr>& instrs);

  /// Resolve labels and produce the program; throws SimError on an
  /// undefined label.  The rvalue form moves the pages and code out
  /// instead of copying them.
  LoadableProgram build() const&;
  LoadableProgram build() &&;

 private:
  RingGeometry geom_;
  std::string name_;
  std::vector<RiscInstr> code_;
  std::map<std::string, std::size_t> labels_;
  struct Fixup {
    std::size_t index;
    std::string label;
  };
  std::vector<Fixup> fixups_;
  std::vector<ConfigPage> pages_;
  std::vector<LocalWrite> local_init_;
};

}  // namespace sring
