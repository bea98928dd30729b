#include "asm/program_builder.hpp"

#include "common/bits.hpp"
#include "common/error.hpp"
#include "core/local_control.hpp"

namespace sring {

PageBuilder::PageBuilder(const RingGeometry& g)
    : geom_(g), page_(ConfigPage::zeroed(g)) {
  geom_.validate();
}

std::size_t PageBuilder::flat(std::size_t layer, std::size_t lane) const {
  check(layer < geom_.layers && lane < geom_.lanes,
        "PageBuilder: dnode coordinate out of range");
  return layer * geom_.lanes + lane;
}

PageBuilder& PageBuilder::instr(std::size_t layer, std::size_t lane,
                                const DnodeInstr& instruction) {
  page_.dnode_instr[flat(layer, lane)] = instruction.encode();
  return *this;
}

PageBuilder& PageBuilder::mode(std::size_t layer, std::size_t lane,
                               DnodeMode m) {
  page_.dnode_mode[flat(layer, lane)] = static_cast<std::uint8_t>(m);
  return *this;
}

PageBuilder& PageBuilder::route(std::size_t sw, std::size_t lane,
                                const SwitchRoute& r) {
  check(sw < geom_.switch_count() && lane < geom_.lanes,
        "PageBuilder: switch coordinate out of range");
  page_.switch_route[sw * geom_.lanes + lane] = r.encode();
  return *this;
}

ProgramBuilder::ProgramBuilder(const RingGeometry& g, std::string name)
    : geom_(g), name_(std::move(name)) {
  geom_.validate();
}

ProgramBuilder& ProgramBuilder::emit(const RiscInstr& instruction) {
  code_.push_back(instruction);
  return *this;
}

ProgramBuilder& ProgramBuilder::label(const std::string& name) {
  check(labels_.count(name) == 0,
        "ProgramBuilder: duplicate label " + name);
  labels_[name] = code_.size();
  return *this;
}

ProgramBuilder& ProgramBuilder::nop() {
  return emit({RiscOp::kNop, 0, 0, 0, 0});
}

ProgramBuilder& ProgramBuilder::halt() {
  return emit({RiscOp::kHalt, 0, 0, 0, 0});
}

ProgramBuilder& ProgramBuilder::ldi(std::uint8_t rd, std::int32_t imm16) {
  check(fits_signed(imm16, 16), "ProgramBuilder::ldi: immediate too wide");
  return emit({RiscOp::kLdi, rd, 0, 0, imm16});
}

ProgramBuilder& ProgramBuilder::set_reg(std::uint8_t rd,
                                        std::uint64_t value) {
  // Shortest LDI / LDI+LDIH... chain: emit the top 16-bit chunk with a
  // sign-extending LDI, then shift in lower chunks.
  if (fits_signed(static_cast<std::int64_t>(value), 16)) {
    return ldi(rd, static_cast<std::int32_t>(static_cast<std::int64_t>(value)));
  }
  int top = 3;
  while (top > 0 && extract_bits(value, 16 * top, 16) == 0) --top;
  // The first chunk must not sign-extend into ones, so if its MSB is
  // set start one chunk higher (LDI 0 then LDIH it in).
  std::int64_t first =
      sign_extend(extract_bits(value, 16 * top, 16), 16);
  if (first < 0 && top < 3) {
    ++top;
    first = 0;
  }
  // A negative top chunk is only kept when it occupies bits 48..63;
  // the LDIH shifts then push the sign-extension bits off the top.
  emit({RiscOp::kLdi, rd, 0, 0, static_cast<std::int32_t>(first)});
  for (int chunk = top - 1; chunk >= 0; --chunk) {
    emit({RiscOp::kLdih, rd, 0, 0,
          static_cast<std::int32_t>(extract_bits(value, 16 * chunk, 16))});
  }
  return *this;
}

ProgramBuilder& ProgramBuilder::mov(std::uint8_t rd, std::uint8_t ra) {
  return emit({RiscOp::kMov, rd, ra, 0, 0});
}

ProgramBuilder& ProgramBuilder::addi(std::uint8_t rd, std::uint8_t ra,
                                     std::int32_t imm) {
  return emit({RiscOp::kAddi, rd, ra, 0, imm});
}

ProgramBuilder& ProgramBuilder::alu(RiscOp op, std::uint8_t rd,
                                    std::uint8_t ra, std::uint8_t rb) {
  check(format_of(op) == RiscFormat::kRdRaRb,
        "ProgramBuilder::alu: not a three-register op");
  return emit({op, rd, ra, rb, 0});
}

ProgramBuilder& ProgramBuilder::branch(RiscOp op, std::uint8_t ra,
                                       std::uint8_t rb,
                                       const std::string& label) {
  check(format_of(op) == RiscFormat::kRaRbImm,
        "ProgramBuilder::branch: not a compare-branch op");
  fixups_.push_back({code_.size(), label});
  return emit({op, 0, ra, rb, 0});
}

ProgramBuilder& ProgramBuilder::jmp(const std::string& label) {
  fixups_.push_back({code_.size(), label});
  return emit({RiscOp::kJmp, 0, 0, 0, 0});
}

ProgramBuilder& ProgramBuilder::page_switch(std::size_t page_index) {
  check(fits_unsigned(page_index, 16),
        "ProgramBuilder::page_switch: page index too large");
  return emit({RiscOp::kPage, 0, 0, 0,
               static_cast<std::int32_t>(page_index)});
}

ProgramBuilder& ProgramBuilder::wait(std::uint32_t cycles) {
  check(fits_unsigned(cycles, 16), "ProgramBuilder::wait: too long");
  return emit({RiscOp::kWait, 0, 0, 0, static_cast<std::int32_t>(cycles)});
}

ProgramBuilder& ProgramBuilder::inpop(std::uint8_t rd) {
  return emit({RiscOp::kInpop, rd, 0, 0, 0});
}

ProgramBuilder& ProgramBuilder::outpush(std::uint8_t ra) {
  return emit({RiscOp::kOutpush, 0, ra, 0, 0});
}

ProgramBuilder& ProgramBuilder::busw(std::uint8_t ra) {
  return emit({RiscOp::kBusw, 0, ra, 0, 0});
}

ProgramBuilder& ProgramBuilder::wrcfg(std::size_t dnode,
                                      const DnodeInstr& instruction) {
  set_reg(kScratchA, dnode);
  set_reg(kScratchB, instruction.encode());
  return emit({RiscOp::kWrcfg, 0, kScratchA, kScratchB, 0});
}

ProgramBuilder& ProgramBuilder::wrmode(std::size_t dnode, DnodeMode mode) {
  set_reg(kScratchA, dnode);
  set_reg(kScratchB, static_cast<std::uint64_t>(mode));
  return emit({RiscOp::kWrmode, 0, kScratchA, kScratchB, 0});
}

ProgramBuilder& ProgramBuilder::wrloc(std::size_t dnode, std::size_t slot,
                                      std::uint64_t value) {
  check(slot <= LocalControl::kResetSlot,
        "ProgramBuilder::wrloc: bad slot");
  set_reg(kScratchA, dnode * 16 + slot);
  set_reg(kScratchB, value);
  return emit({RiscOp::kWrloc, 0, kScratchA, kScratchB, 0});
}

ProgramBuilder& ProgramBuilder::wrsw(std::size_t sw, std::size_t lane,
                                     const SwitchRoute& route) {
  check(sw < geom_.switch_count() && lane < geom_.lanes,
        "ProgramBuilder::wrsw: switch coordinate out of range");
  set_reg(kScratchA, sw * 16 + lane);
  set_reg(kScratchB, route.encode());
  return emit({RiscOp::kWrsw, 0, kScratchA, kScratchB, 0});
}

std::size_t ProgramBuilder::add_page(ConfigPage page) {
  pages_.push_back(std::move(page));
  return pages_.size() - 1;
}

ProgramBuilder& ProgramBuilder::local_init(std::size_t dnode,
                                           std::size_t slot,
                                           std::uint64_t value) {
  check(dnode < geom_.dnode_count(),
        "ProgramBuilder::local_init: dnode out of range");
  check(slot <= LocalControl::kResetSlot,
        "ProgramBuilder::local_init: bad slot");
  local_init_.push_back({static_cast<std::uint32_t>(dnode),
                         static_cast<std::uint8_t>(slot), value});
  return *this;
}

ProgramBuilder& ProgramBuilder::local_program(
    std::size_t dnode, const std::vector<DnodeInstr>& instrs) {
  check(!instrs.empty() && instrs.size() <= kLocalProgramSlots,
        "ProgramBuilder::local_program: 1..8 instructions required");
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    local_init(dnode, i, instrs[i].encode());
  }
  local_init(dnode, LocalControl::kLimitSlot, instrs.size() - 1);
  return *this;
}

LoadableProgram ProgramBuilder::build() const& {
  return ProgramBuilder(*this).build();
}

LoadableProgram ProgramBuilder::build() && {
  for (const auto& fix : fixups_) {
    const auto it = labels_.find(fix.label);
    check(it != labels_.end(),
          "ProgramBuilder: undefined label " + fix.label);
    const std::int64_t offset =
        static_cast<std::int64_t>(it->second) -
        (static_cast<std::int64_t>(fix.index) + 1);
    check(fits_signed(offset, 16),
          "ProgramBuilder: branch target out of range");
    code_[fix.index].imm = static_cast<std::int32_t>(offset);
  }
  LoadableProgram p;
  p.name = std::move(name_);
  p.geometry = geom_;
  p.controller_code.reserve(code_.size());
  for (const auto& instr : code_) {
    p.controller_code.push_back(instr.encode());
  }
  p.pages = std::move(pages_);
  p.local_init = std::move(local_init_);
  return p;
}

}  // namespace sring
