#include "ctrl/controller.hpp"

#include <atomic>

#include "common/error.hpp"

namespace sring {

Controller::Controller(std::vector<std::uint32_t> program) {
  load_program(std::move(program));
}

void Controller::load_program(std::vector<std::uint32_t> program) {
  program_ = std::move(program);
  decoded_.assign(program_.size(), RiscInstr{});
  decoded_valid_.assign(program_.size(), 0);
  static std::atomic<std::uint64_t> next_code_id{0};
  code_id_ = next_code_id.fetch_add(1, std::memory_order_relaxed) + 1;
  reset();
}

std::uint64_t Controller::reg(std::size_t index) const {
  check(index < kRiscRegCount, "Controller::reg: index out of range");
  return regs_[index];
}

void Controller::set_reg(std::size_t index, std::uint64_t value) {
  check(index < kRiscRegCount, "Controller::set_reg: index out of range");
  regs_[index] = value;
}

void Controller::reset() {
  regs_.fill(0);
  pc_ = 0;
  instructions_ = 0;
  wait_remaining_ = 0;
  inpop_stalls_ = 0;
  wait_stalls_ = 0;
  bus_writes_ = 0;
  halted_ = false;
}

void Controller::skip_wait(std::uint64_t cycles) {
  check(cycles <= wait_remaining_,
        "Controller::skip_wait: skipping past the end of the wait");
  wait_remaining_ -= static_cast<std::uint32_t>(cycles);
  wait_stalls_ += cycles;
}

Controller::StepResult Controller::step(const StepContext& ctx) {
  StepResult res;
  if (halted_) {
    res.halted = true;
    return res;
  }
  if (wait_remaining_ > 0) {
    --wait_remaining_;
    res.stalled = true;
    res.stall_cause = StallCause::kWait;
    ++wait_stalls_;
    return res;
  }
  check(pc_ < program_.size(),
        "Controller: PC ran past the end of program memory "
        "(missing HALT?)");

  if (!decoded_valid_[pc_]) {
    decoded_[pc_] = RiscInstr::decode(program_[pc_]);
    decoded_valid_[pc_] = 1;
  }
  const RiscInstr& instr = decoded_[pc_];
  const std::uint64_t a = regs_[instr.ra];
  const std::uint64_t b = regs_[instr.rb];
  std::uint64_t next_pc = pc_ + 1;

  switch (instr.op) {
    case RiscOp::kNop:
      break;
    case RiscOp::kHalt:
      halted_ = true;
      break;
    case RiscOp::kLdi:
    case RiscOp::kLdih:
    case RiscOp::kMov:
    case RiscOp::kAdd:
    case RiscOp::kSub:
    case RiscOp::kMul:
    case RiscOp::kAnd:
    case RiscOp::kOr:
    case RiscOp::kXor:
    case RiscOp::kShl:
    case RiscOp::kShr:
    case RiscOp::kAsr:
    case RiscOp::kAddi:
      regs_[instr.rd] = risc_alu(instr, regs_[instr.rd], a, b);
      break;
    case RiscOp::kBeq:
    case RiscOp::kBne:
    case RiscOp::kBlt:
    case RiscOp::kBge:
    case RiscOp::kJmp:
      if (risc_taken(instr.op, a, b)) {
        next_pc = pc_ + 1 + static_cast<std::int64_t>(instr.imm);
      }
      break;
    case RiscOp::kWrcfg:
      ctx.cfg.write_dnode_instr(static_cast<std::size_t>(a), b);
      break;
    case RiscOp::kWrmode:
      ctx.cfg.write_dnode_mode(
          static_cast<std::size_t>(a),
          (b & 1u) ? DnodeMode::kLocal : DnodeMode::kGlobal);
      break;
    case RiscOp::kWrloc:
      ctx.ring.write_local(static_cast<std::size_t>(a / 16),
                           static_cast<std::size_t>(a % 16), b);
      break;
    case RiscOp::kWrsw:
      // Address packing mirrors WRLOC: ra = switch * 16 + lane.
      ctx.cfg.write_switch_route(static_cast<std::size_t>(a) / 16,
                                 static_cast<std::size_t>(a) % 16, b);
      break;
    case RiscOp::kPage:
      ctx.cfg.apply_page(static_cast<std::size_t>(instr.imm));
      break;
    case RiscOp::kPager:
      ctx.cfg.apply_page(static_cast<std::size_t>(a));
      break;
    case RiscOp::kBusw:
      res.bus_drive = static_cast<Word>(a & 0xFFFFu);
      ++bus_writes_;
      break;
    case RiscOp::kRdbus:
      regs_[instr.rd] = ctx.bus;
      break;
    case RiscOp::kInpop:
      if (ctx.host_in.empty()) {
        res.stalled = true;
        res.stall_cause = StallCause::kInpop;
        ++inpop_stalls_;
        return res;  // PC holds; retry next cycle
      }
      regs_[instr.rd] = ctx.host_in.front();
      ctx.host_in.pop_front();
      break;
    case RiscOp::kOutpush:
      ctx.host_out.push_back(static_cast<Word>(a & 0xFFFFu));
      break;
    case RiscOp::kIncnt:
      regs_[instr.rd] = ctx.host_in.size();
      break;
    case RiscOp::kOutcnt:
      regs_[instr.rd] = ctx.host_out.size();
      break;
    case RiscOp::kRdcyc:
      regs_[instr.rd] = ctx.cycle;
      break;
    case RiscOp::kWait:
      if (instr.imm > 1) {
        wait_remaining_ = static_cast<std::uint32_t>(instr.imm) - 1;
      }
      break;
    case RiscOp::kOpCount:
      throw SimError("Controller: bad opcode");
  }

  pc_ = next_pc;
  ++instructions_;
  res.executed = true;
  res.op = instr.op;
  res.instr = &instr;
  res.halted = halted_;
  return res;
}

}  // namespace sring
