#include "core/dnode.hpp"

namespace sring {

void Dnode::discard() noexcept {
  regs_.discard();
  staged_out_.reset();
}

void Dnode::reset_datapath() {
  regs_ = RegisterFile{};
  out_ = 0;
  staged_out_.reset();
}

}  // namespace sring
