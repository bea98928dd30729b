#include "isa/dnode_instr.hpp"

#include <array>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace sring {

namespace {

struct Field {
  unsigned lsb;
  unsigned width;
};

constexpr Field kOpField{0, 6};
constexpr Field kSrcAField{6, 4};
constexpr Field kSrcBField{10, 4};
constexpr Field kSrcCField{14, 4};
constexpr Field kDstField{18, 3};
constexpr Field kOutEnField{21, 1};
constexpr Field kBusEnField{22, 1};
constexpr Field kHostEnField{23, 1};
constexpr Field kImmField{24, 16};
static_assert(kImmFieldMask == ((std::uint64_t{1} << kImmField.width) - 1)
                                   << kImmField.lsb);

constexpr std::array<std::string_view,
                     static_cast<std::size_t>(DnodeOp::kOpCount)>
    kOpNames = {"nop",  "pass", "add",  "sub",    "rsub",  "adds", "subs",
                "mul",  "mulh", "mac",  "msu",    "and",   "or",   "xor",
                "not",  "shl",  "shr",  "asr",    "abs",   "absdiff",
                "min",  "max",  "cmpeq", "cmplt", "select"};

constexpr std::array<std::string_view,
                     static_cast<std::size_t>(DnodeSrc::kSrcCount)>
    kSrcNames = {"zero", "in1", "in2", "fifo1", "fifo2", "bus",
                 "host", "imm", "r0",  "r1",    "r2",    "r3"};

constexpr std::array<std::string_view,
                     static_cast<std::size_t>(DnodeDst::kDstCount)>
    kDstNames = {"none", "r0", "r1", "r2", "r3"};

}  // namespace

std::uint64_t DnodeInstr::encode() const noexcept {
  std::uint64_t w = 0;
  w = deposit_bits(w, kOpField.lsb, kOpField.width,
                   static_cast<std::uint64_t>(op));
  w = deposit_bits(w, kSrcAField.lsb, kSrcAField.width,
                   static_cast<std::uint64_t>(src_a));
  w = deposit_bits(w, kSrcBField.lsb, kSrcBField.width,
                   static_cast<std::uint64_t>(src_b));
  w = deposit_bits(w, kSrcCField.lsb, kSrcCField.width,
                   static_cast<std::uint64_t>(src_c));
  w = deposit_bits(w, kDstField.lsb, kDstField.width,
                   static_cast<std::uint64_t>(dst));
  w = deposit_bits(w, kOutEnField.lsb, kOutEnField.width, out_en ? 1 : 0);
  w = deposit_bits(w, kBusEnField.lsb, kBusEnField.width, bus_en ? 1 : 0);
  w = deposit_bits(w, kHostEnField.lsb, kHostEnField.width, host_en ? 1 : 0);
  w = deposit_bits(w, kImmField.lsb, kImmField.width, imm);
  return w;
}

DnodeInstr DnodeInstr::decode(std::uint64_t word) {
  DnodeInstr instr;
  const auto op = extract_bits(word, kOpField.lsb, kOpField.width);
  check(op < static_cast<std::uint64_t>(DnodeOp::kOpCount),
        "DnodeInstr::decode: bad opcode field");
  instr.op = static_cast<DnodeOp>(op);

  const auto decode_src = [&](Field f, const char* what) {
    const auto v = extract_bits(word, f.lsb, f.width);
    check(v < static_cast<std::uint64_t>(DnodeSrc::kSrcCount), what);
    return static_cast<DnodeSrc>(v);
  };
  instr.src_a = decode_src(kSrcAField, "DnodeInstr::decode: bad srcA field");
  instr.src_b = decode_src(kSrcBField, "DnodeInstr::decode: bad srcB field");
  instr.src_c = decode_src(kSrcCField, "DnodeInstr::decode: bad srcC field");

  const auto dst = extract_bits(word, kDstField.lsb, kDstField.width);
  check(dst < static_cast<std::uint64_t>(DnodeDst::kDstCount),
        "DnodeInstr::decode: bad dst field");
  instr.dst = static_cast<DnodeDst>(dst);

  instr.out_en = extract_bits(word, kOutEnField.lsb, 1) != 0;
  instr.bus_en = extract_bits(word, kBusEnField.lsb, 1) != 0;
  instr.host_en = extract_bits(word, kHostEnField.lsb, 1) != 0;
  instr.imm = static_cast<Word>(extract_bits(word, kImmField.lsb, 16));
  return instr;
}


std::string_view to_mnemonic(DnodeOp op) noexcept {
  return kOpNames[static_cast<std::size_t>(op)];
}

std::string_view to_mnemonic(DnodeSrc src) noexcept {
  return kSrcNames[static_cast<std::size_t>(src)];
}

std::string_view to_mnemonic(DnodeDst dst) noexcept {
  return kDstNames[static_cast<std::size_t>(dst)];
}

std::optional<DnodeOp> parse_dnode_op(std::string_view text) noexcept {
  for (std::size_t i = 0; i < kOpNames.size(); ++i) {
    if (kOpNames[i] == text) return static_cast<DnodeOp>(i);
  }
  return std::nullopt;
}

std::optional<DnodeSrc> parse_dnode_src(std::string_view text) noexcept {
  for (std::size_t i = 0; i < kSrcNames.size(); ++i) {
    if (kSrcNames[i] == text) return static_cast<DnodeSrc>(i);
  }
  return std::nullopt;
}

std::optional<DnodeDst> parse_dnode_dst(std::string_view text) noexcept {
  for (std::size_t i = 0; i < kDstNames.size(); ++i) {
    if (kDstNames[i] == text) return static_cast<DnodeDst>(i);
  }
  return std::nullopt;
}

std::string DnodeInstr::to_string() const {
  std::string s{to_mnemonic(op)};
  if (op != DnodeOp::kNop) {
    s += ' ';
    s += to_mnemonic(dst);
    s += ", ";
    s += to_mnemonic(src_a);
    if (src_a == DnodeSrc::kImm) s += "(" + std::to_string(as_signed(imm)) + ")";
    if (op_uses_b(op)) {
      s += ", ";
      s += to_mnemonic(src_b);
      if (src_b == DnodeSrc::kImm)
        s += "(" + std::to_string(as_signed(imm)) + ")";
    }
    if (op_uses_c(op)) {
      s += ", ";
      s += to_mnemonic(src_c);
      if (src_c == DnodeSrc::kImm)
        s += "(" + std::to_string(as_signed(imm)) + ")";
    }
  }
  if (out_en) s += " out";
  if (bus_en) s += " bus";
  if (host_en) s += " host";
  return s;
}

}  // namespace sring
