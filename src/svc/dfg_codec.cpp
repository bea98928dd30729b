#include "svc/dfg_codec.hpp"

#include "common/error.hpp"
#include "common/le_codec.hpp"

namespace sring::svc {

namespace {

using mapper::DfgNode;
using mapper::DfgOp;
using mapper::NodeId;

constexpr std::uint8_t kMaxOpByte = static_cast<std::uint8_t>(DfgOp::kDelay);
constexpr std::uint32_t kMagicWord =
    std::uint32_t{kDfgMagic[0]} | std::uint32_t{kDfgMagic[1]} << 8 |
    std::uint32_t{kDfgMagic[2]} << 16 | std::uint32_t{kDfgMagic[3]} << 24;

/// One node record.  The checks hold by construction on the encode side
/// and reject malformed bytes on the decode side.
template <class IO, class Node>
void node_fields(IO& io, Node& n) {
  io.u8(n.op);
  const auto op_byte = static_cast<std::uint8_t>(n.op);
  check(op_byte <= kMaxOpByte,
        "dfg_codec: unknown op " + std::to_string(op_byte));
  const unsigned arity = mapper::dfg_arity(n.op);
  auto declared = static_cast<std::uint8_t>(arity);
  io.u8(declared);
  check(declared == arity,
        "dfg_codec: arity mismatch for op " + std::to_string(op_byte) +
            ": declared " + std::to_string(declared) + ", expected " +
            std::to_string(arity));
  if (arity >= 1) io.u32(n.a);
  if (arity == 2) io.u32(n.b);
  if (n.op == DfgOp::kConst) io.u16(n.value);
  if (n.op == DfgOp::kDelay) {
    io.u32(n.delay);
    check(n.delay >= 1 && n.delay <= kMaxDfgDelay,
          "dfg_codec: delay " + std::to_string(n.delay) + " outside 1.." +
              std::to_string(kMaxDfgDelay));
  }
  io.str8(n.name);
  check(n.name.size() <= kMaxDfgNameBytes,
        "dfg_codec: name exceeds " + std::to_string(kMaxDfgNameBytes) +
            " bytes");
}

/// The whole blob.  A node record is at least op, arity and name
/// length; the caps bound both counts before anything is reserved.
template <class IO, class Nodes, class Outputs>
void blob_fields(IO& io, Nodes& nodes, Outputs& outputs) {
  std::uint32_t magic = kMagicWord;
  io.u32(magic);
  check(magic == kMagicWord, "dfg_codec: bad magic");
  std::uint16_t version = kDfgCodecVersion;
  io.u16(version);
  check(version == kDfgCodecVersion,
        "dfg_codec: unsupported codec version " + std::to_string(version));
  io.seq(nodes, 3, [&](auto& n) { node_fields(io, n); }, kMaxDfgNodes);
  check(!nodes.empty(), "dfg_codec: empty graph");
  io.seq(outputs, 4, [&](auto& id) { io.u32(id); }, kMaxDfgOutputs);
}

}  // namespace

std::vector<std::uint8_t> encode_dfg(const mapper::Dfg& dfg) {
  // The writer ignores seq() caps, so the encoder checks them up front.
  check(dfg.nodes().size() <= kMaxDfgNodes,
        "dfg_codec: node count " + std::to_string(dfg.nodes().size()) +
            " exceeds limit of " + std::to_string(kMaxDfgNodes));
  check(dfg.outputs().size() <= kMaxDfgOutputs,
        "dfg_codec: output count " + std::to_string(dfg.outputs().size()) +
            " exceeds limit of " + std::to_string(kMaxDfgOutputs));
  LeWriter w;
  blob_fields(w, dfg.nodes(), dfg.outputs());
  std::vector<std::uint8_t> bytes = w.take();
  check(bytes.size() <= kMaxDfgBlobBytes, "dfg_codec: blob too large");
  return bytes;
}

mapper::Dfg decode_dfg(std::span<const std::uint8_t> bytes) {
  check(bytes.size() <= kMaxDfgBlobBytes,
        "dfg_codec: blob exceeds " + std::to_string(kMaxDfgBlobBytes) +
            " bytes");
  LeReader<SimError> r(bytes, "dfg_codec");
  std::vector<DfgNode> nodes;
  std::vector<NodeId> outputs;
  blob_fields(r, nodes, outputs);
  r.expect_end();
  // Structural validation (operand ordering, delay bounds, ranges)
  // happens in assemble; the output-presence rule stays with
  // Dfg::validate() so its diagnostic reaches the wire verbatim.
  return mapper::Dfg::assemble(std::move(nodes), std::move(outputs));
}

std::uint64_t dfg_hash(std::span<const std::uint8_t> canonical_bytes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const std::uint8_t b : canonical_bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t dfg_hash(const mapper::Dfg& dfg) {
  return dfg_hash(encode_dfg(dfg));
}

std::string dfg_hash_hex(std::uint64_t hash) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

}  // namespace sring::svc
