// Property fuzz for the canonical DFG wire codec (svc/dfg_codec):
// every valid graph round-trips byte-exactly (so the FNV-1a content
// hash is a stable identity), and arbitrarily mutated or truncated
// bytes never crash the decoder — they either still decode or raise a
// typed SimError, mirroring the test_asm_fuzz discipline for object
// files.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mapper/dfg.hpp"
#include "svc/dfg_codec.hpp"

namespace sring::svc {
namespace {

using mapper::Dfg;
using mapper::DfgNode;
using mapper::DfgOp;
using mapper::NodeId;

constexpr DfgOp kAllOps[] = {
    DfgOp::kInput, DfgOp::kConst, DfgOp::kAdd,  DfgOp::kSub,
    DfgOp::kMul,   DfgOp::kAbsdiff, DfgOp::kMin, DfgOp::kMax,
    DfgOp::kAnd,   DfgOp::kOr,    DfgOp::kXor,  DfgOp::kShl,
    DfgOp::kAsr,   DfgOp::kPass,  DfgOp::kNot,  DfgOp::kAbs,
    DfgOp::kDelay,
};

/// Random structurally-valid graph via Dfg::assemble.  Combinational
/// operands always reference earlier nodes; delay operands may
/// reference *later* nodes (the wire level can express recursion), so
/// the generator covers both feed-forward and recursive shapes.
Dfg random_dfg(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 1 + rng.next_below(24);
  std::vector<DfgNode> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    DfgNode node;
    if (i == 0) {
      // The first node has no predecessors: must be arity 0.
      node.op = rng.next_below(2) == 0 ? DfgOp::kInput : DfgOp::kConst;
    } else {
      node.op = kAllOps[rng.next_below(std::size(kAllOps))];
    }
    switch (mapper::dfg_arity(node.op)) {
      case 0:
        if (node.op == DfgOp::kConst) node.value = rng.next_word();
        break;
      case 1:
        if (node.op == DfgOp::kDelay) {
          // Forward references allowed: any node in the graph.
          node.a = static_cast<NodeId>(rng.next_below(n));
          node.delay = 1 + static_cast<unsigned>(rng.next_below(16));
        } else {
          node.a = static_cast<NodeId>(rng.next_below(i));
        }
        break;
      case 2:
        node.a = static_cast<NodeId>(rng.next_below(i));
        node.b = static_cast<NodeId>(rng.next_below(i));
        break;
    }
    if (node.op == DfgOp::kInput || rng.next_below(4) == 0) {
      node.name = "n" + std::to_string(i);
    }
    nodes.push_back(std::move(node));
  }
  std::vector<NodeId> outputs;
  const std::size_t out_count = rng.next_below(4);  // 0 outputs is legal here
  for (std::size_t i = 0; i < out_count; ++i) {
    outputs.push_back(static_cast<NodeId>(rng.next_below(n)));
  }
  return Dfg::assemble(std::move(nodes), std::move(outputs));
}

bool same_structure(const Dfg& a, const Dfg& b) {
  if (a.outputs() != b.outputs() || a.inputs() != b.inputs()) return false;
  if (a.nodes().size() != b.nodes().size()) return false;
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    const DfgNode& x = a.nodes()[i];
    const DfgNode& y = b.nodes()[i];
    if (x.op != y.op || x.a != y.a || x.b != y.b || x.value != y.value ||
        x.delay != y.delay || x.name != y.name) {
      return false;
    }
  }
  return true;
}

class DfgCodecFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DfgCodecFuzz, RoundTripIsByteExactAndHashStable) {
  const Dfg original = random_dfg(static_cast<std::uint64_t>(GetParam()));
  const std::vector<std::uint8_t> bytes = encode_dfg(original);
  const Dfg decoded = decode_dfg(bytes);
  EXPECT_TRUE(same_structure(original, decoded));

  // Canonical: re-encoding reproduces the exact bytes, so the raw-byte
  // hash IS the content hash (the cache-hit path never decodes).
  const std::vector<std::uint8_t> again = encode_dfg(decoded);
  EXPECT_EQ(again, bytes);
  EXPECT_EQ(dfg_hash(bytes), dfg_hash(original));
  EXPECT_EQ(dfg_hash(again), dfg_hash(bytes));
}

TEST_P(DfgCodecFuzz, MutatedBytesNeverCrashTheDecoder) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 5000);
  const auto bytes = encode_dfg(random_dfg(
      static_cast<std::uint64_t>(GetParam())));
  for (int trial = 0; trial < 60; ++trial) {
    auto mutated = bytes;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      const Dfg d = decode_dfg(mutated);
      // If it decoded, the structure must hold (assemble enforced it).
      EXPECT_LE(d.nodes().size(), kMaxDfgNodes);
    } catch (const SimError&) {
      // Expected for most mutations — a typed error, never a crash.
    }
  }
}

TEST_P(DfgCodecFuzz, EveryTruncationIsATypedError) {
  const auto bytes = encode_dfg(random_dfg(
      static_cast<std::uint64_t>(GetParam())));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix(bytes.data(), len);
    EXPECT_THROW((void)decode_dfg(prefix), SimError) << "prefix " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfgCodecFuzz, ::testing::Range(0, 20));

Dfg small_graph() {
  Dfg dfg;
  const NodeId x = dfg.add_input("x");
  const NodeId k = dfg.add_const(3);
  const NodeId m = dfg.add_binary(DfgOp::kMul, x, k);
  const NodeId d = dfg.add_delay(m, 1);
  const NodeId y = dfg.add_binary(DfgOp::kAdd, m, d);
  dfg.mark_output(y, "out");
  return dfg;
}

TEST(DfgCodec, KnownBlobOffsetsRejectPrecisely) {
  const auto bytes = encode_dfg(small_graph());

  {  // magic at offset 0
    auto b = bytes;
    b[0] = 'X';
    EXPECT_THROW((void)decode_dfg(b), SimError);
  }
  {  // codec version at offset 4
    auto b = bytes;
    b[4] = 0x7F;
    try {
      (void)decode_dfg(b);
      FAIL() << "bad version accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported codec version"),
                std::string::npos);
    }
  }
  {  // node count at offset 6: zero nodes
    auto b = bytes;
    b[6] = 0;
    EXPECT_THROW((void)decode_dfg(b), SimError);
  }
  {  // first node's op byte at offset 10
    auto b = bytes;
    b[10] = 0xEE;
    try {
      (void)decode_dfg(b);
      FAIL() << "unknown op accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown op"),
                std::string::npos);
    }
  }
  {  // first node's declared arity at offset 11 (input expects 0)
    auto b = bytes;
    b[11] = 2;
    try {
      (void)decode_dfg(b);
      FAIL() << "arity mismatch accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("arity mismatch"),
                std::string::npos);
    }
  }
  {  // trailing garbage after a complete graph
    auto b = bytes;
    b.push_back(0xAB);
    try {
      (void)decode_dfg(b);
      FAIL() << "trailing bytes accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("trailing bytes"),
                std::string::npos);
    }
  }
}

// Every u32 field of a blob (node count, operand ids, delays, output
// count and ids) set to 0xFFFFFFFF is a typed error: counts hit their
// caps before anything is reserved, ids and delays fail validation.
TEST(DfgCodec, EveryU32FieldSetToAllOnesIsATypedError) {
  const Dfg dfg = small_graph();
  const std::vector<std::uint8_t> bytes = encode_dfg(dfg);
  std::vector<std::size_t> fields = {6};  // node count
  std::size_t at = 10;
  for (const DfgNode& n : dfg.nodes()) {
    at += 2;  // op, declared arity
    for (unsigned i = 0; i < mapper::dfg_arity(n.op); ++i, at += 4) {
      fields.push_back(at);
    }
    if (n.op == DfgOp::kConst) at += 2;
    if (n.op == DfgOp::kDelay) {
      fields.push_back(at);
      at += 4;
    }
    at += 1 + n.name.size();
  }
  for (std::size_t i = 0; i <= dfg.outputs().size(); ++i, at += 4) {
    fields.push_back(at);  // output count, then the output ids
  }
  ASSERT_EQ(at, bytes.size());

  for (const std::size_t field : fields) {
    std::vector<std::uint8_t> m = bytes;
    for (std::size_t i = 0; i < 4; ++i) m[field + i] = 0xFF;
    EXPECT_THROW((void)decode_dfg(m), SimError) << "u32 field at " << field;
  }
}

TEST(DfgCodec, HashSeparatesNearbyGraphs) {
  Dfg a = small_graph();
  Dfg b;  // identical but for the constant
  const NodeId x = b.add_input("x");
  const NodeId k = b.add_const(4);
  const NodeId m = b.add_binary(DfgOp::kMul, x, k);
  const NodeId d = b.add_delay(m, 1);
  b.mark_output(b.add_binary(DfgOp::kAdd, m, d), "out");
  EXPECT_NE(dfg_hash(a), dfg_hash(b));
  EXPECT_EQ(dfg_hash_hex(dfg_hash(a)).size(), 16u);
}

TEST(DfgCodec, EncodeRejectsOversizedGraphs) {
  EXPECT_THROW((void)encode_dfg(Dfg{}), SimError);  // empty

  std::vector<DfgNode> nodes(kMaxDfgNodes + 1);
  nodes[0].op = DfgOp::kInput;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    nodes[i].op = DfgOp::kPass;
    nodes[i].a = 0;
  }
  EXPECT_THROW(
      (void)encode_dfg(Dfg::assemble(std::move(nodes), {0})), SimError);
}

TEST(DfgCodec, AssembleRejectsBrokenStructure) {
  {  // combinational forward reference
    std::vector<DfgNode> nodes(2);
    nodes[0].op = DfgOp::kPass;
    nodes[0].a = 1;  // references a later node
    nodes[1].op = DfgOp::kInput;
    EXPECT_THROW((void)Dfg::assemble(std::move(nodes), {}), SimError);
  }
  {  // delay operand out of range
    std::vector<DfgNode> nodes(1);
    nodes[0].op = DfgOp::kDelay;
    nodes[0].a = 9;
    nodes[0].delay = 1;
    EXPECT_THROW((void)Dfg::assemble(std::move(nodes), {}), SimError);
  }
  {  // output id out of range
    std::vector<DfgNode> nodes(1);
    nodes[0].op = DfgOp::kInput;
    EXPECT_THROW((void)Dfg::assemble(std::move(nodes), {5}), SimError);
  }
}

}  // namespace
}  // namespace sring::svc
