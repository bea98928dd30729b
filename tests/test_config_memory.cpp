// Unit tests for the configuration layer (live words + pages).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/config_memory.hpp"

namespace sring {
namespace {

RingGeometry small() { return {4, 2, 8}; }

TEST(RingGeometry, Validation) {
  EXPECT_NO_THROW(small().validate());
  EXPECT_THROW((RingGeometry{0, 2, 8}).validate(), SimError);
  EXPECT_THROW((RingGeometry{33, 2, 8}).validate(), SimError);
  EXPECT_THROW((RingGeometry{4, 17, 8}).validate(), SimError);
  EXPECT_THROW((RingGeometry{4, 2, 0}).validate(), SimError);
  EXPECT_THROW((RingGeometry{4, 2, 17}).validate(), SimError);
  EXPECT_EQ(small().dnode_count(), 8u);
  EXPECT_EQ(small().switch_count(), 4u);
}

TEST(ConfigMemory, StartsZeroed) {
  ConfigMemory cfg(small());
  for (std::size_t d = 0; d < 8; ++d) {
    EXPECT_EQ(cfg.dnode_instr(d).op, DnodeOp::kNop);
    EXPECT_EQ(cfg.dnode_mode(d), DnodeMode::kGlobal);
  }
}

TEST(ConfigMemory, WriteAndReadBack) {
  ConfigMemory cfg(small());
  DnodeInstr instr;
  instr.op = DnodeOp::kAdd;
  instr.src_a = DnodeSrc::kIn1;
  instr.src_b = DnodeSrc::kIn2;
  instr.dst = DnodeDst::kR0;
  cfg.write_dnode_instr(3, instr.encode());
  EXPECT_EQ(cfg.dnode_instr(3), instr);

  cfg.write_dnode_mode(3, DnodeMode::kLocal);
  EXPECT_EQ(cfg.dnode_mode(3), DnodeMode::kLocal);

  SwitchRoute r;
  r.in1 = PortRoute::prev(1);
  cfg.write_switch_route(2, 0, r.encode());
  EXPECT_EQ(cfg.switch_route(2, 0), r);
}

TEST(ConfigMemory, RejectsBadIndicesAndWords) {
  ConfigMemory cfg(small());
  EXPECT_THROW(cfg.write_dnode_instr(8, 0), SimError);
  EXPECT_THROW(cfg.write_switch_route(4, 0, 0), SimError);
  EXPECT_THROW(cfg.write_switch_route(0, 2, 0), SimError);
  // Malformed microinstruction must be rejected eagerly.
  EXPECT_THROW(cfg.write_dnode_instr(0, 63), SimError);
}

TEST(ConfigMemory, PagesSwapAtomically) {
  ConfigMemory cfg(small());
  ConfigPage page = ConfigPage::zeroed(small());
  DnodeInstr instr;
  instr.op = DnodeOp::kMul;
  instr.src_a = DnodeSrc::kIn1;
  instr.src_b = DnodeSrc::kIn2;
  instr.out_en = true;
  page.dnode_instr[5] = instr.encode();
  page.dnode_mode[1] = static_cast<std::uint8_t>(DnodeMode::kLocal);
  const std::size_t idx = cfg.add_page(page);
  EXPECT_EQ(idx, 0u);

  cfg.apply_page(0);
  EXPECT_EQ(cfg.dnode_instr(5), instr);
  EXPECT_EQ(cfg.dnode_mode(1), DnodeMode::kLocal);
  EXPECT_EQ(cfg.dnode_instr(0).op, DnodeOp::kNop);
  EXPECT_THROW(cfg.apply_page(1), SimError);
}

TEST(ConfigMemory, PatchImmsRewritesOnlyImmediates) {
  ConfigMemory cfg(small());
  DnodeInstr mac;
  mac.op = DnodeOp::kMac;
  mac.src_a = DnodeSrc::kBus;
  mac.src_b = DnodeSrc::kImm;
  mac.imm = 5;
  ConfigPage page = ConfigPage::zeroed(small());
  page.dnode_instr[2] = mac.encode();
  const std::size_t p = cfg.add_page(page);
  cfg.apply_page(p);
  const std::uint64_t hash = cfg.content_hash();
  const std::uint64_t gen = cfg.generation();

  std::vector<std::uint64_t> words = page.dnode_instr;
  mac.imm = static_cast<Word>(-7);
  words[2] = mac.encode();
  cfg.patch_imms(p, words);
  EXPECT_EQ(cfg.dnode_instr(2), mac);
  EXPECT_EQ(cfg.live_imms()[2], mac.imm);
  EXPECT_EQ(cfg.page(p).dnode_instr, words);
  EXPECT_EQ(cfg.content_hash(), hash) << "structure unchanged";
  EXPECT_GT(cfg.generation(), gen) << "the live page changed";

  // Anything outside the immediate is another structure: rejected
  // before any word is written.
  std::vector<std::uint64_t> other = words;
  other[0] = DnodeInstr{.op = DnodeOp::kAdd}.encode();
  other[2] = page.dnode_instr[2];
  EXPECT_THROW(cfg.patch_imms(p, other), SimError);
  EXPECT_EQ(cfg.page(p).dnode_instr, words);
  EXPECT_THROW(cfg.patch_imms(p + 1, words), SimError);
}

TEST(ConfigMemory, PageShapeValidated) {
  ConfigMemory cfg(small());
  ConfigPage page = ConfigPage::zeroed({2, 2, 8});
  EXPECT_THROW(cfg.add_page(page), SimError);
  ConfigPage bad_mode = ConfigPage::zeroed(small());
  bad_mode.dnode_mode[0] = 2;
  EXPECT_THROW(cfg.add_page(bad_mode), SimError);
}

TEST(ConfigMemory, CountsWrites) {
  ConfigMemory cfg(small());
  EXPECT_EQ(cfg.words_written(), 0u);
  cfg.write_dnode_mode(0, DnodeMode::kLocal);
  EXPECT_EQ(cfg.words_written(), 1u);
  cfg.add_page(ConfigPage::zeroed(small()));
  cfg.apply_page(0);
  // A page swap rewrites every configuration word.
  EXPECT_EQ(cfg.words_written(), 1u + 8 + 8 + 8);
}

}  // namespace
}  // namespace sring
