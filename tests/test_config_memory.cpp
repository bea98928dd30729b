// Unit tests for the configuration layer (live words + pages).
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/error.hpp"
#include "core/config_memory.hpp"
#include "core/switch.hpp"

namespace sring {
namespace {

RingGeometry small() { return {4, 2, 8}; }

/// Bytes the process holds from malloc (0 where glibc cannot tell).
std::size_t heap_bytes() {
#if defined(__GLIBC__)
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
#else
  return 0;
#endif
}

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

  ConfigPage want = page;
  mac.imm = static_cast<Word>(-7);
  want.dnode_instr[2] = mac.encode();
  EXPECT_TRUE(cfg.patch_imms({&want, 1}));
  EXPECT_EQ(cfg.dnode_instr(2), mac);
  EXPECT_EQ(cfg.live_imms()[2], mac.imm);
  EXPECT_EQ(cfg.page(p).dnode_instr, want.dnode_instr);
  EXPECT_EQ(cfg.content_hash(), hash) << "structure unchanged";
  EXPECT_GT(cfg.generation(), gen) << "the live page changed";

  // Anything outside the immediate is another structure: rejected, and
  // the immediate patched before the mismatch was met is undone.
  const std::uint64_t gen2 = cfg.generation();
  ConfigPage other = want;
  DnodeInstr mac9 = mac;
  mac9.imm = 9;
  other.dnode_instr[2] = mac9.encode();
  other.dnode_instr[3] = DnodeInstr{.op = DnodeOp::kAdd}.encode();
  EXPECT_FALSE(cfg.patch_imms({&other, 1}));
  EXPECT_EQ(cfg.page(p).dnode_instr, want.dnode_instr);
  EXPECT_EQ(cfg.dnode_instr(2), mac);
  EXPECT_EQ(cfg.live_imms()[2], mac.imm);
  EXPECT_EQ(cfg.generation(), gen2);
  const std::vector<ConfigPage> two{want, want};
  EXPECT_FALSE(cfg.patch_imms(two));
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

// A program of a few thousand pages: every swap counts the routes that
// differ, and the memoized swap diffs grow with the pairs swapped
// between, not with the square of the page count (36 MB here).
TEST(ConfigMemory, ManyPageSwapsCountTheirRouteDiffs) {
  const RingGeometry g = small();
  constexpr std::size_t kPages = 3000;
  ConfigMemory cfg(g);
  std::vector<std::uint64_t> pattern;  // bit i: route word i enabled
  for (std::size_t p = 0; p < kPages; ++p) {
    ConfigPage page = ConfigPage::zeroed(g);
    pattern.push_back((p * 37) % 256);
    for (std::size_t i = 0; i < page.switch_route.size(); ++i) {
      SwitchRoute r;
      r.host_out_en = ((pattern.back() >> i) & 1) != 0;
      page.switch_route[i] = r.encode();
    }
    cfg.add_page(std::move(page));
  }
  cfg.apply_page(0);
  std::vector<std::uint64_t> expect = cfg.route_changes_per_switch();
  const std::size_t heap_before = heap_bytes();
  std::size_t from = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 1; k <= kPages; ++k) {
      const std::size_t to = k % kPages;
      cfg.apply_page(to);
      const std::uint64_t diff = pattern[from] ^ pattern[to];
      for (std::size_t sw = 0; sw < g.switch_count(); ++sw) {
        expect[sw] += static_cast<std::uint64_t>(
            std::popcount((diff >> (sw * g.lanes)) & ((1u << g.lanes) - 1)));
      }
      from = to;
    }
  }
  EXPECT_LT(heap_bytes(), heap_before + (std::size_t{2} << 20));
  EXPECT_EQ(cfg.route_changes_per_switch(), expect);
  EXPECT_EQ(cfg.live_page(), 0);
  EXPECT_EQ(cfg.swap_route_changes(0, 1).size(), g.switch_count());
  EXPECT_TRUE(cfg.swap_route_changes(1, 0).empty());
}

}  // namespace
}  // namespace sring
