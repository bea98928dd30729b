// Tests for the binary object-file format.
#include <gtest/gtest.h>

#include <cstdio>

#include "asm/assembler.hpp"
#include "asm/object_file.hpp"
#include "common/error.hpp"
#include "asm/program_builder.hpp"

namespace sring {
namespace {

LoadableProgram sample() {
  ProgramBuilder pb({4, 2, 16}, "sample");
  PageBuilder page({4, 2, 16});
  DnodeInstr add;
  add.op = DnodeOp::kAdd;
  add.src_a = DnodeSrc::kIn1;
  add.src_b = DnodeSrc::kIn2;
  add.out_en = true;
  page.instr(0, 0, add);
  SwitchRoute r;
  r.in1 = PortRoute::host();
  r.in2 = PortRoute::host();
  page.route(0, 0, r);
  pb.add_page(page);
  pb.page_switch(0);
  pb.wait(10);
  pb.halt();
  pb.local_program(5, {add});
  return pb.build();
}

TEST(ObjectFile, SerializeDeserializeRoundTrip) {
  const auto original = sample();
  const auto bytes = serialize_program(original);
  const auto restored = deserialize_program(bytes);
  EXPECT_EQ(restored, original);
}

TEST(ObjectFile, EmptyProgramRoundTrips) {
  LoadableProgram p;
  p.geometry = {2, 1, 4};
  EXPECT_EQ(deserialize_program(serialize_program(p)), p);
}

TEST(ObjectFile, DetectsBadMagic) {
  auto bytes = serialize_program(sample());
  bytes[0] ^= 0xFF;
  EXPECT_THROW(deserialize_program(bytes), SimError);
}

TEST(ObjectFile, DetectsTruncation) {
  const auto bytes = serialize_program(sample());
  for (const std::size_t cut : {4u, 16u, 40u}) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + cut);
    EXPECT_THROW(deserialize_program(truncated), SimError);
  }
}

TEST(ObjectFile, DetectsTrailingGarbage) {
  auto bytes = serialize_program(sample());
  bytes.push_back(0);
  EXPECT_THROW(deserialize_program(bytes), SimError);
}

TEST(ObjectFile, DetectsBadGeometry) {
  LoadableProgram p;
  p.geometry = {2, 1, 4};
  auto bytes = serialize_program(p);
  // Geometry starts right after magic+version+name(4 bytes len).
  bytes[12] = 0;  // layers = 0
  EXPECT_THROW(deserialize_program(bytes), SimError);
}

// A lie in any count or length field must come back as SimError before
// the reader allocates for it: 0xFFFFFFFF, and one element more than the
// bytes that follow can hold.
TEST(ObjectFile, CountAndLengthLiesAreTypedErrors) {
  const LoadableProgram p = sample();
  const std::vector<std::uint8_t> bytes = serialize_program(p);
  const auto le32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= std::uint32_t{bytes[at + i]} << (8 * i);
    }
    return v;
  };
  const std::size_t geometry_at = 12 + p.name.size();
  const std::size_t code_at = geometry_at + 12;
  const std::size_t pages_at = code_at + 4 + 4 * p.controller_code.size();
  const std::size_t page_bytes =
      9 * p.geometry.dnode_count() +
      8 * p.geometry.switch_count() * p.geometry.lanes;
  const std::size_t local_at = pages_at + 4 + p.pages.size() * page_bytes;
  ASSERT_EQ(le32(8), p.name.size());
  ASSERT_EQ(le32(code_at), p.controller_code.size());
  ASSERT_EQ(le32(pages_at), p.pages.size());
  ASSERT_EQ(le32(local_at), p.local_init.size());
  ASSERT_EQ(bytes.size(), local_at + 4 + 13 * p.local_init.size());

  const std::size_t fields[] = {0,           4,               8,
                                geometry_at, geometry_at + 4, geometry_at + 8,
                                code_at,     pages_at,        local_at};
  for (const std::size_t at : fields) {
    const auto remaining = static_cast<std::uint32_t>(bytes.size() - at - 4);
    for (const std::uint32_t lie : {0xFFFFFFFFu, remaining + 1}) {
      std::vector<std::uint8_t> m = bytes;
      for (std::size_t i = 0; i < 4; ++i) {
        m[at + i] = static_cast<std::uint8_t>(lie >> (8 * i));
      }
      EXPECT_THROW(deserialize_program(m), SimError)
          << "u32 " << lie << " at " << at;
    }
  }
}

TEST(ObjectFile, SaveAndLoadFile) {
  const auto original = sample();
  const std::string path = "/tmp/sring_test_object.srgo";
  save_program(original, path);
  const auto loaded = load_program(path);
  EXPECT_EQ(loaded, original);
  std::remove(path.c_str());
}

TEST(ObjectFile, LoadMissingFileThrows) {
  EXPECT_THROW(load_program("/nonexistent/path/prog.srgo"), SimError);
}

TEST(ObjectFile, AssembledProgramSurvivesObjectFormat) {
  const auto prog = assemble(R"(
.ring 2 2 8
.controller
    ldi r1, 3
    halt
.page p
    dnode 1.1 { absdiff r2, in1, in2 out }
)");
  EXPECT_EQ(deserialize_program(serialize_program(prog)), prog);
}

}  // namespace
}  // namespace sring
