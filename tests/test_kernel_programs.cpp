// Structural tests over the generated kernel programs: geometry
// contracts, page inventories, and generation determinism (the same
// inputs must produce byte-identical object code — a requirement for
// reproducible configware releases).
#include <gtest/gtest.h>

#include "asm/object_file.hpp"
#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "dsp/matvec.hpp"
#include "kernels/cordic_kernel.hpp"
#include "kernels/dwt_kernel.hpp"
#include "kernels/fifo_kernel.hpp"
#include "kernels/fir_kernel.hpp"
#include "kernels/iir_kernel.hpp"
#include "kernels/mac_kernel.hpp"
#include "kernels/matvec_kernel.hpp"
#include "kernels/motion_estimation.hpp"

namespace sring::kernels {
namespace {

RingGeometry ring16() { return {8, 2, 16}; }

TEST(KernelPrograms, GeometryContractsEnforced) {
  const std::vector<Word> coeffs(3, 1);
  // Spatial FIR needs taps+1 layers and 2 lanes.
  EXPECT_THROW(make_spatial_fir_program({3, 2, 16}, coeffs), SimError);
  EXPECT_THROW(make_spatial_fir_program({8, 1, 16}, coeffs), SimError);
  // Serial FIR needs taps+1 layers.
  EXPECT_THROW(make_paged_serial_fir_program({3, 1, 16}, coeffs, 4),
               SimError);
  // Wordwise serial FIR is register-file bounded at 4 taps.
  const std::vector<Word> five(5, 1);
  EXPECT_THROW(make_wordwise_serial_fir_program(ring16(), five, 4),
               SimError);
  // IIR needs the downstream pipeline.
  EXPECT_THROW(make_iir1_program({1, 1, 16}, 1), SimError);
  // DWT needs the full 8x2 arrangement and depth-7 reads.
  EXPECT_THROW(make_dwt53_program({4, 2, 16}), SimError);
  EXPECT_THROW(make_dwt53_program({8, 2, 4}), SimError);
  EXPECT_THROW(make_idwt53_program({8, 1, 16}), SimError);
  // SAD engine needs two lanes per unit.
  EXPECT_THROW(make_sad_engine_program({8, 1, 16}, 64, 2), SimError);
  // Matvec needs eight Dnodes.
  EXPECT_THROW(make_matvec8_program({2, 2, 16}, dsp::dct8_matrix_q7(), 1),
               SimError);
  // CORDIC needs the three-unit column.
  EXPECT_THROW(make_cordic_program({2, 2, 16}, 1), SimError);
}

TEST(KernelPrograms, PageInventories) {
  // The SAD engine carries exactly work/drain/emit/reset pages.
  EXPECT_EQ(make_sad_engine_program(ring16(), 64, 4).pages.size(), 4u);
  // Serial FIR: shift + one page per tap + idle.
  const std::vector<Word> taps3(3, 2);
  EXPECT_EQ(make_paged_serial_fir_program(ring16(), taps3, 4).pages.size(),
            3u + 2u);
  // CORDIC: idle + load + emit + 4 pages per iteration.
  EXPECT_EQ(make_cordic_program(ring16(), 1, 12).pages.size(),
            3u + 4u * 12u);
  // Matvec: idle + 8 element pages.
  EXPECT_EQ(
      make_matvec8_program(ring16(), dsp::dct8_matrix_q7(), 1).pages.size(),
      9u);
  // LIFO: idle + write + one read page per block element.
  EXPECT_EQ(make_lifo_program(ring16(), 5, 2).pages.size(), 2u + 5u);
  // Single-page streaming kernels.
  EXPECT_EQ(make_dwt53_program(ring16()).pages.size(), 1u);
  EXPECT_EQ(make_running_mac_program(ring16()).pages.size(), 1u);
}

TEST(KernelPrograms, GenerationIsDeterministic) {
  const std::vector<Word> coeffs = {1, to_word(-2), 3};
  const auto a =
      serialize_program(make_spatial_fir_program(ring16(), coeffs));
  const auto b =
      serialize_program(make_spatial_fir_program(ring16(), coeffs));
  EXPECT_EQ(a, b);

  const auto c = serialize_program(make_cordic_program(ring16(), 7));
  const auto d = serialize_program(make_cordic_program(ring16(), 7));
  EXPECT_EQ(c, d);
}

TEST(KernelPrograms, MovedBuildEqualsCopyingBuild) {
  // A builder with pages, a forward label fixup and local_init: the
  // rvalue build() moves them out and must produce what the copying
  // build() produces.
  const RingGeometry g = ring16();
  ProgramBuilder pb(g, "moved");
  PageBuilder page(g);
  DnodeInstr add;
  add.op = DnodeOp::kAdd;
  add.src_a = DnodeSrc::kIn1;
  add.src_b = DnodeSrc::kImm;
  add.imm = 7;
  add.out_en = true;
  page.instr(1, 0, add);
  const ConfigPage copied_page = page.build();
  pb.add_page(page);
  pb.add_page(std::move(page).build());
  pb.local_program(3, {add});
  pb.set_reg(1, 4);
  pb.label("top");
  pb.page_switch(0);
  pb.branch(RiscOp::kBeq, 1, 2, "out");
  pb.page_switch(1);
  pb.jmp("top");
  pb.label("out");
  pb.halt();

  const LoadableProgram copied = pb.build();
  EXPECT_EQ(copied.pages.at(1), copied_page);
  EXPECT_EQ(copied, pb.build()) << "the copying build leaves pb intact";
  const LoadableProgram moved = std::move(pb).build();
  EXPECT_EQ(moved, copied);
}

TEST(KernelPrograms, MatvecMatrixPatchEqualsRebuild) {
  const dsp::Matrix8 dct = dsp::dct8_matrix_q7();
  dsp::Matrix8 other{};
  for (std::size_t r = 0; r < dsp::kMatvecN; ++r) {
    for (std::size_t c = 0; c < dsp::kMatvecN; ++c) {
      other[r][c] = static_cast<Word>(r * 31 + c * 7 - 50);
    }
  }
  LoadableProgram patched = make_matvec8_program(ring16(), dct, 3);
  set_matvec8_matrix(patched, other);
  EXPECT_EQ(patched, make_matvec8_program(ring16(), other, 3));
  set_matvec8_matrix(patched, dct);
  EXPECT_EQ(patched, make_matvec8_program(ring16(), dct, 3));
  const std::vector<Word> taps{1, 2};
  LoadableProgram fir = make_spatial_fir_program(ring16(), taps);
  EXPECT_THROW(set_matvec8_matrix(fir, dct), SimError);
}

TEST(KernelPrograms, SurviveObjectFormatAndReload) {
  // Every generator's output must round-trip the binary object format.
  const std::vector<Word> coeffs = {1, 2};
  const LoadableProgram programs[] = {
      make_running_mac_program(ring16()),
      make_spatial_fir_program(ring16(), coeffs),
      make_paged_serial_fir_program(ring16(), coeffs, 3),
      make_iir1_program(ring16(), 3),
      make_iir2_program(ring16(), 1, 2, to_word(-1)),
      make_fifo_program(ring16(), 5),
      make_lifo_program(ring16(), 4, 2),
      make_sad_engine_program(ring16(), 64, 2),
      make_dwt53_program(ring16()),
      make_idwt53_program(ring16()),
      make_matvec8_program(ring16(), dsp::dct8_matrix_q7(), 2),
      make_cordic_program(ring16(), 3),
  };
  for (const auto& p : programs) {
    EXPECT_EQ(deserialize_program(serialize_program(p)), p) << p.name;
  }
}

TEST(KernelPrograms, NamesAreStable) {
  EXPECT_EQ(make_running_mac_program(ring16()).name, "running_mac");
  EXPECT_EQ(make_dwt53_program(ring16()).name, "dwt53_lifting");
  EXPECT_EQ(make_cordic_program(ring16(), 1).name, "cordic_rotate");
}

}  // namespace
}  // namespace sring::kernels
