// Local kernel runs and fleet jobs are one schedule.
//
// Every served workload has a local helper (kernels::run_*,
// mapper::run_mapped) and a job builder (kernels::make_*_job,
// svc::make_dfg_job).  For each kernel and geometry the helper's
// outputs and SystemStats must equal those of a one-worker
// rt::Runtime running the matching job on a fresh pool, and the
// RunReports of the two reporting helpers are pinned by digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/image.hpp"
#include "common/rng.hpp"
#include "dsp/matvec.hpp"
#include "kernels/dwt_kernel.hpp"
#include "kernels/fir_kernel.hpp"
#include "kernels/jobs.hpp"
#include "kernels/matvec_kernel.hpp"
#include "kernels/motion_estimation.hpp"
#include "mapper/mapper.hpp"
#include "rt/runtime.hpp"
#include "svc/dfg_job.hpp"

namespace sring {
namespace {

constexpr RingGeometry kRing8{8, 2, 16};
constexpr RingGeometry kRing4{4, 2, 16};

std::vector<Word> signal(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Word> x(n);
  for (auto& w : x) w = rng.next_word_in(-100, 100);
  return x;
}

Image image(std::uint64_t seed, std::size_t w, std::size_t h) {
  Rng rng(seed);
  Image img(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      img.at(x, y) = rng.next_word_in(0, 255);
    }
  }
  return img;
}

/// `job` on a fresh one-worker fleet: a fresh pool, so the first arm
/// is a full load into a new System, like a local helper's.
rt::JobResult run_on_fleet(rt::Job job) {
  rt::Runtime runtime({.workers = 1});
  rt::JobResult result = runtime.submit(std::move(job)).get();
  EXPECT_TRUE(result.ok) << result.error;
  return result;
}

std::string fnv64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  static const char* hex = "0123456789abcdef";
  std::string out;
  for (int shift = 60; shift >= 0; shift -= 4) out += hex[(h >> shift) & 0xF];
  return out;
}

class JobParity : public ::testing::TestWithParam<RingGeometry> {};

TEST_P(JobParity, SpatialFir) {
  const RingGeometry g = GetParam();
  const std::vector<Word> coeffs{3, static_cast<Word>(-2), 5};
  const std::vector<Word> x = signal(1, 80);
  const kernels::FirResult local = kernels::run_spatial_fir(g, x, coeffs);
  const rt::JobResult fleet =
      run_on_fleet(kernels::make_spatial_fir_job(g, x, coeffs));
  EXPECT_EQ(local.outputs, fleet.outputs);
  EXPECT_EQ(local.stats.to_string(), fleet.report.stats.to_string());
}

TEST_P(JobParity, MotionEstimation) {
  const RingGeometry g = GetParam();
  const Image ref = image(2, 16, 16);
  const Image cand = image(3, 16, 16);
  const kernels::MotionEstimationResult local =
      kernels::run_motion_estimation(g, ref, 4, 4, cand, 2);
  const rt::JobResult fleet = run_on_fleet(
      kernels::make_motion_estimation_job(g, ref, 4, 4, cand, 2));
  EXPECT_EQ(std::vector<Word>(local.sads.begin(), local.sads.end()),
            fleet.outputs);
  EXPECT_EQ(local.stats.to_string(), fleet.report.stats.to_string());
  const dsp::MotionVector best = kernels::best_motion_vector(fleet.outputs, 2);
  EXPECT_EQ(local.best.dx, best.dx);
  EXPECT_EQ(local.best.dy, best.dy);
  EXPECT_EQ(local.best.sad, best.sad);
}

TEST_P(JobParity, Matvec8) {
  const RingGeometry g = GetParam();
  const dsp::Matrix8 m = dsp::dct8_matrix_q7();
  const std::vector<Word> x = signal(4, 40);
  const kernels::MatvecResult local = kernels::run_block_matvec8(g, m, x);
  const rt::JobResult fleet =
      run_on_fleet(kernels::make_matvec8_job(g, m, x));
  EXPECT_EQ(local.outputs, fleet.outputs);
  EXPECT_EQ(local.stats.to_string(), fleet.report.stats.to_string());
}

INSTANTIATE_TEST_SUITE_P(Geometries, JobParity,
                         ::testing::Values(kRing8, kRing4),
                         [](const auto& info) {
                           return "L" + std::to_string(info.param.layers) +
                                  "x" + std::to_string(info.param.lanes);
                         });

TEST(JobParity, Dwt53) {
  const std::vector<Word> x = signal(5, 64);
  const kernels::DwtResult local = kernels::run_dwt53(kRing8, x);
  const rt::JobResult fleet =
      run_on_fleet(kernels::make_dwt53_job(kRing8, x));
  const dsp::Subbands bands =
      kernels::dwt53_bands_from_raw(fleet.outputs, x.size() / 2);
  EXPECT_EQ(local.bands.low, bands.low);
  EXPECT_EQ(local.bands.high, bands.high);
  EXPECT_EQ(local.stats.to_string(), fleet.report.stats.to_string());
}

TEST(JobParity, MappedDfg) {
  // Two outputs of different latency share each cycle's push group,
  // and a delay deepens one feedback read: the de-lacer must pick
  // every (latency, push rank) slot right.
  mapper::Dfg dfg;
  const auto a = dfg.add_input("a");
  const auto b = dfg.add_input("b");
  const auto sum = dfg.add_binary(mapper::DfgOp::kAdd, a, b);
  const auto dif = dfg.add_binary(mapper::DfgOp::kSub, a, dfg.add_delay(b, 1));
  const auto prod = dfg.add_binary(mapper::DfgOp::kMul, sum, dif);
  dfg.mark_output(sum, "s");
  dfg.mark_output(prod, "p");

  auto compiled = std::make_shared<svc::CompiledDfg>();
  compiled->mapped = mapper::map_dfg(dfg, kRing8);
  ASSERT_EQ(compiled->mapped.outputs.size(), 2u);
  const std::vector<std::vector<Word>> streams{signal(6, 40), signal(7, 40)};

  const mapper::MappedRun local = mapper::run_mapped(compiled->mapped, streams);
  const rt::JobResult fleet =
      run_on_fleet(svc::make_dfg_job(compiled, streams));
  EXPECT_EQ(local.outputs, svc::delace_outputs(*compiled, fleet.outputs, 40));
  EXPECT_EQ(local.stats.to_string(), fleet.report.stats.to_string());
}

// Digests of the two reporting helpers' RunReport JSON.  Any change to
// their feed, budget, stop rule, slice or report extras moves them.
TEST(JobParity, LocalReportsArePinned) {
  const std::vector<Word> coeffs{3, static_cast<Word>(-2), 5};
  const kernels::FirResult fir =
      kernels::run_spatial_fir(kRing8, signal(1, 80), coeffs);
  EXPECT_EQ(fnv64(fir.report.to_json().dump()), "422744f62661a37c");

  const kernels::MotionEstimationResult me = kernels::run_motion_estimation(
      kRing8, image(2, 16, 16), 4, 4, image(3, 16, 16), 2);
  EXPECT_EQ(fnv64(me.report.to_json().dump()), "685c986930a0e820");
}

}  // namespace
}  // namespace sring
