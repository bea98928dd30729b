// The src/tile/ subsystem: rounding-saturating narrow-int readback
// (randomized differential vs an independent scalar model), scalar
// GEMM reference vs naive wrapped arithmetic, scratchpad LRU +
// counters, planner reuse prediction == observed scratchpad
// behaviour, tiled execution bit-exact against the reference across
// shapes/dtypes/mappings/shifts (including ragged edges), worker-count
// determinism, and im2col conv2d.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "rt/runtime.hpp"
#include "tile/gemm_ref.hpp"
#include "tile/gemm_runner.hpp"
#include "tile/scratchpad.hpp"
#include "tile/tile_plan.hpp"

namespace sring::tile {
namespace {

constexpr RingGeometry kGeom{8, 2, 16};

rt::Runtime make_runtime(std::size_t workers) {
  rt::RuntimeConfig cfg;
  cfg.workers = workers;
  return rt::Runtime(cfg);
}

GemmResult run_local(const GemmSpec& spec, std::span<const Word> a,
                     std::span<const Word> b, std::size_t workers = 1,
                     std::size_t scratch_tiles = 128) {
  rt::RuntimeConfig rcfg;
  rcfg.workers = workers;
  rt::Runtime rt(rcfg);
  GemmRunConfig cfg;
  cfg.geometry = kGeom;
  cfg.scratch_tiles = scratch_tiles;
  return run_gemm(rt, cfg, spec, a, b);
}

// ---------------------------------------------------------------------------
// Rounding-saturating readback

/// Independent model of the documented contract: signed value, round
/// half toward +inf, arithmetic shift, clamp.  Written with explicit
/// division instead of shifts so a shift-semantics bug in the
/// implementation cannot hide here.
std::int32_t narrow_model(std::int32_t v, unsigned shift,
                          std::int32_t lo, std::int32_t hi) {
  std::int64_t x = v;
  if (shift > 0) {
    x += std::int64_t{1} << (shift - 1);
    // Arithmetic right shift == floor division by 2^shift.
    const std::int64_t d = std::int64_t{1} << shift;
    x = x >= 0 ? x / d : -((-x + d - 1) / d);
  }
  if (x < lo) return lo;
  if (x > hi) return hi;
  return static_cast<std::int32_t>(x);
}

TEST(NarrowReadback, RandomizedDifferentialAgainstScalarModel) {
  Rng rng(0x7113E5ull);
  for (int i = 0; i < 200000; ++i) {
    const Word acc = rng.next_word();
    const unsigned shift =
        static_cast<unsigned>(rng.next_below(kMaxReadbackShift + 1));
    const Dtype dtype = rng.next_below(2) == 0 ? Dtype::kInt8
                                               : Dtype::kInt16;
    const Word got = narrow_readback(acc, shift, dtype);
    const std::int32_t want = narrow_model(
        as_signed(acc), shift, dtype_min(dtype), dtype_max(dtype));
    ASSERT_EQ(as_signed(got), want)
        << "acc=" << as_signed(acc) << " shift=" << shift
        << " dtype=" << dtype_name(dtype);
  }
}

TEST(NarrowReadback, PinnedCases) {
  // shift 0: pure saturation into the dtype range.
  EXPECT_EQ(as_signed(narrow_readback(to_word(130), 0, Dtype::kInt8)), 127);
  EXPECT_EQ(as_signed(narrow_readback(to_word(-129), 0, Dtype::kInt8)),
            -128);
  EXPECT_EQ(as_signed(narrow_readback(to_word(-129), 0, Dtype::kInt16)),
            -129);
  // Round half toward +inf: 5 >> 1 with rounding = 3; -5 >> 1 = -2.
  EXPECT_EQ(as_signed(narrow_readback(to_word(5), 1, Dtype::kInt8)), 3);
  EXPECT_EQ(as_signed(narrow_readback(to_word(-5), 1, Dtype::kInt8)), -2);
  EXPECT_THROW(narrow_readback(0, 16, Dtype::kInt8), SimError);
}

// ---------------------------------------------------------------------------
// Scalar reference

TEST(GemmReference, MatchesNaiveWrappedArithmetic) {
  GemmSpec spec;
  spec.m = 5;
  spec.k = 11;
  spec.n = 7;
  spec.dtype = Dtype::kInt16;
  spec.shift = 3;
  const auto a = random_operand(spec.m * spec.k, spec.dtype, 11);
  const auto b = random_operand(spec.k * spec.n, spec.dtype, 22);
  const auto c = gemm_reference(spec, a, b);
  ASSERT_EQ(c.size(), spec.m * spec.n);
  // Per-step wrapping (the ring's MAC) must equal the reference's
  // one-truncation-at-the-end form.
  for (std::size_t i = 0; i < spec.m; ++i) {
    for (std::size_t j = 0; j < spec.n; ++j) {
      Word acc = 0;
      for (std::size_t q = 0; q < spec.k; ++q) {
        acc = to_word(std::int64_t{as_signed(a[i * spec.k + q])} *
                          as_signed(b[q * spec.n + j]) +
                      as_signed(acc));
      }
      EXPECT_EQ(c[i * spec.n + j],
                narrow_readback(acc, spec.shift, spec.dtype));
    }
  }
}

TEST(GemmReference, RejectsMismatchedOperands) {
  GemmSpec spec;  // 8x8x8
  EXPECT_THROW(gemm_reference(spec, std::vector<Word>(63),
                              std::vector<Word>(64)),
               SimError);
  spec.shift = 16;
  EXPECT_THROW(gemm_reference(spec, std::vector<Word>(64),
                              std::vector<Word>(64)),
               SimError);
}

// ---------------------------------------------------------------------------
// Scratchpad

StagedTile tile_of(std::size_t words) {
  StagedTile t;
  t.words.assign(words, 1);
  return t;
}

TEST(Scratchpad, LruEvictionAndCounters) {
  Scratchpad spad(2);
  const TileKey k0{Operand::kA, 0, 0};
  const TileKey k1{Operand::kA, 0, 1};
  const TileKey k2{Operand::kB, 0, 0};

  spad.get_or_fill(k0, [] { return tile_of(4); });  // refill 8 bytes
  spad.get_or_fill(k1, [] { return tile_of(4); });  // refill
  spad.get_or_fill(k0, [] { return tile_of(4); });  // hit (k0 now MRU)
  spad.get_or_fill(k2, [] { return tile_of(4); });  // refill, evicts k1
  EXPECT_TRUE(spad.contains(k0));
  EXPECT_FALSE(spad.contains(k1));
  EXPECT_TRUE(spad.contains(k2));
  EXPECT_EQ(spad.hits(), 1u);
  EXPECT_EQ(spad.refills(), 3u);
  EXPECT_EQ(spad.evictions(), 1u);
  EXPECT_EQ(spad.bytes_filled(), 3u * 8u);
  EXPECT_EQ(spad.bytes_saved(), 8u);
  EXPECT_EQ(spad.resident_tiles(), 2u);

  // counters() lines up with the names GEMM replies and server stats
  // carry.
  EXPECT_EQ(spad.counters(), (std::array<std::uint64_t, 5>{1, 3, 1, 24, 8}));
  EXPECT_EQ(Scratchpad::kCounterNames[0], "tile.scratch.hits");
  EXPECT_EQ(Scratchpad::kCounterNames[4], "tile.scratch.bytes_saved");
}

// ---------------------------------------------------------------------------
// Planner

TEST(TilePlanner, GridAndStepOrder) {
  GemmSpec spec;
  spec.m = 17;  // 3 row bands (ragged)
  spec.k = 16;  // 2 K-chunks
  spec.n = 20;  // 3 column tiles at tile_n=8 (ragged)
  const TileSchedule os = plan_gemm(spec, 64);
  EXPECT_EQ(os.tiles_m, 3u);
  EXPECT_EQ(os.tiles_k, 2u);
  EXPECT_EQ(os.tiles_n, 3u);
  ASSERT_EQ(os.steps.size(), 18u);
  // OS: K-chunks innermost.
  EXPECT_EQ(os.steps[0], (TileStep{0, 0, 0}));
  EXPECT_EQ(os.steps[1], (TileStep{0, 1, 0}));
  EXPECT_EQ(os.steps[2], (TileStep{0, 0, 1}));

  spec.mapping = Mapping::kWeightStationary;
  const TileSchedule ws = plan_gemm(spec, 64);
  // WS: column tiles innermost — the A page stays loaded.
  EXPECT_EQ(ws.steps[0], (TileStep{0, 0, 0}));
  EXPECT_EQ(ws.steps[1], (TileStep{0, 0, 1}));
  EXPECT_EQ(ws.steps[2], (TileStep{0, 0, 2}));
}

TEST(TilePlanner, PredictionMatchesObservedScratchpad) {
  for (const Mapping mapping :
       {Mapping::kOutputStationary, Mapping::kWeightStationary}) {
    for (const std::size_t capacity : {2ul, 8ul, 64ul}) {
      GemmSpec spec;
      spec.m = 24;
      spec.k = 24;
      spec.n = 24;
      spec.mapping = mapping;
      const auto a = random_operand(spec.m * spec.k, spec.dtype, 5);
      const auto b = random_operand(spec.k * spec.n, spec.dtype, 6);
      const GemmResult res = run_local(spec, a, b, 1, capacity);
      EXPECT_EQ(res.scratch_hits, res.schedule.expected_hits)
          << mapping_name(mapping) << " cap=" << capacity;
      EXPECT_EQ(res.scratch_refills, res.schedule.expected_refills);
      EXPECT_EQ(res.bytes_filled, res.schedule.staged_bytes);
    }
  }
}

TEST(TilePlanner, FullReuseCapacityReaches8x) {
  GemmSpec spec;
  spec.m = 64;
  spec.k = 64;
  spec.n = 64;
  const TileSchedule sched = plan_gemm(spec, 128);
  // 512 steps touch 2 tiles each; 128 distinct tiles staged once.
  EXPECT_EQ(sched.expected_refills, 128u);
  EXPECT_EQ(sched.expected_hits, 2u * 512u - 128u);
  EXPECT_NEAR(sched.reuse_factor, 8.0, 1e-9);
}

TEST(PlanCache, HitsMissesEvictionsAndKeying) {
  PlanCache cache(2);
  GemmSpec spec;
  spec.m = 17;
  spec.k = 16;
  spec.n = 20;

  const auto s1 = cache.get_or_plan(spec, 64);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  // Same (spec, capacity) -> the very same schedule object.
  const auto s2 = cache.get_or_plan(spec, 64);
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_EQ(cache.hits(), 1u);
  // The cached schedule is what plan_gemm produces.
  const TileSchedule direct = plan_gemm(spec, 64);
  EXPECT_EQ(s1->steps, direct.steps);
  EXPECT_EQ(s1->expected_refills, direct.expected_refills);

  // Scratch capacity is part of the key: the same spec at another
  // capacity predicts different traffic, so it must not alias.
  const auto s3 = cache.get_or_plan(spec, 2);
  EXPECT_NE(s1.get(), s3.get());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Refresh (spec, 64) so (spec, 2) is the LRU entry, then a third
  // key evicts it.
  (void)cache.get_or_plan(spec, 64);
  EXPECT_EQ(cache.hits(), 2u);
  GemmSpec other = spec;
  other.mapping = Mapping::kWeightStationary;
  (void)cache.get_or_plan(other, 64);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get_or_plan(spec, 64);
  EXPECT_EQ(cache.hits(), 3u);
  (void)cache.get_or_plan(spec, 2);
  EXPECT_EQ(cache.misses(), 4u);

  // An evicted-then-replanned schedule survives through the caller's
  // shared_ptr even while absent from the cache.
  EXPECT_EQ(s3->steps, plan_gemm(spec, 2).steps);

  // Invalid specs throw without polluting the cache.
  GemmSpec bad = spec;
  bad.m = 0;
  EXPECT_THROW((void)cache.get_or_plan(bad, 64), SimError);
  EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------------------------------
// Tiled execution vs reference

TEST(TiledGemm, BitExactAcrossShapesDtypesMappings) {
  struct Case {
    std::size_t m, k, n, tile_n;
    Dtype dtype;
    unsigned shift;
  };
  const Case cases[] = {
      {8, 8, 8, 8, Dtype::kInt8, 0},
      {16, 24, 16, 8, Dtype::kInt8, 5},
      {17, 9, 13, 8, Dtype::kInt16, 2},   // ragged everywhere
      {8, 8, 20, 16, Dtype::kInt16, 0},   // ragged wide column tile
      {24, 16, 24, 4, Dtype::kInt8, 7},   // narrow column tile
  };
  std::uint64_t seed = 0x6E0ull;
  for (const Case& c : cases) {
    for (const Mapping mapping :
         {Mapping::kOutputStationary, Mapping::kWeightStationary}) {
      GemmSpec spec;
      spec.m = c.m;
      spec.k = c.k;
      spec.n = c.n;
      spec.tile_n = c.tile_n;
      spec.dtype = c.dtype;
      spec.shift = c.shift;
      spec.mapping = mapping;
      const auto a = random_operand(spec.m * spec.k, spec.dtype, ++seed);
      const auto b = random_operand(spec.k * spec.n, spec.dtype, ++seed);
      const GemmResult res = run_local(spec, a, b);
      EXPECT_EQ(res.c, gemm_reference(spec, a, b))
          << c.m << "x" << c.k << "x" << c.n << " tile_n=" << c.tile_n
          << " " << dtype_name(c.dtype) << " shift=" << c.shift << " "
          << mapping_name(mapping);
      EXPECT_EQ(res.jobs, res.schedule.steps.size());
      EXPECT_GT(res.sim_cycles, 0u);
    }
  }
}

TEST(TiledGemm, DeterministicAcrossWorkerCounts) {
  GemmSpec spec;
  spec.m = 24;
  spec.k = 32;
  spec.n = 24;
  spec.shift = 4;
  spec.mapping = Mapping::kWeightStationary;
  const auto a = random_operand(spec.m * spec.k, spec.dtype, 77);
  const auto b = random_operand(spec.k * spec.n, spec.dtype, 78);
  const GemmResult one = run_local(spec, a, b, 1);
  const GemmResult four = run_local(spec, a, b, 4);
  EXPECT_EQ(one.c, four.c);
  EXPECT_EQ(one.sim_cycles, four.sim_cycles);
  EXPECT_EQ(one.scratch_hits, four.scratch_hits);
}

TEST(TiledGemm, TrafficReductionMeetsAcceptanceGate) {
  // The acceptance case: 64x64x64 int8 must cut operand traffic by
  // >= 1.5x vs streaming operands per job (it reaches 8x with the
  // full working set resident).
  GemmSpec spec;
  spec.m = 64;
  spec.k = 64;
  spec.n = 64;
  const auto a = random_operand(spec.m * spec.k, spec.dtype, 101);
  const auto b = random_operand(spec.k * spec.n, spec.dtype, 102);
  const GemmResult res = run_local(spec, a, b, 2, 128);
  EXPECT_EQ(res.c, gemm_reference(spec, a, b));
  EXPECT_GE(res.traffic_reduction, 1.5);
  EXPECT_GT(res.bytes_saved, 0u);
}

// ---------------------------------------------------------------------------
// conv2d via im2col

/// Direct 'valid' convolution with the same wrapped-then-narrowed
/// arithmetic, no im2col.
std::vector<Word> conv_reference(const Conv2dSpec& spec,
                                 std::span<const Word> filters,
                                 std::span<const Word> image) {
  const std::size_t oh = spec.out_h();
  const std::size_t ow = spec.out_w();
  std::vector<Word> out(spec.filters * oh * ow);
  for (std::size_t f = 0; f < spec.filters; ++f) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        std::int64_t sum = 0;
        for (std::size_t fy = 0; fy < spec.kh; ++fy) {
          for (std::size_t fx = 0; fx < spec.kw; ++fx) {
            sum += std::int64_t{as_signed(
                       filters[f * spec.kh * spec.kw + fy * spec.kw +
                               fx])} *
                   as_signed(image[(oy + fy) * spec.in_w + (ox + fx)]);
          }
        }
        out[f * oh * ow + oy * ow + ox] =
            narrow_readback(to_word(sum), spec.shift, spec.dtype);
      }
    }
  }
  return out;
}

TEST(TiledConv2d, Im2colBitExactAgainstDirectConvolution) {
  Conv2dSpec spec;
  spec.in_h = 12;
  spec.in_w = 14;
  spec.kh = 3;
  spec.kw = 3;
  spec.filters = 8;
  spec.dtype = Dtype::kInt8;
  spec.shift = 6;
  const auto filters =
      random_operand(spec.filters * spec.kh * spec.kw, spec.dtype, 31);
  const auto image =
      random_operand(spec.in_h * spec.in_w, spec.dtype, 32);

  rt::Runtime rt = make_runtime(1);
  GemmRunConfig cfg;
  cfg.geometry = kGeom;
  const GemmResult res = run_conv2d(rt, cfg, spec, filters, image);
  EXPECT_EQ(res.c, conv_reference(spec, filters, image));
  // im2col re-reads overlapping patches, so the conv working set
  // must show inter-tile reuse too.
  EXPECT_GT(res.scratch_hits, 0u);
}

}  // namespace
}  // namespace sring::tile
