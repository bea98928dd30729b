#include "tile/gemm_job.hpp"

#include "common/error.hpp"
#include "kernels/matvec_kernel.hpp"
#include "rt/runtime.hpp"

namespace sring::tile {

GemmJobBuilder::GemmJobBuilder(const RingGeometry& geometry,
                               Scratchpad& scratch)
    : geometry_(geometry), scratch_(scratch) {
  geometry_.validate();
  check(geometry_.dnode_count() >= kTileM,
        "tile: GEMM lowering needs at least 8 Dnodes (matvec8 rows)");
}

const StagedTile& GemmJobBuilder::stage_a(const TileSchedule& sched,
                                          const TileStep& step,
                                          std::span<const Word> a) {
  return scratch_.get_or_fill(a_tile_key(step), [&] {
    const GemmSpec& spec = sched.spec;
    // Pack the 8x8 sub-matrix, zero-padding ragged edges: zero rows
    // produce discarded outputs, zero columns multiply padded feed
    // words, both contribute nothing to the wrapped accumulation.
    dsp::Matrix8 m{};
    StagedTile tile;
    tile.words.resize(kTileM * kTileK, 0);
    for (std::size_t r = 0; r < kTileM; ++r) {
      const std::size_t row = std::size_t{step.ti} * kTileM + r;
      if (row >= spec.m) break;
      for (std::size_t q = 0; q < kTileK; ++q) {
        const std::size_t col = std::size_t{step.tk} * kTileK + q;
        if (col >= spec.k) break;
        m[r][q] = a[row * spec.k + col];
        tile.words[r * kTileK + q] = m[r][q];
      }
    }
    // Every A tile is the same matvec8 structure with its own matrix:
    // build the structure once, then patch the 64 immediates per tile.
    if (matvec_blocks_ != spec.tile_n) {
      matvec_ = kernels::make_matvec8_program(geometry_, m, spec.tile_n);
      matvec_blocks_ = spec.tile_n;
    } else {
      kernels::set_matvec8_matrix(matvec_, m);
    }
    tile.program = std::make_shared<const LoadableProgram>(matvec_);
    return tile;
  });
}

const StagedTile& GemmJobBuilder::stage_b(const TileSchedule& sched,
                                          const TileStep& step,
                                          std::span<const Word> b) {
  return scratch_.get_or_fill(b_tile_key(step), [&] {
    const GemmSpec& spec = sched.spec;
    // Feed order: one 8-word block per output column — the K-chunk's
    // values of that column, zero-padded past the operand edge.
    StagedTile tile;
    tile.words.resize(spec.tile_n * kTileK, 0);
    for (std::size_t c = 0; c < spec.tile_n; ++c) {
      const std::size_t col = std::size_t{step.tj} * spec.tile_n + c;
      if (col >= spec.n) break;
      for (std::size_t q = 0; q < kTileK; ++q) {
        const std::size_t row = std::size_t{step.tk} * kTileK + q;
        if (row >= spec.k) break;
        tile.words[c * kTileK + q] = b[row * spec.n + col];
      }
    }
    return tile;
  });
}

rt::Job GemmJobBuilder::build(const TileSchedule& sched,
                              const TileStep& step, std::span<const Word> a,
                              std::span<const Word> b) {
  const GemmSpec& spec = sched.spec;
  check(a.size() == spec.m * spec.k,
        "tile: A operand size does not match m*k");
  check(b.size() == spec.k * spec.n,
        "tile: B operand size does not match k*n");

  // Copy the A tile's program handle before staging B: with a tiny
  // scratchpad, staging B may evict the A entry we hold a reference
  // into.
  std::shared_ptr<const LoadableProgram> program =
      stage_a(sched, step, a).program;
  const StagedTile& b_tile = stage_b(sched, step, b);

  rt::Job job;
  job.name = "gemm.tile";
  job.program = std::move(program);
  job.input = b_tile.words;
  job.run = rt::Job::Run::kUntilHalt;
  job.max_cycles = 64 + 40 * job.input.size();
  job.drain_cycles = 2;
  job.take_words = output_words(sched);
  return job;
}

std::size_t GemmJobBuilder::group_steps(const TileSchedule& sched,
                                        std::size_t workers) {
  return rt::group_size(sched.steps.size(), workers, sched.scratch_capacity);
}

}  // namespace sring::tile
