// GemmJobBuilder: lowers one TileStep onto the existing matvec8
// configware page as a plain rt::Job, staging both operand tiles
// through the Scratchpad on the way.
//
// Per step the job computes the 8 x tile_n partial-product block
//   P[r][c] = sum over the step's K-chunk of A[8*ti+r][8*tk+q] *
//             B[8*tk+q][tile_n*tj+c]   (mod 2^16)
// by baking the A sub-tile as the page's Matrix8 and streaming the B
// sub-tile's columns as 8-word feed blocks.  The builder builds the
// matvec8 structure once and derives each A tile's program by patching
// its 64 immediates; the program lives in the tile's scratchpad entry.
// Every tile program shares one structure, so a pooled System re-arms
// between tiles by writing immediates, and the Ring re-attaches its
// cached plans without compiling.
//
// The worker fleet, plan cache, superstep engine and telemetry all see
// an ordinary matvec-shaped job; nothing downstream of rt::Job knows
// tiles exist.
#pragma once

#include <span>
#include <vector>

#include "core/config_memory.hpp"
#include "rt/job.hpp"
#include "sim/program.hpp"
#include "tile/scratchpad.hpp"
#include "tile/tile_plan.hpp"

namespace sring::tile {

class GemmJobBuilder {
 public:
  /// `scratch` must outlive the builder; the geometry needs >= 8
  /// Dnodes (matvec8's requirement).
  GemmJobBuilder(const RingGeometry& geometry, Scratchpad& scratch);

  /// Build the rt::Job of `step`.  `a`/`b` are the full row-major
  /// operands of the schedule's spec; tiles already staged are not
  /// touched again.
  rt::Job build(const TileSchedule& sched, const TileStep& step,
                std::span<const Word> a, std::span<const Word> b);

  /// Steps per fleet group, the fan-out rule of local and served GEMMs
  /// (rt::group_size, which v5 batches use too): one contiguous run
  /// per worker, capped at the schedule's scratchpad capacity so a
  /// group never holds more lowered steps than the scratchpad holds
  /// tiles.  Consecutive steps share operand tiles, so a run on one
  /// worker keeps its A tile's program armed there.
  static std::size_t group_steps(const TileSchedule& sched,
                                 std::size_t workers);

  /// Host output words of one tile job (tile_n blocks of 8 rows).
  static std::size_t output_words(const TileSchedule& sched) {
    return sched.spec.tile_n * kTileM;
  }

 private:
  const StagedTile& stage_a(const TileSchedule& sched,
                            const TileStep& step, std::span<const Word> a);
  const StagedTile& stage_b(const TileSchedule& sched,
                            const TileStep& step, std::span<const Word> b);

  RingGeometry geometry_;
  Scratchpad& scratch_;
  /// The matvec8 program of the last A tile staged, for
  /// `matvec_blocks_` feed blocks (0: none built yet).
  LoadableProgram matvec_;
  std::size_t matvec_blocks_ = 0;
};

}  // namespace sring::tile
