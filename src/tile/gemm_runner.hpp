// Tiled GEMM/conv execution on the rt worker fleet.
//
// run_gemm plans the schedule, stages tiles through a Scratchpad,
// lowers every step to an rt::Job (GemmJobBuilder) and submits the
// steps to the fleet as contiguous groups, one run per worker
// (GemmJobBuilder::group_steps, the rule the net server uses too).
// Per-chunk partial products are folded into a
// 16-bit accumulator grid with wrapping adds — order-independent
// (mod-2^16 addition is associative and commutative), which is what
// makes the result bit-identical at any worker count and lets the net
// server accumulate tile completions asynchronously.  The final grid
// is narrowed with the rounding-saturating readback.
//
// accumulate_tile and narrow_grid are exposed separately because the
// server's poll loop performs the same fold incrementally as tile
// groups complete.
#pragma once

#include <span>
#include <vector>

#include "rt/runtime.hpp"
#include "tile/gemm_job.hpp"

namespace sring::tile {

struct GemmRunConfig {
  RingGeometry geometry{8, 2, 16};
  /// Scratchpad size in operand tiles.  128 holds the full working
  /// set of a 64x64x64 / tile_n=8 GEMM (64 A + 64 B tiles).
  std::size_t scratch_tiles = 128;
};

struct GemmResult {
  std::vector<Word> c;    ///< row-major m*n narrowed outputs
  TileSchedule schedule;  ///< includes the up-front reuse prediction

  std::uint64_t jobs = 0;
  std::uint64_t sim_cycles = 0;

  // Observed scratchpad behaviour (equals the schedule's prediction).
  std::uint64_t scratch_hits = 0;
  std::uint64_t scratch_refills = 0;
  std::uint64_t scratch_evictions = 0;
  std::uint64_t bytes_filled = 0;
  std::uint64_t bytes_saved = 0;
  /// streamed_bytes / bytes_filled — operand-traffic reduction vs the
  /// stream-every-job baseline.
  double traffic_reduction = 1.0;
};

/// Fold one tile job's host outputs into the m*n accumulator grid
/// (wrapping adds; padded rows/columns are discarded here).
void accumulate_tile(const TileSchedule& sched, const TileStep& step,
                     std::span<const Word> outputs, std::span<Word> acc);

/// Apply the rounding-saturating readback to a full accumulator grid.
std::vector<Word> narrow_grid(const GemmSpec& spec,
                              std::span<const Word> acc);

/// Execute `spec` over the fleet.  Throws SimError on invalid
/// operands or a failed tile job.
GemmResult run_gemm(rt::Runtime& rt, const GemmRunConfig& cfg,
                    const GemmSpec& spec, std::span<const Word> a,
                    std::span<const Word> b);

/// im2col-lowered convolution; returns the GEMM result whose rows are
/// filters and columns are output pixels (row-major filters x
/// (out_h*out_w)).
GemmResult run_conv2d(rt::Runtime& rt, const GemmRunConfig& cfg,
                      const Conv2dSpec& spec,
                      std::span<const Word> filters,
                      std::span<const Word> image);

}  // namespace sring::tile
