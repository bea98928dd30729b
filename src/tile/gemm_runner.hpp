// Tiled GEMM/conv execution on the rt worker fleet.
//
// GemmDriver is the one orchestration of a tiled GEMM: it stages tiles
// through a Scratchpad, lowers the schedule to rt::Jobs
// (GemmJobBuilder) in contiguous groups, one run per worker
// (GemmJobBuilder::group_steps), folds finished groups into a 16-bit
// accumulator grid with wrapping adds and names the reply counters.
// The fold is order-independent (mod-2^16 addition is associative and
// commutative), which makes the result bit-identical at any worker
// count and lets groups land in any order.  The final grid is narrowed
// with the rounding-saturating readback.  run_gemm drives it
// synchronously; net::Server drives it from its poll loop, submitting
// groups as the queue admits them and folding them as they complete.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
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

  /// The counters a served run of this GEMM replies with
  /// (GemmDriver::reply_counters).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Fold one tile job's host outputs into the m*n accumulator grid
/// (wrapping adds; padded rows/columns are discarded here).
void accumulate_tile(const TileSchedule& sched, const TileStep& step,
                     std::span<const Word> outputs, std::span<Word> acc);

/// Apply the rounding-saturating readback to a full accumulator grid.
std::vector<Word> narrow_grid(const GemmSpec& spec,
                              std::span<const Word> acc);

/// One tiled GEMM in flight.  It owns the operands, the schedule, the
/// scratchpad and its builder, the accumulator grid and the cursor of
/// the next step to lower.  Lowering runs in schedule order through
/// the one scratchpad, so the tile.scratch.* counters do not depend on
/// the fleet.  Not copyable or movable: the builder refers to the
/// scratchpad.
class GemmDriver {
 public:
  using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

  /// The scratchpad holds `sched->scratch_capacity` tiles.  Throws
  /// SimError on a geometry the tile engine cannot lower.
  GemmDriver(const RingGeometry& geometry,
             std::shared_ptr<const TileSchedule> sched, std::vector<Word> a,
             std::vector<Word> b);
  GemmDriver(const GemmDriver&) = delete;
  GemmDriver& operator=(const GemmDriver&) = delete;

  const TileSchedule& schedule() const noexcept { return *sched_; }
  const Scratchpad& scratch() const noexcept { return scratch_; }
  /// First schedule step not yet lowered.
  std::size_t next_step() const noexcept { return next_; }
  bool lowered_all() const noexcept { return next_ == sched_->steps.size(); }

  /// Lower the next group_steps(schedule, workers) steps and advance
  /// the cursor past them.  Throws SimError on operands that do not
  /// match the spec.
  std::vector<rt::Job> lower_group(std::size_t workers);

  /// Fold the results of the group lowered at schedule step `first`.
  /// A failed job or an unexpected output shape fails the GEMM with
  /// its first error; every result still adds to totals().
  void fold(std::size_t first, const std::vector<rt::JobResult>& results);

  /// Fail the GEMM with `why` unless it already failed.
  void fail(std::string why);
  bool failed() const noexcept { return failed_; }
  const std::string& error() const noexcept { return error_; }

  /// Totals over the tiles' results (rt::add_to_record): sim cycles,
  /// plan hits, superstep cycles and summed phases; worker is the last
  /// tile's.  Of a GEMM that did not fail, these are the folded tiles'.
  const obs::SpanRecord& totals() const noexcept { return totals_; }
  bool any_reused() const noexcept { return any_reused_; }

  /// The narrowed m*n result of the folded tiles.
  std::vector<Word> result() const;

  /// The counters of a GEMM reply: sim.cycles, tile.jobs, the
  /// scratchpad's tile.scratch.* and tile.streamed_bytes.
  Counters reply_counters() const;

 private:
  std::shared_ptr<const TileSchedule> sched_;
  std::vector<Word> a_, b_;
  Scratchpad scratch_;
  GemmJobBuilder builder_;  ///< holds a reference to scratch_
  std::vector<Word> acc_;   ///< m*n wrapping accumulator grid
  std::size_t next_ = 0;
  obs::SpanRecord totals_;
  bool any_reused_ = false;
  bool failed_ = false;
  std::string error_;  ///< first failure, verbatim
};

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
