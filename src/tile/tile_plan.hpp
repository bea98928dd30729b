// Tile planner: decomposes an MxKxN narrow-integer GEMM into the
// ordered schedule of 8-row x tile_n-column output tiles the matvec8
// engine can execute, with inter-tile operand reuse computed up front.
//
// Tiling grid.  The matvec8 configware page fixes the A sub-tile at
// 8x8 (one baked Matrix8, eight Dnode rows) and consumes K in chunks
// of 8; only the output-tile width tile_n is free.  A TileStep (ti,
// tk, tj) computes the partial products of output rows [8*ti, 8*ti+8)
// x columns [tile_n*tj, ...) contributed by K-chunk tk.  Ragged edges
// are zero-padded — zero rows/columns contribute zero to the wrapped
// accumulation, so padding never perturbs the result.
//
// Mappings order the same step set differently:
//   output-stationary  (ti, tj, tk): the 8 x tile_n output tile stays
//     in the host accumulator while its K-chunks stream through;
//   weight-stationary  (ti, tk, tj): the A sub-tile (the "weight", a
//     baked configware page) stays resident across all column tiles,
//     so consecutive jobs run the same program and stage nothing new.
//     (Every A tile shares one program structure, so either mapping
//     re-arms a pooled System by patching immediates and compiles no
//     plan per tile.)
//
// plan_gemm replays the step order against the same LRU model the
// Scratchpad implements, so the predicted hits/refills/bytes match
// the observed tile.scratch.* counters exactly (tested).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "tile/gemm_ref.hpp"
#include "tile/scratchpad.hpp"

namespace sring::tile {

/// A sub-tile height / K-chunk depth, fixed by the matvec8 engine.
inline constexpr std::size_t kTileM = 8;
inline constexpr std::size_t kTileK = 8;

/// One schedule entry: row-band ti, K-chunk tk, column tile tj.
struct TileStep {
  std::uint32_t ti = 0;
  std::uint32_t tk = 0;
  std::uint32_t tj = 0;

  bool operator==(const TileStep&) const = default;
};

/// Scratchpad keys of a step's operand tiles.
TileKey a_tile_key(const TileStep& step) noexcept;
TileKey b_tile_key(const TileStep& step) noexcept;

struct TileSchedule {
  GemmSpec spec;
  std::size_t tiles_m = 0;  ///< ceil(m / 8)
  std::size_t tiles_k = 0;  ///< ceil(k / 8)
  std::size_t tiles_n = 0;  ///< ceil(n / tile_n)
  std::vector<TileStep> steps;

  std::size_t a_tile_words = 0;  ///< 64 (one Matrix8)
  std::size_t b_tile_words = 0;  ///< 8 * tile_n feed words

  /// Predicted traffic for a scratchpad of the planned capacity:
  std::size_t scratch_capacity = 0;
  std::uint64_t streamed_bytes = 0;   ///< per-job streaming, no reuse
  std::uint64_t staged_bytes = 0;     ///< predicted refill traffic
  std::uint64_t expected_hits = 0;
  std::uint64_t expected_refills = 0;
  /// streamed_bytes / staged_bytes — the operand-traffic reduction an
  /// LRU scratchpad of this capacity delivers on this schedule.
  double reuse_factor = 1.0;
};

/// Plan the tile schedule of `spec` for a scratchpad holding
/// `scratch_capacity` tiles.  Throws SimError on an invalid spec.
TileSchedule plan_gemm(const GemmSpec& spec, std::size_t scratch_capacity);

/// Bounded LRU of tile schedules keyed by (GemmSpec, scratch capacity).
/// plan_gemm replays the whole schedule against the eviction model, so
/// re-planning an identical request is pure waste — the net server
/// (which sees the same GEMM shapes over and over) asks the cache
/// instead.  Thread-safe: shards share one instance; the returned
/// schedule is immutable and outlives eviction via shared_ptr.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity) : capacity_(capacity) {}

  /// The cached schedule for (spec, scratch_capacity), planning and
  /// inserting on a miss.  Throws SimError (without caching anything)
  /// on an invalid spec.
  std::shared_ptr<const TileSchedule> get_or_plan(
      const GemmSpec& spec, std::size_t scratch_capacity);

  std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;

 private:
  struct Entry {
    GemmSpec spec;
    std::size_t scratch_capacity = 0;
    std::shared_ptr<const TileSchedule> sched;
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace sring::tile
