// Feedback pipeline (the "reverse dataflow" of paper §4.2).
//
// Each switch owns one: every clock edge it unconditionally latches the
// full output vector of the upstream Dnode layer.  All switches may
// read any pipeline at any depth, which replaces long-distance routing
// and provides the delays recursive filters need.
//
// Depth convention: read(lane, 0) returns the value latched at the most
// recent clock edge, i.e. the upstream output delayed by exactly one
// cycle relative to the direct (PREV) route.  read(lane, d) is delayed
// by d additional cycles.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace sring {

class FeedbackPipeline {
 public:
  FeedbackPipeline(std::size_t lanes, std::size_t depth);

  std::size_t lanes() const noexcept { return lanes_; }
  std::size_t depth() const noexcept { return depth_; }

  /// Read one lane at the given depth (0 = most recently latched).
  Word read(std::size_t lane, std::size_t depth) const;

  /// Unchecked read for pre-validated addresses — the Ring's compiled
  /// cycle-plan path, which proves lane/depth in range at plan-compile
  /// time.  Out-of-range arguments are undefined behaviour here.
  Word read_fast(std::size_t lane, std::size_t depth) const noexcept {
    std::size_t stage = head_ + depth;
    if (stage >= depth_) stage -= depth_;
    return stages_[stage * lanes_ + lane];
  }

  /// Clock edge: latch the upstream layer's output vector.
  void push(const std::vector<Word>& upstream_outputs);

  /// Same, from a raw pointer to `lanes()` words.  Inline: latched once
  /// per switch per cycle inside the ring's fused loop.  The oldest
  /// stage is overwritten and becomes the new depth-0 stage
  /// (conditional decrement, not modulo — a runtime division dominated
  /// the latch cost).
  void push_from(const Word* upstream_outputs) {
    head_ = (head_ == 0 ? depth_ : head_) - 1;
    std::copy(upstream_outputs, upstream_outputs + lanes_,
              stages_.begin() + static_cast<std::ptrdiff_t>(head_ * lanes_));
    ++pushes_;
  }

  /// Latch `edges` clock edges at once whose upstream vectors sit
  /// newest first at `rows + k * stride` (only the last depth() of
  /// them are still visible afterwards, and only those are read) — the
  /// superstep engine's write-back of its shared window.
  void push_rows(const Word* rows, std::size_t stride, std::uint64_t edges) {
    const std::size_t visible =
        edges < depth_ ? static_cast<std::size_t>(edges) : depth_;
    for (std::size_t k = visible; k-- > 0;) push_from(rows + k * stride);
    pushes_ += edges - visible;
  }

  /// Clock edges latched since the last reset (instrumentation).
  std::uint64_t pushes() const noexcept { return pushes_; }

  /// Stages holding live (post-reset) data: min(pushes, depth).
  std::size_t occupancy() const noexcept {
    return pushes_ < depth_ ? static_cast<std::size_t>(pushes_) : depth_;
  }

  /// Clear all stages to zero.
  void reset() noexcept;

 private:
  std::size_t lanes_;
  std::size_t depth_;
  std::size_t head_ = 0;                 // index of the depth-0 stage
  std::uint64_t pushes_ = 0;
  std::vector<Word> stages_;             // depth_ x lanes_, ring buffer
};

}  // namespace sring
