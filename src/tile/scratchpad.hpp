// Host-side operand scratchpad: the staging buffer between operand
// memory and the ring's host FIFOs.
//
// Hardware systolic arrays (the paper's §3 host/IP split; Gemmini's
// scratchpad sized in matrices) win by staging operand tiles once and
// reusing them across many output tiles instead of re-streaming them
// per job.  This models that memory level on the host: a bounded LRU
// store of packed operand tiles, where a hit means the tile's bytes
// did NOT have to travel from operand memory again.  A-tiles
// additionally carry their baked matvec configware page, so a hit
// also re-arms the ring from the plan/pool caches instead of
// recompiling.
//
// Counters (named tile.scratch.* by kCounterNames, the one place those
// names are built; GEMM replies and server stats both use it):
//   hits          tile already staged when requested
//   refills       tile staged from operand memory on a miss
//   evictions     LRU evictions
//   bytes_filled  operand bytes staged (the scratchpad's real traffic)
//   bytes_saved   operand bytes a streamed-per-job baseline would
//                 have refetched (tile bytes per hit)
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "sim/program.hpp"

namespace sring::tile {

/// Which operand grid a staged tile belongs to.
enum class Operand : std::uint8_t { kA = 0, kB = 1 };

/// Identity of one operand tile in its tile grid.
struct TileKey {
  Operand operand = Operand::kA;
  std::uint32_t row = 0;
  std::uint32_t col = 0;

  bool operator==(const TileKey&) const = default;
};

struct TileKeyHash {
  std::size_t operator()(const TileKey& k) const noexcept {
    // Fibonacci-mix the packed coordinates; operand in the top bit.
    const std::uint64_t packed =
        (std::uint64_t{static_cast<std::uint8_t>(k.operand)} << 62) |
        (std::uint64_t{k.row} << 31) | k.col;
    return static_cast<std::size_t>(packed * 0x9E3779B97F4A7C15ull);
  }
};

/// One staged tile: the packed words (A: row-major 8x8 sub-matrix;
/// B: column-major feed blocks) plus, for A tiles, the matvec page
/// program baked from them.
struct StagedTile {
  std::vector<Word> words;
  std::shared_ptr<const LoadableProgram> program;

  std::size_t bytes() const noexcept { return words.size() * sizeof(Word); }
};

/// Bounded LRU staging buffer sized in operand tiles.
class Scratchpad {
 public:
  explicit Scratchpad(std::size_t capacity_tiles = 64);

  using Filler = std::function<StagedTile()>;

  /// The tile at `key`, staging it via `fill` on a miss.  A hit counts
  /// the tile's bytes as saved traffic; a miss counts a refill and the
  /// staged bytes, evicting the LRU tile when over capacity.
  /// The reference stays valid until the tile is evicted.
  const StagedTile& get_or_fill(const TileKey& key, const Filler& fill);

  bool contains(const TileKey& key) const;

  std::size_t capacity_tiles() const noexcept { return capacity_; }
  std::size_t resident_tiles() const noexcept { return entries_.size(); }

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t refills() const noexcept { return refills_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::uint64_t bytes_filled() const noexcept { return bytes_filled_; }
  std::uint64_t bytes_saved() const noexcept { return bytes_saved_; }

  /// The counters' names, in counters() order.
  static constexpr std::array<std::string_view, 5> kCounterNames{
      "tile.scratch.hits", "tile.scratch.refills", "tile.scratch.evictions",
      "tile.scratch.bytes_filled", "tile.scratch.bytes_saved"};
  std::array<std::uint64_t, 5> counters() const noexcept {
    return {hits_, refills_, evictions_, bytes_filled_, bytes_saved_};
  }

 private:
  struct Entry {
    StagedTile tile;
    std::list<TileKey>::iterator lru_it;
  };

  void touch(Entry& entry);

  std::size_t capacity_;
  std::list<TileKey> lru_;  ///< front = most recently used
  std::unordered_map<TileKey, Entry, TileKeyHash> entries_;

  std::uint64_t hits_ = 0;
  std::uint64_t refills_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t bytes_filled_ = 0;
  std::uint64_t bytes_saved_ = 0;
};

}  // namespace sring::tile
