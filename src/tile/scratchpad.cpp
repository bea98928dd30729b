#include "tile/scratchpad.hpp"

#include "common/error.hpp"

namespace sring::tile {

Scratchpad::Scratchpad(std::size_t capacity_tiles)
    : capacity_(capacity_tiles) {
  check(capacity_ >= 1, "tile: scratchpad capacity must be >= 1 tile");
}

void Scratchpad::touch(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
}

const StagedTile& Scratchpad::get_or_fill(const TileKey& key,
                                          const Filler& fill) {
  auto found = entries_.find(key);
  if (found != entries_.end()) {
    ++hits_;
    bytes_saved_ += found->second.tile.bytes();
    touch(found->second);
    return found->second.tile;
  }
  Entry entry;
  entry.tile = fill();
  ++refills_;
  bytes_filled_ += entry.tile.bytes();
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  auto [it, inserted] = entries_.emplace(key, std::move(entry));
  if (entries_.size() > capacity_) {  // evict the least recently used
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  return it->second.tile;
}

bool Scratchpad::contains(const TileKey& key) const {
  return entries_.find(key) != entries_.end();
}

}  // namespace sring::tile
