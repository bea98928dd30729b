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

void Scratchpad::evict_over_capacity() {
  // Walk from the LRU end, skipping pinned tiles.  Pinned residency
  // above capacity is allowed (and is the caller's sizing bug).
  auto it = lru_.end();
  while (entries_.size() > capacity_ && it != lru_.begin()) {
    --it;
    auto found = entries_.find(*it);
    if (found == entries_.end() || found->second.tile.pinned) continue;
    it = lru_.erase(it);
    entries_.erase(found);
    ++evictions_;
  }
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
  return this->fill(key, fill());
}

const StagedTile& Scratchpad::fill(const TileKey& key, StagedTile tile) {
  ++refills_;
  bytes_filled_ += tile.bytes();
  auto found = entries_.find(key);
  if (found != entries_.end()) {
    const bool pinned = found->second.tile.pinned;
    found->second.tile = std::move(tile);
    found->second.tile.pinned = pinned;
    touch(found->second);
    return found->second.tile;
  }
  lru_.push_front(key);
  Entry entry;
  entry.tile = std::move(tile);
  entry.lru_it = lru_.begin();
  auto [it, inserted] = entries_.emplace(key, std::move(entry));
  evict_over_capacity();
  return it->second.tile;
}

bool Scratchpad::contains(const TileKey& key) const {
  return entries_.find(key) != entries_.end();
}

void Scratchpad::retain(const TileKey& key) {
  auto found = entries_.find(key);
  if (found != entries_.end()) found->second.tile.pinned = true;
}

void Scratchpad::release(const TileKey& key) {
  auto found = entries_.find(key);
  if (found != entries_.end()) found->second.tile.pinned = false;
}

bool Scratchpad::evict(const TileKey& key) {
  auto found = entries_.find(key);
  if (found == entries_.end() || found->second.tile.pinned) return false;
  lru_.erase(found->second.lru_it);
  entries_.erase(found);
  ++evictions_;
  return true;
}

void Scratchpad::clear() {
  evictions_ += entries_.size();
  entries_.clear();
  lru_.clear();
}

}  // namespace sring::tile
