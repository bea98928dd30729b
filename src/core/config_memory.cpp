#include "core/config_memory.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace sring {

std::uint64_t ConfigIdentity::next() noexcept {
  // Starts at 1 so that 0 is a safe "matches nothing" sentinel for
  // cached (uid, generation) pairs.
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void RingGeometry::validate() const {
  check(layers >= 1 && layers <= 32,
        "RingGeometry: layers must be in [1, 32]");
  check(lanes >= 1 && lanes <= 16, "RingGeometry: lanes must be in [1, 16]");
  check(fb_depth >= 1 && fb_depth <= 16,
        "RingGeometry: fb_depth must be in [1, 16]");
}

ConfigPage ConfigPage::zeroed(const RingGeometry& g) {
  ConfigPage p;
  p.dnode_instr.assign(g.dnode_count(), 0);
  p.dnode_mode.assign(g.dnode_count(),
                      static_cast<std::uint8_t>(DnodeMode::kGlobal));
  p.switch_route.assign(g.switch_count() * g.lanes, 0);
  return p;
}

ConfigMemory::DecodedPage ConfigMemory::decode_page(const ConfigPage& page) {
  DecodedPage d;
  d.instr.reserve(page.dnode_instr.size());
  for (const auto w : page.dnode_instr) {
    d.instr.push_back(DnodeInstr::decode(w));
  }
  d.route.reserve(page.switch_route.size());
  for (const auto w : page.switch_route) {
    d.route.push_back(SwitchRoute::decode(w));
  }
  return d;
}

std::uint64_t ConfigMemory::hash_page(const ConfigPage& page) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto w : page.dnode_instr) h = hash_mix(h, w & ~kImmFieldMask);
  for (const auto m : page.dnode_mode) h = hash_mix(h, m);
  for (const auto w : page.switch_route) h = hash_mix(h, w);
  return h;
}

ConfigMemory::ConfigMemory(const RingGeometry& g)
    : geom_(g), live_(ConfigPage::zeroed(g)) {
  geom_.validate();
  live_decoded_ = decode_page(live_);
  live_imm_.assign(geom_.dnode_count(), 0);
  route_changes_per_switch_.assign(geom_.switch_count(), 0);
}

void ConfigMemory::materialize_live() {
  if (live_page_ < 0) return;
  const Word* const imms = live_imms();
  live_ = pages_[static_cast<std::size_t>(live_page_)];
  live_decoded_ = pages_decoded_[static_cast<std::size_t>(live_page_)];
  live_imm_.assign(imms, imms + geom_.dnode_count());
  live_page_ = -1;
}

std::uint64_t ConfigMemory::content_hash() const {
  if (live_page_ >= 0) {
    return page_hashes_[static_cast<std::size_t>(live_page_)];
  }
  if (live_hash_gen_ != generation_) {
    live_hash_ = hash_page(live_);
    live_hash_gen_ = generation_;
  }
  return live_hash_;
}

void ConfigMemory::write_dnode_instr(std::size_t dnode,
                                     std::uint64_t encoded) {
  check(dnode < geom_.dnode_count(),
        "ConfigMemory: dnode index out of range");
  materialize_live();
  // Decode validates eagerly: a malformed word never lands.
  live_decoded_.instr[dnode] = DnodeInstr::decode(encoded);
  live_imm_[dnode] = live_decoded_.instr[dnode].imm;
  live_.dnode_instr[dnode] = encoded;
  ++words_written_;
  ++generation_;
}

void ConfigMemory::write_dnode_mode(std::size_t dnode, DnodeMode mode) {
  check(dnode < geom_.dnode_count(),
        "ConfigMemory: dnode index out of range");
  materialize_live();
  live_.dnode_mode[dnode] = static_cast<std::uint8_t>(mode);
  ++words_written_;
  ++generation_;
}

void ConfigMemory::write_switch_route(std::size_t sw, std::size_t lane,
                                      std::uint64_t encoded) {
  check(sw < geom_.switch_count(), "ConfigMemory: switch index out of range");
  check(lane < geom_.lanes, "ConfigMemory: lane index out of range");
  materialize_live();
  const std::size_t i = sw * geom_.lanes + lane;
  SwitchRoute decoded = SwitchRoute::decode(encoded);  // validates
  if (!(decoded == live_decoded_.route[i])) {
    ++route_changes_per_switch_[sw];
  }
  live_decoded_.route[i] = std::move(decoded);
  live_.switch_route[i] = encoded;
  ++words_written_;
  ++generation_;
}

void ConfigMemory::reset_live() {
  // In place: a pooled System re-arms through here on every job.
  const std::size_t n = geom_.dnode_count();
  const std::size_t routes = geom_.switch_count() * geom_.lanes;
  live_.dnode_instr.assign(n, 0);
  live_.dnode_mode.assign(n, static_cast<std::uint8_t>(DnodeMode::kGlobal));
  live_.switch_route.assign(routes, 0);
  live_decoded_.instr.assign(n, DnodeInstr::decode(0));
  live_imm_.assign(n, 0);
  live_decoded_.route.assign(routes, SwitchRoute::decode(0));
  live_page_ = -1;
  words_written_ = 0;
  std::fill(route_changes_per_switch_.begin(),
            route_changes_per_switch_.end(), 0);
  ++generation_;  // monotonic within this object: plans never revalidate
}

std::uint64_t ConfigMemory::route_changes_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto c : route_changes_per_switch_) total += c;
  return total;
}

const DnodeInstr& ConfigMemory::dnode_instr(std::size_t dnode) const {
  check(dnode < geom_.dnode_count(),
        "ConfigMemory: dnode index out of range");
  return active_dec().instr[dnode];
}

std::uint64_t ConfigMemory::dnode_instr_raw(std::size_t dnode) const {
  check(dnode < geom_.dnode_count(),
        "ConfigMemory: dnode index out of range");
  return active_raw().dnode_instr[dnode];
}

DnodeMode ConfigMemory::dnode_mode(std::size_t dnode) const {
  check(dnode < geom_.dnode_count(),
        "ConfigMemory: dnode index out of range");
  return static_cast<DnodeMode>(active_raw().dnode_mode[dnode]);
}

const SwitchRoute& ConfigMemory::switch_route(std::size_t sw,
                                              std::size_t lane) const {
  check(sw < geom_.switch_count(), "ConfigMemory: switch index out of range");
  check(lane < geom_.lanes, "ConfigMemory: lane index out of range");
  return active_dec().route[sw * geom_.lanes + lane];
}

std::size_t ConfigMemory::add_page(ConfigPage page) {
  check(page.dnode_instr.size() == geom_.dnode_count() &&
            page.dnode_mode.size() == geom_.dnode_count() &&
            page.switch_route.size() == geom_.switch_count() * geom_.lanes,
        "ConfigMemory::add_page: page shape does not match geometry");
  for (const auto m : page.dnode_mode) {
    check(m <= static_cast<std::uint8_t>(DnodeMode::kLocal),
          "ConfigMemory::add_page: bad mode value");
  }
  pages_decoded_.push_back(decode_page(page));  // validates all words
  for (const DnodeInstr& in : pages_decoded_.back().instr) {
    page_imms_.push_back(in.imm);
  }
  page_hashes_.push_back(hash_page(page));
  swap_to_.emplace_back();
  pages_.push_back(std::move(page));
  return pages_.size() - 1;
}

const ConfigPage& ConfigMemory::page(std::size_t index) const {
  check(index < pages_.size(), "ConfigMemory::page: no such page");
  return pages_[index];
}

bool ConfigMemory::patch_imms(std::span<const ConfigPage> pages) {
  if (pages.size() != pages_.size()) return false;
  for (std::size_t p = 0; p < pages.size(); ++p) {
    if (pages[p].dnode_mode != pages_[p].dnode_mode ||
        pages[p].switch_route != pages_[p].switch_route ||
        pages[p].dnode_instr.size() != pages_[p].dnode_instr.size()) {
      return false;
    }
  }
  const std::size_t n = geom_.dnode_count();
  const auto write = [&](std::size_t at, std::uint64_t word) {
    const std::size_t p = at / n;
    const std::size_t i = at % n;
    pages_[p].dnode_instr[i] = word;
    const Word imm = static_cast<Word>((word & kImmFieldMask) >>
                                       std::countr_zero(kImmFieldMask));
    pages_decoded_[p].instr[i].imm = imm;
    page_imms_[at] = imm;
  };
  patched_.clear();
  bool live_patched = false;
  for (std::size_t p = 0; p < pages.size(); ++p) {
    const std::uint64_t* const want = pages[p].dnode_instr.data();
    const std::uint64_t* const have = pages_[p].dnode_instr.data();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t diff = want[i] ^ have[i];
      if (diff == 0) continue;
      if ((diff & ~kImmFieldMask) != 0) {
        for (const auto& [at, old] : patched_) write(at, old);
        return false;
      }
      patched_.emplace_back(p * n + i, have[i]);
      write(p * n + i, want[i]);
      live_patched = live_patched || live_page_ == static_cast<std::ptrdiff_t>(p);
    }
  }
  if (live_patched) ++generation_;
  return true;
}

const std::uint64_t* ConfigMemory::swap_row(std::size_t from,
                                            std::size_t to) {
  const std::size_t switches = geom_.switch_count();
  std::vector<SwapDiff>& met = swap_to_[from];
  for (const SwapDiff& d : met) {
    if (d.to == to) return swap_rows_.data() + d.row * switches;
  }
  const DecodedPage& a = pages_decoded_[from];
  const DecodedPage& b = pages_decoded_[to];
  met.push_back({static_cast<std::uint32_t>(to),
                 static_cast<std::uint32_t>(swap_rows_.size() / switches)});
  for (std::size_t sw = 0; sw < switches; ++sw) {
    std::uint64_t diffs = 0;
    for (std::size_t lane = 0; lane < geom_.lanes; ++lane) {
      const std::size_t i = sw * geom_.lanes + lane;
      diffs += a.route[i] == b.route[i] ? 0 : 1;
    }
    swap_rows_.push_back(diffs);
  }
  return swap_rows_.data() + met.back().row * switches;
}

std::span<const std::uint64_t> ConfigMemory::swap_route_changes(
    std::size_t from, std::size_t to) const noexcept {
  if (from >= swap_to_.size()) return {};
  const std::size_t switches = geom_.switch_count();
  for (const SwapDiff& d : swap_to_[from]) {
    if (d.to == to) return {swap_rows_.data() + d.row * switches, switches};
  }
  return {};
}

void ConfigMemory::apply_page(std::size_t index) {
  check(index < pages_.size(), "ConfigMemory::apply_page: no such page");
  if (live_page_ >= 0) {
    // Page-to-page swap: the per-switch decoded-route diff depends
    // only on the immutable (from, to) pair, so it is computed once
    // and replayed as counter bumps on every later swap.
    const std::uint64_t* const diffs =
        swap_row(static_cast<std::size_t>(live_page_), index);
    for (std::size_t sw = 0; sw < geom_.switch_count(); ++sw) {
      route_changes_per_switch_[sw] += diffs[sw];
    }
  } else {
    const DecodedPage& to = pages_decoded_[index];
    for (std::size_t sw = 0; sw < geom_.switch_count(); ++sw) {
      for (std::size_t lane = 0; lane < geom_.lanes; ++lane) {
        const std::size_t i = sw * geom_.lanes + lane;
        if (!(live_decoded_.route[i] == to.route[i])) {
          ++route_changes_per_switch_[sw];
        }
      }
    }
  }
  // The live image becomes a reference to the page — no copy; a later
  // word write materializes a private copy first.
  live_page_ = static_cast<std::ptrdiff_t>(index);
  words_written_ += page_words();
  ++generation_;
}

void ConfigMemory::credit_swaps(std::size_t last, std::uint64_t swaps,
                                std::span<const std::uint64_t> route_changes) {
  check(last < pages_.size() && route_changes.size() == geom_.switch_count(),
        "ConfigMemory::credit_swaps: bad page or route-change count");
  for (std::size_t sw = 0; sw < route_changes.size(); ++sw) {
    route_changes_per_switch_[sw] += route_changes[sw];
  }
  live_page_ = static_cast<std::ptrdiff_t>(last);
  words_written_ += swaps * page_words();
  generation_ += swaps;
}

}  // namespace sring
