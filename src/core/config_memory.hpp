// Configuration layer (paper §3).
//
// Holds the live configuration of the operating layer: one 48-bit
// microinstruction and an execution mode per Dnode, and one route word
// per (switch, downstream lane).  The configuration controller rewrites
// it word-by-word (WRCFG/WRMODE/WRSW) or swaps in a preloaded full
// snapshot ("page") in a single cycle (PAGE/PAGER) — the mechanism that
// realizes the paper's "change up to the entire content each clock
// cycle".
//
// A page swap does not copy the page: the live image is a reference to
// the applied page until the next word write materializes a private
// copy (copy-on-write).  Page swaps are the hot operation of
// hardware-multiplexed kernels, so they also carry a precomputed
// structure hash and memoized per-switch route-change deltas (for each
// page, a list of the pages swapped to from it) — the observable
// semantics (accessors, generation, statistics) are identical to eager
// copying.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/switch.hpp"
#include "isa/dnode_instr.hpp"

namespace sring {

/// Dnode execution mode (paper §4.1).
enum class DnodeMode : std::uint8_t {
  kGlobal = 0,  ///< microinstruction supplied by the configuration layer
  kLocal = 1,   ///< microinstruction supplied by the local control unit
};

/// Shape of a ring instance: `layers` Dnode layers of `lanes` Dnodes,
/// closed into a ring; one switch (and feedback pipeline) per layer.
struct RingGeometry {
  std::size_t layers = 4;
  std::size_t lanes = 2;
  std::size_t fb_depth = 16;  ///< feedback pipeline depth (1..16)

  std::size_t dnode_count() const noexcept { return layers * lanes; }
  std::size_t switch_count() const noexcept { return layers; }

  bool operator==(const RingGeometry&) const = default;

  /// Validate against the route-word field widths (<=32 layers,
  /// <=16 lanes, fb_depth 1..16).
  void validate() const;
};

/// One complete configuration snapshot.
struct ConfigPage {
  std::vector<std::uint64_t> dnode_instr;  ///< encoded microinstructions
  std::vector<std::uint8_t> dnode_mode;    ///< DnodeMode values
  std::vector<std::uint64_t> switch_route; ///< [switch * lanes + lane]

  bool operator==(const ConfigPage&) const = default;

  static ConfigPage zeroed(const RingGeometry& g);
};

/// Process-unique identity of a live configuration image.  Copying or
/// moving a ConfigMemory mints a fresh uid for the destination, so a
/// (uid, generation) pair observed once can never accidentally match a
/// different object later — the Ring's compiled cycle-plan cache keys
/// its validity on exactly this pair.
class ConfigIdentity {
 public:
  ConfigIdentity() noexcept : uid_(next()) {}
  ConfigIdentity(const ConfigIdentity&) noexcept : uid_(next()) {}
  ConfigIdentity(ConfigIdentity&&) noexcept : uid_(next()) {}
  ConfigIdentity& operator=(const ConfigIdentity&) noexcept {
    uid_ = next();
    return *this;
  }
  ConfigIdentity& operator=(ConfigIdentity&&) noexcept {
    uid_ = next();
    return *this;
  }

  std::uint64_t value() const noexcept { return uid_; }

 private:
  static std::uint64_t next() noexcept;  // atomic; never returns 0
  std::uint64_t uid_;
};

class ConfigMemory {
 public:
  explicit ConfigMemory(const RingGeometry& g);

  const RingGeometry& geometry() const noexcept { return geom_; }

  // --- cycle-plan cache invalidation key ----------------------------
  /// Process-unique id of this live image (fresh after copy/move).
  std::uint64_t uid() const noexcept { return identity_.value(); }
  /// Bumped by every live-configuration mutation (WRCFG/WRMODE/WRSW,
  /// page swaps, reset_live).  Together with uid() this tells the Ring
  /// whether a compiled cycle plan is still current.
  std::uint64_t generation() const noexcept { return generation_; }

  // --- cycle-plan cache structure key -------------------------------
  /// Hash of the live configuration's *structure*: microinstruction
  /// words with the imm16 field masked out (kImmFieldMask), mode
  /// bytes, route words.  O(1) while a page is applied (page hashes
  /// are precomputed at add_page); lazily recomputed — and cached per
  /// generation — after word writes.  Images that differ only in
  /// immediates hash equal; the Ring's plan cache verifies candidates
  /// against the full masked content and reads immediates through
  /// live_imms().
  std::uint64_t content_hash() const;
  /// Index of the applied page backing the live image, or -1 when the
  /// live image was modified word-by-word since the last swap (or
  /// never came from a page).  Because pages are immutable once
  /// registered, (uid, live_page) equality is an O(1) proof that two
  /// live images of the same ConfigMemory are byte-identical.
  std::ptrdiff_t live_page() const noexcept { return live_page_; }

  // --- live configuration ------------------------------------------
  // Writes validate eagerly and maintain a decoded shadow of every
  // word, so the per-cycle fetch path never re-decodes.
  void write_dnode_instr(std::size_t dnode, std::uint64_t encoded);
  void write_dnode_mode(std::size_t dnode, DnodeMode mode);
  void write_switch_route(std::size_t sw, std::size_t lane,
                          std::uint64_t encoded);

  const DnodeInstr& dnode_instr(std::size_t dnode) const;
  std::uint64_t dnode_instr_raw(std::size_t dnode) const;
  DnodeMode dnode_mode(std::size_t dnode) const;
  const SwitchRoute& switch_route(std::size_t sw, std::size_t lane) const;

  /// Raw views of the live image for content snapshotting (plan cache).
  const std::vector<std::uint64_t>& live_instr_words() const noexcept {
    return active_raw().dnode_instr;
  }
  const std::vector<std::uint8_t>& live_mode_bytes() const noexcept {
    return active_raw().dnode_mode;
  }
  const std::vector<std::uint64_t>& live_route_words() const noexcept {
    return active_raw().switch_route;
  }
  /// The live image's immediates, one per flat Dnode.  The pointer
  /// moves with every page swap and copy-on-write, so the planned path
  /// re-reads it after every controller step.
  const Word* live_imms() const noexcept {
    return live_page_ >= 0
               ? page_imms_.data() +
                     static_cast<std::size_t>(live_page_) * geom_.dnode_count()
               : live_imm_.data();
  }
  /// Every registered page's immediates, page-major: word
  /// page * dnode_count() + dnode.  patch_imms() keeps them current, so
  /// a loop tape that runs several pages reads each page's own.
  const Word* page_imms() const noexcept { return page_imms_.data(); }

  // --- pages --------------------------------------------------------
  /// Register a page; returns its index.
  std::size_t add_page(ConfigPage page);
  std::size_t page_count() const noexcept { return pages_.size(); }
  /// Registered page `index` as stored (immediates included).
  const ConfigPage& page(std::size_t index) const;

  /// Rewrite the immediates of every registered page to those of
  /// `pages`, which must equal the registered pages outside the imm16
  /// fields: the same count, modes, routes and instruction words with
  /// kImmFieldMask cleared.  One pass compares each word and writes the
  /// immediates that differ, into both the raw and the decoded page;
  /// the structure hashes and memoized route diffs stay valid because
  /// neither reads an immediate.  Returns false, having changed
  /// nothing, when the structure differs.  A patch of the live page
  /// moves the generation.
  bool patch_imms(std::span<const ConfigPage> pages);

  /// Apply page `index` to the live configuration (one-cycle swap).
  void apply_page(std::size_t index);

  /// True when the live image holds page `index`'s content: it is that
  /// page, or an image not backed by a page (reset or word-written)
  /// equal to it word for word, immediates included.
  bool live_holds_page(std::size_t index) const noexcept {
    return live_page_ >= 0
               ? static_cast<std::size_t>(live_page_) == index
               : index < pages_.size() && live_ == pages_[index];
  }

  /// Per-switch decoded-route changes of a swap from page `from` to page
  /// `to`, or an empty span when no such swap ran yet (the table fills
  /// as apply_page() meets each pair).
  std::span<const std::uint64_t> swap_route_changes(
      std::size_t from, std::size_t to) const noexcept;

  /// Account `swaps` page-to-page swaps at once, the last one to page
  /// `last`, with `route_changes` decoded-route changes per switch: the
  /// live page, generation, words_written() and route-change counters
  /// end exactly where that many apply_page() calls would leave them.
  void credit_swaps(std::size_t last, std::uint64_t swaps,
                    std::span<const std::uint64_t> route_changes);

  /// Restore the live configuration (and its instrumentation) to the
  /// freshly-constructed all-NOP state while keeping every registered
  /// page.  This is the runtime's fast-reload path: a pooled System
  /// re-arming the same program skips re-decoding the configware.
  void reset_live();

  /// Number of configuration words rewritten so far (statistics).
  std::uint64_t words_written() const noexcept { return words_written_; }
  /// Words one page swap rewrites: every microinstruction, mode and
  /// route word.
  std::size_t page_words() const noexcept {
    return 2 * geom_.dnode_count() + geom_.switch_count() * geom_.lanes;
  }

  // --- route-change instrumentation ---------------------------------
  // A "route change" is a switch route word whose decoded value
  // actually differs after a WRSW or page swap — rewriting a route
  // with its current value does not count.  Observation only; never
  // part of the simulated semantics.
  const std::vector<std::uint64_t>& route_changes_per_switch()
      const noexcept {
    return route_changes_per_switch_;
  }
  std::uint64_t route_changes_total() const noexcept;

 private:
  struct DecodedPage {
    std::vector<DnodeInstr> instr;
    std::vector<SwitchRoute> route;
  };
  static DecodedPage decode_page(const ConfigPage& page);
  static std::uint64_t hash_page(const ConfigPage& page) noexcept;

  /// The raw/decoded image the accessors read: the applied page while
  /// live_page_ >= 0, the private live copy otherwise.
  const ConfigPage& active_raw() const noexcept {
    return live_page_ >= 0 ? pages_[static_cast<std::size_t>(live_page_)]
                           : live_;
  }
  const DecodedPage& active_dec() const noexcept {
    return live_page_ >= 0
               ? pages_decoded_[static_cast<std::size_t>(live_page_)]
               : live_decoded_;
  }
  /// Copy the applied page into the private live image so a word write
  /// can land (copy-on-write materialization).
  void materialize_live();
  /// Row of swap_rows_ holding the (from, to) diff, computing it on
  /// first use.
  const std::uint64_t* swap_row(std::size_t from, std::size_t to);

  RingGeometry geom_;
  ConfigPage live_;
  DecodedPage live_decoded_;
  std::vector<Word> live_imm_;   ///< live_decoded_.instr[i].imm, flat
  std::vector<ConfigPage> pages_;
  std::vector<DecodedPage> pages_decoded_;
  std::vector<Word> page_imms_;  ///< see page_imms()
  std::vector<std::uint64_t> page_hashes_;
  std::ptrdiff_t live_page_ = -1;
  /// Memoized per-switch decoded-route diff counts of page-to-page
  /// swaps: swap_to_[from] lists the pages swapped to from `from` so
  /// far, each with the row of swap_rows_ (switch_count() words)
  /// holding that pair's diff.  Memory grows with the pairs a program
  /// swaps between, not with the square of its page count.  Pages are
  /// immutable outside their immediates, so a computed diff never goes
  /// stale.
  struct SwapDiff {
    std::uint32_t to = 0;
    std::uint32_t row = 0;
  };
  std::vector<std::vector<SwapDiff>> swap_to_;
  std::vector<std::uint64_t> swap_rows_;
  /// patch_imms() undo list: (page * dnode_count() + dnode, old word) of
  /// each word written, undone if a later word differs in structure.
  std::vector<std::pair<std::size_t, std::uint64_t>> patched_;
  std::uint64_t words_written_ = 0;
  std::vector<std::uint64_t> route_changes_per_switch_;
  ConfigIdentity identity_;
  std::uint64_t generation_ = 0;
  mutable std::uint64_t live_hash_ = 0;
  mutable std::uint64_t live_hash_gen_ = ~std::uint64_t{0};
};

}  // namespace sring
