// Host <-> core data interface.
//
// The paper's core talks to the host CPU through dedicated switch data
// ports; the implemented communication protocol was a PCI bus limited
// to 250 Mbytes/s against a theoretical internal bandwidth of about
// 3 Gbytes/s (§5.1).  We model the link as a word FIFO pair with an
// optional rational bandwidth limit of `num`/`den` words per cycle:
// host-side buffers drain into the ring-visible FIFOs (and back) at
// that rate, so an underprovisioned link starves the ring and shows up
// as stall cycles — exactly the effect the paper's 250 MB/s figure
// describes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/host_fifo.hpp"
#include "common/types.hpp"

namespace sring {

/// Link bandwidth: at most `num` words every `den` cycles per
/// direction.  num == 0 means unlimited (ideal link).
struct LinkRate {
  std::uint32_t num = 0;
  std::uint32_t den = 1;

  static LinkRate unlimited() noexcept { return {0, 1}; }

  bool operator==(const LinkRate&) const = default;

  /// Build from bytes/second at a clock frequency (16-bit words).
  static LinkRate from_bytes_per_second(double bytes_per_s,
                                        double clock_hz);
};

class HostInterface {
 public:
  explicit HostInterface(LinkRate rate = LinkRate::unlimited());

  // --- host-side API --------------------------------------------------
  /// Queue words for transmission to the core.
  void send(std::span<const Word> words);
  void send(Word word) { send(std::span<const Word>(&word, 1)); }

  /// Words the host has received so far (does not consume them).
  const std::vector<Word>& received() const noexcept { return host_rx_; }

  /// Take all received words, clearing the receive buffer.
  std::vector<Word> take_received();

  // --- core-side (simulator) API ---------------------------------------
  HostFifo& ring_in() noexcept { return ring_in_; }
  const HostFifo& ring_in() const noexcept { return ring_in_; }
  std::vector<Word>& ring_out() noexcept { return ring_out_; }
  const std::vector<Word>& ring_out() const noexcept { return ring_out_; }

  /// Advance the link by one cycle: move words host->core and
  /// core->host under the bandwidth limit.
  void tick();

  /// True when the link has no bandwidth limit (ideal link).  The
  /// superstep engine only fuses cycles over an unlimited link, where
  /// a tick can never change what the ring sees mid-run.
  bool unlimited() const noexcept { return rate_.num == 0; }

  /// Superstep support (unlimited link only): publish ring_out words
  /// up to prefix length `n` into the host receive buffer, exactly as
  /// the skipped per-cycle tick() mirror would have.  Keeps
  /// received() consistent with the per-cycle timeline after a fused
  /// run that produced outputs without ticking the link.
  void publish_to_host(std::size_t n);

  /// Drop every queued/received word and all traffic counters,
  /// keeping the configured link rate — a fresh interface, as if
  /// just constructed.
  void reset();

  std::uint64_t words_to_core() const noexcept { return words_to_core_; }
  std::uint64_t words_to_host() const noexcept { return words_to_host_; }

 private:
  LinkRate rate_;
  HostFifo host_tx_;   // waiting on the host side
  HostFifo ring_in_;   // visible to the ring / controller
  std::vector<Word> ring_out_; // produced by the ring / controller
  std::size_t ring_out_taken_ = 0;  // prefix already shipped to host_rx_
  std::vector<Word> host_rx_;
  std::uint64_t credits_tx_ = 0;
  std::uint64_t credits_rx_ = 0;
  std::uint64_t words_to_core_ = 0;
  std::uint64_t words_to_host_ = 0;
};

}  // namespace sring
