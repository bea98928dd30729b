// Bit-field packing helpers used by the instruction encoders.
#pragma once

#include <cstdint>

namespace sring {

/// Extract `width` bits of `value` starting at bit `lsb`.
constexpr std::uint64_t extract_bits(std::uint64_t value, unsigned lsb,
                                     unsigned width) noexcept {
  const std::uint64_t mask =
      width >= 64 ? ~0ull : ((1ull << width) - 1ull);
  return (value >> lsb) & mask;
}

/// Return `value` with `field` (of `width` bits) deposited at bit `lsb`.
/// Bits of `field` above `width` are discarded.
constexpr std::uint64_t deposit_bits(std::uint64_t value, unsigned lsb,
                                     unsigned width,
                                     std::uint64_t field) noexcept {
  const std::uint64_t mask =
      width >= 64 ? ~0ull : ((1ull << width) - 1ull);
  return (value & ~(mask << lsb)) | ((field & mask) << lsb);
}

/// Sign-extend the low `width` bits of `value` to 64 bits.
constexpr std::int64_t sign_extend(std::uint64_t value,
                                   unsigned width) noexcept;

constexpr std::int64_t sign_extend(std::uint64_t value,
                                   unsigned width) noexcept {
  const std::uint64_t m = 1ull << (width - 1);
  const std::uint64_t x = extract_bits(value, 0, width);
  return static_cast<std::int64_t>((x ^ m) - m);
}

/// True if `value` fits in a signed field of `width` bits.
constexpr bool fits_signed(std::int64_t value, unsigned width) noexcept {
  const std::int64_t lo = -(1ll << (width - 1));
  const std::int64_t hi = (1ll << (width - 1)) - 1;
  return value >= lo && value <= hi;
}

/// True if `value` fits in an unsigned field of `width` bits.
constexpr bool fits_unsigned(std::uint64_t value, unsigned width) noexcept {
  return width >= 64 || value < (1ull << width);
}

/// Fold one 64-bit word into a running hash `h`: one multiply and one
/// xorshift per word.  Not collision-resistant — callers confirm equal
/// hashes against the full content.
constexpr std::uint64_t hash_mix(std::uint64_t h, std::uint64_t w) noexcept {
  h = (h ^ w) * 0x9E3779B97F4A7C15ull;
  return h ^ (h >> 32);
}

}  // namespace sring
