// Little-endian byte codec shared by the repo's binary formats: the
// served wire protocol (net/protocol), the canonical DFG blob
// (svc/dfg_codec) and the object file (asm/object_file).
//
// A format is written once, as a schema templated on its IO:
//
//   template <class IO, class M> void fields(IO& io, M& m) {
//     io.u32(m.tag);
//     io.seq(m.items, 4 + 8, [&](auto& e) {
//       io.str(e.name);
//       io.u64(e.value);
//     });
//   }
//
// LeWriter appends the fields of a const M; LeReader fills a mutable
// one.  The integer primitives take any integral or enum field and
// convert at the boundary, so the schema names each field once for both
// directions and compiles to straight-line code on either side.
//
// Reader contract: malformed bytes raise the codec's own `Error` type,
// with its message prefix.  Every count-prefixed sequence (strings, byte
// and word vectors, element lists, nested blobs) goes through
// LeReader::count, which rejects a count above the list's cap, and a
// count whose elements cannot fit in the bytes that remain, before
// anything is allocated.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace sring {

class LeWriter {
 public:
  static constexpr bool kDecoding = false;

  /// Appends to `out` (an accumulation buffer may be passed in).
  explicit LeWriter(std::vector<std::uint8_t> out = {})
      : out_(std::move(out)) {}

  void u8(const auto& v) { put(v, 1); }
  void u16(const auto& v) { put(v, 2); }
  void u32(const auto& v) { put(v, 4); }
  void u64(const auto& v) { put(v, 8); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void flag(bool v) { u8(v ? 1 : 0); }

  /// u32 (str8: u8) byte length, then the bytes.
  void str(std::string_view s) { bytes(as_bytes(s)); }
  void str8(const std::string& s) {
    u8(s.size());
    raw(as_bytes(s));
  }
  void bytes(std::span<const std::uint8_t> b) {
    u32(b.size());
    raw(b);
  }
  /// u32 word count, then two bytes per word.
  void words(std::span<const Word> w) {
    u32(w.size());
    const std::size_t at = out_.size();
    out_.resize(at + 2 * w.size());
    std::uint8_t* p = out_.data() + at;
    if constexpr (std::endian::native == std::endian::little) {
      if (!w.empty()) std::memcpy(p, w.data(), 2 * w.size());
    } else {
      for (const Word x : w) {
        *p++ = static_cast<std::uint8_t>(x);
        *p++ = static_cast<std::uint8_t>(x >> 8);
      }
    }
  }

  /// u32 element count, then `each` per element.  `min_bytes` and
  /// `limit` bound the reader only.
  template <class T, class F>
  void seq(const std::vector<T>& v, std::size_t /*min_bytes*/, F&& each,
           std::size_t /*limit*/ = SIZE_MAX) {
    u32(v.size());
    for (const T& e : v) each(e);
  }

  /// u32 byte length, then what `body` writes through this writer.
  template <class F>
  void nested(F&& body) {
    const std::size_t at = out_.size();
    put(0, 4);
    body(*this);
    const std::uint64_t len = out_.size() - at - 4;
    for (std::size_t i = 0; i < 4; ++i) {
      out_[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
    }
  }

  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  static std::span<const std::uint8_t> as_bytes(std::string_view s) {
    return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
  }
  /// The low `n` bytes of `v`, least significant first.
  void put(const auto& v, std::size_t n) {
    const auto x = static_cast<std::uint64_t>(v);
    std::uint8_t b[8];
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = static_cast<std::uint8_t>(x >> (8 * i));
    }
    out_.insert(out_.end(), b, b + n);
  }
  void raw(std::span<const std::uint8_t> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }

  std::vector<std::uint8_t> out_;
};

/// Reads what LeWriter wrote; throws `Error("<prefix>: ...")` on any
/// malformed input.
template <class Error>
class LeReader {
 public:
  static constexpr bool kDecoding = true;

  LeReader(std::span<const std::uint8_t> data, const char* prefix)
      : data_(data), prefix_(prefix) {}

  template <class T> void u8(T& v) { v = static_cast<T>(get(1)); }
  template <class T> void u16(T& v) { v = static_cast<T>(get(2)); }
  template <class T> void u32(T& v) { v = static_cast<T>(get(4)); }
  template <class T> void u64(T& v) { v = static_cast<T>(get(8)); }
  void f64(double& v) { v = std::bit_cast<double>(get(8)); }
  /// Only 0 and 1 decode, so every accepted byte re-encodes unchanged.
  void flag(bool& v) {
    const std::uint64_t b = get(1);
    if (b > 1) fail("flag byte " + std::to_string(b) + " is neither 0 nor 1");
    v = b == 1;
  }

  void str(std::string& s) { chars(s, count(1)); }
  void str8(std::string& s) {
    std::uint8_t n = 0;
    u8(n);
    chars(s, n);
  }
  void bytes(std::vector<std::uint8_t>& b) {
    const auto src = take(count(1));
    b.assign(src.begin(), src.end());
  }
  void words(std::vector<Word>& w) {
    const std::size_t n = count(2);
    const std::uint8_t* p = take(2 * n).data();
    w.resize(n);
    if constexpr (std::endian::native == std::endian::little) {
      if (n > 0) std::memcpy(w.data(), p, 2 * n);
    } else {
      for (Word& x : w) {
        x = static_cast<Word>(p[0] | (p[1] << 8));
        p += 2;
      }
    }
  }

  /// Reads a count with count() and fills `v` element by element.
  template <class T, class F>
  void seq(std::vector<T>& v, std::size_t min_bytes, F&& each,
           std::size_t limit = SIZE_MAX) {
    v.resize(count(min_bytes, limit));
    for (T& e : v) each(e);
  }

  /// A u32 byte length, then a blob `body` must consume exactly.
  template <class F>
  void nested(F&& body) {
    LeReader sub(take(count(1)), prefix_);
    body(sub);
    sub.expect_end();
  }

  /// Every format ends exactly at its last field; trailing bytes mean
  /// the peer and we disagree about the schema.
  void expect_end() const {
    if (pos_ != data_.size()) fail("trailing bytes after the last field");
  }

 private:
  /// Reads a u32 element count.  Rejects it when it exceeds `limit`, or
  /// when that many elements of at least `min_bytes` (>= 1) bytes each
  /// cannot fit in the bytes that remain.
  std::size_t count(std::size_t min_bytes, std::size_t limit = SIZE_MAX) {
    std::uint32_t n = 0;
    u32(n);
    if (n > limit) {
      fail("count " + std::to_string(n) + " exceeds limit of " +
           std::to_string(limit));
    }
    if (n > remaining() / min_bytes) {
      fail("count " + std::to_string(n) + " overruns the " +
           std::to_string(remaining()) + " bytes left");
    }
    return n;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) fail("truncated");
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::uint64_t get(std::size_t n) {
    const auto b = take(n);
    std::uint64_t v = 0;
    for (std::size_t i = n; i-- > 0;) v = v << 8 | b[i];
    return v;
  }
  void chars(std::string& s, std::size_t n) {
    const auto b = take(n);
    s.assign(reinterpret_cast<const char*>(b.data()), b.size());
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw Error(std::string(prefix_) + ": " + what);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  const char* prefix_;
};

}  // namespace sring
