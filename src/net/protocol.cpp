#include "net/protocol.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "kernels/jobs.hpp"

namespace sring::net {

namespace {

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table-driven, slicing-by-8

/// tables[0] is the classic byte table; tables[k][b] is the CRC of
/// byte b followed by k zero bytes, so eight input bytes fold per step.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// ---------------------------------------------------------------------------
// Little-endian payload writer / reader

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int s = 0; s < 32; s += 8) {
      out_.push_back(static_cast<std::uint8_t>(v >> s));
    }
  }
  void u64(std::uint64_t v) {
    for (int s = 0; s < 64; s += 8) {
      out_.push_back(static_cast<std::uint8_t>(v >> s));
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void words(std::span<const Word> w) {
    u32(static_cast<std::uint32_t>(w.size()));
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
  void bytes(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    out_.insert(out_.end(), b.begin(), b.end());
  }

  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() {
    const auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }
  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[static_cast<std::size_t>(i)];
    return v;
  }
  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[static_cast<std::size_t>(i)];
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    const auto b = take(n);
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }
  std::vector<Word> words() {
    const std::uint32_t n = u32();
    if (data_.size() - pos_ < std::size_t{n} * 2) {
      throw ProtocolError("net: word vector overruns payload");
    }
    std::vector<Word> out(n);
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += std::size_t{n} * 2;
    if constexpr (std::endian::native == std::endian::little) {
      if (n > 0) std::memcpy(out.data(), p, std::size_t{n} * 2);
    } else {
      for (Word& x : out) {
        x = static_cast<Word>(p[0] | (p[1] << 8));
        p += 2;
      }
    }
    return out;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint32_t n = u32();
    const auto b = take(n);
    return std::vector<std::uint8_t>(b.begin(), b.end());
  }

  /// Every decode_* must end exactly at the payload boundary; trailing
  /// bytes mean the peer and we disagree about the schema.
  void expect_end() const {
    if (pos_ != data_.size()) {
      throw ProtocolError("net: trailing bytes after payload");
    }
  }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (data_.size() - pos_ < n) {
      throw ProtocolError("net: payload truncated");
    }
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

Image read_image(Reader& r) {
  const std::uint16_t w = r.u16();
  const std::uint16_t h = r.u16();
  const std::vector<Word> px = r.words();
  if (px.size() != std::size_t{w} * h) {
    throw ProtocolError("net: image pixel count does not match its size");
  }
  Image img(w, h);
  img.pixels() = px;
  return img;
}

void write_image(Writer& w, const Image& img) {
  w.u16(static_cast<std::uint16_t>(img.width()));
  w.u16(static_cast<std::uint16_t>(img.height()));
  w.words(img.pixels());
}

void put_u32_at(std::vector<std::uint8_t>& buf, std::size_t at,
                std::uint32_t v) {
  for (int s = 0; s < 32; s += 8) {
    buf[at++] = static_cast<std::uint8_t>(v >> s);
  }
}

std::uint32_t get_u32_at(std::span<const std::uint8_t> buf, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | buf[at + static_cast<std::size_t>(i)];
  }
  return v;
}

std::uint16_t get_u16_at(std::span<const std::uint8_t> buf, std::size_t at) {
  return static_cast<std::uint16_t>(buf[at] | (buf[at + 1] << 8));
}

/// Microsecond durations ride as u32 on the wire; anything past ~71
/// minutes pins at the max instead of wrapping.
std::uint32_t sat_u32(std::uint64_t v) {
  return v > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(v);
}

void write_span_record(Writer& w, const obs::SpanRecord& rec) {
  w.u64(rec.trace_id);
  w.str(rec.name);
  w.u8(rec.ok ? 1 : 0);
  w.str(rec.error);
  w.u32(rec.worker);
  w.u64(rec.sim_cycles);
  w.u64(rec.plan_hits);
  w.u64(rec.superstep_cycles);
  w.u64(rec.start_offset_us);
  w.u32(rec.queue_wait_us);
  w.u32(rec.arm_us);
  w.u32(rec.execute_us);
  w.u32(rec.serialize_us);
  w.u32(rec.e2e_us);
  w.u8(rec.slow ? 1 : 0);
}

obs::SpanRecord read_span_record(Reader& r) {
  obs::SpanRecord rec;
  rec.trace_id = r.u64();
  rec.name = r.str();
  rec.ok = r.u8() != 0;
  rec.error = r.str();
  rec.worker = r.u32();
  rec.sim_cycles = r.u64();
  rec.plan_hits = r.u64();
  rec.superstep_cycles = r.u64();
  rec.start_offset_us = r.u64();
  rec.queue_wait_us = r.u32();
  rec.arm_us = r.u32();
  rec.execute_us = r.u32();
  rec.serialize_us = r.u32();
  rec.e2e_us = r.u32();
  rec.slow = r.u8() != 0;
  return rec;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::span<const std::uint8_t> payload,
                  std::uint16_t version) {
  // Grow geometrically even when asked for an exact fit: reserve(size+n)
  // per frame would otherwise reallocate-and-copy the whole accumulation
  // buffer on EVERY append, turning a response backlog quadratic.
  const std::size_t need =
      out.size() + kHeaderBytes + payload.size() + kTrailerBytes;
  if (out.capacity() < need) {
    out.reserve(std::max(need, out.capacity() * 2));
  }
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  out.push_back(static_cast<std::uint8_t>(version));
  out.push_back(static_cast<std::uint8_t>(version >> 8));
  const std::uint16_t t = static_cast<std::uint16_t>(type);
  out.push_back(static_cast<std::uint8_t>(t));
  out.push_back(static_cast<std::uint8_t>(t >> 8));
  const std::size_t len_at = out.size();
  out.resize(out.size() + 4);
  put_u32_at(out, len_at, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  const std::size_t crc_at = out.size();
  out.resize(out.size() + 4);
  put_u32_at(out, crc_at, crc32(payload));
}

ParseStatus try_parse_frame(std::span<const std::uint8_t> buffer,
                            std::size_t max_frame_bytes, Frame& frame,
                            std::size_t& consumed) {
  consumed = 0;
  // An empty span may have a null data(); memcmp on it is UB even with
  // length 0.
  if (buffer.empty()) return ParseStatus::kNeedMore;
  // Reject a wrong magic as soon as the first divergent byte arrives —
  // garbage on the socket should not sit unanswered until 12 bytes
  // accumulate.
  const std::size_t magic_check = std::min<std::size_t>(buffer.size(), 4);
  if (std::memcmp(buffer.data(), kMagic, magic_check) != 0) {
    return ParseStatus::kBadMagic;
  }
  if (buffer.size() < kHeaderBytes) return ParseStatus::kNeedMore;
  const std::uint16_t version = get_u16_at(buffer, 4);
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    return ParseStatus::kBadVersion;
  }
  const std::uint32_t len = get_u32_at(buffer, 8);
  if (len > max_frame_bytes) return ParseStatus::kTooLarge;
  const std::size_t total = kHeaderBytes + len + kTrailerBytes;
  if (buffer.size() < total) return ParseStatus::kNeedMore;
  const auto payload = buffer.subspan(kHeaderBytes, len);
  if (crc32(payload) != get_u32_at(buffer, kHeaderBytes + len)) {
    return ParseStatus::kBadCrc;
  }
  frame.type = static_cast<MsgType>(get_u16_at(buffer, 6));
  frame.version = version;
  frame.payload.assign(payload.begin(), payload.end());
  consumed = total;
  return ParseStatus::kFrame;
}

std::vector<std::uint8_t> encode_job_request(const JobRequest& req,
                                             std::uint16_t version) {
  Writer w;
  w.u32(req.tag);
  w.u16(static_cast<std::uint16_t>(req.kernel));
  w.u16(static_cast<std::uint16_t>(req.geometry.layers));
  w.u16(static_cast<std::uint16_t>(req.geometry.lanes));
  w.u16(static_cast<std::uint16_t>(req.geometry.fb_depth));
  switch (req.kernel) {
    case KernelId::kFir:
      w.words(req.fir_coeffs);
      break;
    case KernelId::kMotionEstimation:
      write_image(w, req.me_ref);
      write_image(w, req.me_cand);
      w.u16(req.me_rx);
      w.u16(req.me_ry);
      w.u16(req.me_range);
      break;
    case KernelId::kDwt53:
      break;
    case KernelId::kMatvec8:
      w.words(req.matvec_m);
      break;
    default:
      throw ProtocolError("net: unknown kernel id in request");
  }
  w.words(req.input);
  if (version >= 2) w.u64(req.trace_id);
  return w.take();
}

JobRequest decode_job_request(std::span<const std::uint8_t> payload,
                              std::uint16_t version) {
  Reader r(payload);
  JobRequest req;
  req.tag = r.u32();
  req.kernel = static_cast<KernelId>(r.u16());
  req.geometry.layers = r.u16();
  req.geometry.lanes = r.u16();
  req.geometry.fb_depth = r.u16();
  switch (req.kernel) {
    case KernelId::kFir:
      req.fir_coeffs = r.words();
      break;
    case KernelId::kMotionEstimation:
      req.me_ref = read_image(r);
      req.me_cand = read_image(r);
      req.me_rx = r.u16();
      req.me_ry = r.u16();
      req.me_range = r.u16();
      break;
    case KernelId::kDwt53:
      break;
    case KernelId::kMatvec8:
      req.matvec_m = r.words();
      break;
    default:
      throw ProtocolError("net: unknown kernel id " +
                          std::to_string(static_cast<unsigned>(req.kernel)));
  }
  req.input = r.words();
  if (version >= 2) req.trace_id = r.u64();
  r.expect_end();
  return req;
}

std::vector<std::uint8_t> encode_job_result(const JobResultMsg& msg,
                                            std::uint16_t version) {
  Writer w;
  w.u32(msg.tag);
  w.words(msg.outputs);
  w.u64(msg.sim_cycles);
  w.u32(msg.worker);
  w.u8(msg.reused_system);
  w.u32(static_cast<std::uint32_t>(msg.counters.size()));
  for (const auto& [name, value] : msg.counters) {
    w.str(name);
    w.u64(value);
  }
  if (version >= 2) {
    w.u64(msg.trace_id);
    w.u32(msg.queue_wait_us);
    w.u32(msg.execute_us);
    w.u32(msg.total_us);
  }
  return w.take();
}

JobResultMsg decode_job_result(std::span<const std::uint8_t> payload,
                               std::uint16_t version) {
  Reader r(payload);
  JobResultMsg msg;
  msg.tag = r.u32();
  msg.outputs = r.words();
  msg.sim_cycles = r.u64();
  msg.worker = r.u32();
  msg.reused_system = r.u8();
  const std::uint32_t n = r.u32();
  msg.counters.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = r.str();
    const std::uint64_t value = r.u64();
    msg.counters.emplace_back(std::move(name), value);
  }
  if (version >= 2) {
    msg.trace_id = r.u64();
    msg.queue_wait_us = r.u32();
    msg.execute_us = r.u32();
    msg.total_us = r.u32();
  }
  r.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_get_stats(std::uint32_t flags) {
  Writer w;
  w.u32(flags);
  return w.take();
}

std::uint32_t decode_get_stats(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const std::uint32_t flags = r.u32();
  r.expect_end();
  return flags;
}

std::vector<std::uint8_t> encode_stats_reply(const StatsReplyMsg& msg) {
  Writer w;
  w.u16(msg.stats_version);
  w.u64(msg.uptime_us);
  w.u32(msg.workers);
  w.u32(msg.queue_depth);
  w.u32(msg.queue_capacity);
  w.f64(msg.worker_utilization);
  w.u32(static_cast<std::uint32_t>(msg.counters.size()));
  for (const auto& [name, value] : msg.counters) {
    w.str(name);
    w.u64(value);
  }
  w.u32(static_cast<std::uint32_t>(msg.latencies.size()));
  for (const StatsQuantileMsg& q : msg.latencies) {
    w.str(q.name);
    w.u64(q.count);
    w.f64(q.mean_us);
    w.f64(q.p50_us);
    w.f64(q.p90_us);
    w.f64(q.p99_us);
    w.u64(q.max_us);
  }
  w.u32(static_cast<std::uint32_t>(msg.rates.size()));
  for (const StatsRateMsg& rate : msg.rates) {
    w.str(rate.name);
    w.f64(rate.per_sec);
  }
  w.u32(static_cast<std::uint32_t>(msg.flight.size()));
  for (const obs::SpanRecord& rec : msg.flight) write_span_record(w, rec);
  return w.take();
}

StatsReplyMsg decode_stats_reply(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  StatsReplyMsg msg;
  msg.stats_version = r.u16();
  msg.uptime_us = r.u64();
  msg.workers = r.u32();
  msg.queue_depth = r.u32();
  msg.queue_capacity = r.u32();
  msg.worker_utilization = r.f64();
  const std::uint32_t nc = r.u32();
  msg.counters.reserve(nc);
  for (std::uint32_t i = 0; i < nc; ++i) {
    std::string name = r.str();
    const std::uint64_t value = r.u64();
    msg.counters.emplace_back(std::move(name), value);
  }
  const std::uint32_t nl = r.u32();
  msg.latencies.reserve(nl);
  for (std::uint32_t i = 0; i < nl; ++i) {
    StatsQuantileMsg q;
    q.name = r.str();
    q.count = r.u64();
    q.mean_us = r.f64();
    q.p50_us = r.f64();
    q.p90_us = r.f64();
    q.p99_us = r.f64();
    q.max_us = r.u64();
    msg.latencies.push_back(std::move(q));
  }
  const std::uint32_t nr = r.u32();
  msg.rates.reserve(nr);
  for (std::uint32_t i = 0; i < nr; ++i) {
    StatsRateMsg rate;
    rate.name = r.str();
    rate.per_sec = r.f64();
    msg.rates.push_back(std::move(rate));
  }
  const std::uint32_t nf = r.u32();
  msg.flight.reserve(nf);
  for (std::uint32_t i = 0; i < nf; ++i) {
    msg.flight.push_back(read_span_record(r));
  }
  r.expect_end();
  return msg;
}

obs::JsonValue StatsReplyMsg::to_json() const {
  obs::JsonValue j = obs::JsonValue::object();
  j.set("stats_version", std::uint64_t{stats_version});
  j.set("uptime_us", uptime_us);
  j.set("workers", std::uint64_t{workers});
  j.set("queue_depth", std::uint64_t{queue_depth});
  j.set("queue_capacity", std::uint64_t{queue_capacity});
  j.set("worker_utilization", worker_utilization);
  obs::JsonValue cj = obs::JsonValue::object();
  for (const auto& [name, value] : counters) cj.set(name, value);
  j.set("counters", std::move(cj));
  obs::JsonValue lj = obs::JsonValue::object();
  for (const StatsQuantileMsg& q : latencies) {
    obs::JsonValue qj = obs::JsonValue::object();
    qj.set("count", q.count);
    qj.set("mean_us", q.mean_us);
    qj.set("p50_us", q.p50_us);
    qj.set("p90_us", q.p90_us);
    qj.set("p99_us", q.p99_us);
    qj.set("max_us", q.max_us);
    lj.set(q.name, std::move(qj));
  }
  j.set("latencies", std::move(lj));
  obs::JsonValue rj = obs::JsonValue::object();
  for (const StatsRateMsg& rate : rates) rj.set(rate.name, rate.per_sec);
  j.set("rates", std::move(rj));
  obs::JsonValue fj = obs::JsonValue::array();
  for (const obs::SpanRecord& rec : flight) fj.push_back(rec.to_json());
  j.set("flight", std::move(fj));
  return j;
}

std::vector<std::uint8_t> encode_submit_dfg(const SubmitDfgMsg& msg) {
  Writer w;
  w.u32(msg.tag);
  w.u16(static_cast<std::uint16_t>(msg.geometry.layers));
  w.u16(static_cast<std::uint16_t>(msg.geometry.lanes));
  w.u16(static_cast<std::uint16_t>(msg.geometry.fb_depth));
  w.bytes(msg.dfg);
  w.u64(msg.trace_id);
  return w.take();
}

SubmitDfgMsg decode_submit_dfg(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  SubmitDfgMsg msg;
  msg.tag = r.u32();
  msg.geometry.layers = r.u16();
  msg.geometry.lanes = r.u16();
  msg.geometry.fb_depth = r.u16();
  msg.dfg = r.bytes();
  msg.trace_id = r.u64();
  r.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_dfg_compiled(const DfgCompiledMsg& msg) {
  Writer w;
  w.u32(msg.tag);
  w.u64(msg.dfg_hash);
  w.u8(msg.cache_hit);
  w.u32(msg.compile_us);
  w.u16(msg.dnodes_used);
  w.u16(msg.max_latency);
  w.u16(msg.pushes_per_cycle);
  w.u16(msg.input_count);
  w.u32(static_cast<std::uint32_t>(msg.outputs.size()));
  for (const DfgOutputMetaMsg& o : msg.outputs) {
    w.str(o.name);
    w.u16(o.latency);
    w.u16(o.push_rank);
  }
  return w.take();
}

DfgCompiledMsg decode_dfg_compiled(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  DfgCompiledMsg msg;
  msg.tag = r.u32();
  msg.dfg_hash = r.u64();
  msg.cache_hit = r.u8();
  msg.compile_us = r.u32();
  msg.dnodes_used = r.u16();
  msg.max_latency = r.u16();
  msg.pushes_per_cycle = r.u16();
  msg.input_count = r.u16();
  const std::uint32_t n = r.u32();
  if (payload.size() < std::size_t{n} * 4) {
    throw ProtocolError("net: output metadata overruns payload");
  }
  msg.outputs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    DfgOutputMetaMsg o;
    o.name = r.str();
    o.latency = r.u16();
    o.push_rank = r.u16();
    msg.outputs.push_back(std::move(o));
  }
  r.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_submit_dfg_job(const SubmitDfgJobMsg& msg) {
  Writer w;
  w.u32(msg.tag);
  w.u16(static_cast<std::uint16_t>(msg.geometry.layers));
  w.u16(static_cast<std::uint16_t>(msg.geometry.lanes));
  w.u16(static_cast<std::uint16_t>(msg.geometry.fb_depth));
  w.bytes(msg.dfg);
  w.u32(static_cast<std::uint32_t>(msg.streams.size()));
  for (const auto& s : msg.streams) w.words(s);
  w.u64(msg.trace_id);
  return w.take();
}

SubmitDfgJobMsg decode_submit_dfg_job(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  SubmitDfgJobMsg msg;
  msg.tag = r.u32();
  msg.geometry.layers = r.u16();
  msg.geometry.lanes = r.u16();
  msg.geometry.fb_depth = r.u16();
  msg.dfg = r.bytes();
  const std::uint32_t n = r.u32();
  if (n > kMaxDfgJobStreams) {
    throw ProtocolError("net: DFG job carries " + std::to_string(n) +
                        " input streams, limit is " +
                        std::to_string(kMaxDfgJobStreams));
  }
  msg.streams.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) msg.streams.push_back(r.words());
  msg.trace_id = r.u64();
  r.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_submit_gemm(const SubmitGemmMsg& msg) {
  Writer w;
  w.u32(msg.tag);
  w.u16(static_cast<std::uint16_t>(msg.geometry.layers));
  w.u16(static_cast<std::uint16_t>(msg.geometry.lanes));
  w.u16(static_cast<std::uint16_t>(msg.geometry.fb_depth));
  w.u16(static_cast<std::uint16_t>(msg.spec.m));
  w.u16(static_cast<std::uint16_t>(msg.spec.k));
  w.u16(static_cast<std::uint16_t>(msg.spec.n));
  w.u8(static_cast<std::uint8_t>(msg.spec.dtype));
  w.u8(static_cast<std::uint8_t>(msg.spec.shift));
  w.u8(static_cast<std::uint8_t>(msg.spec.mapping));
  w.u16(static_cast<std::uint16_t>(msg.spec.tile_n));
  w.u32(msg.scratch_tiles);
  w.words(msg.a);
  w.words(msg.b);
  w.u64(msg.trace_id);
  return w.take();
}

SubmitGemmMsg decode_submit_gemm(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  SubmitGemmMsg msg;
  msg.tag = r.u32();
  msg.geometry.layers = r.u16();
  msg.geometry.lanes = r.u16();
  msg.geometry.fb_depth = r.u16();
  msg.spec.m = r.u16();
  msg.spec.k = r.u16();
  msg.spec.n = r.u16();
  const std::uint8_t dtype = r.u8();
  if (dtype > static_cast<std::uint8_t>(tile::Dtype::kInt16)) {
    throw ProtocolError("net: unknown GEMM dtype " + std::to_string(dtype));
  }
  msg.spec.dtype = static_cast<tile::Dtype>(dtype);
  msg.spec.shift = r.u8();
  const std::uint8_t mapping = r.u8();
  if (mapping > static_cast<std::uint8_t>(tile::Mapping::kWeightStationary)) {
    throw ProtocolError("net: unknown GEMM mapping " +
                        std::to_string(mapping));
  }
  msg.spec.mapping = static_cast<tile::Mapping>(mapping);
  msg.spec.tile_n = r.u16();
  msg.scratch_tiles = r.u32();
  msg.a = r.words();
  msg.b = r.words();
  msg.trace_id = r.u64();
  r.expect_end();

  for (const std::size_t dim :
       {msg.spec.m, msg.spec.k, msg.spec.n, msg.spec.tile_n}) {
    if (dim > kMaxGemmDim) {
      throw ProtocolError("net: GEMM dimension " + std::to_string(dim) +
                          " exceeds limit of " + std::to_string(kMaxGemmDim));
    }
  }
  if (msg.scratch_tiles < 1 || msg.scratch_tiles > kMaxGemmScratchTiles) {
    throw ProtocolError("net: GEMM scratchpad size must be in [1, " +
                        std::to_string(kMaxGemmScratchTiles) + "] tiles");
  }
  try {
    msg.spec.validate();
  } catch (const SimError& e) {
    throw ProtocolError(std::string("net: bad GEMM spec: ") + e.what());
  }
  if (msg.a.size() != msg.spec.m * msg.spec.k) {
    throw ProtocolError("net: GEMM A operand size does not match m*k");
  }
  if (msg.b.size() != msg.spec.k * msg.spec.n) {
    throw ProtocolError("net: GEMM B operand size does not match k*n");
  }
  return msg;
}

std::vector<std::uint8_t> encode_submit_job_batch(const SubmitJobBatchMsg& msg,
                                                  std::uint16_t version) {
  Writer w;
  w.u32(msg.tag);
  w.u32(static_cast<std::uint32_t>(msg.jobs.size()));
  for (const JobRequest& req : msg.jobs) {
    w.bytes(encode_job_request(req, version));
  }
  w.u64(msg.trace_id);
  return w.take();
}

SubmitJobBatchMsg decode_submit_job_batch(std::span<const std::uint8_t> payload,
                                          std::uint16_t version) {
  Reader r(payload);
  SubmitJobBatchMsg msg;
  msg.tag = r.u32();
  const std::uint32_t n = r.u32();
  if (n > kMaxBatchJobs) {
    throw ProtocolError("net: job batch carries " + std::to_string(n) +
                        " entries, limit is " + std::to_string(kMaxBatchJobs));
  }
  msg.jobs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    msg.jobs.push_back(decode_job_request(r.bytes(), version));
  }
  msg.trace_id = r.u64();
  r.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_job_batch_result(const JobBatchResultMsg& msg,
                                                  std::uint16_t version) {
  Writer w;
  w.u32(msg.tag);
  w.u32(static_cast<std::uint32_t>(msg.entries.size()));
  for (const JobBatchEntryMsg& e : msg.entries) {
    w.u8(e.ok);
    w.bytes(e.ok ? encode_job_result(e.result, version)
                 : encode_error(e.error, version));
  }
  return w.take();
}

JobBatchResultMsg decode_job_batch_result(std::span<const std::uint8_t> payload,
                                          std::uint16_t version) {
  Reader r(payload);
  JobBatchResultMsg msg;
  msg.tag = r.u32();
  const std::uint32_t n = r.u32();
  if (n > kMaxBatchJobs) {
    throw ProtocolError("net: job batch result carries " + std::to_string(n) +
                        " entries, limit is " + std::to_string(kMaxBatchJobs));
  }
  msg.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    JobBatchEntryMsg e;
    e.ok = r.u8();
    const std::vector<std::uint8_t> blob = r.bytes();
    if (e.ok) {
      e.result = decode_job_result(blob, version);
    } else {
      e.error = decode_error(blob, version);
    }
    msg.entries.push_back(std::move(e));
  }
  r.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_error(const ErrorMsg& msg,
                                       std::uint16_t version) {
  Writer w;
  w.u32(msg.tag);
  w.u16(static_cast<std::uint16_t>(msg.code));
  w.str(msg.message);
  if (version >= 5) w.u32(msg.retry_after_ms);
  return w.take();
}

ErrorMsg decode_error(std::span<const std::uint8_t> payload,
                      std::uint16_t version) {
  Reader r(payload);
  ErrorMsg msg;
  msg.tag = r.u32();
  msg.code = static_cast<ErrorCode>(r.u16());
  msg.message = r.str();
  if (version >= 5) msg.retry_after_ms = r.u32();
  r.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_server_info(const ServerInfoMsg& msg) {
  Writer w;
  w.u16(msg.protocol_version);
  w.u32(msg.workers);
  w.u32(msg.queue_capacity);
  w.u32(msg.max_frame_bytes);
  w.u64(msg.jobs_completed);
  w.str(msg.server);
  return w.take();
}

ServerInfoMsg decode_server_info(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ServerInfoMsg msg;
  msg.protocol_version = r.u16();
  msg.workers = r.u32();
  msg.queue_capacity = r.u32();
  msg.max_frame_bytes = r.u32();
  msg.jobs_completed = r.u64();
  msg.server = r.str();
  r.expect_end();
  return msg;
}

std::vector<std::uint8_t> encode_ping(std::uint64_t token) {
  Writer w;
  w.u64(token);
  return w.take();
}

std::uint64_t decode_ping(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const std::uint64_t token = r.u64();
  r.expect_end();
  return token;
}

namespace {

rt::Job to_rt_job_impl(const JobRequest& req) {
  req.geometry.validate();
  switch (req.kernel) {
    case KernelId::kFir:
      return kernels::make_spatial_fir_job(req.geometry, req.input,
                                           req.fir_coeffs);
    case KernelId::kMotionEstimation:
      check(req.me_range >= 1,
            "net: motion-estimation range must be at least 1");
      check(req.me_range <= kMaxMotionRange,
            "net: motion-estimation range exceeds limit of " +
                std::to_string(kMaxMotionRange));
      return kernels::make_motion_estimation_job(
          req.geometry, req.me_ref, req.me_rx, req.me_ry, req.me_cand,
          static_cast<int>(req.me_range));
    case KernelId::kDwt53:
      return kernels::make_dwt53_job(req.geometry, req.input);
    case KernelId::kMatvec8: {
      check(req.matvec_m.size() == dsp::kMatvecN * dsp::kMatvecN,
            "net: matvec8 expects a 64-word row-major matrix");
      dsp::Matrix8 m;
      for (std::size_t r = 0; r < dsp::kMatvecN; ++r) {
        for (std::size_t c = 0; c < dsp::kMatvecN; ++c) {
          m[r][c] = req.matvec_m[r * dsp::kMatvecN + c];
        }
      }
      return kernels::make_matvec8_job(req.geometry, m, req.input);
    }
  }
  throw SimError("net: unknown kernel id " +
                 std::to_string(static_cast<unsigned>(req.kernel)));
}

}  // namespace

rt::Job to_rt_job(const JobRequest& req) {
  rt::Job job = to_rt_job_impl(req);
  job.trace_id = req.trace_id;
  return job;
}

std::vector<std::pair<std::string, std::uint64_t>> result_counters(
    const rt::JobResult& result) {
  const SystemStats& s = result.report.stats;
  return {
      {"sim.cycles", s.cycles},
      {"sim.ring_stall_cycles", s.ring_stall_cycles},
      {"sim.ctrl_stall_cycles", s.ctrl_stall_cycles},
      {"sim.dnode_ops", s.dnode_ops},
      {"sim.arith_ops", s.arith_ops},
      {"sim.host_words_in", s.host_words_in},
      {"sim.host_words_out", s.host_words_out},
      {"sim.plan_hits", s.plan_hits},
  };
}

JobResultMsg make_job_result_msg(std::uint32_t tag,
                                 const rt::JobResult& result) {
  JobResultMsg msg;
  msg.tag = tag;
  msg.outputs = result.outputs;
  msg.sim_cycles = result.report.stats.cycles;
  msg.worker = static_cast<std::uint32_t>(result.worker);
  msg.reused_system = result.reused_system ? 1 : 0;
  msg.counters = result_counters(result);
  msg.trace_id = result.trace_id;
  msg.queue_wait_us = sat_u32(result.timeline.queue_wait_us());
  msg.execute_us = sat_u32(result.timeline.execute_us());
  msg.total_us = sat_u32(result.timeline.total_us());
  return msg;
}

}  // namespace sring::net
