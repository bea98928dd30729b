#include "net/protocol.hpp"

#include <algorithm>
#include <array>
#include <concepts>
#include <cstring>
#include <type_traits>

#include "common/le_codec.hpp"
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

template <class M, class T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

using WireReader = LeReader<ProtocolError>;

// ---------------------------------------------------------------------------
// Message schemas: each payload layout, written once for both
// directions.  A field added in protocol vN sits behind `version >= N`.
// The second argument of seq() is the smallest wire size of one
// element, which bounds the count before the reader allocates.

template <class IO, Is<RingGeometry> M>
void fields(IO& io, M& g, std::uint16_t) {
  io.u16(g.layers);
  io.u16(g.lanes);
  io.u16(g.fb_depth);
}

template <class IO, Is<Image> M>
void fields(IO& io, M& img, std::uint16_t) {
  auto w = static_cast<std::uint16_t>(img.width());
  auto h = static_cast<std::uint16_t>(img.height());
  io.u16(w);
  io.u16(h);
  io.words(img.pixels());
  if constexpr (IO::kDecoding) {
    if (w == 0 || h == 0) throw ProtocolError("net: image has a zero side");
    if (img.pixels().size() != std::size_t{w} * h) {
      throw ProtocolError("net: image pixel count does not match its size");
    }
    Image sized(w, h);
    sized.pixels() = std::move(img.pixels());
    img = std::move(sized);
  }
}

template <class IO, Is<JobRequest> M>
void fields(IO& io, M& req, std::uint16_t version) {
  io.u32(req.tag);
  io.u16(req.kernel);
  fields(io, req.geometry, version);
  switch (req.kernel) {
    case KernelId::kFir:
      io.words(req.fir_coeffs);
      break;
    case KernelId::kMotionEstimation:
      fields(io, req.me_ref, version);
      fields(io, req.me_cand, version);
      io.u16(req.me_rx);
      io.u16(req.me_ry);
      io.u16(req.me_range);
      break;
    case KernelId::kDwt53:
      break;
    case KernelId::kMatvec8:
      io.words(req.matvec_m);
      break;
    default:
      throw ProtocolError("net: unknown kernel id " +
                          std::to_string(static_cast<unsigned>(req.kernel)));
  }
  io.words(req.input);
  if (version >= 2) io.u64(req.trace_id);
}

template <class IO, class Counters>
void counter_fields(IO& io, Counters& counters) {
  io.seq(counters, 4 + 8, [&](auto& c) {
    io.str(c.first);
    io.u64(c.second);
  });
}

template <class IO, Is<JobResultMsg> M>
void fields(IO& io, M& msg, std::uint16_t version) {
  io.u32(msg.tag);
  io.words(msg.outputs);
  io.u64(msg.sim_cycles);
  io.u32(msg.worker);
  io.u8(msg.reused_system);
  if constexpr (IO::kDecoding) {
    counter_fields(io, msg.counters);
  } else {
    const std::size_t sim = msg.sim_counters ? kResultCounterNames.size() : 0;
    io.u32(sim + msg.counters.size());
    for (std::size_t i = 0; i < sim; ++i) {
      io.str(kResultCounterNames[i]);
      io.u64((*msg.sim_counters)[i]);
    }
    for (const auto& [name, value] : msg.counters) {
      io.str(name);
      io.u64(value);
    }
  }
  if (version >= 2) {
    io.u64(msg.trace_id);
    io.u32(msg.queue_wait_us);
    io.u32(msg.execute_us);
    io.u32(msg.total_us);
  }
}

template <class IO, Is<ErrorMsg> M>
void fields(IO& io, M& msg, std::uint16_t version) {
  io.u32(msg.tag);
  io.u16(msg.code);
  io.str(msg.message);
  if (version >= 5) io.u32(msg.retry_after_ms);
}

/// GetStats: the flags word.
template <class IO, Is<std::uint32_t> M>
void fields(IO& io, M& flags, std::uint16_t) {
  io.u32(flags);
}

/// Ping / Pong: the token.
template <class IO, Is<std::uint64_t> M>
void fields(IO& io, M& token, std::uint16_t) {
  io.u64(token);
}

template <class IO, Is<obs::SpanRecord> M>
void fields(IO& io, M& rec, std::uint16_t) {
  io.u64(rec.trace_id);
  io.str(rec.name);
  io.flag(rec.ok);
  io.str(rec.error);
  io.u32(rec.worker);
  io.u64(rec.sim_cycles);
  io.u64(rec.plan_hits);
  io.u64(rec.superstep_cycles);
  io.u64(rec.start_offset_us);
  io.u32(rec.queue_wait_us);
  io.u32(rec.arm_us);
  io.u32(rec.execute_us);
  io.u32(rec.serialize_us);
  io.u32(rec.e2e_us);
  io.flag(rec.slow);
}

template <class IO, Is<StatsReplyMsg> M>
void fields(IO& io, M& msg, std::uint16_t version) {
  io.u16(msg.stats_version);
  io.u64(msg.uptime_us);
  io.u32(msg.workers);
  io.u32(msg.queue_depth);
  io.u32(msg.queue_capacity);
  io.f64(msg.worker_utilization);
  counter_fields(io, msg.counters);
  io.seq(msg.latencies, 4 + 8 + 4 * 8 + 8, [&](auto& q) {
    io.str(q.name);
    io.u64(q.count);
    io.f64(q.mean_us);
    io.f64(q.p50_us);
    io.f64(q.p90_us);
    io.f64(q.p99_us);
    io.u64(q.max_us);
  });
  io.seq(msg.rates, 4 + 8, [&](auto& rate) {
    io.str(rate.name);
    io.f64(rate.per_sec);
  });
  io.seq(msg.flight, 8 + 4 + 1 + 4 + 4 + 4 * 8 + 5 * 4 + 1,
         [&](auto& rec) { fields(io, rec, version); });
}

template <class IO, Is<SubmitDfgMsg> M>
void fields(IO& io, M& msg, std::uint16_t version) {
  io.u32(msg.tag);
  fields(io, msg.geometry, version);
  io.bytes(msg.dfg);
  io.u64(msg.trace_id);
}

template <class IO, Is<DfgCompiledMsg> M>
void fields(IO& io, M& msg, std::uint16_t) {
  io.u32(msg.tag);
  io.u64(msg.dfg_hash);
  io.u8(msg.cache_hit);
  io.u32(msg.compile_us);
  io.u16(msg.dnodes_used);
  io.u16(msg.max_latency);
  io.u16(msg.pushes_per_cycle);
  io.u16(msg.input_count);
  io.seq(msg.outputs, 4 + 2 + 2, [&](auto& o) {
    io.str(o.name);
    io.u16(o.latency);
    io.u16(o.push_rank);
  });
}

template <class IO, Is<SubmitDfgJobMsg> M>
void fields(IO& io, M& msg, std::uint16_t version) {
  io.u32(msg.tag);
  fields(io, msg.geometry, version);
  io.bytes(msg.dfg);
  io.seq(msg.streams, 4, [&](auto& s) { io.words(s); }, kMaxDfgJobStreams);
  io.u64(msg.trace_id);
}

template <class IO, Is<SubmitGemmMsg> M>
void fields(IO& io, M& msg, std::uint16_t version) {
  io.u32(msg.tag);
  fields(io, msg.geometry, version);
  io.u16(msg.spec.m);
  io.u16(msg.spec.k);
  io.u16(msg.spec.n);
  io.u8(msg.spec.dtype);
  io.u8(msg.spec.shift);
  io.u8(msg.spec.mapping);
  io.u16(msg.spec.tile_n);
  io.u32(msg.scratch_tiles);
  io.words(msg.a);
  io.words(msg.b);
  io.u64(msg.trace_id);
}

/// Batch entries nest each job's own payload as a length-prefixed blob,
/// so every per-version rule above carries over verbatim.
template <class IO, Is<SubmitJobBatchMsg> M>
void fields(IO& io, M& msg, std::uint16_t version) {
  io.u32(msg.tag);
  io.seq(msg.jobs, 4, [&](auto& job) {
    io.nested([&](auto& blob) { fields(blob, job, version); });
  }, kMaxBatchJobs);
  io.u64(msg.trace_id);
}

template <class IO, Is<JobBatchResultMsg> M>
void fields(IO& io, M& msg, std::uint16_t version) {
  io.u32(msg.tag);
  io.seq(msg.entries, 1 + 4, [&](auto& e) {
    io.u8(e.ok);
    io.nested([&](auto& blob) {
      if (e.ok) {
        fields(blob, e.result, version);
      } else {
        fields(blob, e.error, version);
      }
    });
  }, kMaxBatchJobs);
}

template <class IO, Is<ServerInfoMsg> M>
void fields(IO& io, M& msg, std::uint16_t) {
  io.u16(msg.protocol_version);
  io.u32(msg.workers);
  io.u32(msg.queue_capacity);
  io.u32(msg.max_frame_bytes);
  io.u64(msg.jobs_completed);
  io.str(msg.server);
}

template <class M>
std::vector<std::uint8_t> encode(const M& msg, std::uint16_t version) {
  LeWriter w;
  fields(w, msg, version);
  return w.take();
}

template <class M>
M decode(std::span<const std::uint8_t> payload, std::uint16_t version) {
  WireReader r(payload, "net");
  M msg{};
  fields(r, msg, version);
  r.expect_end();
  return msg;
}

/// Decode-only checks of a GEMM request: enum ranges, caps, the spec
/// itself and operand sizes that match it.
SubmitGemmMsg validated(SubmitGemmMsg msg) {
  if (msg.spec.dtype > tile::Dtype::kInt16) {
    throw ProtocolError("net: unknown GEMM dtype " +
                        std::to_string(static_cast<unsigned>(msg.spec.dtype)));
  }
  if (msg.spec.mapping > tile::Mapping::kWeightStationary) {
    throw ProtocolError(
        "net: unknown GEMM mapping " +
        std::to_string(static_cast<unsigned>(msg.spec.mapping)));
  }
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

/// Microsecond durations ride as u32 on the wire; anything past ~71
/// minutes pins at the max instead of wrapping.
std::uint32_t sat_u32(std::uint64_t v) {
  return v > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(v);
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
  LeWriter w(std::move(out));
  w.u16(version);
  w.u16(type);
  w.bytes(payload);  // u32 length, then the payload
  w.u32(crc32(payload));
  out = w.take();
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
  // In-bounds reads only from here on, so the readers never throw.
  WireReader header(buffer.subspan(4, kHeaderBytes - 4), "net");
  std::uint16_t version = 0;
  MsgType type = MsgType::kPing;
  std::uint32_t len = 0;
  header.u16(version);
  header.u16(type);
  header.u32(len);
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    return ParseStatus::kBadVersion;
  }
  if (len > max_frame_bytes) return ParseStatus::kTooLarge;
  const std::size_t total = kHeaderBytes + len + kTrailerBytes;
  if (buffer.size() < total) return ParseStatus::kNeedMore;
  const auto payload = buffer.subspan(kHeaderBytes, len);
  std::uint32_t crc = 0;
  WireReader(buffer.subspan(kHeaderBytes + len, kTrailerBytes), "net").u32(crc);
  if (crc32(payload) != crc) return ParseStatus::kBadCrc;
  frame.type = type;
  frame.version = version;
  frame.payload.assign(payload.begin(), payload.end());
  consumed = total;
  return ParseStatus::kFrame;
}

std::vector<std::uint8_t> encode_job_request(const JobRequest& req,
                                             std::uint16_t version) {
  return encode(req, version);
}

JobRequest decode_job_request(std::span<const std::uint8_t> payload,
                              std::uint16_t version) {
  return decode<JobRequest>(payload, version);
}

std::vector<std::uint8_t> encode_job_result(const JobResultMsg& msg,
                                            std::uint16_t version) {
  return encode(msg, version);
}

JobResultMsg decode_job_result(std::span<const std::uint8_t> payload,
                               std::uint16_t version) {
  return decode<JobResultMsg>(payload, version);
}

std::vector<std::uint8_t> encode_get_stats(std::uint32_t flags) {
  return encode(flags, kProtocolVersion);
}

std::uint32_t decode_get_stats(std::span<const std::uint8_t> payload) {
  return decode<std::uint32_t>(payload, kProtocolVersion);
}

std::vector<std::uint8_t> encode_stats_reply(const StatsReplyMsg& msg) {
  return encode(msg, kProtocolVersion);
}

StatsReplyMsg decode_stats_reply(std::span<const std::uint8_t> payload) {
  return decode<StatsReplyMsg>(payload, kProtocolVersion);
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
  return encode(msg, kProtocolVersion);
}

SubmitDfgMsg decode_submit_dfg(std::span<const std::uint8_t> payload) {
  return decode<SubmitDfgMsg>(payload, kProtocolVersion);
}

std::vector<std::uint8_t> encode_dfg_compiled(const DfgCompiledMsg& msg) {
  return encode(msg, kProtocolVersion);
}

DfgCompiledMsg decode_dfg_compiled(std::span<const std::uint8_t> payload) {
  return decode<DfgCompiledMsg>(payload, kProtocolVersion);
}

std::vector<std::uint8_t> encode_submit_dfg_job(const SubmitDfgJobMsg& msg) {
  return encode(msg, kProtocolVersion);
}

SubmitDfgJobMsg decode_submit_dfg_job(std::span<const std::uint8_t> payload) {
  return decode<SubmitDfgJobMsg>(payload, kProtocolVersion);
}

std::vector<std::uint8_t> encode_submit_gemm(const SubmitGemmMsg& msg) {
  return encode(msg, kProtocolVersion);
}

SubmitGemmMsg decode_submit_gemm(std::span<const std::uint8_t> payload) {
  return validated(decode<SubmitGemmMsg>(payload, kProtocolVersion));
}

std::vector<std::uint8_t> encode_submit_job_batch(const SubmitJobBatchMsg& msg,
                                                  std::uint16_t version) {
  return encode(msg, version);
}

SubmitJobBatchMsg decode_submit_job_batch(std::span<const std::uint8_t> payload,
                                          std::uint16_t version) {
  return decode<SubmitJobBatchMsg>(payload, version);
}

std::vector<std::uint8_t> encode_job_batch_result(const JobBatchResultMsg& msg,
                                                  std::uint16_t version) {
  return encode(msg, version);
}

JobBatchResultMsg decode_job_batch_result(std::span<const std::uint8_t> payload,
                                          std::uint16_t version) {
  return decode<JobBatchResultMsg>(payload, version);
}

std::vector<std::uint8_t> encode_error(const ErrorMsg& msg,
                                       std::uint16_t version) {
  return encode(msg, version);
}

ErrorMsg decode_error(std::span<const std::uint8_t> payload,
                      std::uint16_t version) {
  return decode<ErrorMsg>(payload, version);
}

std::vector<std::uint8_t> encode_server_info(const ServerInfoMsg& msg) {
  return encode(msg, kProtocolVersion);
}

ServerInfoMsg decode_server_info(std::span<const std::uint8_t> payload) {
  return decode<ServerInfoMsg>(payload, kProtocolVersion);
}

std::vector<std::uint8_t> encode_ping(std::uint64_t token) {
  return encode(token, kProtocolVersion);
}

std::uint64_t decode_ping(std::span<const std::uint8_t> payload) {
  return decode<std::uint64_t>(payload, kProtocolVersion);
}

rt::Job to_rt_job(const JobRequest& req,
                  std::shared_ptr<const LoadableProgram> program) {
  req.geometry.validate();
  rt::Job job;
  switch (req.kernel) {
    case KernelId::kFir:
      job = kernels::make_spatial_fir_job(req.geometry, req.input,
                                          req.fir_coeffs, std::move(program));
      break;
    case KernelId::kMotionEstimation:
      check(req.me_range >= 1,
            "net: motion-estimation range must be at least 1");
      check(req.me_range <= kMaxMotionRange,
            "net: motion-estimation range exceeds limit of " +
                std::to_string(kMaxMotionRange));
      job = kernels::make_motion_estimation_job(
          req.geometry, req.me_ref, req.me_rx, req.me_ry, req.me_cand,
          static_cast<int>(req.me_range), std::move(program));
      break;
    case KernelId::kDwt53:
      job = kernels::make_dwt53_job(req.geometry, req.input,
                                    std::move(program));
      break;
    case KernelId::kMatvec8: {
      check(req.matvec_m.size() == dsp::kMatvecN * dsp::kMatvecN,
            "net: matvec8 expects a 64-word row-major matrix");
      dsp::Matrix8 m;
      for (std::size_t r = 0; r < dsp::kMatvecN; ++r) {
        for (std::size_t c = 0; c < dsp::kMatvecN; ++c) {
          m[r][c] = req.matvec_m[r * dsp::kMatvecN + c];
        }
      }
      job = kernels::make_matvec8_job(req.geometry, m, req.input,
                                      std::move(program));
      break;
    }
    default:
      throw SimError("net: unknown kernel id " +
                     std::to_string(static_cast<unsigned>(req.kernel)));
  }
  job.trace_id = req.trace_id;
  return job;
}

bool same_program(const JobRequest& a, const JobRequest& b) {
  // Fields another kernel ignores decode empty, so comparing them all
  // costs nothing on the wire and is conservative otherwise.
  return a.kernel == b.kernel && a.geometry == b.geometry &&
         a.fir_coeffs == b.fir_coeffs && a.me_range == b.me_range &&
         a.matvec_m == b.matvec_m &&
         (a.kernel != KernelId::kMatvec8 ||
          a.input.size() / dsp::kMatvecN == b.input.size() / dsp::kMatvecN);
}

JobResultMsg make_job_result_msg(std::uint32_t tag,
                                 const rt::JobResult& result) {
  JobResultMsg msg;
  msg.tag = tag;
  msg.outputs = result.outputs;
  msg.sim_cycles = result.report.stats.cycles;
  msg.worker = static_cast<std::uint32_t>(result.worker);
  msg.reused_system = result.reused_system ? 1 : 0;
  const SystemStats& s = result.report.stats;
  msg.sim_counters = {{s.cycles, s.ring_stall_cycles, s.ctrl_stall_cycles,
                       s.dnode_ops, s.arith_ops, s.host_words_in,
                       s.host_words_out, s.plan_hits}};
  msg.trace_id = result.trace_id;
  msg.queue_wait_us = sat_u32(result.timeline.queue_wait_us());
  msg.execute_us = sat_u32(result.timeline.execute_us());
  msg.total_us = sat_u32(result.timeline.total_us());
  return msg;
}

}  // namespace sring::net
