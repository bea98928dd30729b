// Wire-protocol unit tests: byte-level framing, CRC, codec round
// trips, and the malformed-input taxonomy (truncated, oversized, bad
// magic/version, CRC mismatch) — all without a socket.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/image.hpp"
#include "net/protocol.hpp"
#include "rt/runtime.hpp"

namespace sring::net {
namespace {

std::vector<std::uint8_t> bytes_of(const char* s) {
  return std::vector<std::uint8_t>(s, s + std::strlen(s));
}

TEST(Crc32, MatchesIeeeCheckValue) {
  const auto data = bytes_of("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
}

// The sliced CRC must equal the plain bit-serial definition at every
// length and alignment: tails shorter than a slice, whole slices and
// payloads that start mid-word.
TEST(Crc32, MatchesBitSerialDefinitionAtEveryLengthAndOffset) {
  const auto reference = [](std::span<const std::uint8_t> data) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (const std::uint8_t b : data) {
      c ^= b;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::vector<std::uint8_t> data(300);
  std::uint32_t x = 0x12345678u;
  for (auto& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len + offset <= 70; ++len) {
      const std::span<const std::uint8_t> s(data.data() + offset, len);
      EXPECT_EQ(crc32(s), reference(s)) << "offset " << offset << " len " << len;
    }
  }
  EXPECT_EQ(crc32(data), reference(data));
}

TEST(Framing, RoundTripsAllMessageTypes) {
  for (const MsgType type :
       {MsgType::kPing, MsgType::kSubmitJob, MsgType::kDrainAck}) {
    const auto payload = bytes_of("some payload");
    std::vector<std::uint8_t> wire;
    append_frame(wire, type, payload);
    EXPECT_EQ(wire.size(),
              kHeaderBytes + payload.size() + kTrailerBytes);

    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(try_parse_frame(wire, kDefaultMaxFrameBytes, frame, consumed),
              ParseStatus::kFrame);
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(Framing, TwoFramesParseBackToBack) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, MsgType::kPing, encode_ping(1));
  append_frame(wire, MsgType::kDrain, {});

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(try_parse_frame(wire, kDefaultMaxFrameBytes, frame, consumed),
            ParseStatus::kFrame);
  EXPECT_EQ(frame.type, MsgType::kPing);
  wire.erase(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(consumed));
  ASSERT_EQ(try_parse_frame(wire, kDefaultMaxFrameBytes, frame, consumed),
            ParseStatus::kFrame);
  EXPECT_EQ(frame.type, MsgType::kDrain);
  EXPECT_EQ(consumed, wire.size());
}

TEST(Framing, TruncatedPrefixWantsMoreBytes) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, MsgType::kPing, encode_ping(42));
  Frame frame;
  std::size_t consumed = 0;
  // Every strict prefix is kNeedMore — a partial frame never errors,
  // never parses.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(wire.data(), cut);
    EXPECT_EQ(try_parse_frame(prefix, kDefaultMaxFrameBytes, frame, consumed),
              ParseStatus::kNeedMore)
        << "at prefix length " << cut;
  }
}

TEST(Framing, EmptyBufferWantsMoreBytes) {
  Frame frame;
  std::size_t consumed = 1;
  // A default span has a null data(); the parser must not hand it to
  // memcmp (UB even at length 0 — UBSan flags it).
  EXPECT_EQ(try_parse_frame(std::span<const std::uint8_t>{},
                            kDefaultMaxFrameBytes, frame, consumed),
            ParseStatus::kNeedMore);
  EXPECT_EQ(consumed, 0u);
}

TEST(Framing, BadMagicRejectsOnFirstDivergentByte) {
  Frame frame;
  std::size_t consumed = 0;
  const auto garbage = bytes_of("GET / HTTP/1.1\r\n");
  EXPECT_EQ(try_parse_frame(garbage, kDefaultMaxFrameBytes, frame, consumed),
            ParseStatus::kBadMagic);
  // Even a single wrong byte is enough.
  const std::vector<std::uint8_t> one = {'X'};
  EXPECT_EQ(try_parse_frame(one, kDefaultMaxFrameBytes, frame, consumed),
            ParseStatus::kBadMagic);
}

TEST(Framing, BadVersionRejected) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, MsgType::kPing, encode_ping(7));
  wire[4] = 0xFE;  // version low byte
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(try_parse_frame(wire, kDefaultMaxFrameBytes, frame, consumed),
            ParseStatus::kBadVersion);
}

TEST(Framing, OversizedFrameRejectedFromHeaderAlone) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, MsgType::kSubmitJob, bytes_of("xx"));
  wire[8] = 0xFF;  // length field -> huge
  wire[9] = 0xFF;
  wire[10] = 0xFF;
  wire[11] = 0x7F;
  Frame frame;
  std::size_t consumed = 0;
  // The limit applies before any payload bytes arrive.
  EXPECT_EQ(try_parse_frame(
                std::span<const std::uint8_t>(wire.data(), kHeaderBytes),
                kDefaultMaxFrameBytes, frame, consumed),
            ParseStatus::kTooLarge);
}

TEST(Framing, CrcMismatchRejected) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, MsgType::kPing, encode_ping(99));
  wire[kHeaderBytes] ^= 0x01;  // flip one payload bit
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(try_parse_frame(wire, kDefaultMaxFrameBytes, frame, consumed),
            ParseStatus::kBadCrc);
}

JobRequest sample_request(KernelId kernel) {
  JobRequest req;
  req.kernel = kernel;
  req.geometry = {8, 2, 16};
  req.tag = 0xC0FFEE;
  switch (kernel) {
    case KernelId::kFir:
      req.fir_coeffs = {1, static_cast<Word>(-2), 3};
      req.input = {10, 20, 30, 40};
      break;
    case KernelId::kMotionEstimation:
      req.me_ref = Image::synthetic(16, 16, 3);
      req.me_cand = Image::shifted(req.me_ref, 1, 0, 5, 2);
      req.me_rx = 4;
      req.me_ry = 4;
      req.me_range = 1;
      break;
    case KernelId::kDwt53:
      req.input = {1, 2, 3, 4, 5, 6, 7, 8};
      break;
    case KernelId::kMatvec8:
      req.matvec_m.assign(64, 7);
      req.input.assign(16, 3);
      break;
  }
  return req;
}

TEST(Codec, JobRequestRoundTripsForEveryKernel) {
  for (const KernelId k :
       {KernelId::kFir, KernelId::kMotionEstimation, KernelId::kDwt53,
        KernelId::kMatvec8}) {
    const JobRequest req = sample_request(k);
    const JobRequest back = decode_job_request(encode_job_request(req));
    EXPECT_EQ(back, req);
  }
}

TEST(Codec, JobResultRoundTrips) {
  JobResultMsg msg;
  msg.tag = 7;
  msg.outputs = {1, 0xFFFF, 3};
  msg.sim_cycles = 123456789;
  msg.worker = 3;
  msg.reused_system = 1;
  msg.counters = {{"sim.cycles", 123456789}, {"sim.dnode_ops", 42}};
  EXPECT_EQ(decode_job_result(encode_job_result(msg)), msg);
}

TEST(Codec, ErrorAndServerInfoAndPingRoundTrip) {
  ErrorMsg err;
  err.tag = 9;
  err.code = ErrorCode::kBusy;
  err.message = "job queue is full — resubmit later";
  EXPECT_EQ(decode_error(encode_error(err)), err);

  ServerInfoMsg info;
  info.workers = 8;
  info.queue_capacity = 64;
  info.max_frame_bytes = 1 << 20;
  info.jobs_completed = 12345;
  info.server = "sring-serve";
  EXPECT_EQ(decode_server_info(encode_server_info(info)), info);

  EXPECT_EQ(decode_ping(encode_ping(0xDEADBEEFCAFEull)), 0xDEADBEEFCAFEull);
}

TEST(Codec, TruncatedPayloadThrowsTyped) {
  auto payload = encode_job_request(sample_request(KernelId::kFir));
  payload.resize(payload.size() / 2);
  EXPECT_THROW(decode_job_request(payload), ProtocolError);
}

// Word vectors decode in bulk after one size check: every strict
// prefix still fails typed, and a cut inside the vector reports the
// overrun before any word is copied.
TEST(Codec, WordVectorTruncationAtEveryCutThrowsTyped) {
  JobResultMsg msg;
  msg.tag = 7;
  msg.outputs = {1, 0xFFFF, 0x8000, 42, 0x0102};
  const auto full = encode_job_result(msg);
  EXPECT_EQ(decode_job_result(full).outputs, msg.outputs);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(
        full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_job_result(prefix), ProtocolError) << cut;
  }
  // tag u32, word count u32, then the words: cut after two and a half.
  const std::vector<std::uint8_t> mid(full.begin(), full.begin() + 8 + 5);
  try {
    (void)decode_job_result(mid);
    FAIL() << "truncated word vector accepted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("overruns"), std::string::npos);
  }
}

TEST(Codec, TrailingBytesThrowTyped) {
  auto payload = encode_ping(5);
  payload.push_back(0);
  EXPECT_THROW(decode_ping(payload), ProtocolError);
}

TEST(Codec, UnknownKernelIdThrowsTyped) {
  auto payload = encode_job_request(sample_request(KernelId::kDwt53));
  payload[4] = 0x77;  // kernel id low byte (after u32 tag)
  payload[5] = 0x00;
  EXPECT_THROW(decode_job_request(payload), ProtocolError);
}

TEST(Codec, ImagePixelCountMismatchThrowsTyped) {
  JobRequest req = sample_request(KernelId::kMotionEstimation);
  auto payload = encode_job_request(req);
  // Shrink the declared ref width: pixels no longer match w*h.  The
  // width sits after tag u32 + kernel u16 + geometry u16*3.
  payload[12] = 0x08;
  EXPECT_THROW(decode_job_request(payload), ProtocolError);
}

TEST(JobMapping, MatchesKernelDescriptors) {
  const JobRequest req = sample_request(KernelId::kFir);
  const rt::Job job = to_rt_job(req);
  EXPECT_EQ(job.name, "fir.spatial");
  EXPECT_EQ(job.take_words, req.input.size());
  ASSERT_NE(job.program, nullptr);

  JobRequest bad = sample_request(KernelId::kMatvec8);
  bad.matvec_m.resize(63);
  EXPECT_THROW(to_rt_job(bad), SimError);
}

// A tiny valid frame could otherwise declare a u16 search range whose
// (2*range+1)^2 displacement set allocates ~100 GB on the poll thread;
// the cap turns that into a typed Error{kBadRequest} before any
// allocation happens.
TEST(JobMapping, MotionRangeAboveCapThrowsBeforeAllocating) {
  JobRequest bomb = sample_request(KernelId::kMotionEstimation);
  bomb.me_range = 0xFFFF;
  EXPECT_THROW(to_rt_job(bomb), SimError);
  bomb.me_range = kMaxMotionRange + 1;
  EXPECT_THROW(to_rt_job(bomb), SimError);
}

// --- protocol v2: version negotiation, trace ids, stats exposition ---

TEST(Versioning, ParserAcceptsEverySupportedVersionAndReportsIt) {
  for (const std::uint16_t v : {kMinProtocolVersion, kProtocolVersion}) {
    std::vector<std::uint8_t> wire;
    append_frame(wire, MsgType::kPing, encode_ping(7), v);
    Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(try_parse_frame(wire, kDefaultMaxFrameBytes, frame, consumed),
              ParseStatus::kFrame)
        << "version " << v;
    EXPECT_EQ(frame.version, v);
  }

  // Below the floor and above the ceiling both reject.
  for (const std::uint16_t v :
       {std::uint16_t{0},
        static_cast<std::uint16_t>(kProtocolVersion + 1)}) {
    std::vector<std::uint8_t> wire;
    append_frame(wire, MsgType::kPing, encode_ping(7));
    wire[4] = static_cast<std::uint8_t>(v & 0xFF);
    wire[5] = static_cast<std::uint8_t>(v >> 8);
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(try_parse_frame(wire, kDefaultMaxFrameBytes, frame, consumed),
              ParseStatus::kBadVersion)
        << "version " << v;
  }
}

TEST(Versioning, JobRequestCarriesTraceIdOnlyInV2) {
  JobRequest req = sample_request(KernelId::kFir);
  req.trace_id = 0x1122334455667788ull;

  const JobRequest v2 = decode_job_request(encode_job_request(req), 2);
  EXPECT_EQ(v2, req);
  EXPECT_EQ(v2.trace_id, 0x1122334455667788ull);

  // The v1 byte layout has no trace tail: exactly 8 bytes shorter,
  // and a v1 decode of it yields trace_id 0 with everything else
  // intact — old clients round-trip bit-identically.
  const auto v2_bytes = encode_job_request(req, 2);
  const auto v1_bytes = encode_job_request(req, 1);
  EXPECT_EQ(v1_bytes.size() + 8, v2_bytes.size());
  EXPECT_TRUE(std::equal(v1_bytes.begin(), v1_bytes.end(),
                         v2_bytes.begin()));
  const JobRequest v1 = decode_job_request(v1_bytes, 1);
  EXPECT_EQ(v1.trace_id, 0u);
  JobRequest expect_v1 = req;
  expect_v1.trace_id = 0;
  EXPECT_EQ(v1, expect_v1);
}

TEST(Versioning, JobResultTelemetryTailIsV2Only) {
  JobResultMsg msg;
  msg.tag = 11;
  msg.outputs = {5, 6};
  msg.sim_cycles = 999;
  msg.counters = {{"sim.cycles", 999}};
  msg.trace_id = 0xFACE;
  msg.queue_wait_us = 17;
  msg.execute_us = 230;
  msg.total_us = 260;

  EXPECT_EQ(decode_job_result(encode_job_result(msg), 2), msg);

  const JobResultMsg v1 =
      decode_job_result(encode_job_result(msg, 1), 1);
  EXPECT_EQ(v1.tag, msg.tag);
  EXPECT_EQ(v1.outputs, msg.outputs);
  EXPECT_EQ(v1.trace_id, 0u);
  EXPECT_EQ(v1.queue_wait_us, 0u);
  EXPECT_EQ(v1.total_us, 0u);
}

TEST(Versioning, V1PayloadWithV2TailIsRejected) {
  // A v1 frame must not smuggle the v2 tail: strict end-of-payload
  // checking catches the 8 extra bytes.
  JobRequest req = sample_request(KernelId::kDwt53);
  req.trace_id = 1;
  const auto v2_bytes = encode_job_request(req, 2);
  EXPECT_THROW(decode_job_request(v2_bytes, 1), ProtocolError);
}

obs::SpanRecord sample_span(std::uint64_t trace) {
  obs::SpanRecord rec;
  rec.trace_id = trace;
  rec.name = "fir.spatial";
  rec.ok = false;
  rec.error = "ring stalled";
  rec.worker = 3;
  rec.sim_cycles = 4096;
  rec.plan_hits = 2;
  rec.superstep_cycles = 4000;
  rec.start_offset_us = 123456;
  rec.queue_wait_us = 17;
  rec.arm_us = 4;
  rec.execute_us = 800;
  rec.serialize_us = 9;
  rec.e2e_us = 830;
  rec.slow = true;
  return rec;
}

TEST(Codec, GetStatsRoundTripsFlags) {
  EXPECT_EQ(decode_get_stats(encode_get_stats(0)), 0u);
  EXPECT_EQ(decode_get_stats(encode_get_stats(kStatsIncludeFlight)),
            kStatsIncludeFlight);
}

TEST(Codec, StatsReplyRoundTripsEverything) {
  StatsReplyMsg msg;
  msg.uptime_us = 5'000'000;
  msg.workers = 4;
  msg.queue_depth = 3;
  msg.queue_capacity = 64;
  msg.worker_utilization = 0.625;
  msg.counters = {{"net.jobs.completed", 120}, {"rt.sim_cycles", 1 << 20}};
  StatsQuantileMsg q;
  q.name = "net.latency.e2e_us";
  q.count = 120;
  q.mean_us = 840.5;
  q.p50_us = 700.0;
  q.p90_us = 1900.0;
  q.p99_us = 4700.0;
  q.max_us = 5123;
  msg.latencies = {q};
  msg.rates = {{"net.jobs.completed", 24.5}, {"net.bytes.in", 81920.0}};
  msg.flight = {sample_span(1), sample_span(2)};

  EXPECT_EQ(decode_stats_reply(encode_stats_reply(msg)), msg);

  // Empty lists survive too (a just-started server).
  EXPECT_EQ(decode_stats_reply(encode_stats_reply(StatsReplyMsg{})),
            StatsReplyMsg{});
}

TEST(Codec, StatsReplyJsonCarriesTheSameFields) {
  StatsReplyMsg msg;
  msg.uptime_us = 1000;
  msg.workers = 2;
  msg.counters = {{"net.jobs.completed", 7}};
  msg.rates = {{"net.jobs.completed", 3.5}};
  msg.flight = {sample_span(42)};
  const obs::JsonValue j = msg.to_json();
  EXPECT_EQ(j.find("uptime_us")->as_uint(), 1000u);
  EXPECT_EQ(j.find("counters")->find("net.jobs.completed")->as_uint(), 7u);
  EXPECT_NE(j.find("rates")->find("net.jobs.completed"), nullptr);
  ASSERT_EQ(j.find("flight")->items().size(), 1u);
  EXPECT_EQ(j.find("flight")->items()[0].find("trace_id")->as_uint(), 42u);
}

TEST(JobMapping, TraceIdReachesTheRtJob) {
  JobRequest req = sample_request(KernelId::kFir);
  req.trace_id = 0xBEEF;
  EXPECT_EQ(to_rt_job(req).trace_id, 0xBEEF);
}

// --- protocol v3: DFG compile service messages ---

SubmitDfgMsg sample_submit_dfg() {
  SubmitDfgMsg msg;
  msg.tag = 41;
  msg.geometry = RingGeometry{8, 2, 16};
  msg.dfg = {'S', 'D', 'F', 'G', 1, 0, 9, 8, 7};  // opaque at this layer
  msg.trace_id = 0xA1B2C3D4E5F60718ull;
  return msg;
}

TEST(Codec, SubmitDfgRoundTrips) {
  const SubmitDfgMsg msg = sample_submit_dfg();
  EXPECT_EQ(decode_submit_dfg(encode_submit_dfg(msg)), msg);

  // An empty blob is a protocol-legal (if useless) payload: the
  // compile service rejects it later with a typed error, not here.
  SubmitDfgMsg empty;
  EXPECT_EQ(decode_submit_dfg(encode_submit_dfg(empty)), empty);
}

TEST(Codec, DfgCompiledRoundTripsWithAndWithoutOutputs) {
  DfgCompiledMsg msg;
  msg.tag = 42;
  msg.dfg_hash = 0xCD067F0722C52F50ull;
  msg.cache_hit = 1;
  msg.compile_us = 0;
  msg.dnodes_used = 5;
  msg.max_latency = 4;
  msg.pushes_per_cycle = 2;
  msg.input_count = 1;
  msg.outputs = {{"out", 4, 0}, {"aux.tap", 3, 1}};
  EXPECT_EQ(decode_dfg_compiled(encode_dfg_compiled(msg)), msg);
  EXPECT_EQ(decode_dfg_compiled(encode_dfg_compiled(DfgCompiledMsg{})),
            DfgCompiledMsg{});
}

TEST(Codec, SubmitDfgJobRoundTrips) {
  SubmitDfgJobMsg msg;
  msg.tag = 43;
  msg.geometry = RingGeometry{4, 2, 16};
  msg.dfg = {'S', 'D', 'F', 'G', 1, 0};
  msg.streams = {{1, static_cast<Word>(-2), 3},
                 {static_cast<Word>(-4), 5, static_cast<Word>(-6)}};
  msg.trace_id = 99;
  EXPECT_EQ(decode_submit_dfg_job(encode_submit_dfg_job(msg)), msg);
}

TEST(Codec, V3DfgTruncationsAndTrailingBytesReject) {
  const auto exercise = [](const std::vector<std::uint8_t>& bytes,
                           auto decode) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_THROW((void)decode({bytes.data(), len}), ProtocolError)
          << "prefix " << len;
    }
    auto trailing = bytes;
    trailing.push_back(0x5A);
    EXPECT_THROW((void)decode(trailing), ProtocolError);
  };
  exercise(encode_submit_dfg(sample_submit_dfg()),
           [](std::span<const std::uint8_t> p) {
             return decode_submit_dfg(p);
           });
  exercise(encode_dfg_compiled(
               DfgCompiledMsg{.tag = 1, .outputs = {{"y", 2, 0}}}),
           [](std::span<const std::uint8_t> p) {
             return decode_dfg_compiled(p);
           });
  exercise(encode_submit_dfg_job(SubmitDfgJobMsg{
               .tag = 2, .dfg = {1, 2, 3}, .streams = {{7, 8}}}),
           [](std::span<const std::uint8_t> p) {
             return decode_submit_dfg_job(p);
           });
}

TEST(Codec, DfgJobStreamCountIsCappedBeforeBuffering) {
  SubmitDfgJobMsg msg;
  msg.tag = 7;
  msg.dfg = {1, 2, 3, 4};
  msg.streams = {{1}, {2}};
  auto bytes = encode_submit_dfg_job(msg);
  // Stream count u32 sits after tag(4) + geometry(6) + blob(4 + len).
  const std::size_t count_at = 4 + 6 + 4 + msg.dfg.size();
  const std::uint32_t huge = kMaxDfgJobStreams + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[count_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  }
  try {
    (void)decode_submit_dfg_job(bytes);
    FAIL() << "oversized stream count accepted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("limit"), std::string::npos);
  }
}

TEST(Codec, DfgCompiledOutputCountOverrunIsTyped) {
  auto bytes = encode_dfg_compiled(DfgCompiledMsg{});
  // Output count u32 sits at 4+8+1+4+2+2+2+2 = 25; claim 2^31 entries.
  bytes[25 + 3] = 0x80;
  try {
    (void)decode_dfg_compiled(bytes);
    FAIL() << "overrunning output count accepted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("overruns"), std::string::npos);
  }
}

TEST(Versioning, AllFramingVersionsParseAndOldPayloadsStayBitIdentical) {
  // All five supported framing versions parse and report themselves;
  // the frame header layout did not change for v3/v4/v5.
  for (const std::uint16_t v :
       {std::uint16_t{1}, std::uint16_t{2}, std::uint16_t{3},
        std::uint16_t{4}, std::uint16_t{5}}) {
    std::vector<std::uint8_t> wire;
    append_frame(wire, MsgType::kPing, encode_ping(3), v);
    Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(try_parse_frame(wire, kDefaultMaxFrameBytes, frame, consumed),
              ParseStatus::kFrame);
    EXPECT_EQ(frame.version, v);
  }

  // The payload bytes of every version are pinned in
  // Golden.EveryMessageEncodesToItsPinnedBytes.  Pre-v5 Error payloads
  // carry no retry_after_ms tail, so it decodes as 0.
  ErrorMsg err;
  err.code = ErrorCode::kBusy;
  err.message = "x";
  err.retry_after_ms = 25;
  EXPECT_EQ(decode_error(encode_error(err, 4), 4).retry_after_ms, 0u);
  EXPECT_EQ(kProtocolVersion, 5);
  EXPECT_EQ(kMinProtocolVersion, 1);
}

// ---------------------------------------------------------------------------
// v4 tiled-GEMM payload

SubmitGemmMsg sample_gemm() {
  SubmitGemmMsg msg;
  msg.tag = 0x47454D;
  msg.geometry = RingGeometry{8, 2, 16};
  msg.spec.m = 17;
  msg.spec.k = 9;
  msg.spec.n = 13;
  msg.spec.dtype = tile::Dtype::kInt16;
  msg.spec.shift = 5;
  msg.spec.mapping = tile::Mapping::kWeightStationary;
  msg.spec.tile_n = 4;
  msg.scratch_tiles = 32;
  msg.a.assign(msg.spec.m * msg.spec.k, 0x0102);
  msg.b.assign(msg.spec.k * msg.spec.n, 0x0304);
  msg.trace_id = 0xF00DF00DF00Dull;
  return msg;
}

TEST(SubmitGemm, RoundTripsAllFields) {
  const SubmitGemmMsg msg = sample_gemm();
  const SubmitGemmMsg back = decode_submit_gemm(encode_submit_gemm(msg));
  EXPECT_EQ(back, msg);
}

TEST(SubmitGemm, TruncatedPayloadThrows) {
  const std::vector<std::uint8_t> wire =
      encode_submit_gemm(sample_gemm());
  for (const std::size_t cut : {0ul, 4ul, 11ul, wire.size() - 1}) {
    EXPECT_THROW(decode_submit_gemm(
                     std::span<const std::uint8_t>(wire.data(), cut)),
                 ProtocolError)
        << "at cut " << cut;
  }
}

TEST(SubmitGemm, DecodeRejectsInvalidSpecs) {
  const auto mutate = [](auto&& f) {
    SubmitGemmMsg msg = sample_gemm();
    f(msg);
    return encode_submit_gemm(msg);
  };
  // Unknown dtype / mapping enum values.
  EXPECT_THROW(decode_submit_gemm(mutate([](SubmitGemmMsg& m) {
                 m.spec.dtype = static_cast<tile::Dtype>(9);
               })),
               ProtocolError);
  EXPECT_THROW(decode_submit_gemm(mutate([](SubmitGemmMsg& m) {
                 m.spec.mapping = static_cast<tile::Mapping>(7);
               })),
               ProtocolError);
  // Operand sizes must match the spec exactly.
  EXPECT_THROW(decode_submit_gemm(mutate([](SubmitGemmMsg& m) {
                 m.a.pop_back();
               })),
               ProtocolError);
  EXPECT_THROW(decode_submit_gemm(mutate([](SubmitGemmMsg& m) {
                 m.b.push_back(0);
               })),
               ProtocolError);
  // Dimension / scratchpad caps.
  EXPECT_THROW(decode_submit_gemm(mutate([](SubmitGemmMsg& m) {
                 m.spec.n = kMaxGemmDim + 1;
                 m.b.assign(m.spec.k * m.spec.n, 0);
               })),
               ProtocolError);
  EXPECT_THROW(decode_submit_gemm(mutate([](SubmitGemmMsg& m) {
                 m.scratch_tiles = 0;
               })),
               ProtocolError);
  EXPECT_THROW(decode_submit_gemm(mutate([](SubmitGemmMsg& m) {
                 m.scratch_tiles = kMaxGemmScratchTiles + 1;
               })),
               ProtocolError);
  // Degenerate spec fields funnel through GemmSpec::validate.
  EXPECT_THROW(decode_submit_gemm(mutate([](SubmitGemmMsg& m) {
                 m.spec.shift = 16;
               })),
               ProtocolError);
}

// ---------------------------------------------------------------------------
// v5 batched submit

SubmitJobBatchMsg sample_batch() {
  SubmitJobBatchMsg msg;
  msg.tag = 0xBA7C4;
  msg.trace_id = 0xCAFE0001;
  for (const KernelId k : {KernelId::kFir, KernelId::kMatvec8,
                           KernelId::kDwt53}) {
    JobRequest req = sample_request(k);
    req.tag = msg.jobs.size() + 1;
    req.trace_id = 0x1000 + msg.jobs.size();
    msg.jobs.push_back(std::move(req));
  }
  return msg;
}

TEST(BatchSubmit, SubmitJobBatchRoundTrips) {
  const SubmitJobBatchMsg msg = sample_batch();
  EXPECT_EQ(decode_submit_job_batch(encode_submit_job_batch(msg)), msg);
  // An empty batch is wire-legal; admission answers it inline.
  SubmitJobBatchMsg empty;
  empty.tag = 7;
  EXPECT_EQ(decode_submit_job_batch(encode_submit_job_batch(empty)),
            empty);
}

TEST(BatchSubmit, JobBatchResultRoundTripsMixedOutcomes) {
  JobBatchResultMsg msg;
  msg.tag = 0xBA7C4;
  JobBatchEntryMsg ok_entry;
  ok_entry.ok = 1;
  ok_entry.result.tag = 1;
  ok_entry.result.outputs = {1, 2, 3};
  ok_entry.result.sim_cycles = 99;
  ok_entry.result.trace_id = 0x1000;
  msg.entries.push_back(ok_entry);
  JobBatchEntryMsg busy_entry;
  busy_entry.ok = 0;
  busy_entry.error.code = ErrorCode::kBusy;
  busy_entry.error.message = "job queue is full — resubmit later";
  busy_entry.error.retry_after_ms = 25;
  msg.entries.push_back(busy_entry);
  const JobBatchResultMsg back =
      decode_job_batch_result(encode_job_batch_result(msg));
  EXPECT_EQ(back, msg);
  EXPECT_EQ(back.entries[1].error.retry_after_ms, 25u);
}

TEST(BatchSubmit, JobCountIsCappedBeforeDecodingEntries) {
  auto bytes = encode_submit_job_batch(sample_batch());
  // Job count u32 sits after tag u32; claim kMaxBatchJobs + 1.
  const std::uint32_t bomb =
      static_cast<std::uint32_t>(kMaxBatchJobs + 1);
  bytes[4] = static_cast<std::uint8_t>(bomb & 0xFF);
  bytes[5] = static_cast<std::uint8_t>((bomb >> 8) & 0xFF);
  bytes[6] = static_cast<std::uint8_t>((bomb >> 16) & 0xFF);
  bytes[7] = static_cast<std::uint8_t>((bomb >> 24) & 0xFF);
  try {
    (void)decode_submit_job_batch(bytes);
    FAIL() << "oversized batch accepted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("limit"), std::string::npos);
  }
}

TEST(BatchSubmit, TruncationsAndTrailingBytesReject) {
  const auto wire = encode_submit_job_batch(sample_batch());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{9},
        wire.size() - 1}) {
    EXPECT_THROW(decode_submit_job_batch(
                     std::span<const std::uint8_t>(wire.data(), keep)),
                 ProtocolError)
        << "kept " << keep;
  }
  auto trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(decode_submit_job_batch(trailing), ProtocolError);

  const auto reply = encode_job_batch_result(JobBatchResultMsg{});
  auto reply_trailing = reply;
  reply_trailing.push_back(0);
  EXPECT_THROW(decode_job_batch_result(reply_trailing), ProtocolError);
}

TEST(BatchSubmit, EntriesNestThePerVersionJobCodecs) {
  // A v1 batch nests v1 job blobs: no trace_id / telemetry fields, so
  // the whole encode shrinks and decoding at v1 round-trips with the
  // v2+ tails zeroed.
  SubmitJobBatchMsg msg = sample_batch();
  const auto v5 = encode_submit_job_batch(msg, 5);
  const auto v1 = encode_submit_job_batch(msg, 1);
  EXPECT_LT(v1.size(), v5.size());
  const SubmitJobBatchMsg back = decode_submit_job_batch(v1, 1);
  ASSERT_EQ(back.jobs.size(), msg.jobs.size());
  for (const auto& job : back.jobs) EXPECT_EQ(job.trace_id, 0u);
}

// ---------------------------------------------------------------------------
// Golden payload bytes and the wire mutator.  The table pins the exact
// bytes of every message at every version that changes its layout:
// payloads up to 64 bytes in full hex, longer ones by length and
// FNV-1a 64.  The mutator then drives every pinned payload through
// truncations, bit flips, count lies, every version and every other
// message's decoder.

using Bytes = std::span<const std::uint8_t>;

std::string digest(Bytes bytes) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  if (bytes.size() <= 64) {
    for (const std::uint8_t b : bytes) {
      out += hex[b >> 4];
      out += hex[b & 0xF];
    }
    return out;
  }
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  out = "len " + std::to_string(bytes.size()) + " fnv ";
  for (int s = 60; s >= 0; s -= 4) out += hex[(h >> s) & 0xF];
  return out;
}

/// Decode at a version, then re-encode at it: the identity on every
/// payload the decoder accepts.
struct Codec {
  const char* name;
  std::vector<std::uint8_t> (*round_trip)(Bytes, std::uint16_t);
};

const Codec kCodecs[] = {
    {"JobRequest",
     [](Bytes p, std::uint16_t v) {
       return encode_job_request(decode_job_request(p, v), v);
     }},
    {"JobResult",
     [](Bytes p, std::uint16_t v) {
       return encode_job_result(decode_job_result(p, v), v);
     }},
    {"Error",
     [](Bytes p, std::uint16_t v) {
       return encode_error(decode_error(p, v), v);
     }},
    {"GetStats",
     [](Bytes p, std::uint16_t) {
       return encode_get_stats(decode_get_stats(p));
     }},
    {"StatsReply",
     [](Bytes p, std::uint16_t) {
       return encode_stats_reply(decode_stats_reply(p));
     }},
    {"ServerInfo",
     [](Bytes p, std::uint16_t) {
       return encode_server_info(decode_server_info(p));
     }},
    {"Ping",
     [](Bytes p, std::uint16_t) { return encode_ping(decode_ping(p)); }},
    {"SubmitDfg",
     [](Bytes p, std::uint16_t) {
       return encode_submit_dfg(decode_submit_dfg(p));
     }},
    {"DfgCompiled",
     [](Bytes p, std::uint16_t) {
       return encode_dfg_compiled(decode_dfg_compiled(p));
     }},
    {"SubmitDfgJob",
     [](Bytes p, std::uint16_t) {
       return encode_submit_dfg_job(decode_submit_dfg_job(p));
     }},
    {"SubmitGemm",
     [](Bytes p, std::uint16_t) {
       return encode_submit_gemm(decode_submit_gemm(p));
     }},
    {"SubmitJobBatch",
     [](Bytes p, std::uint16_t v) {
       return encode_submit_job_batch(decode_submit_job_batch(p, v), v);
     }},
    {"JobBatchResult",
     [](Bytes p, std::uint16_t v) {
       return encode_job_batch_result(decode_job_batch_result(p, v), v);
     }},
};

const Codec* codec_named(const std::string& name) {
  for (const Codec& c : kCodecs) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

struct Golden {
  std::string name;
  const Codec* codec;  ///< null for the whole frame
  std::uint16_t version;
  std::vector<std::uint8_t> bytes;
  std::string want;
};

std::vector<Golden> golden_table() {
  std::vector<Golden> rows;
  const auto row = [&](std::string name, const char* codec,
                       std::uint16_t version, std::vector<std::uint8_t> bytes,
                       std::string want) {
    rows.push_back({std::move(name), codec_named(codec), version,
                    std::move(bytes), std::move(want)});
  };

  const std::pair<KernelId, const char*> kernels[] = {
      {KernelId::kFir, "fir"},
      {KernelId::kMotionEstimation, "me"},
      {KernelId::kDwt53, "dwt53"},
      {KernelId::kMatvec8, "matvec8"}};
  const char* const job_request_want[][2] = {
      {"eeffc0000100080002001000030000000100feff0300040000000a0014001e002800",
       "eeffc0000100080002001000030000000100feff0300040000000a0014001e00"
       "28007700000000000000"},
      {"len 1062 fnv ca1442cae6264d44", "len 1070 fnv 6b7efb3fcdddb193"},
      {"eeffc00003000800020010000800000001000200030004000500060007000800",
       "eeffc00003000800020010000800000001000200030004000500060007000800"
       "7700000000000000"},
      {"len 180 fnv 83f99393b7dfec96", "len 188 fnv eda85d695e659301"},
  };
  for (std::size_t i = 0; i < std::size(kernels); ++i) {
    JobRequest req = sample_request(kernels[i].first);
    req.trace_id = 0x77;  // dropped at v1
    for (const std::uint16_t v : {1, 2}) {
      row(std::string("JobRequest ") + kernels[i].second + " v" +
              std::to_string(v),
          "JobRequest", v, encode_job_request(req, v),
          job_request_want[i][v - 1]);
    }
  }
  {  // later versions leave the v2 layout untouched
    JobRequest req = sample_request(KernelId::kFir);
    req.trace_id = 0x77;
    row("JobRequest fir v5", "JobRequest", 5, encode_job_request(req, 5),
        job_request_want[0][1]);
  }

  JobResultMsg res;
  res.tag = 7;
  res.outputs = {1, 0xFFFF, 3};
  res.sim_cycles = 123456789;
  res.worker = 3;
  res.reused_system = 1;
  res.counters = {{"sim.cycles", 123456789}, {"", 42}};
  res.trace_id = 0xFACE;
  res.queue_wait_us = 17;
  res.execute_us = 230;
  res.total_us = 260;
  row("JobResult empty v1", "JobResult", 1, encode_job_result({}, 1),
      "00000000000000000000000000000000000000000000000000");
  row("JobResult v1", "JobResult", 1, encode_job_result(res, 1),
      "len 65 fnv f2ba61d1462a9c4d");
  row("JobResult v2", "JobResult", 2, encode_job_result(res, 2),
      "len 85 fnv c516478df8f1fb6d");

  ErrorMsg err;
  err.code = ErrorCode::kBusy;
  err.message = "x";
  err.retry_after_ms = 25;
  row("Error v4", "Error", 4, encode_error(err, 4), "0000000002000100000078");
  row("Error v5", "Error", 5, encode_error(err, 5),
      "000000000200010000007819000000");

  StatsReplyMsg stats;
  stats.uptime_us = 5'000'000;
  stats.workers = 4;
  stats.queue_depth = 3;
  stats.queue_capacity = 64;
  stats.worker_utilization = 0.625;
  stats.counters = {{"net.jobs.completed", 120}, {"", 0}};
  StatsQuantileMsg q;
  q.name = "net.latency.e2e_us";
  q.count = 120;
  q.mean_us = 840.5;
  q.p50_us = 700.0;
  q.p90_us = 1900.0;
  q.p99_us = 4700.0;
  q.max_us = 5123;
  stats.latencies = {q, StatsQuantileMsg{}};
  stats.rates = {{"net.jobs.completed", 24.5}, {"", 0.0}};
  stats.flight = {sample_span(1), obs::SpanRecord{}};
  row("StatsReply", "StatsReply", 2, encode_stats_reply(stats),
      "len 423 fnv 33d253e3a2e93bff");
  row("GetStats", "GetStats", 2, encode_get_stats(kStatsIncludeFlight),
      "01000000");

  ServerInfoMsg info;
  info.workers = 8;
  info.queue_capacity = 64;
  info.max_frame_bytes = 1 << 20;
  info.jobs_completed = 12345;
  info.server = "sring-serve";
  row("ServerInfo", "ServerInfo", 1, encode_server_info(info),
      "050008000000400000000000100039300000000000000b0000007372696e672d"
      "7365727665");
  row("Ping", "Ping", 1, encode_ping(0xDEADBEEFCAFEull), "fecaefbeadde0000");

  row("SubmitDfg", "SubmitDfg", 3, encode_submit_dfg(sample_submit_dfg()),
      "29000000080002001000090000005344464701000908071807f6e5d4c3b2a1");
  DfgCompiledMsg compiled;
  compiled.tag = 42;
  compiled.dfg_hash = 0xCD067F0722C52F50ull;
  compiled.cache_hit = 1;
  compiled.compile_us = 310;
  compiled.dnodes_used = 5;
  compiled.max_latency = 4;
  compiled.pushes_per_cycle = 2;
  compiled.input_count = 1;
  compiled.outputs = {{"out", 4, 0}, {"", 3, 1}};
  row("DfgCompiled", "DfgCompiled", 3, encode_dfg_compiled(compiled),
      "2a000000502fc522077f06cd0136010000050004000200010002000000030000"
      "006f7574040000000000000003000100");
  SubmitDfgJobMsg dfg_job;
  dfg_job.tag = 43;
  dfg_job.geometry = RingGeometry{4, 2, 16};
  dfg_job.dfg = {'S', 'D', 'F', 'G', 1, 0};
  dfg_job.streams = {{1, static_cast<Word>(-2), 3},
                     {static_cast<Word>(-4), 5, static_cast<Word>(-6)},
                     {}};
  dfg_job.trace_id = 99;
  row("SubmitDfgJob", "SubmitDfgJob", 3, encode_submit_dfg_job(dfg_job),
      "2b0000000400020010000600000053444647010003000000030000000100feff"
      "030003000000fcff0500faff000000006300000000000000");

  SubmitGemmMsg gemm = sample_gemm();
  gemm.tag = 0x01020304;
  row("SubmitGemm", "SubmitGemm", 4, encode_submit_gemm(gemm),
      "len 581 fnv 293f6f6534021858");

  row("SubmitJobBatch v5", "SubmitJobBatch", 5,
      encode_submit_job_batch(sample_batch(), 5),
      "len 298 fnv 6bf43357e2719044");
  row("SubmitJobBatch v1", "SubmitJobBatch", 1,
      encode_submit_job_batch(sample_batch(), 1),
      "len 274 fnv 64bdc0409ba6997b");
  JobBatchResultMsg batch_result;
  batch_result.tag = 0xBA7C4;
  JobBatchEntryMsg ok_entry;
  ok_entry.ok = 1;
  ok_entry.result = res;
  JobBatchEntryMsg busy_entry;
  busy_entry.error = err;
  busy_entry.error.tag = 2;
  batch_result.entries = {ok_entry, busy_entry, ok_entry};
  row("JobBatchResult v5", "JobBatchResult", 5,
      encode_job_batch_result(batch_result, 5), "len 208 fnv cde5e1a16b83edcd");

  std::vector<std::uint8_t> frame;
  append_frame(frame, MsgType::kPing, encode_ping(0xDEADBEEFCAFEull), 3);
  row("Ping frame v3", "", 3, std::move(frame),
      "53524e470300010008000000fecaefbeadde000014df5d97");
  return rows;
}

TEST(Golden, EveryMessageEncodesToItsPinnedBytes) {
  for (const Golden& g : golden_table()) {
    EXPECT_EQ(digest(g.bytes), g.want) << g.name;
  }
}

/// A decoder either throws ProtocolError or accepts bytes that its
/// encoder reproduces exactly.  Any other exception, or a field the
/// decoder normalises on the way in, is a failure.
std::string typed_or_exact(const Codec& codec, Bytes bytes,
                           std::uint16_t version) {
  try {
    const std::vector<std::uint8_t> again = codec.round_trip(bytes, version);
    if (std::equal(again.begin(), again.end(), bytes.begin(), bytes.end())) {
      return {};
    }
    return "decoded, but re-encodes to " + digest(again);
  } catch (const ProtocolError&) {
    return {};
  } catch (const std::exception& e) {
    return std::string("untyped error: ") + e.what();
  }
}

TEST(WireMutator, EveryMutationIsATypedErrorOrAnExactRoundTrip) {
  std::size_t cases = 0;
  std::vector<std::string> failures;
  const auto check = [&](const Codec& codec, Bytes bytes,
                         std::uint16_t version, const std::string& what) {
    ++cases;
    const std::string fault = typed_or_exact(codec, bytes, version);
    if (!fault.empty()) {
      failures.push_back(what + " -> " + codec.name + " v" +
                         std::to_string(version) + ": " + fault);
    }
  };

  for (const Golden& g : golden_table()) {
    if (g.codec == nullptr) continue;
    const std::vector<std::uint8_t>& p = g.bytes;
    for (std::size_t len = 0; len < p.size(); ++len) {
      check(*g.codec, {p.data(), len}, g.version,
            g.name + " cut to " + std::to_string(len));
    }
    for (std::size_t bit = 0; bit < 8 * p.size(); ++bit) {
      std::vector<std::uint8_t> m = p;
      m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      check(*g.codec, m, g.version,
            g.name + " bit " + std::to_string(bit) + " flipped");
    }
    for (std::size_t at = 0; at + 4 <= p.size(); ++at) {
      const std::uint32_t remaining =
          static_cast<std::uint32_t>(p.size() - at - 4);
      for (const std::uint32_t lie : {0xFFFFFFFFu, remaining + 1}) {
        std::vector<std::uint8_t> m = p;
        for (std::size_t i = 0; i < 4; ++i) {
          m[at + i] = static_cast<std::uint8_t>(lie >> (8 * i));
        }
        check(*g.codec, m, g.version,
              g.name + " u32 " + std::to_string(lie) + " at " +
                  std::to_string(at));
      }
    }
    for (std::uint16_t v = kMinProtocolVersion; v <= kProtocolVersion; ++v) {
      for (const Codec& other : kCodecs) {
        check(other, p, v, g.name + " as " + other.name);
      }
    }
  }

  std::string first;
  for (std::size_t i = 0; i < failures.size() && i < 12; ++i) {
    first += "\n  " + failures[i];
  }
  EXPECT_TRUE(failures.empty())
      << failures.size() << " of " << cases << " cases failed:" << first;
  EXPECT_GT(cases, 50000u);
}

}  // namespace
}  // namespace sring::net
