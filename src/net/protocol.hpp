// Wire protocol of the remote job-serving subsystem.
//
// The paper deploys the Systolic Ring as an IP core a host hands work
// to; `src/net/` extends that host/core split across a socket.  The
// protocol is a versioned, length-prefixed binary framing with a CRC
// trailer — the software analogue of the paper's host-interface FIFO
// discipline: every transfer is a self-delimiting block the receiver
// can validate before acting on it.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//        0     4  magic "SRNG"
//        4     2  protocol version (kProtocolVersion)
//        6     2  message type (MsgType)
//        8     4  payload length in bytes
//       12   len  payload
//   12+len     4  CRC-32 (IEEE) over the payload bytes
//
// A peer that receives a frame with a bad magic, unknown version,
// oversized length or CRC mismatch must answer with an Error frame and
// close — never crash, never hang.  Payload encodings are documented
// per message in docs/SERVING.md and pinned byte-for-byte by
// tests/test_net_protocol.cpp.
//
// Each payload layout is written once, as a `fields` schema in
// protocol.cpp that both encodes and decodes; a field added in vN sits
// behind one `version >= N` guard there.  Every decode_* throws
// ProtocolError or returns a message that re-encodes to exactly its
// input bytes; counts are checked against the bytes that remain (and
// against their caps) before anything is allocated.
//
// Version negotiation: the version field is per-frame.  A server
// accepts any version in [kMinProtocolVersion, kProtocolVersion] and
// answers every request in the version the request arrived in, so a
// v1 client keeps round-tripping jobs bit-identically against a v2
// server — it simply never sees the v2 payload tails (trace_id, span
// durations) or the v2-only GetStats/StatsReply messages.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/image.hpp"
#include "common/types.hpp"
#include "core/config_memory.hpp"
#include "obs/flight_recorder.hpp"
#include "rt/job.hpp"
#include "tile/gemm_ref.hpp"

namespace sring::net {

/// Transport/framing failure (timeout, disconnect, refused connect).
class NetError : public SimError {
 public:
  explicit NetError(const std::string& what) : SimError(what) {}
};

/// Malformed frame or payload — the bytes themselves are wrong.
class ProtocolError : public NetError {
 public:
  explicit ProtocolError(const std::string& what) : NetError(what) {}
};

inline constexpr std::uint8_t kMagic[4] = {'S', 'R', 'N', 'G'};
/// Newest protocol this build speaks.  v2 added trace_id on
/// SubmitJob/JobResult, span durations on JobResult, and
/// GetStats/StatsReply.  v3 added the DFG compile service messages
/// (SubmitDfg/DfgCompiled/SubmitDfgJob).  v4 added the tiled-GEMM
/// message (SubmitGemm), answered with the existing JobResult.  v5
/// added the batched-submit pair (SubmitJobBatch/JobBatchResult) and a
/// retry_after_ms tail on Error.  Each version leaves every older
/// payload byte layout untouched.
inline constexpr std::uint16_t kProtocolVersion = 5;
/// Oldest protocol still accepted (v1 clients round-trip unchanged).
inline constexpr std::uint16_t kMinProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 12;
inline constexpr std::size_t kTrailerBytes = 4;

/// Default cap on payload size; both peers enforce it before buffering.
inline constexpr std::size_t kDefaultMaxFrameBytes = 4u << 20;

/// Server-side cap on the motion-estimation search range.  The
/// displacement set grows as (2*range+1)^2, so an unchecked u16 range
/// in a tiny frame could demand O(range^2) memory before the job ever
/// reaches the queue; requests above the cap answer Error{kBadRequest}.
inline constexpr std::uint16_t kMaxMotionRange = 64;

enum class MsgType : std::uint16_t {
  kPing = 1,           ///< u64 token; server echoes it back as Pong
  kPong = 2,
  kServerInfoReq = 3,  ///< empty payload
  kServerInfo = 4,
  kSubmitJob = 5,      ///< JobRequest
  kJobResult = 6,      ///< successful job: outputs + counters
  kError = 7,          ///< typed failure, SimError text verbatim
  kDrain = 8,          ///< graceful-shutdown request
  kDrainAck = 9,
  kGetStats = 10,      ///< v2: u32 flags (kStatsIncludeFlight)
  kStatsReply = 11,    ///< v2: StatsReplyMsg
  kSubmitDfg = 12,     ///< v3: SubmitDfgMsg — compile + cache only
  kDfgCompiled = 13,   ///< v3: DfgCompiledMsg
  kSubmitDfgJob = 14,  ///< v3: SubmitDfgJobMsg — compile + execute
  kSubmitGemm = 15,    ///< v4: SubmitGemmMsg — tiled narrow-int GEMM
  kSubmitJobBatch = 16,  ///< v5: SubmitJobBatchMsg — many jobs, one frame
  kJobBatchResult = 17,  ///< v5: JobBatchResultMsg — per-entry outcomes
};

/// GetStats flag: also ship the flight recorder's captured ring.
inline constexpr std::uint32_t kStatsIncludeFlight = 1;

enum class ErrorCode : std::uint16_t {
  kBadRequest = 1,    ///< malformed frame/payload; connection closes
  kBusy = 2,          ///< job queue full — resubmit later
  kShuttingDown = 3,  ///< server is draining; no new jobs
  kJobFailed = 4,     ///< job ran and raised a SimError (text verbatim)
  kInternal = 5,
};

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) — the frame
/// trailer.  crc32("123456789") == 0xCBF43926.
std::uint32_t crc32(std::span<const std::uint8_t> data);

// ---------------------------------------------------------------------------
// Typed messages

/// Kernel selector of a SubmitJob — one id per descriptor in
/// kernels/jobs.hpp.
enum class KernelId : std::uint16_t {
  kFir = 1,               ///< spatial systolic FIR
  kMotionEstimation = 2,  ///< full-search block motion estimation
  kDwt53 = 3,             ///< forward 1-D 5/3 wavelet
  kMatvec8 = 4,           ///< block 8x8 matrix-vector product
};

/// What a SubmitJob frame carries: everything the server needs to
/// rebuild the rt::Job via the kernels/jobs descriptors — kernel id,
/// ring geometry, kernel parameters and the input payload.  Programs
/// are never shipped over the wire; the server synthesizes them, so a
/// client cannot submit arbitrary configware.
struct JobRequest {
  KernelId kernel = KernelId::kFir;
  RingGeometry geometry{8, 2, 16};
  std::uint32_t tag = 0;  ///< echoed in the response for pipelining

  std::vector<Word> input;  ///< fir/dwt signal or matvec x; unused for me

  // kFir
  std::vector<Word> fir_coeffs;

  // kMotionEstimation
  Image me_ref;
  Image me_cand;
  std::uint16_t me_rx = 0;
  std::uint16_t me_ry = 0;
  std::uint16_t me_range = 0;

  // kMatvec8: 64 row-major matrix words
  std::vector<Word> matvec_m;

  /// v2+: correlation id carried through to JobResult and the server's
  /// flight recorder.  Absent from v1 frames (decodes as 0).
  std::uint64_t trace_id = 0;

  bool operator==(const JobRequest&) const = default;
};

/// What a JobResult frame carries back: the bit-exact output words plus
/// the per-job observability slice (sim cycle count and selected
/// counters from the run's SystemStats) and execution provenance.
struct JobResultMsg {
  std::uint32_t tag = 0;
  std::vector<Word> outputs;
  std::uint64_t sim_cycles = 0;
  std::uint32_t worker = 0;
  std::uint8_t reused_system = 0;
  /// The per-job sim.* slice (kResultCounterNames order), encoded ahead
  /// of `counters` under the table's names so a reply builds no name
  /// string.  Decoding returns every counter in `counters` instead.
  std::optional<std::array<std::uint64_t, 8>> sim_counters;
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  // v2+ tail: the request's trace_id plus the job's span durations
  // (saturated to u32 microseconds).  All zero when decoded from v1.
  std::uint64_t trace_id = 0;
  std::uint32_t queue_wait_us = 0;
  std::uint32_t execute_us = 0;
  std::uint32_t total_us = 0;

  bool operator==(const JobResultMsg&) const = default;
};

struct ErrorMsg {
  std::uint32_t tag = 0;  ///< matching SubmitJob tag; 0 if none
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  /// v5+ tail: on kBusy sheds, how long the admission controller
  /// suggests waiting before a resubmit (0 = no hint).  Absent from
  /// pre-v5 frames (decodes as 0) — the v1–v4 byte layout is untouched.
  std::uint32_t retry_after_ms = 0;

  bool operator==(const ErrorMsg&) const = default;
};

struct ServerInfoMsg {
  std::uint16_t protocol_version = kProtocolVersion;
  std::uint32_t workers = 0;
  std::uint32_t queue_capacity = 0;
  std::uint32_t max_frame_bytes = 0;
  std::uint64_t jobs_completed = 0;
  std::string server;

  bool operator==(const ServerInfoMsg&) const = default;
};

/// One histogram's latency summary inside a StatsReply: quantiles are
/// interpolated server-side from the live histogram buckets
/// (obs::histogram_quantile), so the snapshot ships fixed-size.
struct StatsQuantileMsg {
  std::string name;
  std::uint64_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t max_us = 0;

  bool operator==(const StatsQuantileMsg&) const = default;
};

/// One sampler-derived rate (jobs/s, bytes/s, ...).
struct StatsRateMsg {
  std::string name;
  double per_sec = 0.0;

  bool operator==(const StatsRateMsg&) const = default;
};

/// The consistent snapshot a GetStats polls from a live server: built
/// in one pass on the server's poll thread, so counters, quantiles
/// and rates all describe the same instant.
struct StatsReplyMsg {
  std::uint16_t stats_version = 1;  ///< payload schema, not protocol
  std::uint64_t uptime_us = 0;
  std::uint32_t workers = 0;
  std::uint32_t queue_depth = 0;
  std::uint32_t queue_capacity = 0;
  /// Fraction of wall time the worker fleet spent on jobs since
  /// start (rt.busy_us / (uptime * workers)); 0 with telemetry off.
  double worker_utilization = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<StatsQuantileMsg> latencies;
  std::vector<StatsRateMsg> rates;
  /// Captured flight-recorder ring; only with kStatsIncludeFlight.
  std::vector<obs::SpanRecord> flight;

  bool operator==(const StatsReplyMsg&) const = default;

  /// JSON object mirroring the wire fields (`sras stats --jsonl`).
  obs::JsonValue to_json() const;
};

// ---------------------------------------------------------------------------
// DFG compile-service messages (v3).  The graph travels as the
// canonical svc/dfg_codec blob — the server hashes the bytes for its
// compiled-program cache, so identical graphs always hit.

/// Cap on the input streams of one SubmitDfgJob, checked before any
/// stream is buffered (layer-0 lanes bound real inputs far lower).
inline constexpr std::size_t kMaxDfgJobStreams = 256;

/// Compile (or cache-hit) a DFG for a geometry without running it.
struct SubmitDfgMsg {
  std::uint32_t tag = 0;
  RingGeometry geometry{8, 2, 16};
  std::vector<std::uint8_t> dfg;  ///< canonical dfg_codec blob
  std::uint64_t trace_id = 0;

  bool operator==(const SubmitDfgMsg&) const = default;
};

/// One mapped output's wire metadata (name + de-lacing coordinates).
struct DfgOutputMetaMsg {
  std::string name;
  std::uint16_t latency = 0;
  std::uint16_t push_rank = 0;

  bool operator==(const DfgOutputMetaMsg&) const = default;
};

/// The compile service's answer: content hash, cache outcome and the
/// mapped program's shape — everything a client needs to size inputs
/// and interpret a later job's streams.
struct DfgCompiledMsg {
  std::uint32_t tag = 0;
  std::uint64_t dfg_hash = 0;
  std::uint8_t cache_hit = 0;
  std::uint32_t compile_us = 0;  ///< 0 on cache hits (no compile ran)
  std::uint16_t dnodes_used = 0;
  std::uint16_t max_latency = 0;
  std::uint16_t pushes_per_cycle = 0;
  std::uint16_t input_count = 0;
  std::vector<DfgOutputMetaMsg> outputs;

  bool operator==(const DfgCompiledMsg&) const = default;
};

/// Compile (or cache-hit) a DFG and run it over the given input
/// streams (one per DFG input, equal lengths).  Answered with the
/// existing JobResult message whose outputs are the de-laced output
/// streams concatenated in Dfg output order; the counters slice gains
/// svc.dfg.outputs / svc.dfg.samples / svc.dfg.cache_hit / svc.dfg.hash
/// so the client can split the flat words back into streams.
struct SubmitDfgJobMsg {
  std::uint32_t tag = 0;
  RingGeometry geometry{8, 2, 16};
  std::vector<std::uint8_t> dfg;  ///< canonical dfg_codec blob
  std::vector<std::vector<Word>> streams;
  std::uint64_t trace_id = 0;

  bool operator==(const SubmitDfgJobMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Tiled-GEMM message (v4).  The server plans the tile schedule itself
// (src/tile/), stages operand tiles through a per-request scratchpad
// and interleaves the tile jobs with every other client's work; the
// answer is the existing JobResult whose outputs are the row-major
// narrowed C matrix and whose counters slice carries the tile.scratch
// behaviour.

/// Cap on each GEMM dimension (m, k, n, tile_n).  A u16 dimension in a
/// tiny frame could otherwise demand O(m*n) accumulator memory far
/// beyond what its operands justify; requests above the cap answer
/// Error{kBadRequest}.
inline constexpr std::size_t kMaxGemmDim = 512;

/// Cap on the per-request scratchpad size a client may ask for.
inline constexpr std::uint32_t kMaxGemmScratchTiles = 4096;

/// Run C = narrow((A x B) >> shift) tiled over the fleet.  Operand
/// sizes are pinned to the spec (a: m*k, b: k*n words, sign-extended
/// narrow ints); the decode rejects any mismatch.
struct SubmitGemmMsg {
  std::uint32_t tag = 0;
  RingGeometry geometry{8, 2, 16};
  tile::GemmSpec spec;
  std::uint32_t scratch_tiles = 128;  ///< server scratchpad, in tiles
  std::vector<Word> a;
  std::vector<Word> b;
  std::uint64_t trace_id = 0;

  bool operator==(const SubmitGemmMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Batched submit (v5).  One frame carries a whole batch of JobRequests
// as nested length-prefixed blobs (each the exact encode_job_request
// bytes for the frame's version), and one JobBatchResult frame carries
// every outcome — a full JobResultMsg or a per-entry ErrorMsg, in
// request order.  Admission is per entry: a full queue or a shedding
// watermark costs single entries, never the whole batch.

/// Cap on the jobs of one SubmitJobBatch, checked before any entry is
/// decoded (mirrors kMaxDfgJobStreams).
inline constexpr std::size_t kMaxBatchJobs = 256;

/// Submit `jobs.size()` kernel jobs in one round trip.  Entry tags are
/// the per-job correlation ids inside the batch result; `tag` names
/// the batch itself.
struct SubmitJobBatchMsg {
  std::uint32_t tag = 0;
  std::vector<JobRequest> jobs;
  std::uint64_t trace_id = 0;

  bool operator==(const SubmitJobBatchMsg&) const = default;
};

/// One entry of a JobBatchResult: either the job's full JobResultMsg
/// or the ErrorMsg that felled it (per-entry busy/failed/bad-request).
struct JobBatchEntryMsg {
  std::uint8_t ok = 0;
  JobResultMsg result;  ///< valid when ok == 1
  ErrorMsg error;       ///< valid when ok == 0

  bool operator==(const JobBatchEntryMsg&) const = default;
};

/// The batch answer: entries in the exact order of the request's jobs.
struct JobBatchResultMsg {
  std::uint32_t tag = 0;
  std::vector<JobBatchEntryMsg> entries;

  bool operator==(const JobBatchResultMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Framing

struct Frame {
  MsgType type = MsgType::kPing;
  std::uint16_t version = kProtocolVersion;  ///< as parsed off the wire
  std::vector<std::uint8_t> payload;
};

/// Append one complete frame (header + payload + CRC) to `out`.
/// `version` is what goes in the header — a server answering a v1
/// client passes 1 so the old parser accepts the reply.
void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::span<const std::uint8_t> payload,
                  std::uint16_t version = kProtocolVersion);

enum class ParseStatus : std::uint8_t {
  kNeedMore = 0,  ///< buffer holds a frame prefix; read more bytes
  kFrame,         ///< `frame` filled, `consumed` bytes eaten
  kBadMagic,
  kBadVersion,
  kTooLarge,  ///< declared payload length exceeds `max_frame_bytes`
  kBadCrc,
};

/// Incremental frame parser over an accumulation buffer.  Never throws;
/// malformed input comes back as a typed status so the caller can send
/// an Error frame and close.  On kFrame, `consumed` is the number of
/// buffer bytes to discard.
ParseStatus try_parse_frame(std::span<const std::uint8_t> buffer,
                            std::size_t max_frame_bytes, Frame& frame,
                            std::size_t& consumed);

// ---------------------------------------------------------------------------
// Payload codecs (throw ProtocolError on malformed bytes).  The
// SubmitJob/JobResult payloads are versioned: v2 appends a telemetry
// tail after the v1 fields, so both codecs take the frame version.

std::vector<std::uint8_t> encode_job_request(
    const JobRequest& req, std::uint16_t version = kProtocolVersion);
JobRequest decode_job_request(std::span<const std::uint8_t> payload,
                              std::uint16_t version = kProtocolVersion);

std::vector<std::uint8_t> encode_job_result(
    const JobResultMsg& msg, std::uint16_t version = kProtocolVersion);
JobResultMsg decode_job_result(std::span<const std::uint8_t> payload,
                               std::uint16_t version = kProtocolVersion);

std::vector<std::uint8_t> encode_get_stats(std::uint32_t flags);
std::uint32_t decode_get_stats(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_stats_reply(const StatsReplyMsg& msg);
StatsReplyMsg decode_stats_reply(std::span<const std::uint8_t> payload);

// v3-only payloads (DFG compile service); the layouts are pinned by
// tests/test_net_protocol.cpp like every other message.
std::vector<std::uint8_t> encode_submit_dfg(const SubmitDfgMsg& msg);
SubmitDfgMsg decode_submit_dfg(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_dfg_compiled(const DfgCompiledMsg& msg);
DfgCompiledMsg decode_dfg_compiled(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_submit_dfg_job(const SubmitDfgJobMsg& msg);
SubmitDfgJobMsg decode_submit_dfg_job(std::span<const std::uint8_t> payload);

// v4-only payload (tiled GEMM).  decode validates the spec (dtype /
// mapping / shift ranges, dimension caps) and that the operand word
// counts match m*k and k*n.
std::vector<std::uint8_t> encode_submit_gemm(const SubmitGemmMsg& msg);
SubmitGemmMsg decode_submit_gemm(std::span<const std::uint8_t> payload);

// v5-only payloads (batched submit).  Entries nest the per-message
// codecs as length-prefixed blobs, so every per-version layout rule
// above carries over verbatim.
std::vector<std::uint8_t> encode_submit_job_batch(
    const SubmitJobBatchMsg& msg, std::uint16_t version = kProtocolVersion);
SubmitJobBatchMsg decode_submit_job_batch(
    std::span<const std::uint8_t> payload,
    std::uint16_t version = kProtocolVersion);

std::vector<std::uint8_t> encode_job_batch_result(
    const JobBatchResultMsg& msg, std::uint16_t version = kProtocolVersion);
JobBatchResultMsg decode_job_batch_result(
    std::span<const std::uint8_t> payload,
    std::uint16_t version = kProtocolVersion);

// The Error payload is versioned: v5 appends retry_after_ms after the
// v1 fields (older versions' bytes untouched).
std::vector<std::uint8_t> encode_error(
    const ErrorMsg& msg, std::uint16_t version = kProtocolVersion);
ErrorMsg decode_error(std::span<const std::uint8_t> payload,
                      std::uint16_t version = kProtocolVersion);

std::vector<std::uint8_t> encode_server_info(const ServerInfoMsg& msg);
ServerInfoMsg decode_server_info(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_ping(std::uint64_t token);
std::uint64_t decode_ping(std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// Job mapping

/// Rebuild the rt::Job a request describes via the kernels/jobs
/// descriptors, with `program` as its program when given (it must be
/// the build of a request for which same_program() holds).  Throws
/// SimError on invalid parameters (bad geometry, wrong matrix size,
/// empty signal) — the server turns that into an Error{kBadRequest}
/// frame.
rt::Job to_rt_job(const JobRequest& req,
                  std::shared_ptr<const LoadableProgram> program = nullptr);

/// True when requests `a` and `b` build the same program: the same
/// kernel and geometry, and the same taps (FIR), search range (motion
/// estimation) or matrix and block count (matvec8).
bool same_program(const JobRequest& a, const JobRequest& b);

/// Names of the observability slice drawn from the job's SystemStats
/// that a JobResultMsg ships (JobResultMsg::sim_counters), in wire
/// order.
inline constexpr std::array<std::string_view, 8> kResultCounterNames{
    "sim.cycles",    "sim.ring_stall_cycles", "sim.ctrl_stall_cycles",
    "sim.dnode_ops", "sim.arith_ops",         "sim.host_words_in",
    "sim.host_words_out", "sim.plan_hits"};

/// Assemble the response message for a successful job.
JobResultMsg make_job_result_msg(std::uint32_t tag,
                                 const rt::JobResult& result);

}  // namespace sring::net
