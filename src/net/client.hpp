// Blocking client library for the remote job-serving subsystem.
//
// Mirrors the rt::Runtime surface across a socket: submit() /
// submit_batch() take the same kernel descriptions the kernels/jobs
// factories take (as net::JobRequest) and return bit-exact outputs —
// the loopback tests hold remote results word-for-word equal to direct
// rt::Runtime execution.
//
// Failure discipline:
//  * connect() retries with capped exponential backoff, then throws
//    NetError.
//  * Server-side Busy (bounded backpressure) is retried
//    `busy_retries` times, after the server's retry_after_ms hint (v5)
//    or else with the same backoff, then surfaces as busy=true in the
//    result — the caller decides whether to shed or spin.  submit(),
//    compile_dfg(), submit_dfg() and submit_gemm() share that one
//    exchange.
//  * A job that raised a SimError on the server comes back as
//    RemoteResult{ok=false, error=<SimError text verbatim>}.
//  * Transport damage (timeout, disconnect, malformed frames) throws
//    NetError/ProtocolError.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.hpp"

namespace sring::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  int connect_attempts = 5;
  int backoff_initial_ms = 20;  ///< doubles per retry...
  int backoff_max_ms = 1000;    ///< ...capped here

  int io_timeout_ms = 30000;  ///< per send/recv deadline
  int busy_retries = 8;       ///< Busy resubmissions per request

  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Wire dialect this client speaks.  The server mirrors it per
  /// frame, so pinning 1 here exercises the legacy byte layout against
  /// a v2 server (the compatibility tests do exactly that).
  std::uint16_t protocol_version = kProtocolVersion;
};

/// One remote job outcome.  Exactly one of {ok, busy, !error.empty()}
/// describes the terminal state; outputs/counters are valid when ok.
struct RemoteResult {
  bool ok = false;
  bool busy = false;       ///< shed by backpressure after busy_retries
  /// Server's resubmission hint from the last Busy shed (v5+ servers;
  /// 0 when none was given).  submit() already honours it between
  /// retries; it is surfaced for callers pacing their own loops.
  std::uint32_t retry_after_ms = 0;
  std::string error;       ///< server-side SimError text, verbatim
  std::vector<Word> outputs;
  std::uint64_t sim_cycles = 0;
  std::uint32_t worker = 0;
  bool reused_system = false;
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  // v2 telemetry tail; all zero when the server answered in v1.
  std::uint64_t trace_id = 0;      ///< echo of JobRequest.trace_id
  std::uint64_t queue_wait_us = 0;
  std::uint64_t execute_us = 0;
  std::uint64_t total_us = 0;      ///< enqueue → completion, server clock
};

/// Outcome of a server-side DFG compile (SubmitDfg → DfgCompiled).
/// On ok, the mapped program's shape + output metadata let the caller
/// size input streams and interpret later job results.
struct RemoteDfgCompiled {
  bool ok = false;
  bool busy = false;
  std::string error;  ///< codec/mapper/validation diagnostic, verbatim
  std::uint64_t dfg_hash = 0;
  bool cache_hit = false;
  std::uint64_t compile_us = 0;  ///< 0 on cache hits
  std::uint16_t dnodes_used = 0;
  std::uint16_t max_latency = 0;
  std::uint16_t pushes_per_cycle = 0;
  std::uint16_t input_count = 0;
  std::vector<DfgOutputMetaMsg> outputs;
};

/// Outcome of a remote DFG job (SubmitDfgJob).  `streams` holds one
/// de-laced stream per Dfg output, in output order — bit-identical to
/// mapper::run_mapped on the same graph and inputs.
struct RemoteDfgResult {
  bool ok = false;
  bool busy = false;
  std::string error;
  std::vector<std::vector<Word>> streams;  ///< per Dfg output
  std::uint64_t dfg_hash = 0;
  bool cache_hit = false;  ///< compile cache outcome for this run
  std::uint64_t sim_cycles = 0;
  std::uint32_t worker = 0;
  bool reused_system = false;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::uint64_t trace_id = 0;
  std::uint64_t queue_wait_us = 0;
  std::uint64_t execute_us = 0;
  std::uint64_t total_us = 0;
};

/// Outcome of a remote tiled GEMM (SubmitGemm, protocol v4).  `c` is
/// the row-major m*n narrowed output — bit-identical to
/// tile::run_gemm locally and to tile::gemm_reference.  The counters
/// slice carries the server-side tile.scratch.* behaviour.
struct RemoteGemmResult {
  bool ok = false;
  bool busy = false;
  std::string error;
  std::vector<Word> c;
  std::uint64_t sim_cycles = 0;
  std::uint32_t worker = 0;
  bool reused_system = false;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::uint64_t trace_id = 0;
  std::uint64_t total_us = 0;  ///< admission → reply, server clock

  /// tile.* counter lookup; 0 when absent.
  std::uint64_t counter(const std::string& name) const;
};

class Client {
 public:
  explicit Client(ClientConfig config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Establish the connection now (submit() connects lazily).
  void connect();
  void close();
  bool connected() const noexcept { return fd_ >= 0; }

  /// Round-trip a token; returns the measured latency in microseconds.
  double ping();

  ServerInfoMsg server_info();

  /// Run one job remotely (blocking).  Assigns a fresh tag when
  /// req.tag is 0.  Throws NetError on transport failure.
  RemoteResult submit(const JobRequest& req);

  /// Sequential batch, results in submission order.
  std::vector<RemoteResult> submit_batch(
      const std::vector<JobRequest>& reqs);

  /// Pipelined submission over the one connection: keeps up to
  /// `window` SubmitJob frames in flight and correlates the server's
  /// completion-order replies by tag.  Results return in input order.
  /// Busy sheds are retried sequentially afterwards (honouring the
  /// server's retry_after_ms hint), so a transient overload degrades
  /// to the submit() path instead of failing the lot.
  std::vector<RemoteResult> submit_pipelined(
      const std::vector<JobRequest>& reqs, std::size_t window = 16);

  /// Single-frame batched submission (protocol v5): every job rides
  /// one SubmitJobBatch frame and one JobBatchResult comes back, with
  /// per-entry outcomes in input order.  Requires
  /// protocol_version >= 5.
  std::vector<RemoteResult> submit_batch_wire(
      const std::vector<JobRequest>& reqs, std::uint64_t trace_id = 0);

  /// Compile (or cache-hit) a canonical DFG blob (svc/dfg_codec)
  /// server-side without running it.  Requires protocol_version >= 3.
  RemoteDfgCompiled compile_dfg(const std::vector<std::uint8_t>& dfg,
                                const RingGeometry& geometry);

  /// Compile + run a DFG over equal-length input streams (one per DFG
  /// input).  Requires protocol_version >= 3.
  RemoteDfgResult submit_dfg(const std::vector<std::uint8_t>& dfg,
                             const std::vector<std::vector<Word>>& streams,
                             const RingGeometry& geometry,
                             std::uint64_t trace_id = 0);

  /// Run one tiled narrow-int GEMM server-side: the server plans the
  /// tile schedule, stages operands through its scratchpad and
  /// interleaves the tile jobs with other clients' work.  Requires
  /// protocol_version >= 4.
  RemoteGemmResult submit_gemm(const tile::GemmSpec& spec,
                               const std::vector<Word>& a,
                               const std::vector<Word>& b,
                               const RingGeometry& geometry,
                               std::uint32_t scratch_tiles = 128,
                               std::uint64_t trace_id = 0);

  /// Poll the server's live stats snapshot (counters, per-phase
  /// latency quantiles, sampler rates; optionally the recent flight
  /// records).  Requires protocol_version >= 2.
  StatsReplyMsg stats(bool include_flight = false);

  /// Ask the server to drain; true once DrainAck arrives.
  bool drain();

 private:
  /// How an exchange() ended without its reply.
  struct Shed {
    bool busy = false;                 ///< shed on every attempt
    std::uint32_t retry_after_ms = 0;  ///< the last Busy shed's hint
    std::string error;                 ///< server error or busy note
  };

  void send_frame(MsgType type, std::span<const std::uint8_t> payload);
  Frame recv_frame();
  void backoff_sleep(int attempt) const;
  /// One request/reply exchange: send `payload` as `type` until a
  /// `reply` frame answers it, resubmitting a Busy shed up to
  /// busy_retries times after the server's retry_after_ms hint (capped
  /// exponential backoff when it gives none).  Returns the reply, or
  /// nullopt with `shed` saying why; any other frame type closes the
  /// connection and throws ProtocolError.
  std::optional<Frame> exchange(MsgType type,
                                std::span<const std::uint8_t> payload,
                                MsgType reply, Shed& shed);
  /// A result carrying `shed`'s outcome: still busy, or the error.
  template <class Result>
  static Result refused(Shed& shed);
  void expect_tag(std::uint32_t got, std::uint32_t sent);
  /// Close the connection and throw ProtocolError(what).
  [[noreturn]] void fail(const std::string& what);

  ClientConfig config_;
  int fd_ = -1;
  std::uint32_t next_tag_ = 1;
  std::vector<std::uint8_t> inbuf_;
};

}  // namespace sring::net
