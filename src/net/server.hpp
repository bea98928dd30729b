// Sharded poll-based job server: the rt runtime exposed as a network
// service.
//
// The serving front end mirrors the ring architecture's own scaling
// story — many cheap independent engines behind one shared fleet.  N
// event-loop shards each run their own poll() loop over their own
// connections, read/write buffers, self-wake pipe and telemetry
// slice; shard 0 additionally owns the listening socket and hands
// accepted fds to the other shards round-robin.  Every shard feeds
// the one rt::Runtime.  The design invariants:
//
//  * The accept loop never blocks on the fleet.  Every fan-out goes
//    through Runtime::try_submit_group: a single job is a group of
//    one, a v5 batch is at most one group per worker, a tiled GEMM is
//    a run of contiguous step groups.  Admission is governed by
//    queue-depth watermarks (accept below low, briefly defer between
//    low and high, shed with Error{kBusy} + retry_after_ms above
//    high); the depth counts envelopes, so a group counts once.
//  * Frames pipeline per connection: every complete frame in the
//    buffer is parsed and admitted up to a bounded in-flight window;
//    replies leave in completion order and correlate by tag, each in
//    the exact protocol version of the frame that requested it.
//  * Job completions wake the owning shard through its pipe (workers
//    call the envelope's notify hook), so response latency is not
//    quantized by the poll timeout.
//  * Malformed bytes (bad magic/version, oversized frame, CRC
//    mismatch, garbage) answer Error{kBadRequest} and close that one
//    connection — even mid-pipeline, the frames parsed before the
//    damage are still answered; the server itself never crashes.
//  * Drain — via a Drain frame, request_drain() or SIGTERM when
//    enable_signal_drain() was called — stops accepting connections
//    and jobs, lets every shard finish its in-flight and deferred
//    jobs, flushes every response, then returns from run().
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/quantile.hpp"
#include "obs/sampler.hpp"
#include "rt/runtime.hpp"
#include "svc/compile_service.hpp"
#include "tile/gemm_runner.hpp"
#include "tile/tile_plan.hpp"

namespace sring::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()

  rt::RuntimeConfig runtime;  ///< worker fleet behind the socket

  /// Event-loop shards.  Shard 0 runs on the run() caller's thread and
  /// owns the listening socket; shards 1..N-1 get their own threads
  /// and receive accepted fds round-robin.  1 reproduces the classic
  /// single-poll-loop server exactly.
  std::size_t shards = 1;

  /// Per-connection in-flight window: how many admitted-but-unanswered
  /// jobs one pipelined connection may accumulate before the shard
  /// stops parsing its buffer (bytes stay queued; TCP backpressure
  /// does the rest).  Parsing resumes as completions drain the window.
  std::size_t pipeline_window = 32;

  // --- queue-depth admission watermarks (net.admission.*) ---
  // Replaces the binary full/not-full Busy shed: below the low
  // watermark jobs are admitted immediately; between low and high they
  // are briefly deferred (smoothing bursts instead of shedding them);
  // at or above high they are shed with Error{kBusy} carrying a
  // retry_after_ms hint (v5 clients see the hint; older clients see
  // the same Error bytes as before).

  std::size_t admission_low = 0;   ///< 0 = max(1, queue_capacity / 2)
  std::size_t admission_high = 0;  ///< 0 = queue_capacity

  /// Longest a job may sit deferred; past this the shard force-tries
  /// the submit and sheds Busy if the queue is still full.
  std::chrono::milliseconds admission_max_delay{50};

  /// The retry_after_ms hint shed responses carry to v5 clients.
  std::uint32_t retry_after_hint_ms = 25;

  std::size_t max_connections = 64;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// DFG compile service shape (cache capacity, validation depth).
  svc::CompileServiceConfig compile;

  /// Tile-schedule cache: repeated (GemmSpec, scratch capacity) pairs
  /// skip re-planning (tile.plan.hits / misses / evictions).
  std::size_t plan_cache_capacity = 32;

  /// Idle cutoff for a connection with no pending jobs; activity on
  /// the socket or a job completion resets it.  Also applies to
  /// closing connections still waiting for their output to flush, so
  /// a peer that never reads cannot pin a connection forever.
  std::chrono::milliseconds idle_timeout{30000};

  /// Upper bound on the final flush phase of a drain: once every
  /// accepted job is answered, connections that have not drained
  /// their output within this window are force-closed so run() always
  /// returns (a peer that stops reading must not block SIGTERM).
  std::chrono::milliseconds drain_flush_timeout{5000};

  // --- live telemetry (all off-hot-path; see docs/OBSERVABILITY.md) ---

  /// Rolling-sampler period; the poll loops tick at least this often.
  std::chrono::milliseconds sample_interval{1000};
  std::size_t sampler_capacity = 128;  ///< delta points kept

  /// Flight recorder: last-N completions ring, pinned slow/error ring,
  /// and the e2e threshold past which a job counts as slow.
  std::size_t flight_recent = 64;
  std::size_t flight_captured = 64;
  std::uint64_t slow_threshold_us = 100'000;

  /// When set, the captured flight records are dumped as JSONL to this
  /// path as run() returns (covers Drain, SIGTERM and shutdown).
  std::string flight_dump_path;
};

class Server {
 public:
  /// Binds and listens immediately (so port() is valid before run()),
  /// and starts the runtime fleet.  Throws NetError on bind failure.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (resolves an ephemeral request).
  std::uint16_t port() const noexcept { return port_; }

  /// Serve until drained.  Spawns shards-1 threads (shard 0 runs on
  /// the caller's thread) and returns once every accepted job has been
  /// answered and every response flushed on every shard.
  void run();

  /// Thread- and signal-safe drain request; run() winds down.
  void request_drain() noexcept;

  /// Route SIGTERM/SIGINT to request_drain() of this server (one
  /// server per process; `sras serve` uses it).  The destructor
  /// restores the previous handlers before the server goes away, so a
  /// late signal can never reach a destroyed instance.  Signals are
  /// assumed to be delivered on the threads of this process only; no
  /// other thread may concurrently install SIGTERM/SIGINT handlers.
  void enable_signal_drain();

  /// net.* counters plus the fleet's rt.* metrics, the shard-local
  /// net.latency.* histograms (merged via Registry::merge_from — the
  /// totals are shard-count-invariant) and per-shard net.shard.<i>.*
  /// counters.  Callable from any thread while run() is live.
  obs::Registry metrics() const;

  /// The live stats snapshot a GetStats frame polls, also callable
  /// in-process (bench_serve uses it).  Thread-safe.
  StatsReplyMsg stats_snapshot(std::uint32_t flags) const;

  std::size_t shard_count() const noexcept { return shards_.size(); }

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;  ///< never reused, unlike fds
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    /// Requests in flight, one window hold each — the pipelining window
    /// and the idle reaper both key off it.
    std::size_t pending_jobs = 0;
    bool closing = false;  ///< close once out drains
    std::chrono::steady_clock::time_point last_activity;
    /// Version of the last frame this peer sent — used only for
    /// replies with no request frame to mirror (parse errors).
    std::uint16_t version = kProtocolVersion;
  };

  /// One client job of a request: a single job or a v5 batch entry.
  struct Unit {
    std::size_t entry = 0;  ///< its slot in Request::reply.entries
    std::uint32_t tag = 0;
    std::string name;  ///< job name, for the flight recorder
  };

  /// One reply-bearing frame in flight: a single or DFG job, a v5
  /// batch or a tiled GEMM.  Its groups settle into `reply` in any
  /// order; when the last one has settled, finish() answers the peer
  /// and releases the window hold the request took when it opened.
  struct Request {
    std::uint64_t conn_id = 0;
    std::uint16_t version = kProtocolVersion;  ///< reply frame version
    std::uint64_t trace_id = 0;                ///< a GEMM's
    std::chrono::steady_clock::time_point admitted;  ///< e2e epoch
    std::size_t outstanding = 0;  ///< groups not yet settled

    /// The reply: a JobBatchResult of every entry for a batch, else
    /// entries[0] alone as a JobResult or an Error.
    bool batch = false;
    JobBatchResultMsg reply;
    std::vector<Unit> units;  ///< fleet job i of a group is unit first + i
    /// Flight records of the settled units, recorded by finish().
    std::vector<obs::SpanRecord> records;

    /// A DFG job's raw outputs are de-laced through the compiled
    /// program's output metadata.
    std::shared_ptr<const svc::CompiledDfg> dfg;
    std::size_t dfg_samples = 0;
    bool dfg_cache_hit = false;

    /// A GEMM's units are schedule steps: its groups fold into the
    /// driver, which also builds the reply.
    std::unique_ptr<tile::GemmDriver> gemm;
  };

  /// One fleet group of a request: a single job, a run of batch units
  /// or a run of GEMM steps.  Parked groups hold their jobs; submitted
  /// ones their future.  A GEMM parks one group as its lowering cursor
  /// until every step is lowered.
  struct Group {
    std::shared_ptr<Request> req;
    std::size_t first = 0;  ///< first unit (a GEMM's: schedule step)
    std::vector<rt::Job> jobs{};
    std::future<std::vector<rt::JobResult>> results{};
    /// A parked unit is shed past this; a GEMM cursor never is.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  /// One event-loop shard: its own poll loop, connections, in-flight
  /// state, wake pipe and telemetry slice.  Only the inbox (fd handoff
  /// from the acceptor) and the latency histograms are ever touched by
  /// another thread, each behind its own mutex.
  struct Shard {
    std::size_t index = 0;
    int wake_r = -1;
    int wake_w = -1;

    std::deque<Conn> conns;
    std::vector<Group> pending;  ///< submitted, awaiting results
    std::deque<Group> parked;    ///< deferred units and GEMM cursors

    /// Accepted fds handed off by shard 0; adopted at the loop top.
    std::mutex inbox_mu;
    std::vector<int> inbox;

    // Per-shard counters (net.shard.<i>.*), read lock-free by
    // metrics().
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> jobs_submitted{0};
    std::atomic<std::uint64_t> connections{0};

    /// Shard-local net.latency.* histograms, one sample per answered
    /// request (the fleet's queue-wait, arm and execute phases are
    /// rt.latency.*); Server::metrics() names and merges every shard's.
    mutable std::mutex lat_mu;
    obs::Histogram serialize_us{obs::latency_bounds_us()};
    obs::Histogram e2e_us{obs::latency_bounds_us()};
  };

  void send_frame(Conn& conn, MsgType type,
                  std::span<const std::uint8_t> payload,
                  std::uint16_t version);
  void send_error(Conn& conn, std::uint32_t tag, ErrorCode code,
                  const std::string& message, std::uint16_t version,
                  std::uint32_t retry_after_ms = 0);
  /// While draining, answer a request Error{kShuttingDown} and return
  /// true.
  bool refuse_draining(Conn& conn, std::uint32_t tag,
                       std::uint16_t version);
  /// Dispatch one frame.  A ProtocolError thrown by a handler (a bad
  /// payload, or a message type its frame version predates) answers
  /// Error{kBadRequest} and closes the connection.
  void handle_frame(Shard& shard, Conn& conn, const Frame& frame);
  void handle_submit(Shard& shard, Conn& conn, const Frame& frame);
  void handle_submit_batch(Shard& shard, Conn& conn, const Frame& frame);
  void handle_submit_dfg(Shard& shard, Conn& conn, const Frame& frame);
  void handle_compile_dfg(Conn& conn, const Frame& frame);
  void handle_submit_gemm(Shard& shard, Conn& conn, const Frame& frame);
  /// A request of `groups` groups and one reply entry, stamped
  /// admitted; takes its window hold on `conn`.
  std::shared_ptr<Request> open_request(Conn& conn, std::uint32_t tag,
                                        std::uint16_t version,
                                        std::size_t groups);
  /// Watermark admission shared by every non-GEMM group: accept below
  /// low, park between low and high, shed at or above high.
  void admit(Shard& shard, Group group);
  /// Submit the group's jobs as one fleet envelope and move it to
  /// pending.  On kQueueFull or kShutDown the group is left intact.
  rt::Runtime::SubmitStatus submit(Shard& shard, Group& group);
  /// Submit a group or refuse it: kBusy on a full queue, kShuttingDown
  /// on a stopped fleet.
  void submit_or_refuse(Shard& shard, Group& group);
  /// Retry parked groups.  A unit is attempted when the depth fell
  /// below low or its deadline/drain forces it, and is shed on a still
  /// full queue; a GEMM cursor lowers and submits groups until the
  /// queue is full and then holds its lowered group.  A request whose
  /// connection is gone submits nothing more: its parked groups are
  /// refused.
  void pump_parked(Shard& shard);
  /// Lower and submit a GEMM's groups; true once its cursor is spent.
  bool pump_gemm(Shard& shard, Group& cursor);
  /// The one settle path: record a group's fleet `results`, or with
  /// nullptr refuse it with `code` (its units shed or refused, a GEMM
  /// failed with `why`).  The request finishes with its last group.
  void settle(Shard& shard, Group& group,
              const std::vector<rt::JobResult>* results,
              ErrorCode code = ErrorCode::kBusy, const char* why = "");
  void release(Shard& shard, Request& req);
  /// Build and send the reply, record the request's e2e and serialize
  /// samples and flight records, release the window hold.
  void finish(Shard& shard, Request& req);
  /// Record one answered request — a single job, a batch entry or a
  /// whole GEMM — as one e2e and serialize sample and one flight
  /// record.
  void record_request(Shard& shard, obs::SpanRecord rec,
                      std::chrono::steady_clock::time_point admitted,
                      std::uint64_t serialize_us);
  void maybe_sample(std::chrono::steady_clock::time_point now);
  /// Parse conn.in, dispatching every complete frame up to the
  /// pipeline window.  A connection that must close is flagged via
  /// conn.closing (it still needs its output flushed first).
  void drain_input(Shard& shard, Conn& conn);
  /// Accept pending connections (shard 0 only) and distribute them
  /// round-robin across every shard.
  void accept_ready(Shard& shard0);
  /// Adopt fds the acceptor handed to this shard.
  void adopt_inbox(Shard& shard);
  void collect_completions(Shard& shard);
  void close_conn(Conn& conn);
  Conn* find_conn(Shard& shard, std::uint64_t id);
  /// The per-shard event loop; shard 0 additionally accepts + samples.
  void shard_loop(Shard& shard);

  ServerConfig config_;
  std::unique_ptr<rt::Runtime> runtime_;
  svc::CompileService compile_;  ///< internally locked; shards share it
  tile::PlanCache plan_cache_;   ///< internally locked; shards share it
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> drain_requested_{false};
  bool ran_ = false;
  bool signal_handlers_installed_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t next_shard_rr_ = 0;  ///< acceptor (shard 0) thread only
  std::atomic<std::uint64_t> next_conn_id_{1};
  std::atomic<std::size_t> active_conns_{0};
  std::size_t admission_low_ = 0;   ///< resolved from config in ctor
  std::size_t admission_high_ = 0;

  /// The net.* counters, named once by kCounterNames
  /// (net.connections.active is derived from two of them).  Watermark
  /// admission: accepted/shed are final outcomes, every job-class
  /// admission ends in exactly one of them; delayed counts parkings,
  /// which later resolve into one of the two.  Sheds also count in
  /// rejects.busy, the what-the-client-saw counter.
  enum NetCounter : std::size_t {
    kConnectionsAccepted, kConnectionsClosed, kConnectionsRejected,
    kFramesIn, kFramesOut, kBytesIn, kBytesOut,
    kRejectsBusy, kRejectsShutdown, kProtocolErrors, kTimeouts,
    kJobsSubmitted, kJobsCompleted, kJobsFailed, kDrains,
    kAdmissionAccepted, kAdmissionDelayed, kAdmissionShed,
    kBatchRequests, kBatchJobs, kGemmRequests, kGemmTileJobs,
    kNetCounterCount
  };
  static constexpr std::array<std::string_view, kNetCounterCount>
      kCounterNames{
          "net.connections.accepted", "net.connections.closed",
          "net.connections.rejected", "net.frames.in", "net.frames.out",
          "net.bytes.in", "net.bytes.out", "net.rejects.busy",
          "net.rejects.shutdown", "net.protocol_errors", "net.timeouts",
          "net.jobs.submitted", "net.jobs.completed", "net.jobs.failed",
          "net.drains", "net.admission.accepted", "net.admission.delayed",
          "net.admission.shed", "net.batch.requests", "net.batch.jobs",
          "net.gemm.requests", "net.gemm.tile_jobs"};
  void count(NetCounter c, std::uint64_t n = 1) {
    counters_[c].fetch_add(n, std::memory_order_relaxed);
  }
  std::array<std::atomic<std::uint64_t>, kNetCounterCount> counters_{};
  /// tile.scratch.*, in tile::Scratchpad::kCounterNames order, folded
  /// in as each GEMM finishes.
  std::array<std::atomic<std::uint64_t>,
             tile::Scratchpad::kCounterNames.size()>
      gemm_scratch_{};

  // Server-wide telemetry.  Shard threads write per completion /
  // sample tick (never per byte), metrics()/stats_snapshot() read from
  // any thread — everything behind one mutex.  Per-shard latency
  // histograms live in the shards, behind their own lat_mu.
  mutable std::mutex telemetry_mu_;
  obs::Sampler sampler_;
  obs::FlightRecorder recorder_;
  std::chrono::steady_clock::time_point start_time_;
  std::chrono::steady_clock::time_point last_sample_;  ///< shard-0 only
};

}  // namespace sring::net
