#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <thread>

#include "obs/quantile.hpp"
#include "obs/span.hpp"
#include "svc/dfg_job.hpp"

namespace sring::net {

namespace {

constexpr int kPollTickMs = 250;
/// Poll cadence while deferred jobs are parked: their deadlines are
/// tens of milliseconds, so the shard must look again well before the
/// regular tick would.
constexpr int kDeferredTickMs = 5;

std::uint64_t us_between(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  if (to < from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

std::uint32_t clamp_u32(std::uint64_t v) {
  return v > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(v);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw NetError("net: fcntl(O_NONBLOCK) failed: " +
                   std::string(std::strerror(errno)));
  }
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void wake_shard(int wake_fd, char byte) {
  [[maybe_unused]] const ssize_t n = ::write(wake_fd, &byte, 1);
}

std::vector<rt::Job> one_job(rt::Job job) {
  std::vector<rt::Job> jobs;
  jobs.push_back(std::move(job));
  return jobs;
}

/// The flight record of one finished fleet job, up to its e2e stamps.
obs::SpanRecord span_record(const std::string& name,
                            const rt::JobResult& result) {
  obs::SpanRecord rec;
  rec.trace_id = result.trace_id;
  rec.name = name;
  rec.ok = result.ok;
  rec.error = result.error;
  rt::add_to_record(rec, result);
  return rec;
}

/// SIGTERM/SIGINT → request_drain() of the one registered server.
/// request_drain is async-signal-safe: an atomic store plus write()s.
/// The previous dispositions are kept so ~Server can restore them
/// before the instance dies (signals must never reach a freed server).
std::atomic<Server*> g_signal_server{nullptr};
struct sigaction g_prev_sigterm {};
struct sigaction g_prev_sigint {};

void signal_drain_handler(int) {
  Server* server = g_signal_server.load(std::memory_order_acquire);
  if (server != nullptr) server->request_drain();
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      compile_(config_.compile),
      plan_cache_(std::max<std::size_t>(1, config_.plan_cache_capacity)),
      sampler_(obs::SamplerConfig{
          config_.sampler_capacity,
          {"net.jobs.completed", "net.jobs.failed", "net.bytes.in",
           "net.bytes.out", "net.frames.in", "net.rejects.busy",
           "rt.sim_cycles", "rt.busy_us"}}),
      recorder_(obs::FlightRecorderConfig{config_.flight_recent,
                                          config_.flight_captured,
                                          config_.slow_threshold_us}) {
  start_time_ = std::chrono::steady_clock::now();
  // Backdated so the first poll tick takes the sampler's baseline.
  last_sample_ = start_time_ - config_.sample_interval;
  runtime_ = std::make_unique<rt::Runtime>(config_.runtime);

  // Resolve the admission watermarks against the real queue shape.
  const std::size_t cap = runtime_->queue_capacity();
  admission_low_ = config_.admission_low != 0
                       ? config_.admission_low
                       : std::max<std::size_t>(1, cap / 2);
  admission_high_ =
      config_.admission_high != 0 ? config_.admission_high : cap;
  if (admission_high_ < admission_low_) admission_high_ = admission_low_;

  // Shards (and their wake pipes) exist before run() so request_drain
  // can reach every loop from any thread or signal handler at any
  // point in the server's life.
  const std::size_t shard_count = std::max<std::size_t>(1, config_.shards);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0) {
      throw NetError("net: pipe() failed: " +
                     std::string(std::strerror(errno)));
    }
    shard->wake_r = pipe_fds[0];
    shard->wake_w = pipe_fds[1];
    set_nonblocking(shard->wake_r);
    set_nonblocking(shard->wake_w);
    shards_.push_back(std::move(shard));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw NetError("net: socket() failed: " +
                   std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    close_fd(listen_fd_);
    throw NetError("net: bad listen address: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    close_fd(listen_fd_);
    throw NetError("net: cannot listen on " + config_.host + ":" +
                   std::to_string(config_.port) + ": " + why);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    const std::string why = std::strerror(errno);
    close_fd(listen_fd_);
    throw NetError("net: getsockname failed: " + why);
  }
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);
}

Server::~Server() {
  if (signal_handlers_installed_ &&
      g_signal_server.load(std::memory_order_acquire) == this) {
    // Restore the previous dispositions FIRST: after sigaction returns
    // no new signal can enter signal_drain_handler, so the pointer
    // clear below cannot race a handler into a destroyed server.
    // (Assumes no other thread installs SIGTERM/SIGINT concurrently.)
    ::sigaction(SIGTERM, &g_prev_sigterm, nullptr);
    ::sigaction(SIGINT, &g_prev_sigint, nullptr);
    g_signal_server.store(nullptr, std::memory_order_release);
  }
  runtime_.reset();  // joins workers first: no notify after the pipes die
  for (auto& shard : shards_) {
    for (auto& conn : shard->conns) close_fd(conn.fd);
    for (int fd : shard->inbox) {
      if (fd >= 0) ::close(fd);
    }
    close_fd(shard->wake_r);
    close_fd(shard->wake_w);
  }
  close_fd(listen_fd_);
}

void Server::request_drain() noexcept {
  drain_requested_.store(true, std::memory_order_release);
  for (const auto& shard : shards_) wake_shard(shard->wake_w, 'd');
}

void Server::enable_signal_drain() {
  g_signal_server.store(this, std::memory_order_release);
  struct sigaction sa{};
  sa.sa_handler = signal_drain_handler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, &g_prev_sigterm);
  ::sigaction(SIGINT, &sa, &g_prev_sigint);
  signal_handlers_installed_ = true;
}

Server::Conn* Server::find_conn(Shard& shard, std::uint64_t id) {
  for (auto& conn : shard.conns) {
    if (conn.id == id && conn.fd >= 0) return &conn;
  }
  return nullptr;
}

void Server::close_conn(Conn& conn) {
  if (conn.fd < 0) return;
  close_fd(conn.fd);
  counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
}

namespace {

/// Best-effort non-blocking flush; returns false on a hard error.
bool flush_out(int fd, std::vector<std::uint8_t>& out, std::size_t& pos,
               std::atomic<std::uint64_t>& bytes_out) {
  while (pos < out.size()) {
    const ssize_t n = ::send(fd, out.data() + pos, out.size() - pos,
                             MSG_NOSIGNAL);
    if (n > 0) {
      pos += static_cast<std::size_t>(n);
      bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (pos == out.size()) {
    out.clear();
    pos = 0;
  }
  return true;
}

}  // namespace

void Server::send_frame(Conn& conn, MsgType type,
                        std::span<const std::uint8_t> payload,
                        std::uint16_t version) {
  if (conn.fd < 0) return;
  // Header and payload always agree on the dialect: on a pipelined
  // connection interleaving v1..v5 frames, every reply mirrors the
  // version of the exact frame that requested it.
  append_frame(conn.out, type, payload, version);
  counters_.frames_out.fetch_add(1, std::memory_order_relaxed);
  // Optimistic flush: most responses fit the socket buffer, so the
  // reply leaves in the same loop iteration that produced it.
  if (!flush_out(conn.fd, conn.out, conn.out_pos, counters_.bytes_out)) {
    close_conn(conn);
  }
}

void Server::send_error(Conn& conn, std::uint32_t tag, ErrorCode code,
                        const std::string& message, std::uint16_t version,
                        std::uint32_t retry_after_ms) {
  ErrorMsg msg;
  msg.tag = tag;
  msg.code = code;
  msg.message = message;
  msg.retry_after_ms = retry_after_ms;  // rides the wire on v5+ only
  send_frame(conn, MsgType::kError, encode_error(msg, version), version);
}

bool Server::refuse_draining(Conn& conn, std::uint32_t tag,
                             std::uint16_t version) {
  if (!drain_requested_.load(std::memory_order_acquire)) return false;
  counters_.rejects_shutdown.fetch_add(1, std::memory_order_relaxed);
  send_error(conn, tag, ErrorCode::kShuttingDown, "server is draining",
             version);
  return true;
}

void Server::handle_submit(Shard& shard, Conn& conn, const Frame& frame) {
  const JobRequest req = decode_job_request(frame.payload, frame.version);
  if (refuse_draining(conn, req.tag, frame.version)) return;
  rt::Job job;
  try {
    job = to_rt_job(req);
  } catch (const std::exception& e) {
    // A SimError from the kernel builders, or e.g. std::bad_alloc from
    // a request whose parameters demand more memory than the host has
    // — the never-crash invariant holds: the request fails, the server
    // keeps serving.
    send_error(conn, req.tag, ErrorCode::kBadRequest, e.what(),
               frame.version);
    return;
  }
  PendingGroup meta;
  meta.version = frame.version;
  meta.tag = req.tag;
  meta.job_name = job.name;
  admit(shard, conn, one_job(std::move(job)), std::move(meta));
}

void Server::handle_submit_batch(Shard& shard, Conn& conn,
                                 const Frame& frame) {
  if (frame.version < 5) {
    throw ProtocolError("batched submits require protocol v5");
  }
  SubmitJobBatchMsg req = decode_submit_job_batch(frame.payload,
                                                  frame.version);
  counters_.batch_requests.fetch_add(1, std::memory_order_relaxed);
  counters_.batch_jobs.fetch_add(req.jobs.size(),
                                 std::memory_order_relaxed);
  if (refuse_draining(conn, req.tag, frame.version)) return;

  auto batch = std::make_shared<BatchState>();
  batch->conn_id = conn.id;
  batch->version = frame.version;
  batch->result.tag = req.tag;
  batch->result.entries.resize(req.jobs.size());
  batch->remaining = req.jobs.size();
  batch->tags.resize(req.jobs.size());
  batch->names.resize(req.jobs.size());
  if (req.jobs.empty()) {
    send_frame(conn, MsgType::kJobBatchResult,
               encode_job_batch_result(batch->result, frame.version),
               frame.version);
    return;
  }
  // The whole batch is one logical in-flight unit for the pipelining
  // window and the idle reaper; the reply leaves when the last entry
  // settles (finalize_batch releases this hold).
  ++conn.pending_jobs;
  std::vector<rt::Job> jobs;
  std::vector<std::size_t> entries;  // entry index of each job
  for (std::size_t i = 0; i < req.jobs.size(); ++i) {
    JobRequest& jr = req.jobs[i];
    // Entries without their own trace inherit the batch's, before
    // conversion so the fleet (and the flight recorder) see it too.
    if (jr.trace_id == 0) jr.trace_id = req.trace_id;
    batch->tags[i] = jr.tag;
    // An entry with an earlier entry's program shares its build: one
    // allocation per distinct program, and the pool re-arms it
    // without a compare.
    std::shared_ptr<const LoadableProgram> program;
    for (std::size_t k = 0; k < jobs.size() && program == nullptr; ++k) {
      if (same_program(req.jobs[entries[k]], jr)) program = jobs[k].program;
    }
    rt::Job job;
    try {
      job = to_rt_job(jr, std::move(program));
    } catch (const std::exception& e) {
      JobBatchEntryMsg entry;
      entry.ok = 0;
      entry.error.tag = jr.tag;
      entry.error.code = ErrorCode::kBadRequest;
      entry.error.message = e.what();
      settle_batch_entry(shard, batch, i, std::move(entry));
      continue;
    }
    batch->names[i] = job.name;
    jobs.push_back(std::move(job));
    entries.push_back(i);
  }
  // The runnable entries go to the fleet as at most one contiguous
  // group per worker, each admitted as a unit.
  const std::size_t per_group =
      rt::group_size(jobs.size(), runtime_->worker_count());
  for (std::size_t first = 0; first < jobs.size(); first += per_group) {
    const std::size_t last = std::min(jobs.size(), first + per_group);
    PendingGroup meta;
    meta.version = frame.version;
    meta.batch = batch;
    meta.entries.assign(entries.begin() + first, entries.begin() + last);
    std::vector<rt::Job> group(
        std::make_move_iterator(jobs.begin() + first),
        std::make_move_iterator(jobs.begin() + last));
    admit(shard, conn, std::move(group), std::move(meta));
  }
}

void Server::admit(Shard& shard, Conn& conn, std::vector<rt::Job> jobs,
                   PendingGroup meta) {
  // Admission is stamped before the enqueue: a worker may arm the job
  // the instant it lands, and e2e must bracket the execute interval.
  meta.admitted = std::chrono::steady_clock::now();
  meta.conn_id = conn.id;
  // A single job holds a window slot until it is answered; batch
  // entries share the hold their batch took.
  if (meta.batch == nullptr) ++conn.pending_jobs;
  const std::size_t depth = runtime_->queue_depth();
  if (depth >= admission_high_) {
    refuse(shard, &conn, meta, ErrorCode::kBusy);
    return;
  }
  if (depth >= admission_low_) {
    // Between the watermarks: park the unit instead of either queueing
    // deeper (latency) or shedding (wasted work) — the shard retries
    // as completions pull the depth back down.
    counters_.admission_delayed.fetch_add(meta.units(),
                                          std::memory_order_relaxed);
    const auto deadline = meta.admitted + config_.admission_max_delay;
    shard.deferred.push_back({std::move(meta), std::move(jobs), deadline});
    return;
  }
  submit_or_refuse(shard, &conn, std::move(jobs), std::move(meta));
}

void Server::submit_or_refuse(Shard& shard, Conn* conn,
                              std::vector<rt::Job> jobs, PendingGroup meta) {
  const int wake_fd = shard.wake_w;
  auto submitted = runtime_->try_submit_group(jobs, [wake_fd] {
    wake_shard(wake_fd, 'j');
  });
  switch (submitted.status) {
    case rt::Runtime::SubmitStatus::kAccepted: {
      const std::size_t units = meta.units();
      counters_.admission_accepted.fetch_add(units,
                                             std::memory_order_relaxed);
      counters_.jobs_submitted.fetch_add(units, std::memory_order_relaxed);
      shard.jobs_submitted.fetch_add(units, std::memory_order_relaxed);
      meta.results = std::move(submitted.result);
      shard.pending.push_back(std::move(meta));
      return;
    }
    case rt::Runtime::SubmitStatus::kQueueFull:
      // The depth read raced another shard past the high watermark, or
      // a deferred unit's deadline came with the queue still full.
      refuse(shard, conn, meta, ErrorCode::kBusy);
      return;
    case rt::Runtime::SubmitStatus::kShutDown:
      refuse(shard, conn, meta, ErrorCode::kShuttingDown);
      return;
  }
}

void Server::refuse(Shard& shard, Conn* conn, const PendingGroup& meta,
                    ErrorCode code) {
  const bool busy = code == ErrorCode::kBusy;
  if (busy) {
    counters_.admission_shed.fetch_add(meta.units(),
                                       std::memory_order_relaxed);
    counters_.rejects_busy.fetch_add(meta.units(),
                                     std::memory_order_relaxed);
  } else {
    counters_.rejects_shutdown.fetch_add(meta.units(),
                                         std::memory_order_relaxed);
  }
  const char* message =
      busy ? "job queue is full — resubmit later" : "runtime is shut down";
  const std::uint32_t retry_after_ms =
      busy ? config_.retry_after_hint_ms : 0;
  if (meta.batch != nullptr) {
    for (const std::size_t index : meta.entries) {
      JobBatchEntryMsg entry;
      entry.ok = 0;
      entry.error.tag = meta.batch->tags[index];
      entry.error.code = code;
      entry.error.message = message;
      entry.error.retry_after_ms = retry_after_ms;
      settle_batch_entry(shard, meta.batch, index, std::move(entry));
    }
    return;
  }
  if (conn == nullptr) return;
  send_error(*conn, meta.tag, code, message, meta.version, retry_after_ms);
  if (conn->pending_jobs > 0) --conn->pending_jobs;
}

void Server::pump_deferred(Shard& shard) {
  if (shard.deferred.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto it = shard.deferred.begin(); it != shard.deferred.end();) {
    const bool due = now >= it->deadline;
    // Attempt only when success is likely (depth back under low) or
    // the deadline forces the issue — an attempt consumes the unit, so
    // a failed one settles the request (shed) rather than re-parking.
    if (!due && runtime_->queue_depth() >= admission_low_) {
      ++it;
      continue;
    }
    DeferredGroup parked = std::move(*it);
    it = shard.deferred.erase(it);
    Conn* conn = find_conn(shard, parked.meta.conn_id);
    // Peer vanished while parked: nothing to answer, nothing to run.
    if (conn == nullptr && parked.meta.batch == nullptr) continue;
    submit_or_refuse(shard, conn, std::move(parked.jobs),
                     std::move(parked.meta));
  }
}

void Server::settle_batch_entry(Shard& shard,
                                const std::shared_ptr<BatchState>& batch,
                                std::size_t index,
                                JobBatchEntryMsg entry) {
  BatchState& b = *batch;
  b.result.entries[index] = std::move(entry);
  if (b.remaining > 0) --b.remaining;
  if (b.remaining == 0) finalize_batch(shard, b);
}

void Server::finalize_batch(Shard& shard, BatchState& batch) {
  Conn* conn = find_conn(shard, batch.conn_id);
  if (conn == nullptr) return;  // peer vanished; entries are forfeit
  send_frame(*conn, MsgType::kJobBatchResult,
             encode_job_batch_result(batch.result, batch.version),
             batch.version);
  if (conn->pending_jobs > 0) --conn->pending_jobs;
  conn->last_activity = std::chrono::steady_clock::now();
}

namespace {

DfgCompiledMsg make_dfg_compiled_msg(std::uint32_t tag,
                                     const svc::CompiledDfg& compiled,
                                     bool cache_hit) {
  const mapper::MappedProgram& mapped = compiled.mapped;
  DfgCompiledMsg msg;
  msg.tag = tag;
  msg.dfg_hash = compiled.dfg_hash;
  msg.cache_hit = cache_hit ? 1 : 0;
  // Hits report 0: no compile ran, so there is no cost to report.
  msg.compile_us = cache_hit ? 0 : clamp_u32(compiled.compile_us);
  msg.dnodes_used = static_cast<std::uint16_t>(mapped.dnodes_used);
  msg.max_latency = static_cast<std::uint16_t>(mapped.max_latency);
  msg.pushes_per_cycle =
      static_cast<std::uint16_t>(mapped.pushes_per_cycle);
  msg.input_count = static_cast<std::uint16_t>(mapped.input_count);
  for (const mapper::MappedOutput& mo : mapped.outputs) {
    DfgOutputMetaMsg meta;
    meta.name = mo.name;
    meta.latency = static_cast<std::uint16_t>(mo.latency);
    meta.push_rank = static_cast<std::uint16_t>(mo.push_rank);
    msg.outputs.push_back(std::move(meta));
  }
  return msg;
}

}  // namespace

void Server::handle_compile_dfg(Conn& conn, const Frame& frame) {
  if (frame.version < 3) {
    throw ProtocolError("DFG messages require protocol v3");
  }
  const SubmitDfgMsg req = decode_submit_dfg(frame.payload);
  if (refuse_draining(conn, req.tag, frame.version)) return;
  try {
    const svc::CompileService::Result res =
        compile_.get_or_compile(req.dfg, req.geometry);
    send_frame(conn, MsgType::kDfgCompiled,
               encode_dfg_compiled(make_dfg_compiled_msg(
                   req.tag, *res.compiled, res.cache_hit)),
               frame.version);
  } catch (const SimError& e) {
    // Codec / mapper / golden-model diagnostics travel verbatim; the
    // graph was bad, not the connection, so it stays open.
    send_error(conn, req.tag, ErrorCode::kBadRequest, e.what(),
               frame.version);
  }
}

void Server::handle_submit_dfg(Shard& shard, Conn& conn,
                               const Frame& frame) {
  if (frame.version < 3) {
    throw ProtocolError("DFG messages require protocol v3");
  }
  const SubmitDfgJobMsg req = decode_submit_dfg_job(frame.payload);
  if (refuse_draining(conn, req.tag, frame.version)) return;
  // Compile (or hit the cache) BEFORE the admission stamp inside
  // admit(): compile latency must never appear in the job's span
  // timeline, and a cache hit costs one hash + map lookup.  The
  // compile service is internally locked — shards share it safely.
  svc::CompileService::Result res;
  rt::Job job;
  try {
    res = compile_.get_or_compile(req.dfg, req.geometry);
    job = svc::make_dfg_job(res.compiled, req.streams);
  } catch (const SimError& e) {
    send_error(conn, req.tag, ErrorCode::kBadRequest, e.what(),
               frame.version);
    return;
  }
  job.trace_id = req.trace_id;
  const std::size_t samples = req.streams.empty() ? 0
                                                  : req.streams[0].size();
  PendingGroup meta;
  meta.version = frame.version;
  meta.tag = req.tag;
  meta.job_name = job.name;
  meta.dfg = std::move(res.compiled);
  meta.dfg_samples = samples;
  meta.dfg_cache_hit = res.cache_hit;
  admit(shard, conn, one_job(std::move(job)), std::move(meta));
}

void Server::handle_submit_gemm(Shard& shard, Conn& conn,
                                const Frame& frame) {
  if (frame.version < 4) {
    throw ProtocolError("tiled-GEMM messages require protocol v4");
  }
  SubmitGemmMsg req = decode_submit_gemm(frame.payload);
  if (refuse_draining(conn, req.tag, frame.version)) return;
  std::shared_ptr<GemmState> state;
  try {
    // The plan cache serves repeated shapes without re-planning; the
    // schedule is immutable and shared across requests and shards.
    state = std::make_shared<GemmState>(
        req.geometry, plan_cache_.get_or_plan(req.spec, req.scratch_tiles),
        std::move(req.a), std::move(req.b));
  } catch (const SimError& e) {
    // Geometry the tile engine cannot lower (e.g. fewer than 8
    // Dnodes); the connection stays open.
    send_error(conn, req.tag, ErrorCode::kBadRequest, e.what(),
               frame.version);
    return;
  }
  state->conn_id = conn.id;
  state->tag = req.tag;
  state->version = frame.version;
  state->trace_id = req.trace_id;
  state->admitted = std::chrono::steady_clock::now();
  shard.gemms.push_back(std::move(state));
  // One logical job from the connection's point of view: the idle
  // reaper must not cut a peer waiting on a long tile schedule.
  ++conn.pending_jobs;
  counters_.gemm_requests.fetch_add(1, std::memory_order_relaxed);
  pump_gemms(shard);
}

void Server::pump_gemms(Shard& shard) {
  const int wake_fd = shard.wake_w;
  const std::size_t workers = runtime_->worker_count();
  bool queue_full = false;
  for (auto& gp : shard.gemms) {
    if (queue_full) break;
    GemmState& g = *gp;
    while (!g.driver.failed() &&
           (!g.held.empty() || !g.driver.lowered_all())) {
      if (g.held.empty()) {
        g.held_first = g.driver.next_step();
        try {
          g.held = g.driver.lower_group(workers);
        } catch (const SimError& e) {
          g.driver.fail(e.what());
          break;
        }
        for (rt::Job& job : g.held) job.trace_id = g.trace_id;
      }
      const std::size_t tiles = g.held.size();
      auto submitted = runtime_->try_submit_group(g.held, [wake_fd] {
        wake_shard(wake_fd, 'j');
      });
      if (submitted.status == rt::Runtime::SubmitStatus::kQueueFull) {
        // Backpressure: the held group retries on the next poll tick or
        // completion, so one giant GEMM never wedges the loop.
        queue_full = true;
        break;
      }
      if (submitted.status == rt::Runtime::SubmitStatus::kShutDown) {
        g.driver.fail("runtime is shut down");
        break;
      }
      PendingGroup pj;
      pj.conn_id = g.conn_id;
      pj.results = std::move(submitted.result);
      pj.gemm = gp;
      pj.first_step = g.held_first;
      shard.pending.push_back(std::move(pj));
      ++g.outstanding;
      counters_.gemm_tile_jobs.fetch_add(tiles, std::memory_order_relaxed);
    }
  }
  // A failed GEMM drops its held group and finalizes once its
  // submitted groups have landed.
  for (auto it = shard.gemms.begin(); it != shard.gemms.end();) {
    GemmState& g = **it;
    if (g.outstanding > 0 ||
        (!g.driver.failed() &&
         (!g.held.empty() || !g.driver.lowered_all()))) {
      ++it;
      continue;
    }
    finalize_gemm(shard, g);
    it = shard.gemms.erase(it);
  }
}

void Server::finalize_gemm(Shard& shard, GemmState& g) {
  const auto scratch = g.driver.scratch().counters();
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    counters_.gemm_scratch[i].fetch_add(scratch[i],
                                        std::memory_order_relaxed);
  }

  const bool failed = g.driver.failed();
  const obs::SpanRecord& tiles = g.driver.totals();
  const bool timed = obs::telemetry_enabled();
  const auto s0 = std::chrono::steady_clock::now();
  Conn* conn = find_conn(shard, g.conn_id);
  std::vector<std::uint8_t> reply;
  if (conn != nullptr && !failed) {
    JobResultMsg msg;
    msg.tag = g.tag;
    msg.outputs = g.driver.result();
    msg.sim_cycles = tiles.sim_cycles;
    msg.worker = tiles.worker;
    msg.reused_system = g.driver.any_reused() ? 1 : 0;
    msg.counters = g.driver.reply_counters();
    msg.trace_id = g.trace_id;
    msg.total_us = clamp_u32(us_between(g.admitted, s0));
    reply = encode_job_result(msg, g.version);
  }
  if (failed) {
    counters_.jobs_failed.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.jobs_completed.fetch_add(1, std::memory_order_relaxed);
  }
  if (timed) {
    // The request's one e2e sample and flight record, admission to
    // reply encoded, recorded before the reply leaves: a client that
    // has the reply finds them.  Its tiles added only their phases.
    obs::SpanRecord rec = tiles;
    rec.trace_id = g.trace_id;
    rec.name = "gemm";
    rec.ok = !failed;
    rec.error = g.driver.error();
    record_request(shard, std::move(rec), g.admitted,
                   us_between(s0, std::chrono::steady_clock::now()));
  }
  if (conn == nullptr) return;
  if (!failed) {
    send_frame(*conn, MsgType::kJobResult, reply, g.version);
  } else {
    send_error(*conn, g.tag, ErrorCode::kJobFailed, g.driver.error(),
               g.version);
  }
  if (conn->pending_jobs > 0) --conn->pending_jobs;
  conn->last_activity = std::chrono::steady_clock::now();
}

void Server::handle_frame(Shard& shard, Conn& conn, const Frame& frame) {
  counters_.frames_in.fetch_add(1, std::memory_order_relaxed);
  shard.frames_in.fetch_add(1, std::memory_order_relaxed);
  try {
    switch (frame.type) {
      case MsgType::kPing:
        send_frame(conn, MsgType::kPong,
                   encode_ping(decode_ping(frame.payload)), frame.version);
        return;
      case MsgType::kServerInfoReq: {
        ServerInfoMsg info;
        info.workers =
            static_cast<std::uint32_t>(runtime_->worker_count());
        info.queue_capacity =
            static_cast<std::uint32_t>(config_.runtime.queue_capacity);
        info.max_frame_bytes =
            static_cast<std::uint32_t>(config_.max_frame_bytes);
        info.jobs_completed =
            counters_.jobs_completed.load(std::memory_order_relaxed);
        info.server = "sring-serve";
        send_frame(conn, MsgType::kServerInfo, encode_server_info(info),
                   frame.version);
        return;
      }
      case MsgType::kSubmitJob:
        handle_submit(shard, conn, frame);
        return;
      case MsgType::kSubmitJobBatch:
        handle_submit_batch(shard, conn, frame);
        return;
      case MsgType::kSubmitDfg:
        handle_compile_dfg(conn, frame);
        return;
      case MsgType::kSubmitDfgJob:
        handle_submit_dfg(shard, conn, frame);
        return;
      case MsgType::kSubmitGemm:
        handle_submit_gemm(shard, conn, frame);
        return;
      case MsgType::kGetStats:
        send_frame(conn, MsgType::kStatsReply,
                   encode_stats_reply(
                       stats_snapshot(decode_get_stats(frame.payload))),
                   frame.version);
        return;
      case MsgType::kDrain:
        counters_.drains.fetch_add(1, std::memory_order_relaxed);
        send_frame(conn, MsgType::kDrainAck, {}, frame.version);
        request_drain();
        return;
      default:
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, 0, ErrorCode::kBadRequest,
                   "unexpected message type " +
                       std::to_string(
                           static_cast<unsigned>(frame.type)),
                   frame.version);
        conn.closing = true;
        return;
    }
  } catch (const ProtocolError& e) {
    counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, 0, ErrorCode::kBadRequest, e.what(), frame.version);
    conn.closing = true;
  } catch (const std::exception& e) {
    // Last-resort guard for the never-crash invariant: whatever one
    // frame did, only that connection pays for it.
    counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, 0, ErrorCode::kInternal, e.what(), frame.version);
    conn.closing = true;
  }
}

void Server::drain_input(Shard& shard, Conn& conn) {
  std::size_t offset = 0;
  bool keep = true;
  while (keep && !conn.closing) {
    // Pipelining window: stop parsing once the connection has its
    // fill of in-flight work.  The unparsed bytes stay buffered (and,
    // past the socket buffer, TCP backpressure holds the peer);
    // parsing resumes as completions free the window.
    if (conn.pending_jobs >= config_.pipeline_window) break;
    Frame frame;
    std::size_t consumed = 0;
    const auto view = std::span<const std::uint8_t>(conn.in).subspan(offset);
    const ParseStatus status =
        try_parse_frame(view, config_.max_frame_bytes, frame, consumed);
    if (status == ParseStatus::kNeedMore) break;
    if (status == ParseStatus::kFrame) {
      offset += consumed;
      conn.version = frame.version;  // for replies with no frame to mirror
      handle_frame(shard, conn, frame);
      continue;
    }
    // Malformed bytes: answer once, then close after the flush.  The
    // frames parsed before the damage were already dispatched — a
    // malformed frame mid-burst costs the connection, not the burst.
    counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    const char* what = "malformed frame";
    switch (status) {
      case ParseStatus::kBadMagic: what = "bad frame magic"; break;
      case ParseStatus::kBadVersion: what = "unsupported protocol version";
        break;
      case ParseStatus::kTooLarge: what = "frame exceeds size limit"; break;
      case ParseStatus::kBadCrc: what = "frame CRC mismatch"; break;
      default: break;
    }
    send_error(conn, 0, ErrorCode::kBadRequest, what, conn.version);
    conn.closing = true;
    keep = false;
  }
  if (offset > 0) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(offset));
  }
}

void Server::accept_ready(Shard& shard0) {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; the loop retries on next poll
    }
    if (active_conns_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      counters_.connections_rejected.fetch_add(1,
                                               std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    active_conns_.fetch_add(1, std::memory_order_relaxed);
    // Round-robin handoff: the acceptor keeps every Nth connection and
    // passes the rest to their shard's inbox, waking its loop.
    Shard& target = *shards_[next_shard_rr_ % shards_.size()];
    ++next_shard_rr_;
    if (&target == &shard0) {
      Conn conn;
      conn.fd = fd;
      conn.id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
      conn.last_activity = std::chrono::steady_clock::now();
      shard0.conns.push_back(std::move(conn));
      shard0.connections.fetch_add(1, std::memory_order_relaxed);
    } else {
      {
        std::lock_guard lock(target.inbox_mu);
        target.inbox.push_back(fd);
      }
      wake_shard(target.wake_w, 'c');
    }
  }
}

void Server::adopt_inbox(Shard& shard) {
  std::vector<int> fds;
  {
    std::lock_guard lock(shard.inbox_mu);
    fds.swap(shard.inbox);
  }
  if (fds.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  for (const int fd : fds) {
    Conn conn;
    conn.fd = fd;
    conn.id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn.last_activity = now;
    shard.conns.push_back(std::move(conn));
    shard.connections.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::collect_completions(Shard& shard) {
  for (auto it = shard.pending.begin(); it != shard.pending.end();) {
    if (it->results.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++it;
      continue;
    }
    PendingGroup pending = std::move(*it);
    it = shard.pending.erase(it);
    const std::vector<rt::JobResult> results = pending.results.get();
    if (pending.gemm != nullptr) {
      // Tile group of a v4 GEMM: fold into the accumulator, no reply
      // yet.  The single response leaves via finalize_gemm once every
      // group has landed (pump_gemms runs right after this sweep —
      // never during it, since it push_backs into pending).
      --pending.gemm->outstanding;
      pending.gemm->driver.fold(pending.first_step, results);
    } else if (pending.batch != nullptr) {
      settle_batch_group(shard, pending, results);
    } else {
      answer_job(shard, pending, results.front());
    }
  }
}

void Server::settle_batch_group(Shard& shard, const PendingGroup& pending,
                                const std::vector<rt::JobResult>& results) {
  // Entries of a v5 batch: settle each; the one reply leaves when the
  // last entry lands.
  const bool timed = obs::telemetry_enabled();
  BatchState& batch = *pending.batch;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const rt::JobResult& result = results[i];
    const std::size_t index = pending.entries[i];
    JobBatchEntryMsg entry;
    if (result.ok) {
      entry.ok = 1;
      entry.result = make_job_result_msg(batch.tags[index], result);
      counters_.jobs_completed.fetch_add(1, std::memory_order_relaxed);
    } else {
      entry.ok = 0;
      entry.error.tag = batch.tags[index];
      entry.error.code = ErrorCode::kJobFailed;
      entry.error.message = result.error;
      counters_.jobs_failed.fetch_add(1, std::memory_order_relaxed);
    }
    if (timed) {
      record_request(shard, span_record(batch.names[index], result),
                     pending.admitted, 0);
    }
    settle_batch_entry(shard, pending.batch, index, std::move(entry));
  }
}

void Server::answer_job(Shard& shard, const PendingGroup& pending,
                        const rt::JobResult& result) {
  Conn* conn = find_conn(shard, pending.conn_id);
  const bool timed = obs::telemetry_enabled();
  std::uint64_t serialize_us = 0;
  if (conn != nullptr) {
    const auto s0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    if (result.ok) {
      JobResultMsg msg = make_job_result_msg(pending.tag, result);
      bool deliver = true;
      if (pending.dfg != nullptr) {
        // DFG job: de-lace the raw fleet words into per-output
        // streams, concatenated in Dfg output order.  The appended
        // counters tell the client how to split the flat words back.
        try {
          const auto streams = svc::delace_outputs(
              *pending.dfg, result.outputs, pending.dfg_samples);
          msg.outputs.clear();
          for (const auto& s : streams) {
            msg.outputs.insert(msg.outputs.end(), s.begin(), s.end());
          }
          msg.counters.emplace_back("svc.dfg.outputs", streams.size());
          msg.counters.emplace_back("svc.dfg.samples", pending.dfg_samples);
          msg.counters.emplace_back("svc.dfg.cache_hit",
                                    pending.dfg_cache_hit ? 1 : 0);
          msg.counters.emplace_back("svc.dfg.hash", pending.dfg->dfg_hash);
        } catch (const SimError& e) {
          // Raw stream shorter than the program promises — a server
          // bug, not a client one; answer it without crashing.
          send_error(*conn, pending.tag, ErrorCode::kInternal, e.what(),
                     pending.version);
          deliver = false;
        }
      }
      if (deliver) {
        send_frame(*conn, MsgType::kJobResult,
                   encode_job_result(msg, pending.version),
                   pending.version);
      }
    } else {
      // SimError text travels verbatim; the client re-raises it.
      send_error(*conn, pending.tag, ErrorCode::kJobFailed, result.error,
                 pending.version);
    }
    if (timed) {
      serialize_us = us_between(s0, std::chrono::steady_clock::now());
    }
    if (conn->pending_jobs > 0) --conn->pending_jobs;
    conn->last_activity = std::chrono::steady_clock::now();
  }
  if (result.ok) {
    counters_.jobs_completed.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.jobs_failed.fetch_add(1, std::memory_order_relaxed);
  }
  if (timed) {
    record_request(shard, span_record(pending.job_name, result),
                   pending.admitted, serialize_us);
  }
}

void Server::record_request(Shard& shard, obs::SpanRecord rec,
                            std::chrono::steady_clock::time_point admitted,
                            std::uint64_t serialize_us) {
  const std::uint64_t e2e =
      us_between(admitted, std::chrono::steady_clock::now());
  rec.start_offset_us = us_between(start_time_, admitted);
  rec.serialize_us = clamp_u32(serialize_us);
  rec.e2e_us = clamp_u32(e2e);
  {
    std::lock_guard lock(shard.lat_mu);
    shard.serialize_us.record(serialize_us);
    shard.e2e_us.record(e2e);
  }
  std::lock_guard lock(telemetry_mu_);
  recorder_.record(std::move(rec));
}

void Server::maybe_sample(std::chrono::steady_clock::time_point now) {
  if (!obs::telemetry_enabled()) return;
  if (now - last_sample_ < config_.sample_interval) return;
  last_sample_ = now;
  const obs::Registry snap = metrics();  // takes its own locks
  std::lock_guard lock(telemetry_mu_);
  sampler_.sample(snap, now);
}

void Server::shard_loop(Shard& shard) {
  const bool acceptor = shard.index == 0;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn_ids;  // parallel to fds tail
  std::vector<std::uint8_t> buf(64 * 1024);

  // Armed when the drain flush phase begins; a peer that never reads
  // its responses cannot hold this shard open past the deadline.
  bool drain_flush_armed = false;
  std::chrono::steady_clock::time_point drain_flush_deadline{};

  while (true) {
    const bool draining = drain_requested_.load(std::memory_order_acquire);
    if (draining && acceptor && listen_fd_ >= 0) close_fd(listen_fd_);

    adopt_inbox(shard);

    // Drop fully closed / flushed-and-closing connections.
    for (auto& conn : shard.conns) {
      if (conn.fd >= 0 && conn.closing && conn.out_pos == conn.out.size()) {
        close_conn(conn);
      }
    }
    shard.conns.erase(
        std::remove_if(shard.conns.begin(), shard.conns.end(),
                       [](const Conn& c) { return c.fd < 0; }),
        shard.conns.end());

    if (draining && shard.pending.empty() && shard.gemms.empty() &&
        shard.deferred.empty()) {
      // In-flight work answered; flush what remains and finish.
      const auto flush_now = std::chrono::steady_clock::now();
      if (!drain_flush_armed) {
        drain_flush_armed = true;
        drain_flush_deadline = flush_now + config_.drain_flush_timeout;
      }
      bool flushed = true;
      for (auto& conn : shard.conns) {
        if (conn.fd < 0) continue;
        if (!flush_out(conn.fd, conn.out, conn.out_pos,
                       counters_.bytes_out) ||
            conn.out.empty()) {
          close_conn(conn);
        } else {
          flushed = false;
        }
      }
      if (flushed) break;
      if (flush_now >= drain_flush_deadline) {
        // Unflushed responses to peers that stopped reading; drop them
        // so SIGTERM always terminates.
        for (auto& conn : shard.conns) close_conn(conn);
        break;
      }
    }

    fds.clear();
    fd_conn_ids.clear();
    fds.push_back({shard.wake_r, POLLIN, 0});
    const bool poll_listen = acceptor && listen_fd_ >= 0;
    if (poll_listen) fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& conn : shard.conns) {
      if (conn.fd < 0) continue;
      short events = conn.closing ? 0 : POLLIN;
      if (conn.out_pos < conn.out.size()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      fd_conn_ids.push_back(conn.id);
    }

    // Tick at least as often as the sampler wants a point, and much
    // faster while deferred jobs wait on a millisecond deadline.
    const int sample_ms = static_cast<int>(
        std::max<std::int64_t>(1, config_.sample_interval.count()));
    int tick_ms = std::min(kPollTickMs, sample_ms);
    if (!shard.deferred.empty()) {
      tick_ms = std::min(tick_ms, kDeferredTickMs);
    }
    const int n = ::poll(fds.data(), fds.size(), tick_ms);
    if (n < 0 && errno != EINTR) {
      throw NetError("net: poll failed: " +
                     std::string(std::strerror(errno)));
    }

    // Wake pipe: drain it, then sweep completed jobs.
    if (fds[0].revents & POLLIN) {
      while (::read(shard.wake_r, buf.data(), buf.size()) > 0) {
      }
    }
    adopt_inbox(shard);  // a handoff may have arrived with the wake
    collect_completions(shard);
    pump_gemms(shard);
    pump_deferred(shard);
    // Completions freed pipeline windows: resume parsing connections
    // whose buffers still hold frames.
    for (auto& conn : shard.conns) {
      if (conn.fd < 0 || conn.closing || conn.in.empty()) continue;
      if (conn.pending_jobs < config_.pipeline_window) {
        drain_input(shard, conn);
      }
    }
    if (acceptor) maybe_sample(std::chrono::steady_clock::now());

    std::size_t at = 1;
    if (poll_listen) {
      if (fds[at].revents & POLLIN) accept_ready(shard);
      ++at;
    }
    for (std::size_t i = 0; at < fds.size(); ++at, ++i) {
      Conn* conn = find_conn(shard, fd_conn_ids[i]);
      if (conn == nullptr) continue;
      const short revents = fds[at].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Peer vanished: pending jobs still run, results are dropped.
        close_conn(*conn);
        continue;
      }
      if (revents & POLLOUT) {
        if (!flush_out(conn->fd, conn->out, conn->out_pos,
                       counters_.bytes_out)) {
          close_conn(*conn);
          continue;
        }
        conn->last_activity = std::chrono::steady_clock::now();
      }
      if ((revents & POLLIN) && !conn->closing) {
        bool peer_closed = false;
        while (true) {
          const ssize_t r = ::recv(conn->fd, buf.data(), buf.size(), 0);
          if (r > 0) {
            counters_.bytes_in.fetch_add(static_cast<std::uint64_t>(r),
                                         std::memory_order_relaxed);
            conn->in.insert(conn->in.end(), buf.data(), buf.data() + r);
            continue;
          }
          if (r == 0) {
            peer_closed = true;
            break;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          peer_closed = true;
          break;
        }
        drain_input(shard, *conn);
        // Stamp AFTER processing: a large input burst can take longer
        // than a short idle_timeout to answer, and a stale stamp would
        // reap the very connection that is actively talking to us.
        conn->last_activity = std::chrono::steady_clock::now();
        if (peer_closed) close_conn(*conn);
      }
    }

    // Idle reaping: connections with a job in flight are exempt, but a
    // closing connection is not — its flush either progresses (which
    // refreshes last_activity) or the peer has stopped reading and the
    // unflushed output is forfeit.
    const auto reap_now = std::chrono::steady_clock::now();
    for (auto& conn : shard.conns) {
      if (conn.fd < 0 || (conn.pending_jobs > 0 && !conn.closing)) continue;
      if (reap_now - conn.last_activity > config_.idle_timeout) {
        counters_.timeouts.fetch_add(1, std::memory_order_relaxed);
        close_conn(conn);
      }
    }
  }

  for (auto& conn : shard.conns) close_conn(conn);
  shard.conns.clear();
}

void Server::run() {
  check(!ran_, "net: Server::run() may only be called once");
  ran_ = true;

  // Shards 1..N-1 on their own threads, shard 0 (acceptor + sampler)
  // on the caller's thread.  A shard that dies on an unexpected error
  // drains the rest so run() still returns, then rethrows.
  std::vector<std::exception_ptr> errors(shards_.size());
  const auto run_shard = [this, &errors](std::size_t index) {
    try {
      shard_loop(*shards_[index]);
    } catch (...) {
      errors[index] = std::current_exception();
      request_drain();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(shards_.size() - 1);
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    threads.emplace_back(run_shard, i);
  }
  run_shard(0);
  for (auto& t : threads) t.join();

  // Handoffs that raced the drain: accepted fds no shard adopted.
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->inbox_mu);
    for (int fd : shard->inbox) {
      if (fd < 0) continue;
      ::close(fd);
      counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
      active_conns_.fetch_sub(1, std::memory_order_relaxed);
    }
    shard->inbox.clear();
  }
  close_fd(listen_fd_);

  // Post-mortem flight dump — covers Drain frames, request_drain() and
  // SIGTERM alike, since they all funnel through this return path.
  if (!config_.flight_dump_path.empty()) {
    std::lock_guard lock(telemetry_mu_);
    std::ofstream out(config_.flight_dump_path);
    if (out) recorder_.write_jsonl(out);
  }
  runtime_->shutdown();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

obs::Registry Server::metrics() const {
  obs::Registry out;
  const auto get = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  out.counter("net.connections.accepted")
      .set(get(counters_.connections_accepted));
  out.counter("net.connections.closed")
      .set(get(counters_.connections_closed));
  out.counter("net.connections.rejected")
      .set(get(counters_.connections_rejected));
  out.counter("net.connections.active")
      .set(get(counters_.connections_accepted) -
           get(counters_.connections_closed));
  out.counter("net.frames.in").set(get(counters_.frames_in));
  out.counter("net.frames.out").set(get(counters_.frames_out));
  out.counter("net.bytes.in").set(get(counters_.bytes_in));
  out.counter("net.bytes.out").set(get(counters_.bytes_out));
  out.counter("net.rejects.busy").set(get(counters_.rejects_busy));
  out.counter("net.rejects.shutdown").set(get(counters_.rejects_shutdown));
  out.counter("net.protocol_errors").set(get(counters_.protocol_errors));
  out.counter("net.timeouts").set(get(counters_.timeouts));
  out.counter("net.jobs.submitted").set(get(counters_.jobs_submitted));
  out.counter("net.jobs.completed").set(get(counters_.jobs_completed));
  out.counter("net.jobs.failed").set(get(counters_.jobs_failed));
  out.counter("net.drains").set(get(counters_.drains));
  out.counter("net.admission.accepted")
      .set(get(counters_.admission_accepted));
  out.counter("net.admission.delayed")
      .set(get(counters_.admission_delayed));
  out.counter("net.admission.shed").set(get(counters_.admission_shed));
  out.counter("net.batch.requests").set(get(counters_.batch_requests));
  out.counter("net.batch.jobs").set(get(counters_.batch_jobs));
  out.counter("net.gemm.requests").set(get(counters_.gemm_requests));
  out.counter("net.gemm.tile_jobs").set(get(counters_.gemm_tile_jobs));
  for (std::size_t i = 0; i < counters_.gemm_scratch.size(); ++i) {
    out.counter(tile::Scratchpad::kCounterNames[i])
        .set(get(counters_.gemm_scratch[i]));
  }
  out.counter("tile.plan.hits").set(plan_cache_.hits());
  out.counter("tile.plan.misses").set(plan_cache_.misses());
  out.counter("tile.plan.evictions").set(plan_cache_.evictions());
  out.counter("net.shards").set(shards_.size());
  for (const auto& shard : shards_) {
    const std::string prefix =
        "net.shard." + std::to_string(shard->index);
    out.counter(prefix + ".frames_in").set(get(shard->frames_in));
    out.counter(prefix + ".jobs").set(get(shard->jobs_submitted));
    out.counter(prefix + ".connections").set(get(shard->connections));
    std::lock_guard lock(shard->lat_mu);
    for (const auto& [name, h] :
         {std::pair{"net.latency.serialize_us", &shard->serialize_us},
          std::pair{"net.latency.e2e_us", &shard->e2e_us}}) {
      // Named once it has a sample, one per answered request.
      if (h->count() > 0) out.histogram(name, h->bounds()).merge_from(*h);
    }
  }
  out.merge_from(runtime_->metrics());
  out.merge_from(compile_.metrics());
  return out;
}

StatsReplyMsg Server::stats_snapshot(std::uint32_t flags) const {
  const auto now = std::chrono::steady_clock::now();
  const obs::Registry snap = metrics();  // takes its own locks

  StatsReplyMsg msg;
  msg.uptime_us = us_between(start_time_, now);
  msg.workers = static_cast<std::uint32_t>(runtime_->worker_count());
  if (const obs::Counter* c = snap.find_counter("rt.queue.depth")) {
    msg.queue_depth = static_cast<std::uint32_t>(c->value());
  }
  msg.queue_capacity =
      static_cast<std::uint32_t>(config_.runtime.queue_capacity);

  // Cumulative busy time across the fleet vs wall time × workers.
  if (const obs::Counter* busy = snap.find_counter("rt.busy_us")) {
    const double denom = static_cast<double>(msg.uptime_us) *
                         static_cast<double>(std::max(1u, msg.workers));
    if (denom > 0.0) {
      msg.worker_utilization =
          std::min(1.0, static_cast<double>(busy->value()) / denom);
    }
  }

  for (const auto& [name, counter] : snap.counters()) {
    msg.counters.emplace_back(name, counter.value());
  }
  for (const auto& [name, hist] : snap.histograms()) {
    if (name.find(".latency.") == std::string::npos) continue;
    StatsQuantileMsg q;
    q.name = name;
    q.count = hist.count();
    if (hist.count() > 0) {
      q.mean_us = static_cast<double>(hist.sum()) /
                  static_cast<double>(hist.count());
    }
    q.p50_us = obs::histogram_quantile(hist, 0.50);
    q.p90_us = obs::histogram_quantile(hist, 0.90);
    q.p99_us = obs::histogram_quantile(hist, 0.99);
    q.max_us = hist.max();
    msg.latencies.push_back(std::move(q));
  }

  std::lock_guard lock(telemetry_mu_);
  for (const auto& [name, per_sec] : sampler_.rates()) {
    msg.rates.push_back({name, per_sec});
  }
  if (flags & kStatsIncludeFlight) {
    const auto recent = recorder_.recent();
    msg.flight.assign(recent.begin(), recent.end());
  }
  return msg;
}

}  // namespace sring::net
