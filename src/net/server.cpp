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
/// Poll cadence while groups are parked: deferred units' deadlines are
/// tens of milliseconds, so the shard must look again well before the
/// regular tick would.
constexpr int kDeferredTickMs = 5;

// Refusal texts.  A vanished peer's never leaves the server; a GEMM
// fails with it.
constexpr const char* kShedText = "job queue is full — resubmit later";
constexpr const char* kStoppedText = "runtime is shut down";
constexpr const char* kVanishedText = "connection closed before the reply";

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
  count(kConnectionsClosed);
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
  count(kFramesOut);
  // Optimistic flush: most responses fit the socket buffer, so the
  // reply leaves in the same loop iteration that produced it.
  if (!flush_out(conn.fd, conn.out, conn.out_pos, counters_[kBytesOut])) {
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
  count(kRejectsShutdown);
  send_error(conn, tag, ErrorCode::kShuttingDown, "server is draining",
             version);
  return true;
}

std::shared_ptr<Server::Request> Server::open_request(
    Conn& conn, std::uint32_t tag, std::uint16_t version,
    std::size_t groups) {
  auto req = std::make_shared<Request>();
  req->conn_id = conn.id;
  req->version = version;
  req->reply.tag = tag;
  req->reply.entries.resize(1);
  req->outstanding = groups;
  // Admission is stamped before the enqueue: a worker may arm a job the
  // instant it lands, and e2e must bracket the execute interval.
  req->admitted = std::chrono::steady_clock::now();
  // The request's one window hold; finish() releases it.
  ++conn.pending_jobs;
  return req;
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
  auto request = open_request(conn, req.tag, frame.version, 1);
  request->units.push_back({0, req.tag, job.name});
  admit(shard, {request, 0, one_job(std::move(job))});
}

void Server::handle_submit_batch(Shard& shard, Conn& conn,
                                 const Frame& frame) {
  if (frame.version < 5) {
    throw ProtocolError("batched submits require protocol v5");
  }
  SubmitJobBatchMsg req = decode_submit_job_batch(frame.payload,
                                                  frame.version);
  count(kBatchRequests);
  count(kBatchJobs, req.jobs.size());
  if (refuse_draining(conn, req.tag, frame.version)) return;

  JobBatchResultMsg reply;
  reply.tag = req.tag;
  reply.entries.resize(req.jobs.size());
  std::vector<rt::Job> jobs;
  std::vector<Unit> units;  // one per job
  for (std::size_t i = 0; i < req.jobs.size(); ++i) {
    JobRequest& jr = req.jobs[i];
    // Entries without their own trace inherit the batch's, before
    // conversion so the fleet (and the flight recorder) see it too.
    if (jr.trace_id == 0) jr.trace_id = req.trace_id;
    // An entry with an earlier entry's program shares its build: one
    // allocation per distinct program, and the pool re-arms it
    // without a compare.
    std::shared_ptr<const LoadableProgram> program;
    for (std::size_t k = 0; k < jobs.size() && program == nullptr; ++k) {
      if (same_program(req.jobs[units[k].entry], jr)) {
        program = jobs[k].program;
      }
    }
    rt::Job job;
    try {
      job = to_rt_job(jr, std::move(program));
    } catch (const std::exception& e) {
      reply.entries[i].error = {jr.tag, ErrorCode::kBadRequest, e.what()};
      continue;
    }
    units.push_back({i, jr.tag, job.name});
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) {  // nothing to run: answer now
    send_frame(conn, MsgType::kJobBatchResult,
               encode_job_batch_result(reply, frame.version), frame.version);
    return;
  }
  // The runnable entries go to the fleet as at most one contiguous
  // group per worker, each admitted as a unit.
  const std::size_t per_group =
      rt::group_size(jobs.size(), runtime_->worker_count());
  auto request = open_request(conn, req.tag, frame.version,
                              (jobs.size() + per_group - 1) / per_group);
  request->batch = true;
  request->reply = std::move(reply);
  request->units = std::move(units);
  for (std::size_t first = 0; first < jobs.size(); first += per_group) {
    const std::size_t last = std::min(jobs.size(), first + per_group);
    std::vector<rt::Job> group(
        std::make_move_iterator(jobs.begin() + first),
        std::make_move_iterator(jobs.begin() + last));
    admit(shard, {request, first, std::move(group)});
  }
}

void Server::admit(Shard& shard, Group group) {
  const std::size_t depth = runtime_->queue_depth();
  if (depth >= admission_high_) {
    settle(shard, group, nullptr, ErrorCode::kBusy, kShedText);
    return;
  }
  if (depth >= admission_low_) {
    // Between the watermarks: park the unit instead of either queueing
    // deeper (latency) or shedding (wasted work) — the shard retries
    // as completions pull the depth back down.
    count(kAdmissionDelayed, group.jobs.size());
    group.deadline = group.req->admitted + config_.admission_max_delay;
    shard.parked.push_back(std::move(group));
    return;
  }
  submit_or_refuse(shard, group);
}

rt::Runtime::SubmitStatus Server::submit(Shard& shard, Group& group) {
  const int wake_fd = shard.wake_w;
  const std::size_t jobs = group.jobs.size();
  auto submitted = runtime_->try_submit_group(group.jobs, [wake_fd] {
    wake_shard(wake_fd, 'j');
  });
  if (submitted.status != rt::Runtime::SubmitStatus::kAccepted) {
    return submitted.status;
  }
  if (group.req->gemm != nullptr) {
    count(kGemmTileJobs, jobs);  // the GEMM counted one job at admission
  } else {
    count(kAdmissionAccepted, jobs);
    count(kJobsSubmitted, jobs);
    shard.jobs_submitted.fetch_add(jobs, std::memory_order_relaxed);
  }
  shard.pending.push_back(
      {group.req, group.first, {}, std::move(submitted.result)});
  return rt::Runtime::SubmitStatus::kAccepted;
}

void Server::submit_or_refuse(Shard& shard, Group& group) {
  switch (submit(shard, group)) {
    case rt::Runtime::SubmitStatus::kAccepted:
      return;
    case rt::Runtime::SubmitStatus::kQueueFull:
      // The depth read raced another shard past the high watermark, or
      // a parked unit's deadline came with the queue still full.
      settle(shard, group, nullptr, ErrorCode::kBusy, kShedText);
      return;
    case rt::Runtime::SubmitStatus::kShutDown:
      settle(shard, group, nullptr, ErrorCode::kShuttingDown, kStoppedText);
      return;
  }
}

void Server::pump_parked(Shard& shard) {
  const auto now = std::chrono::steady_clock::now();
  for (auto it = shard.parked.begin(); it != shard.parked.end();) {
    Group& group = *it;
    bool spent = true;
    if (find_conn(shard, group.req->conn_id) == nullptr) {
      // The peer is gone: nothing to answer, so nothing more to run.
      settle(shard, group, nullptr, ErrorCode::kBusy, kVanishedText);
    } else if (group.req->gemm != nullptr) {
      spent = pump_gemm(shard, group);
    } else if (now >= group.deadline ||
               runtime_->queue_depth() < admission_low_) {
      // Attempt only when success is likely or the deadline forces an
      // attempt — an attempt consumes the unit, so a failed one is shed
      // rather than re-parked.
      submit_or_refuse(shard, group);
    } else {
      spent = false;
    }
    it = spent ? shard.parked.erase(it) : std::next(it);
  }
}

bool Server::pump_gemm(Shard& shard, Group& cursor) {
  Request& req = *cursor.req;
  tile::GemmDriver& gemm = *req.gemm;
  while (!gemm.failed() && (!cursor.jobs.empty() || !gemm.lowered_all())) {
    if (cursor.jobs.empty()) {
      cursor.first = gemm.next_step();
      try {
        cursor.jobs = gemm.lower_group(runtime_->worker_count());
      } catch (const SimError& e) {
        gemm.fail(e.what());
        break;
      }
      for (rt::Job& job : cursor.jobs) job.trace_id = req.trace_id;
    }
    switch (submit(shard, cursor)) {
      case rt::Runtime::SubmitStatus::kAccepted:
        ++req.outstanding;
        break;
      case rt::Runtime::SubmitStatus::kQueueFull:
        // Backpressure: the lowered group is held and resubmitted as-is
        // (lowering again would replay the scratchpad) on the next wake
        // or tick, so one giant GEMM never wedges the loop.
        return false;
      case rt::Runtime::SubmitStatus::kShutDown:
        gemm.fail(kStoppedText);
        break;
    }
  }
  release(shard, req);  // the cursor's own share
  return true;
}

void Server::settle(Shard& shard, Group& group,
                    const std::vector<rt::JobResult>* results,
                    ErrorCode code, const char* why) {
  Request& req = *group.req;
  if (req.gemm != nullptr) {
    // Step groups fold in any order; a refused one fails the GEMM.
    if (results != nullptr) {
      req.gemm->fold(group.first, *results);
    } else {
      req.gemm->fail(why);
    }
    release(shard, req);
    return;
  }
  const bool timed = obs::telemetry_enabled();
  const std::size_t n = results != nullptr ? results->size()
                                           : group.jobs.size();
  if (results == nullptr) {
    const bool busy = code == ErrorCode::kBusy;
    count(busy ? kAdmissionShed : kRejectsShutdown, n);
    if (busy) count(kRejectsBusy, n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Unit& unit = req.units[group.first + i];
    JobBatchEntryMsg& entry = req.reply.entries[unit.entry];
    if (results == nullptr) {
      entry.error = {unit.tag, code, why,
                     code == ErrorCode::kBusy ? config_.retry_after_hint_ms
                                              : 0};
      continue;
    }
    const rt::JobResult& result = (*results)[i];
    count(result.ok ? kJobsCompleted : kJobsFailed);
    if (timed) req.records.push_back(span_record(unit.name, result));
    if (!result.ok) {
      // SimError text travels verbatim; the client re-raises it.
      entry.error = {unit.tag, ErrorCode::kJobFailed, result.error};
      continue;
    }
    entry.ok = 1;
    entry.result = make_job_result_msg(unit.tag, result);
    if (req.dfg == nullptr) continue;
    // DFG job: de-lace the raw fleet words into per-output streams,
    // concatenated in Dfg output order.  The appended counters tell
    // the client how to split the flat words back.
    try {
      const auto streams =
          svc::delace_outputs(*req.dfg, result.outputs, req.dfg_samples);
      JobResultMsg& msg = entry.result;
      msg.outputs.clear();
      for (const auto& s : streams) {
        msg.outputs.insert(msg.outputs.end(), s.begin(), s.end());
      }
      msg.counters.emplace_back("svc.dfg.outputs", streams.size());
      msg.counters.emplace_back("svc.dfg.samples", req.dfg_samples);
      msg.counters.emplace_back("svc.dfg.cache_hit",
                                req.dfg_cache_hit ? 1 : 0);
      msg.counters.emplace_back("svc.dfg.hash", req.dfg->dfg_hash);
    } catch (const SimError& e) {
      // Raw stream shorter than the program promises — a server bug,
      // not a client one; answer it without crashing.
      entry.ok = 0;
      entry.error = {unit.tag, ErrorCode::kInternal, e.what()};
    }
  }
  release(shard, req);
}

void Server::release(Shard& shard, Request& req) {
  if (--req.outstanding == 0) finish(shard, req);
}

void Server::finish(Shard& shard, Request& req) {
  const bool timed = obs::telemetry_enabled();
  const auto s0 = std::chrono::steady_clock::now();
  Conn* conn = find_conn(shard, req.conn_id);
  JobBatchEntryMsg& only = req.reply.entries.front();
  if (req.gemm != nullptr) {
    // A whole GEMM is one job, however many tiles it ran.
    const tile::GemmDriver& gemm = *req.gemm;
    const auto scratch = gemm.scratch().counters();
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      gemm_scratch_[i].fetch_add(scratch[i], std::memory_order_relaxed);
    }
    const bool failed = gemm.failed();
    count(failed ? kJobsFailed : kJobsCompleted);
    const obs::SpanRecord& tiles = gemm.totals();
    if (failed) {
      only.error = {req.reply.tag, ErrorCode::kJobFailed, gemm.error()};
    } else if (conn != nullptr) {
      only.ok = 1;
      JobResultMsg& msg = only.result;
      msg.tag = req.reply.tag;
      msg.outputs = gemm.result();
      msg.sim_cycles = tiles.sim_cycles;
      msg.worker = tiles.worker;
      msg.reused_system = gemm.any_reused() ? 1 : 0;
      msg.counters = gemm.reply_counters();
      msg.trace_id = req.trace_id;
      msg.total_us = clamp_u32(us_between(req.admitted, s0));
    }
    if (timed) {
      obs::SpanRecord rec = tiles;  // its tiles added only their phases
      rec.trace_id = req.trace_id;
      rec.name = "gemm";
      rec.ok = !failed;
      rec.error = gemm.error();
      req.records.push_back(std::move(rec));
    }
  }
  MsgType type = MsgType::kJobBatchResult;
  std::vector<std::uint8_t> payload;
  if (conn != nullptr) {
    if (req.batch) {
      payload = encode_job_batch_result(req.reply, req.version);
    } else if (only.ok == 1) {
      type = MsgType::kJobResult;
      payload = encode_job_result(only.result, req.version);
    } else {
      type = MsgType::kError;
      payload = encode_error(only.error, req.version);
    }
  }
  // The e2e samples and flight records are taken before the reply
  // leaves: a client that has the reply finds them.
  if (timed) {
    const std::uint64_t serialize_us =
        us_between(s0, std::chrono::steady_clock::now());
    for (obs::SpanRecord& rec : req.records) {
      record_request(shard, std::move(rec), req.admitted, serialize_us);
    }
  }
  if (conn == nullptr) return;
  send_frame(*conn, type, payload, req.version);
  --conn->pending_jobs;
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
  auto request = open_request(conn, req.tag, frame.version, 1);
  request->units.push_back({0, req.tag, job.name});
  request->dfg = std::move(res.compiled);
  request->dfg_samples = req.streams.empty() ? 0 : req.streams[0].size();
  request->dfg_cache_hit = res.cache_hit;
  admit(shard, {request, 0, one_job(std::move(job))});
}

void Server::handle_submit_gemm(Shard& shard, Conn& conn,
                                const Frame& frame) {
  if (frame.version < 4) {
    throw ProtocolError("tiled-GEMM messages require protocol v4");
  }
  SubmitGemmMsg req = decode_submit_gemm(frame.payload);
  if (refuse_draining(conn, req.tag, frame.version)) return;
  std::unique_ptr<tile::GemmDriver> gemm;
  try {
    // The plan cache serves repeated shapes without re-planning; the
    // schedule is immutable and shared across requests and shards.
    gemm = std::make_unique<tile::GemmDriver>(
        req.geometry, plan_cache_.get_or_plan(req.spec, req.scratch_tiles),
        std::move(req.a), std::move(req.b));
  } catch (const SimError& e) {
    // Geometry the tile engine cannot lower (e.g. fewer than 8
    // Dnodes); the connection stays open.
    send_error(conn, req.tag, ErrorCode::kBadRequest, e.what(),
               frame.version);
    return;
  }
  // The cursor is the request's one group until every step is lowered;
  // each step group it submits adds its own.
  auto request = open_request(conn, req.tag, frame.version, 1);
  request->trace_id = req.trace_id;
  request->gemm = std::move(gemm);
  count(kGemmRequests);
  count(kJobsSubmitted);
  shard.jobs_submitted.fetch_add(1, std::memory_order_relaxed);
  shard.parked.push_back({std::move(request)});
  pump_parked(shard);
}

void Server::handle_frame(Shard& shard, Conn& conn, const Frame& frame) {
  count(kFramesIn);
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
            counters_[kJobsCompleted].load(std::memory_order_relaxed);
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
        count(kDrains);
        send_frame(conn, MsgType::kDrainAck, {}, frame.version);
        request_drain();
        return;
      default:
        count(kProtocolErrors);
        send_error(conn, 0, ErrorCode::kBadRequest,
                   "unexpected message type " +
                       std::to_string(
                           static_cast<unsigned>(frame.type)),
                   frame.version);
        conn.closing = true;
        return;
    }
  } catch (const ProtocolError& e) {
    count(kProtocolErrors);
    send_error(conn, 0, ErrorCode::kBadRequest, e.what(), frame.version);
    conn.closing = true;
  } catch (const std::exception& e) {
    // Last-resort guard for the never-crash invariant: whatever one
    // frame did, only that connection pays for it.
    count(kProtocolErrors);
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
    count(kProtocolErrors);
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
      count(kConnectionsRejected);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    count(kConnectionsAccepted);
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
    Group group = std::move(*it);
    it = shard.pending.erase(it);
    const std::vector<rt::JobResult> results = group.results.get();
    settle(shard, group, &results);
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

    if (draining && shard.pending.empty() && shard.parked.empty()) {
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
                       counters_[kBytesOut]) ||
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
    // faster while parked groups wait on a millisecond deadline.
    const int sample_ms = static_cast<int>(
        std::max<std::int64_t>(1, config_.sample_interval.count()));
    int tick_ms = std::min(kPollTickMs, sample_ms);
    if (!shard.parked.empty()) {
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
    pump_parked(shard);
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
        // Peer vanished: submitted groups still run and their results
        // are dropped; its parked groups are refused on the next pump.
        close_conn(*conn);
        continue;
      }
      if (revents & POLLOUT) {
        if (!flush_out(conn->fd, conn->out, conn->out_pos,
                       counters_[kBytesOut])) {
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
            count(kBytesIn, static_cast<std::uint64_t>(r));
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
        count(kTimeouts);
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
      count(kConnectionsClosed);
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
  for (std::size_t i = 0; i < kCounterNames.size(); ++i) {
    out.counter(kCounterNames[i]).set(get(counters_[i]));
  }
  out.counter("net.connections.active")
      .set(get(counters_[kConnectionsAccepted]) -
           get(counters_[kConnectionsClosed]));
  for (std::size_t i = 0; i < gemm_scratch_.size(); ++i) {
    out.counter(tile::Scratchpad::kCounterNames[i])
        .set(get(gemm_scratch_[i]));
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
