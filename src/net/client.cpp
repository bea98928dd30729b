#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>

namespace sring::net {

namespace {

void set_io_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Mark `out` ok and move in the fields every job result shares;
/// the output words are the caller's.
template <class Result>
void take_job_result(Result& out, JobResultMsg& msg) {
  out.ok = true;
  out.sim_cycles = msg.sim_cycles;
  out.worker = msg.worker;
  out.reused_system = msg.reused_system != 0;
  out.counters = std::move(msg.counters);
  out.trace_id = msg.trace_id;
  out.total_us = msg.total_us;
  if constexpr (requires { out.execute_us; }) {
    out.queue_wait_us = msg.queue_wait_us;
    out.execute_us = msg.execute_us;
  }
}

RemoteResult to_remote_result(JobResultMsg&& msg) {
  RemoteResult out;
  out.outputs = std::move(msg.outputs);
  take_job_result(out, msg);
  return out;
}

}  // namespace

Client::Client(ClientConfig config) : config_(std::move(config)) {}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

void Client::backoff_sleep(int attempt) const {
  // Capped exponential: initial << attempt, clamped to backoff_max_ms.
  const std::int64_t ms = std::min<std::int64_t>(
      config_.backoff_max_ms,
      static_cast<std::int64_t>(config_.backoff_initial_ms)
          << std::min(attempt, 20));
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

void Client::connect() {
  if (fd_ >= 0) return;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("net: bad server address: " + config_.host);
  }

  std::string last_error = "no attempt made";
  const int attempts = std::max(1, config_.connect_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) backoff_sleep(attempt - 1);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      last_error = std::strerror(errno);
      continue;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      set_io_timeout(fd, config_.io_timeout_ms);
      fd_ = fd;
      inbuf_.clear();
      return;
    }
    last_error = std::strerror(errno);
    ::close(fd);
  }
  throw NetError("net: cannot connect to " + config_.host + ":" +
                 std::to_string(config_.port) + " after " +
                 std::to_string(attempts) + " attempts: " + last_error);
}

void Client::send_frame(MsgType type,
                        std::span<const std::uint8_t> payload) {
  connect();
  std::vector<std::uint8_t> wire;
  append_frame(wire, type, payload, config_.protocol_version);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const bool timeout = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    close();
    throw NetError(timeout ? "net: send timed out"
                           : "net: connection lost while sending");
  }
}

Frame Client::recv_frame() {
  std::uint8_t buf[64 * 1024];
  while (true) {
    Frame frame;
    std::size_t consumed = 0;
    const ParseStatus status = try_parse_frame(
        inbuf_, config_.max_frame_bytes, frame, consumed);
    if (status == ParseStatus::kFrame) {
      inbuf_.erase(inbuf_.begin(),
                   inbuf_.begin() + static_cast<std::ptrdiff_t>(consumed));
      return frame;
    }
    if (status != ParseStatus::kNeedMore) {
      fail("net: malformed frame from server (status " +
           std::to_string(static_cast<int>(status)) + ")");
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      inbuf_.insert(inbuf_.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const bool timeout = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    close();
    throw NetError(timeout
                       ? "net: receive timed out"
                       : "net: server closed the connection mid-frame");
  }
}

double Client::ping() {
  const std::uint64_t token = 0x5352494E47ull + next_tag_;
  const auto t0 = std::chrono::steady_clock::now();
  send_frame(MsgType::kPing, encode_ping(token));
  const Frame frame = recv_frame();
  const auto t1 = std::chrono::steady_clock::now();
  if (frame.type != MsgType::kPong || decode_ping(frame.payload) != token) {
    fail("net: bad ping response");
  }
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

ServerInfoMsg Client::server_info() {
  send_frame(MsgType::kServerInfoReq, {});
  const Frame frame = recv_frame();
  if (frame.type != MsgType::kServerInfo) {
    fail("net: expected ServerInfo response");
  }
  return decode_server_info(frame.payload);
}

std::optional<Frame> Client::exchange(MsgType type,
                                      std::span<const std::uint8_t> payload,
                                      MsgType reply, Shed& shed) {
  for (int attempt = 0; attempt <= config_.busy_retries; ++attempt) {
    if (attempt > 0) {
      // A v5 server says how long to back off; otherwise exponential.
      if (shed.retry_after_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(shed.retry_after_ms));
      } else {
        backoff_sleep(attempt - 1);
      }
    }
    send_frame(type, payload);
    Frame frame = recv_frame();
    if (frame.type == reply) return frame;
    if (frame.type != MsgType::kError) {
      fail("net: unexpected response type " +
           std::to_string(static_cast<unsigned>(frame.type)));
    }
    const ErrorMsg err = decode_error(frame.payload, frame.version);
    shed.busy = err.code == ErrorCode::kBusy;
    if (!shed.busy) {
      shed.error = err.message;
      return std::nullopt;
    }
    shed.retry_after_ms = err.retry_after_ms;
  }
  shed.error = "server busy (queue full) after " +
               std::to_string(config_.busy_retries + 1) + " attempts";
  return std::nullopt;
}

void Client::expect_tag(std::uint32_t got, std::uint32_t sent) {
  if (got != sent) fail("net: response tag mismatch");
}

void Client::fail(const std::string& what) {
  close();
  throw ProtocolError(what);
}

template <class Result>
Result Client::refused(Shed& shed) {
  Result out;
  out.busy = shed.busy;
  out.error = std::move(shed.error);
  return out;
}

RemoteResult Client::submit(const JobRequest& req) {
  JobRequest tagged = req;
  if (tagged.tag == 0) tagged.tag = next_tag_++;
  Shed shed;
  const std::optional<Frame> frame =
      exchange(MsgType::kSubmitJob,
               encode_job_request(tagged, config_.protocol_version),
               MsgType::kJobResult, shed);
  RemoteResult out;
  if (frame) {
    // Decode by the frame's own version: the server mirrors ours, but
    // trusting the wire keeps mixed-version paths honest.
    JobResultMsg msg = decode_job_result(frame->payload, frame->version);
    expect_tag(msg.tag, tagged.tag);
    out = to_remote_result(std::move(msg));
  } else {
    out = refused<RemoteResult>(shed);
  }
  out.retry_after_ms = shed.retry_after_ms;
  return out;
}

RemoteDfgCompiled Client::compile_dfg(const std::vector<std::uint8_t>& dfg,
                                      const RingGeometry& geometry) {
  if (config_.protocol_version < 3) {
    throw NetError("net: DFG messages require protocol version >= 3");
  }
  SubmitDfgMsg req;
  req.tag = next_tag_++;
  req.geometry = geometry;
  req.dfg = dfg;
  Shed shed;
  const std::optional<Frame> frame =
      exchange(MsgType::kSubmitDfg, encode_submit_dfg(req),
               MsgType::kDfgCompiled, shed);
  if (!frame) return refused<RemoteDfgCompiled>(shed);
  DfgCompiledMsg msg = decode_dfg_compiled(frame->payload);
  expect_tag(msg.tag, req.tag);
  RemoteDfgCompiled out;
  out.ok = true;
  out.dfg_hash = msg.dfg_hash;
  out.cache_hit = msg.cache_hit != 0;
  out.compile_us = msg.compile_us;
  out.dnodes_used = msg.dnodes_used;
  out.max_latency = msg.max_latency;
  out.pushes_per_cycle = msg.pushes_per_cycle;
  out.input_count = msg.input_count;
  out.outputs = std::move(msg.outputs);
  return out;
}

RemoteDfgResult Client::submit_dfg(
    const std::vector<std::uint8_t>& dfg,
    const std::vector<std::vector<Word>>& streams,
    const RingGeometry& geometry, std::uint64_t trace_id) {
  if (config_.protocol_version < 3) {
    throw NetError("net: DFG messages require protocol version >= 3");
  }
  SubmitDfgJobMsg req;
  req.tag = next_tag_++;
  req.geometry = geometry;
  req.dfg = dfg;
  req.streams = streams;
  req.trace_id = trace_id;
  Shed shed;
  const std::optional<Frame> frame =
      exchange(MsgType::kSubmitDfgJob, encode_submit_dfg_job(req),
               MsgType::kJobResult, shed);
  if (!frame) return refused<RemoteDfgResult>(shed);
  JobResultMsg msg = decode_job_result(frame->payload, frame->version);
  expect_tag(msg.tag, req.tag);
  RemoteDfgResult out;
  // The flat word vector is the per-output streams concatenated in Dfg
  // output order; the svc.dfg.* counters say how to split it.
  std::uint64_t n_outputs = 0;
  std::uint64_t n_samples = 0;
  for (const auto& [name, value] : msg.counters) {
    if (name == "svc.dfg.outputs") n_outputs = value;
    else if (name == "svc.dfg.samples") n_samples = value;
    else if (name == "svc.dfg.cache_hit") out.cache_hit = value != 0;
    else if (name == "svc.dfg.hash") out.dfg_hash = value;
  }
  if (n_outputs == 0 || msg.outputs.size() != n_outputs * n_samples) {
    fail("net: DFG result words do not match its de-lacing metadata");
  }
  out.streams.resize(n_outputs);
  for (std::uint64_t o = 0; o < n_outputs; ++o) {
    out.streams[o].assign(
        msg.outputs.begin() + static_cast<std::ptrdiff_t>(o * n_samples),
        msg.outputs.begin() +
            static_cast<std::ptrdiff_t>((o + 1) * n_samples));
  }
  take_job_result(out, msg);
  return out;
}

std::uint64_t RemoteGemmResult::counter(const std::string& name) const {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

RemoteGemmResult Client::submit_gemm(const tile::GemmSpec& spec,
                                     const std::vector<Word>& a,
                                     const std::vector<Word>& b,
                                     const RingGeometry& geometry,
                                     std::uint32_t scratch_tiles,
                                     std::uint64_t trace_id) {
  if (config_.protocol_version < 4) {
    throw NetError("net: tiled-GEMM messages require protocol version >= 4");
  }
  SubmitGemmMsg req;
  req.tag = next_tag_++;
  req.geometry = geometry;
  req.spec = spec;
  req.scratch_tiles = scratch_tiles;
  req.a = a;
  req.b = b;
  req.trace_id = trace_id;
  Shed shed;
  const std::optional<Frame> frame =
      exchange(MsgType::kSubmitGemm, encode_submit_gemm(req),
               MsgType::kJobResult, shed);
  if (!frame) return refused<RemoteGemmResult>(shed);
  JobResultMsg msg = decode_job_result(frame->payload, frame->version);
  expect_tag(msg.tag, req.tag);
  if (msg.outputs.size() != spec.m * spec.n) {
    fail("net: GEMM result size does not match m*n");
  }
  RemoteGemmResult out;
  out.c = std::move(msg.outputs);
  take_job_result(out, msg);
  return out;
}

std::vector<RemoteResult> Client::submit_batch(
    const std::vector<JobRequest>& reqs) {
  std::vector<RemoteResult> out;
  out.reserve(reqs.size());
  for (const JobRequest& req : reqs) out.push_back(submit(req));
  return out;
}

std::vector<RemoteResult> Client::submit_pipelined(
    const std::vector<JobRequest>& reqs, std::size_t window) {
  std::vector<RemoteResult> out(reqs.size());
  if (reqs.empty()) return out;
  window = std::max<std::size_t>(1, window);

  std::vector<JobRequest> tagged(reqs);
  std::unordered_map<std::uint32_t, std::size_t> by_tag;
  by_tag.reserve(tagged.size());
  for (std::size_t i = 0; i < tagged.size(); ++i) {
    if (tagged[i].tag == 0) tagged[i].tag = next_tag_++;
    if (!by_tag.emplace(tagged[i].tag, i).second) {
      throw NetError("net: submit_pipelined requires unique tags");
    }
  }

  // Keep up to `window` frames in flight; the server answers in
  // completion order, so replies correlate by tag, not position.
  std::vector<std::size_t> busy;  // shed entries, retried sequentially
  std::size_t next_send = 0;
  std::size_t outstanding = 0;
  std::size_t settled = 0;
  std::uint32_t busy_hint_ms = 0;
  while (settled < tagged.size()) {
    while (next_send < tagged.size() && outstanding < window) {
      send_frame(MsgType::kSubmitJob,
                 encode_job_request(tagged[next_send],
                                    config_.protocol_version));
      ++next_send;
      ++outstanding;
    }
    const Frame frame = recv_frame();
    std::uint32_t tag = 0;
    RemoteResult result;
    if (frame.type == MsgType::kJobResult) {
      JobResultMsg msg = decode_job_result(frame.payload, frame.version);
      tag = msg.tag;
      result = to_remote_result(std::move(msg));
    } else if (frame.type == MsgType::kError) {
      const ErrorMsg err = decode_error(frame.payload, frame.version);
      tag = err.tag;
      if (err.code == ErrorCode::kBusy) {
        result.busy = true;
        result.retry_after_ms = err.retry_after_ms;
        busy_hint_ms = std::max(busy_hint_ms, err.retry_after_ms);
      }
      result.error = err.message;
    } else {
      fail("net: unexpected response type " +
           std::to_string(static_cast<unsigned>(frame.type)));
    }
    const auto found = by_tag.find(tag);
    if (found == by_tag.end()) {
      fail("net: response tag matches no in-flight job");
    }
    if (result.busy) busy.push_back(found->second);
    out[found->second] = std::move(result);
    by_tag.erase(found);
    --outstanding;
    ++settled;
  }

  // Shed entries degrade to the sequential path, which retries with
  // the server's pacing hint (or exponential backoff without one).
  for (const std::size_t index : busy) {
    if (busy_hint_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(busy_hint_ms));
    }
    out[index] = submit(tagged[index]);
  }
  return out;
}

std::vector<RemoteResult> Client::submit_batch_wire(
    const std::vector<JobRequest>& reqs, std::uint64_t trace_id) {
  if (config_.protocol_version < 5) {
    throw NetError("net: batched submits require protocol version >= 5");
  }
  std::vector<RemoteResult> out(reqs.size());
  if (reqs.empty()) return out;

  SubmitJobBatchMsg msg;
  msg.tag = next_tag_++;
  msg.jobs = reqs;
  msg.trace_id = trace_id;
  for (JobRequest& job : msg.jobs) {
    if (job.tag == 0) job.tag = next_tag_++;
  }
  send_frame(MsgType::kSubmitJobBatch,
             encode_submit_job_batch(msg, config_.protocol_version));

  const Frame frame = recv_frame();
  if (frame.type == MsgType::kError) {
    // Whole-batch refusal (draining, malformed): every entry fails
    // the same way rather than throwing, matching submit()'s shape.
    const ErrorMsg err = decode_error(frame.payload, frame.version);
    for (RemoteResult& r : out) {
      r.busy = err.code == ErrorCode::kBusy;
      r.retry_after_ms = err.retry_after_ms;
      r.error = err.message;
    }
    return out;
  }
  if (frame.type != MsgType::kJobBatchResult) {
    fail("net: expected JobBatchResult response");
  }
  JobBatchResultMsg reply =
      decode_job_batch_result(frame.payload, frame.version);
  if (reply.tag != msg.tag || reply.entries.size() != reqs.size()) {
    fail("net: batch result does not match the request");
  }
  for (std::size_t i = 0; i < reply.entries.size(); ++i) {
    JobBatchEntryMsg& entry = reply.entries[i];
    if (entry.ok != 0) {
      out[i] = to_remote_result(std::move(entry.result));
    } else {
      out[i].busy = entry.error.code == ErrorCode::kBusy;
      out[i].retry_after_ms = entry.error.retry_after_ms;
      out[i].error = entry.error.message;
    }
  }
  return out;
}

StatsReplyMsg Client::stats(bool include_flight) {
  if (config_.protocol_version < 2) {
    throw NetError("net: GetStats requires protocol version >= 2");
  }
  send_frame(MsgType::kGetStats,
             encode_get_stats(include_flight ? kStatsIncludeFlight : 0));
  const Frame frame = recv_frame();
  if (frame.type != MsgType::kStatsReply) {
    fail("net: expected StatsReply response");
  }
  return decode_stats_reply(frame.payload);
}

bool Client::drain() {
  send_frame(MsgType::kDrain, {});
  const Frame frame = recv_frame();
  return frame.type == MsgType::kDrainAck;
}

}  // namespace sring::net
