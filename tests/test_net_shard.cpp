// Loopback tests of the sharded serving front end: N-shard counter
// totals match the single-shard server, pipelined frames correlate by
// tag with per-frame version mirroring, SubmitJobBatch round-trips
// bit-exact, malformed bytes mid-burst cost exactly one connection,
// drain completes queued frames, and the queue-depth watermarks
// accept/defer/shed with the retry_after_ms hint.  Every socket
// carries a receive deadline so a regression fails instead of hanging.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "rt/runtime.hpp"

namespace sring::net {
namespace {

constexpr RingGeometry kGeom{8, 2, 16};

/// Server + run() thread with drain-on-destruction (same shape as
/// test_net_server.cpp).
struct TestServer {
  explicit TestServer(ServerConfig cfg = {})
      : server(std::move(cfg)), thread([this] { server.run(); }) {}
  ~TestServer() { stop(); }

  void stop() {
    if (thread.joinable()) {
      server.request_drain();
      thread.join();
    }
  }

  Server server;
  std::thread thread;
};

/// Minimal blocking socket for byte-level pipelining tests.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    check(fd_ >= 0, "test: socket() failed");
    timeval tv{};
    tv.tv_sec = 10;  // receive deadline: fail, don't hang
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    check(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0,
          "test: connect() failed: " + std::string(std::strerror(errno)));
  }
  ~RawConn() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void send_all(std::span<const std::uint8_t> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Next complete frame; false on orderly EOF or deadline.
  bool recv_frame(Frame& out) {
    std::uint8_t chunk[4096];
    while (true) {
      std::size_t consumed = 0;
      const ParseStatus status =
          try_parse_frame(in_, kDefaultMaxFrameBytes, out, consumed);
      if (status == ParseStatus::kFrame) {
        in_.erase(in_.begin(),
                  in_.begin() + static_cast<std::ptrdiff_t>(consumed));
        return true;
      }
      EXPECT_EQ(status, ParseStatus::kNeedMore);
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      in_.insert(in_.end(), chunk, chunk + n);
    }
  }

  bool recv_eof() {
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> in_;
};

ClientConfig client_config(std::uint16_t port) {
  ClientConfig cfg;
  cfg.port = port;
  cfg.io_timeout_ms = 10000;  // deadline, not a hang
  return cfg;
}

/// A cheap deterministic FIR job; `salt` varies the input words.
JobRequest small_fir(std::uint32_t salt) {
  JobRequest req;
  req.kernel = KernelId::kFir;
  req.geometry = kGeom;
  req.fir_coeffs = {1, static_cast<Word>(-2), 3};
  req.input.resize(48);
  Rng rng(0xABBA0000ull + salt);
  for (auto& w : req.input) w = rng.next_word_in(-128, 127);
  return req;
}

/// A FIR job fat enough to pin one worker for several milliseconds.
JobRequest fat_fir() {
  JobRequest req;
  req.kernel = KernelId::kFir;
  req.geometry = kGeom;
  req.fir_coeffs = {1, 2};
  req.input.resize(131072);
  for (std::size_t i = 0; i < req.input.size(); ++i) {
    req.input[i] = static_cast<Word>(i & 0x7F);
  }
  return req;
}

std::vector<Word> local_outputs(const JobRequest& req) {
  rt::Runtime local({.workers = 1});
  rt::JobResult r = local.submit(to_rt_job(req)).get();
  check(r.ok, "test: local reference failed: " + r.error);
  return std::move(r.outputs);
}

std::uint64_t counter(const obs::Registry& m, const std::string& name) {
  const obs::Counter* c = m.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

// ---------------------------------------------------------------------------
// Shard-count invariance

// The same workload against shards=1 and shards=3 lands identical
// shared totals; per-shard slices add up and every shard carried
// connections (round-robin handoff reached them all).
TEST(NetShard, CountersMatchSingleShardTotals) {
  constexpr std::size_t kConns = 3;
  constexpr std::size_t kJobsPerConn = 4;

  std::vector<JobRequest> reqs;
  std::vector<std::vector<Word>> expected;
  for (std::size_t i = 0; i < kJobsPerConn; ++i) {
    reqs.push_back(small_fir(static_cast<std::uint32_t>(i)));
    expected.push_back(local_outputs(reqs.back()));
  }

  std::vector<obs::Registry> metrics;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    ServerConfig scfg;
    scfg.runtime.workers = 2;
    scfg.shards = shards;
    TestServer ts(scfg);
    EXPECT_EQ(ts.server.shard_count(), shards);
    {
      std::vector<std::unique_ptr<Client>> clients;
      for (std::size_t c = 0; c < kConns; ++c) {
        clients.push_back(
            std::make_unique<Client>(client_config(ts.server.port())));
        clients.back()->connect();
      }
      for (std::size_t c = 0; c < kConns; ++c) {
        const auto results = clients[c]->submit_batch(reqs);
        ASSERT_EQ(results.size(), reqs.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
          ASSERT_TRUE(results[i].ok) << results[i].error;
          EXPECT_EQ(results[i].outputs, expected[i]);
        }
      }
    }
    ts.stop();
    metrics.push_back(ts.server.metrics());
  }

  constexpr std::uint64_t kJobs = kConns * kJobsPerConn;
  for (const auto& m : metrics) {
    EXPECT_EQ(counter(m, "net.jobs.completed"), kJobs);
    EXPECT_EQ(counter(m, "net.jobs.submitted"), kJobs);
    EXPECT_EQ(counter(m, "net.jobs.failed"), 0u);
    EXPECT_EQ(counter(m, "net.admission.accepted"), kJobs);
    EXPECT_EQ(counter(m, "net.connections.accepted"), kConns);
    // Per-shard latency registries merge into one view: every job
    // produced exactly one serialize and one e2e sample.
    for (const char* name :
         {"net.latency.serialize_us", "net.latency.e2e_us"}) {
      const obs::Histogram* h = m.find_histogram(name);
      ASSERT_NE(h, nullptr) << name;
      EXPECT_EQ(h->count(), kJobs) << name;
    }
  }
  EXPECT_EQ(counter(metrics[0], "net.shards"), 1u);
  EXPECT_EQ(counter(metrics[1], "net.shards"), 3u);

  // The per-shard slices add up to the shared totals, and round-robin
  // spread the three connections across all three shards.
  std::uint64_t shard_jobs = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    const std::string prefix = "net.shard." + std::to_string(s);
    shard_jobs += counter(metrics[1], prefix + ".jobs");
    EXPECT_EQ(counter(metrics[1], prefix + ".connections"), 1u)
        << prefix;
  }
  EXPECT_EQ(shard_jobs, kJobs);
}

// ---------------------------------------------------------------------------
// Frame pipelining

// A burst of frames pipelined down one connection correlates replies
// by tag; completion order is free but every tag answers bit-exact.
TEST(NetShard, PipelinedBurstCorrelatesByTag) {
  ServerConfig scfg;
  scfg.runtime.workers = 2;
  scfg.shards = 2;
  TestServer ts(scfg);

  constexpr std::uint32_t kBurst = 10;
  std::map<std::uint32_t, std::vector<Word>> expected;
  std::vector<std::uint8_t> wire;
  for (std::uint32_t tag = 1; tag <= kBurst; ++tag) {
    JobRequest req = small_fir(tag);
    req.tag = tag;
    expected[tag] = local_outputs(req);
    append_frame(wire, MsgType::kSubmitJob, encode_job_request(req));
  }
  RawConn raw(ts.server.port());
  raw.send_all(wire);

  std::map<std::uint32_t, std::vector<Word>> got;
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    Frame frame;
    ASSERT_TRUE(raw.recv_frame(frame)) << "reply " << i << " missing";
    ASSERT_EQ(frame.type, MsgType::kJobResult);
    const JobResultMsg msg = decode_job_result(frame.payload);
    EXPECT_EQ(got.count(msg.tag), 0u) << "duplicate tag " << msg.tag;
    got[msg.tag] = msg.outputs;
  }
  EXPECT_EQ(got, expected);
}

// Interleaved v1/v2 frames on one pipelined connection: each reply
// mirrors the exact protocol version of the frame that requested it,
// header and payload both.
TEST(NetShard, InterleavedVersionsMirrorPerFrame) {
  ServerConfig scfg;
  scfg.runtime.workers = 2;
  TestServer ts(scfg);

  constexpr std::uint32_t kBurst = 8;
  std::vector<std::uint8_t> wire;
  std::map<std::uint32_t, std::uint16_t> version_of;
  for (std::uint32_t tag = 1; tag <= kBurst; ++tag) {
    const std::uint16_t v = (tag % 2 == 1) ? 1 : 2;
    JobRequest req = small_fir(tag);
    req.tag = tag;
    req.trace_id = 0x5500 + tag;
    version_of[tag] = v;
    append_frame(wire, MsgType::kSubmitJob, encode_job_request(req, v),
                 v);
  }
  RawConn raw(ts.server.port());
  raw.send_all(wire);

  for (std::uint32_t i = 0; i < kBurst; ++i) {
    Frame frame;
    ASSERT_TRUE(raw.recv_frame(frame)) << "reply " << i << " missing";
    ASSERT_EQ(frame.type, MsgType::kJobResult);
    const JobResultMsg msg =
        decode_job_result(frame.payload, frame.version);
    ASSERT_EQ(version_of.count(msg.tag), 1u);
    EXPECT_EQ(frame.version, version_of[msg.tag]) << "tag " << msg.tag;
    // The v2 telemetry tail exists exactly when the request was v2.
    if (frame.version >= 2) {
      EXPECT_EQ(msg.trace_id, 0x5500 + msg.tag);
    } else {
      EXPECT_EQ(msg.trace_id, 0u);
    }
  }
}

// Malformed bytes mid-burst cost exactly that connection: the frames
// parsed before the damage are answered or forfeited, the peer sees
// Error{kBadRequest} + close, and other connections never notice.
TEST(NetShard, MalformedFrameMidBurstCostsOneConnection) {
  ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.shards = 2;
  TestServer ts(scfg);

  Client healthy(client_config(ts.server.port()));
  healthy.connect();

  RawConn raw(ts.server.port());
  std::vector<std::uint8_t> wire;
  for (std::uint32_t tag = 1; tag <= 2; ++tag) {
    JobRequest req = small_fir(tag);
    req.tag = tag;
    append_frame(wire, MsgType::kSubmitJob, encode_job_request(req));
  }
  const char* garbage = "NOPE not a frame";
  wire.insert(wire.end(),
              reinterpret_cast<const std::uint8_t*>(garbage),
              reinterpret_cast<const std::uint8_t*>(garbage) +
                  std::strlen(garbage));
  raw.send_all(wire);

  // Results may race the parse error; the error must arrive, then EOF.
  bool saw_error = false;
  Frame frame;
  while (raw.recv_frame(frame)) {
    if (frame.type == MsgType::kError) {
      EXPECT_EQ(decode_error(frame.payload, frame.version).code,
                ErrorCode::kBadRequest);
      saw_error = true;
    } else {
      EXPECT_EQ(frame.type, MsgType::kJobResult);
    }
  }
  EXPECT_TRUE(saw_error);

  // The other connection (other shard) is untouched.
  EXPECT_GT(healthy.ping(), 0.0);
  const RemoteResult r = healthy.submit(small_fir(77));
  EXPECT_TRUE(r.ok) << r.error;
}

// Drain with frames already parsed and queued: every accepted job is
// answered before the connection closes.
TEST(NetShard, DrainCompletesQueuedFramesBeforeClosing) {
  ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.runtime.queue_capacity = 16;
  scfg.shards = 2;
  TestServer ts(scfg);

  constexpr std::uint32_t kBurst = 4;
  std::vector<std::uint8_t> wire;
  for (std::uint32_t tag = 1; tag <= kBurst; ++tag) {
    JobRequest req = fat_fir();
    req.tag = tag;
    append_frame(wire, MsgType::kSubmitJob, encode_job_request(req));
  }
  RawConn raw(ts.server.port());
  raw.send_all(wire);

  // Wait until the shard has parsed and admitted the whole burst, then
  // drain mid-flight.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter(ts.server.metrics(), "net.jobs.submitted") < kBurst) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the shard admitted only "
        << counter(ts.server.metrics(), "net.jobs.submitted") << " of "
        << kBurst << " frames within 10 s";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ts.server.request_drain();

  std::size_t results = 0;
  Frame frame;
  while (raw.recv_frame(frame)) {
    ASSERT_EQ(frame.type, MsgType::kJobResult);
    ++results;
  }
  EXPECT_EQ(results, kBurst);
  ts.stop();
  const auto m = ts.server.metrics();
  EXPECT_EQ(counter(m, "net.jobs.completed"), kBurst);
}

// A pipelined client that disconnects mid-burst forfeits its replies
// without hurting the fleet or other connections.
TEST(NetShard, MidBurstDisconnectLeavesServerHealthy) {
  ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.shards = 2;
  TestServer ts(scfg);

  {
    RawConn raw(ts.server.port());
    std::vector<std::uint8_t> wire;
    for (std::uint32_t tag = 1; tag <= 6; ++tag) {
      JobRequest req = fat_fir();
      req.tag = tag;
      append_frame(wire, MsgType::kSubmitJob, encode_job_request(req));
    }
    raw.send_all(wire);
    // Hang up with every job still in flight.
  }

  Client client(client_config(ts.server.port()));
  const RemoteResult r = client.submit(small_fir(5));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.outputs, local_outputs(small_fir(5)));
}

// ---------------------------------------------------------------------------
// Batched submits (protocol v5)

TEST(NetShard, BatchWireRoundTripsBitExact) {
  ServerConfig scfg;
  scfg.runtime.workers = 2;
  scfg.shards = 2;
  TestServer ts(scfg);

  std::vector<JobRequest> reqs;
  std::vector<std::vector<Word>> expected;
  for (std::uint32_t i = 0; i < 6; ++i) {
    reqs.push_back(small_fir(0x600 + i));
    expected.push_back(local_outputs(reqs.back()));
  }

  Client client(client_config(ts.server.port()));
  const auto results = client.submit_batch_wire(reqs, 0xDEAD);
  ASSERT_EQ(results.size(), reqs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok)
        << "entry " << i << ": "
        << (results[i].busy ? "busy" : results[i].error);
    EXPECT_EQ(results[i].outputs, expected[i]) << "entry " << i;
    EXPECT_EQ(results[i].trace_id, 0xDEADu);
  }

  // An empty batch settles client-side without touching the wire.
  EXPECT_TRUE(client.submit_batch_wire({}).empty());

  ts.stop();
  const auto m = ts.server.metrics();
  EXPECT_EQ(counter(m, "net.batch.requests"), 1u);
  EXPECT_EQ(counter(m, "net.batch.jobs"), reqs.size());
  EXPECT_EQ(counter(m, "net.jobs.completed"), reqs.size());
}

// A client hanging up between SubmitJobBatch and the reply forfeits
// the batch; the server survives and serves the next client.
TEST(NetShard, MidBatchDisconnectLeavesServerHealthy) {
  ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.shards = 2;
  TestServer ts(scfg);

  {
    SubmitJobBatchMsg msg;
    msg.tag = 9;
    for (std::uint32_t i = 0; i < 4; ++i) {
      JobRequest req = fat_fir();
      req.tag = i + 1;
      msg.jobs.push_back(std::move(req));
    }
    RawConn raw(ts.server.port());
    std::vector<std::uint8_t> wire;
    append_frame(wire, MsgType::kSubmitJobBatch,
                 encode_submit_job_batch(msg));
    raw.send_all(wire);
    // Hang up with the whole batch still executing.
  }

  Client client(client_config(ts.server.port()));
  const RemoteResult r = client.submit(small_fir(21));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.outputs, local_outputs(small_fir(21)));
}

// Pre-v5 clients are refused batch frames with kBadRequest + close —
// the same gate the v3/v4 message families use.
TEST(NetShard, PreV5ClientsAreRefusedBatchMessages) {
  TestServer ts;

  SubmitJobBatchMsg msg;
  msg.tag = 3;
  msg.jobs.push_back(small_fir(1));
  std::vector<std::uint8_t> wire;
  append_frame(wire, MsgType::kSubmitJobBatch,
               encode_submit_job_batch(msg, 4), 4);
  RawConn raw(ts.server.port());
  raw.send_all(wire);

  Frame reply;
  ASSERT_TRUE(raw.recv_frame(reply));
  ASSERT_EQ(reply.type, MsgType::kError);
  const ErrorMsg err = decode_error(reply.payload, reply.version);
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  EXPECT_NE(err.message.find("protocol v5"), std::string::npos);
  EXPECT_TRUE(raw.recv_eof());
}

// ---------------------------------------------------------------------------
// Queue-depth admission

// With a 2-deep queue and one worker pinned by fat jobs, an 8-deep
// burst must see the full watermark ladder: immediate accepts,
// deferrals, and forced sheds carrying the configured retry hint.
// Every outcome lands in exactly one of accepted/shed.
TEST(NetShard, WatermarkAdmissionDefersAndShedsWithHint) {
  ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.runtime.queue_capacity = 2;
  scfg.admission_max_delay = std::chrono::milliseconds(1);
  scfg.retry_after_hint_ms = 7;
  TestServer ts(scfg);

  constexpr std::uint32_t kBurst = 8;
  std::vector<std::uint8_t> wire;
  JobRequest req = fat_fir();
  for (std::uint32_t tag = 1; tag <= kBurst; ++tag) {
    req.tag = tag;
    append_frame(wire, MsgType::kSubmitJob, encode_job_request(req));
  }
  RawConn raw(ts.server.port());
  raw.send_all(wire);

  std::size_t results = 0;
  std::size_t busy = 0;
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    Frame frame;
    ASSERT_TRUE(raw.recv_frame(frame)) << "reply " << i << " missing";
    if (frame.type == MsgType::kJobResult) {
      ++results;
      continue;
    }
    ASSERT_EQ(frame.type, MsgType::kError);
    const ErrorMsg err = decode_error(frame.payload, frame.version);
    EXPECT_EQ(err.code, ErrorCode::kBusy);
    EXPECT_EQ(err.retry_after_ms, 7u);
    ++busy;
  }
  EXPECT_EQ(results + busy, kBurst);
  EXPECT_GE(busy, 1u) << "2-deep queue absorbed an 8-deep fat burst";
  EXPECT_GE(results, 2u);

  ts.stop();
  const auto m = ts.server.metrics();
  EXPECT_EQ(counter(m, "net.admission.accepted"), results);
  EXPECT_EQ(counter(m, "net.admission.shed"), busy);
  EXPECT_EQ(counter(m, "net.rejects.busy"), busy);
  EXPECT_GE(counter(m, "net.admission.delayed"), 1u);
}

// Explicit watermark overrides pin the band; low == high == 1 over a
// 4-deep queue reproduces the legacy full-queue shed byte-for-byte
// (kBusy, same message text) for v1 clients — no hint tail.
TEST(NetShard, ExplicitWatermarksShedLegacyBytesForV1Clients) {
  ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.runtime.queue_capacity = 4;
  scfg.admission_low = 1;
  scfg.admission_high = 1;
  TestServer ts(scfg);

  constexpr std::uint32_t kBurst = 6;
  std::vector<std::uint8_t> wire;
  JobRequest req = fat_fir();
  for (std::uint32_t tag = 1; tag <= kBurst; ++tag) {
    req.tag = tag;
    append_frame(wire, MsgType::kSubmitJob, encode_job_request(req, 1),
                 1);
  }
  RawConn raw(ts.server.port());
  raw.send_all(wire);

  std::size_t busy = 0;
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    Frame frame;
    ASSERT_TRUE(raw.recv_frame(frame)) << "reply " << i << " missing";
    if (frame.type != MsgType::kError) continue;
    EXPECT_EQ(frame.version, 1u);
    const ErrorMsg err = decode_error(frame.payload, frame.version);
    EXPECT_EQ(err.code, ErrorCode::kBusy);
    EXPECT_NE(err.message.find("resubmit later"), std::string::npos);
    EXPECT_EQ(err.retry_after_ms, 0u);  // v1 payload has no tail
    ++busy;
  }
  EXPECT_GE(busy, 1u);
}

// A v5 batch goes to the fleet as at most one group per worker, and
// each group is admitted as a unit.  Six pipelined 64-entry batches
// against a 2-deep queue with tight watermarks must settle every entry
// exactly once: bit-exact, kBusy with the hint, or (the one malformed
// entry per batch) kBadRequest — and the entry-unit admission counters
// must balance against the batch entries.
TEST(NetShard, BatchGroupsUnderTightWatermarksSettleEveryEntry) {
  ServerConfig scfg;
  scfg.runtime.workers = 2;
  scfg.runtime.queue_capacity = 2;
  scfg.admission_low = 1;
  scfg.admission_high = 2;
  scfg.admission_max_delay = std::chrono::milliseconds(1);
  scfg.retry_after_hint_ms = 7;
  TestServer ts(scfg);

  constexpr std::uint32_t kBatches = 6;
  constexpr std::uint32_t kEntries = 64;
  constexpr std::uint32_t kBadEntry = 10;
  std::map<std::uint32_t, std::vector<Word>> expected;  // by entry tag
  std::vector<std::uint8_t> wire;
  {
    rt::RuntimeConfig rcfg;
    rcfg.workers = 1;
    rt::Runtime local(rcfg);
    for (std::uint32_t b = 0; b < kBatches; ++b) {
      SubmitJobBatchMsg msg;
      msg.tag = 100 + b;
      for (std::uint32_t i = 0; i < kEntries; ++i) {
        JobRequest req = small_fir(b * kEntries + i);
        req.tag = b * kEntries + i + 1;
        if (i == kBadEntry) {
          req.fir_coeffs.clear();  // no taps: refused at conversion
        } else {
          rt::JobResult r = local.submit(to_rt_job(req)).get();
          ASSERT_TRUE(r.ok) << r.error;
          expected[req.tag] = std::move(r.outputs);
        }
        msg.jobs.push_back(std::move(req));
      }
      append_frame(wire, MsgType::kSubmitJobBatch,
                   encode_submit_job_batch(msg));
    }
  }
  RawConn raw(ts.server.port());
  raw.send_all(wire);

  std::size_t ok = 0;
  std::size_t busy = 0;
  std::size_t bad = 0;
  for (std::uint32_t b = 0; b < kBatches; ++b) {
    Frame frame;
    ASSERT_TRUE(raw.recv_frame(frame)) << "batch reply " << b << " missing";
    ASSERT_EQ(frame.type, MsgType::kJobBatchResult);
    const JobBatchResultMsg reply =
        decode_job_batch_result(frame.payload, frame.version);
    ASSERT_EQ(reply.entries.size(), kEntries);
    for (std::uint32_t i = 0; i < kEntries; ++i) {
      const JobBatchEntryMsg& e = reply.entries[i];
      if (e.ok == 1) {
        ASSERT_EQ(expected.count(e.result.tag), 1u) << e.result.tag;
        EXPECT_EQ(e.result.outputs, expected[e.result.tag])
            << "entry tag " << e.result.tag;
        ++ok;
      } else if (e.error.code == ErrorCode::kBusy) {
        EXPECT_EQ(e.error.retry_after_ms, 7u);
        EXPECT_NE(e.error.message.find("resubmit later"), std::string::npos);
        ++busy;
      } else {
        EXPECT_EQ(e.error.code, ErrorCode::kBadRequest);
        EXPECT_EQ(i, kBadEntry);
        ++bad;
      }
    }
  }
  EXPECT_EQ(bad, kBatches);
  EXPECT_EQ(ok + busy + bad, std::size_t{kBatches} * kEntries);

  ts.stop();
  const auto m = ts.server.metrics();
  EXPECT_EQ(counter(m, "net.batch.jobs"), std::uint64_t{kBatches} * kEntries);
  EXPECT_EQ(counter(m, "net.admission.accepted"), ok);
  EXPECT_EQ(counter(m, "net.admission.shed"), busy);
  EXPECT_EQ(counter(m, "net.admission.accepted") +
                counter(m, "net.admission.shed") + bad,
            counter(m, "net.batch.jobs"));
  EXPECT_EQ(counter(m, "net.rejects.busy"), busy);
  EXPECT_EQ(counter(m, "net.jobs.submitted"), ok);
  EXPECT_EQ(counter(m, "net.jobs.completed"), ok);
  EXPECT_EQ(counter(m, "rt.jobs"), ok);
  // Groups, not entries, crossed the queue.
  EXPECT_LT(counter(m, "rt.queue.enqueued"), ok);
}

// ---------------------------------------------------------------------------
// Client pipelining API

TEST(NetShard, SubmitPipelinedMatchesSequentialBitExact) {
  ServerConfig scfg;
  scfg.runtime.workers = 2;
  scfg.shards = 2;
  TestServer ts(scfg);

  std::vector<JobRequest> reqs;
  std::vector<std::vector<Word>> expected;
  for (std::uint32_t i = 0; i < 9; ++i) {
    reqs.push_back(small_fir(0x900 + i));
    expected.push_back(local_outputs(reqs.back()));
  }

  Client client(client_config(ts.server.port()));
  const auto results = client.submit_pipelined(reqs, 4);
  ASSERT_EQ(results.size(), reqs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok)
        << "job " << i << ": "
        << (results[i].busy ? "busy" : results[i].error);
    EXPECT_EQ(results[i].outputs, expected[i]) << "job " << i;
  }
}

}  // namespace
}  // namespace sring::net
