// Loopback integration tests of the remote job-serving subsystem:
// bit-exactness of every kernels/jobs kernel against direct
// rt::Runtime execution, bounded backpressure (Busy), SimError text
// travelling verbatim, survival under malformed/truncated bytes, idle
// reaping, drain semantics, and client connect-retry.  Every socket
// carries a receive deadline so a regression fails instead of hanging.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/image.hpp"
#include "common/rng.hpp"
#include "dsp/matvec.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/span.hpp"
#include "rt/runtime.hpp"

namespace sring::net {
namespace {

constexpr RingGeometry kGeom{8, 2, 16};

/// Server + run() thread with drain-on-destruction, so a failing
/// assertion never leaves the loop thread dangling.
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

/// Minimal blocking socket for byte-level tests the Client class is
/// deliberately unable to express (pipelining, garbage, half frames).
class RawConn {
 public:
  /// rcvbuf_bytes > 0 shrinks SO_RCVBUF before connect — models a peer
  /// that accepts responses far slower than the server produces them.
  explicit RawConn(std::uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    check(fd_ >= 0, "test: socket() failed");
    if (rcvbuf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
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

  void send_frame(MsgType type, std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> wire;
    append_frame(wire, type, payload);
    send_all(wire);
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

  /// True when the server closes without sending anything further.
  bool recv_eof() {
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> in_;
};

/// One deterministic request per kernels/jobs kernel.
std::vector<JobRequest> all_kernel_requests() {
  std::vector<JobRequest> reqs;

  JobRequest fir;
  fir.kernel = KernelId::kFir;
  fir.geometry = kGeom;
  fir.fir_coeffs = {1, static_cast<Word>(-2), 3, 4};
  fir.input.resize(96);
  Rng rng(0xBEEF);
  for (auto& w : fir.input) w = rng.next_word_in(-128, 127);
  reqs.push_back(std::move(fir));

  JobRequest me;
  me.kernel = KernelId::kMotionEstimation;
  me.geometry = kGeom;
  me.me_ref = Image::synthetic(16, 16, 7);
  me.me_cand = Image::shifted(me.me_ref, 1, -1, 11, 2);
  me.me_rx = 4;
  me.me_ry = 4;
  me.me_range = 2;
  reqs.push_back(std::move(me));

  JobRequest dwt;
  dwt.kernel = KernelId::kDwt53;
  dwt.geometry = kGeom;
  dwt.input.resize(64);
  for (auto& w : dwt.input) w = rng.next_word_in(-128, 127);
  reqs.push_back(std::move(dwt));

  JobRequest mv;
  mv.kernel = KernelId::kMatvec8;
  mv.geometry = kGeom;
  for (const auto& row : dsp::dct8_matrix_q7()) {
    mv.matvec_m.insert(mv.matvec_m.end(), row.begin(), row.end());
  }
  mv.input.resize(32);
  for (auto& w : mv.input) w = rng.next_word_in(-64, 63);
  reqs.push_back(std::move(mv));

  return reqs;
}

ClientConfig client_config(std::uint16_t port) {
  ClientConfig cfg;
  cfg.port = port;
  cfg.io_timeout_ms = 10000;  // deadline, not a hang
  return cfg;
}

// The acceptance bar of the subsystem: for every kernel the jobs
// factories expose, the remote path returns the exact words a direct
// rt::Runtime run returns.
TEST(NetServer, RoundTripAllKernelsBitExact) {
  const std::vector<JobRequest> reqs = all_kernel_requests();

  std::vector<rt::JobResult> expected;
  {
    rt::RuntimeConfig cfg;
    cfg.workers = 2;
    rt::Runtime local(cfg);
    std::vector<rt::Job> jobs;
    for (const auto& req : reqs) jobs.push_back(to_rt_job(req));
    expected = local.submit_batch(std::move(jobs));
  }

  ServerConfig scfg;
  scfg.runtime.workers = 2;
  TestServer ts(scfg);
  Client client(client_config(ts.server.port()));
  const std::vector<RemoteResult> remote = client.submit_batch(reqs);

  ASSERT_EQ(remote.size(), expected.size());
  for (std::size_t i = 0; i < remote.size(); ++i) {
    ASSERT_TRUE(expected[i].ok) << expected[i].error;
    ASSERT_TRUE(remote[i].ok) << remote[i].error;
    EXPECT_EQ(remote[i].outputs, expected[i].outputs)
        << "kernel " << i << " diverged across the wire";
    EXPECT_EQ(remote[i].sim_cycles, expected[i].report.stats.cycles);
    // The per-job observability slice rides along and is consistent.
    bool saw_cycles = false;
    for (const auto& [name, value] : remote[i].counters) {
      if (name == "sim.cycles") {
        saw_cycles = true;
        EXPECT_EQ(value, remote[i].sim_cycles);
      }
    }
    EXPECT_TRUE(saw_cycles);
  }

  ts.stop();
  const auto m = ts.server.metrics();
  EXPECT_EQ(m.find_counter("net.jobs.completed")->value(), reqs.size());
  EXPECT_EQ(m.find_counter("net.jobs.failed")->value(), 0u);
}

// A v5 batch that repeats and varies FIR taps, matvec8 matrices and
// block counts builds one program per distinct set of parameters on
// the server, shared by its entries.  Every entry must still answer
// exactly what its own single submission answers.
TEST(NetServer, BatchSharingProgramsMatchesSingleSubmissions) {
  Rng rng(0x5A4Eull);
  const auto words = [&](std::size_t n, int lo, int hi) {
    std::vector<Word> w(n);
    for (Word& x : w) x = rng.next_word_in(lo, hi);
    return w;
  };
  const std::vector<std::vector<Word>> taps{
      {1, static_cast<Word>(-2), 3}, {4, 5}, {1, static_cast<Word>(-2), 4}};
  const std::vector<std::vector<Word>> matrices{words(64, -128, 127),
                                                words(64, -128, 127)};
  std::vector<JobRequest> reqs = all_kernel_requests();
  for (std::uint32_t i = 0; i < 30; ++i) {
    JobRequest req;
    req.geometry = kGeom;
    switch (i % 3) {
      case 0:
        req.kernel = KernelId::kFir;
        req.fir_coeffs = taps[rng.next_below(taps.size())];
        req.input = words(16 + rng.next_below(32), -128, 127);
        break;
      case 1:
        req.kernel = KernelId::kMatvec8;
        req.matvec_m = matrices[rng.next_below(matrices.size())];
        req.input = words(8 * (1 + rng.next_below(3)), -64, 63);
        break;
      default:
        req.kernel = KernelId::kDwt53;
        req.input = words(2 * (8 + rng.next_below(16)), -128, 127);
        break;
    }
    reqs.push_back(std::move(req));
  }
  for (std::uint32_t i = 0; i < reqs.size(); ++i) reqs[i].tag = i + 1;

  ServerConfig scfg;
  scfg.runtime.workers = 2;
  TestServer ts(scfg);
  Client client(client_config(ts.server.port()));
  const std::vector<RemoteResult> batch = client.submit_batch_wire(reqs);
  ASSERT_EQ(batch.size(), reqs.size());
  // Plan-cache counters describe how warm the pooled System was.
  const auto sim = [](const RemoteResult& r) {
    auto counters = r.counters;
    std::erase_if(counters,
                  [](const auto& c) { return c.first == "sim.plan_hits"; });
    return counters;
  };
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    const RemoteResult single = client.submit(reqs[i]);
    ASSERT_TRUE(batch[i].ok) << batch[i].error;
    ASSERT_TRUE(single.ok) << single.error;
    EXPECT_EQ(batch[i].outputs, single.outputs);
    EXPECT_EQ(batch[i].sim_cycles, single.sim_cycles);
    EXPECT_EQ(sim(batch[i]), sim(single));
  }
}

TEST(NetServer, PingAndServerInfo) {
  ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.runtime.queue_capacity = 7;
  TestServer ts(scfg);

  Client client(client_config(ts.server.port()));
  EXPECT_GT(client.ping(), 0.0);

  const ServerInfoMsg info = client.server_info();
  EXPECT_EQ(info.protocol_version, kProtocolVersion);
  EXPECT_EQ(info.workers, 1u);
  EXPECT_EQ(info.queue_capacity, 7u);
  EXPECT_EQ(info.max_frame_bytes, kDefaultMaxFrameBytes);
  EXPECT_EQ(info.server, "sring-serve");
}

// Bounded backpressure: with workers=1, queue=1 and a fat job at the
// head, a pipelined burst must see Error{kBusy} — and the accepted
// jobs must still come back bit-exact.
TEST(NetServer, QueueFullAnswersBusyWithoutBlocking) {
  JobRequest big;
  big.kernel = KernelId::kFir;
  big.geometry = kGeom;
  big.fir_coeffs = {1, 2};
  big.input.resize(65536);
  for (std::size_t i = 0; i < big.input.size(); ++i) {
    big.input[i] = static_cast<Word>(i & 0x7F);
  }
  std::vector<Word> expected;
  {
    rt::Runtime local;
    rt::JobResult r = local.submit(to_rt_job(big)).get();
    ASSERT_TRUE(r.ok) << r.error;
    expected = std::move(r.outputs);
  }

  ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.runtime.queue_capacity = 1;
  TestServer ts(scfg);

  // Pipeline 8 identical submits in one burst: the worker is stuck on
  // the first for milliseconds while the loop decodes microsecond-cheap
  // frames, so the tiny queue must overflow.
  constexpr std::uint32_t kBurst = 8;
  RawConn raw(ts.server.port());
  std::vector<std::uint8_t> wire;
  for (std::uint32_t tag = 1; tag <= kBurst; ++tag) {
    big.tag = tag;
    append_frame(wire, MsgType::kSubmitJob, encode_job_request(big));
  }
  raw.send_all(wire);

  std::size_t results = 0;
  std::size_t busy = 0;
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    Frame frame;
    ASSERT_TRUE(raw.recv_frame(frame)) << "response " << i << " missing";
    if (frame.type == MsgType::kJobResult) {
      const JobResultMsg msg = decode_job_result(frame.payload);
      EXPECT_EQ(msg.outputs, expected);
      ++results;
    } else {
      ASSERT_EQ(frame.type, MsgType::kError);
      const ErrorMsg err = decode_error(frame.payload);
      EXPECT_EQ(err.code, ErrorCode::kBusy);
      EXPECT_FALSE(err.message.empty());
      ++busy;
    }
  }
  EXPECT_GE(busy, 1u) << "capacity-1 queue absorbed an 8-deep burst";
  // At least the head job is accepted; whether the queue slot is free
  // again for a later submit races against the worker's dequeue.
  EXPECT_GE(results, 1u);
  EXPECT_EQ(results + busy, kBurst);
  raw.close();

  ts.stop();
  const auto m = ts.server.metrics();
  EXPECT_EQ(m.find_counter("net.rejects.busy")->value(), busy);
  EXPECT_EQ(m.find_counter("net.jobs.completed")->value(), results);
}

// A request the jobs factories reject raises a SimError on the server;
// the client must see the identical text, and the connection must stay
// usable afterwards.
TEST(NetServer, SimErrorTextTravelsVerbatim) {
  JobRequest bad;
  bad.kernel = KernelId::kDwt53;
  bad.geometry = kGeom;
  bad.input = {1, 2, 3};  // dwt53 requires an even-length signal

  std::string local_text;
  try {
    (void)to_rt_job(bad);
    FAIL() << "odd-length dwt request unexpectedly built a job";
  } catch (const SimError& e) {
    local_text = e.what();
  }

  TestServer ts;
  Client client(client_config(ts.server.port()));
  const RemoteResult r = client.submit(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.busy);
  EXPECT_EQ(r.error, local_text);

  // Same connection, next request: the server only closed the job, not
  // the conversation.
  EXPECT_GT(client.ping(), 0.0);
}

// A tiny valid frame declaring a huge motion-estimation search range
// must come back as Error{kBadRequest} — not allocate O(range^2)
// memory on the poll thread and crash the server.
TEST(NetServer, MotionRangeBombAnswersBadRequestAndSurvives) {
  TestServer ts;
  Client client(client_config(ts.server.port()));

  JobRequest bomb;
  bomb.kernel = KernelId::kMotionEstimation;
  bomb.geometry = kGeom;
  bomb.me_ref = Image::synthetic(16, 16, 7);
  bomb.me_cand = Image::shifted(bomb.me_ref, 1, -1, 11, 2);
  bomb.me_rx = 4;
  bomb.me_ry = 4;
  bomb.me_range = 0xFFFF;

  const RemoteResult r = client.submit(bomb);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.busy);
  EXPECT_NE(r.error.find("range"), std::string::npos) << r.error;

  // The server shrugged it off and keeps serving on the same socket.
  EXPECT_GT(client.ping(), 0.0);
  const RemoteResult good = client.submit(all_kernel_requests()[1]);
  EXPECT_TRUE(good.ok) << good.error;
}

/// A wire image that stuffs the server's per-connection output buffer
/// well past what the loopback socket buffers can absorb: pings whose
/// pongs the caller never reads.  The count must outsize the kernel's
/// send buffer autotuning (tcp_wmem max, commonly 4 MB) or the pongs
/// never back up into the server's userland buffer.  Build this BEFORE
/// connecting — constructing megabytes can outlast a short
/// idle_timeout, and a silent fresh connection is fair reaping game.
std::vector<std::uint8_t> flood_ping_wire() {
  constexpr std::size_t kFloodPings = 300000;  // ~7 MB of pongs
  std::vector<std::uint8_t> wire;
  for (std::size_t i = 0; i < kFloodPings; ++i) {
    append_frame(wire, MsgType::kPing, encode_ping(i));
  }
  return wire;
}

// A peer that sends requests but never reads its responses must not
// hold graceful drain open forever; the flush phase has a deadline.
TEST(NetServer, DrainForceClosesPeersThatNeverRead) {
  const std::vector<std::uint8_t> wire = flood_ping_wire();
  ServerConfig scfg;
  scfg.drain_flush_timeout = std::chrono::milliseconds(200);
  TestServer ts(scfg);

  RawConn raw(ts.server.port(), /*rcvbuf_bytes=*/4096);
  raw.send_all(wire);
  // Let the loop turn the flood into buffered responses.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  ts.server.request_drain();
  auto joined = std::async(std::launch::async, [&ts] { ts.stop(); });
  ASSERT_EQ(joined.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "drain hung on a peer with an unread output buffer";
}

// Same never-reading peer outside a drain: once it is flagged closing
// (garbage after the flood), the idle timeout must reap it instead of
// waiting forever for the flush.
TEST(NetServer, ClosingConnThatNeverReadsIsReaped) {
  const std::vector<std::uint8_t> wire = flood_ping_wire();
  ServerConfig scfg;
  scfg.idle_timeout = std::chrono::milliseconds(100);
  TestServer ts(scfg);

  RawConn raw(ts.server.port(), /*rcvbuf_bytes=*/4096);
  raw.send_all(wire);
  const auto garbage = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>("????"), 4);
  raw.send_all(garbage);  // closing=true with ~1.4 MB still unflushed

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ts.server.metrics().find_counter("net.timeouts")->value() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "closing connection with unread output was never reaped";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ts.stop();
}

TEST(NetServer, GarbageBytesAnswerErrorAndClose) {
  TestServer ts;
  {
    RawConn raw(ts.server.port());
    const char* garbage = "GET / HTTP/1.1\r\nHost: sring\r\n\r\n";
    raw.send_all(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(garbage),
        std::strlen(garbage)));
    Frame frame;
    ASSERT_TRUE(raw.recv_frame(frame));
    ASSERT_EQ(frame.type, MsgType::kError);
    const ErrorMsg err = decode_error(frame.payload);
    EXPECT_EQ(err.code, ErrorCode::kBadRequest);
    EXPECT_TRUE(raw.recv_eof());
  }
  // The server survived the garbage and serves the next client.
  Client client(client_config(ts.server.port()));
  EXPECT_GT(client.ping(), 0.0);
}

TEST(NetServer, CrcMismatchAnswersErrorAndClose) {
  TestServer ts;
  RawConn raw(ts.server.port());
  std::vector<std::uint8_t> wire;
  append_frame(wire, MsgType::kPing, encode_ping(12345));
  wire[kHeaderBytes] ^= 0x01;
  raw.send_all(wire);
  Frame frame;
  ASSERT_TRUE(raw.recv_frame(frame));
  ASSERT_EQ(frame.type, MsgType::kError);
  const ErrorMsg err = decode_error(frame.payload);
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  EXPECT_NE(err.message.find("CRC"), std::string::npos);
  EXPECT_TRUE(raw.recv_eof());
}

TEST(NetServer, OversizedFrameRejectedFromHeader) {
  TestServer ts;
  RawConn raw(ts.server.port());
  std::vector<std::uint8_t> wire;
  append_frame(wire, MsgType::kSubmitJob, encode_ping(0));
  wire[8] = 0xFF;  // declared payload length -> ~2 GiB
  wire[9] = 0xFF;
  wire[10] = 0xFF;
  wire[11] = 0x7F;
  raw.send_all(std::span<const std::uint8_t>(wire.data(), kHeaderBytes));
  Frame frame;
  ASSERT_TRUE(raw.recv_frame(frame));
  ASSERT_EQ(frame.type, MsgType::kError);
  EXPECT_EQ(decode_error(frame.payload).code, ErrorCode::kBadRequest);
  EXPECT_TRUE(raw.recv_eof());
}

TEST(NetServer, MidFrameDisconnectLeavesServerHealthy) {
  TestServer ts;
  {
    RawConn raw(ts.server.port());
    std::vector<std::uint8_t> wire;
    append_frame(wire, MsgType::kSubmitJob,
                 encode_job_request(all_kernel_requests()[0]));
    // Half a frame, then vanish.
    raw.send_all(std::span<const std::uint8_t>(wire.data(), wire.size() / 2));
    raw.close();
  }
  Client client(client_config(ts.server.port()));
  EXPECT_GT(client.ping(), 0.0);
  const RemoteResult r = client.submit(all_kernel_requests()[2]);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(NetServer, IdleConnectionsAreReaped) {
  ServerConfig scfg;
  scfg.idle_timeout = std::chrono::milliseconds(100);
  TestServer ts(scfg);
  RawConn raw(ts.server.port());
  // Say nothing; the server must hang up within a few poll ticks.
  EXPECT_TRUE(raw.recv_eof());
  ts.stop();
  EXPECT_GE(ts.server.metrics().find_counter("net.timeouts")->value(), 1u);
}

TEST(NetServer, DrainAcksStopsAcceptingAndExits) {
  auto ts = std::make_unique<TestServer>();
  const std::uint16_t port = ts->server.port();

  Client client(client_config(port));
  const RemoteResult r = client.submit(all_kernel_requests()[0]);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(client.drain());

  // run() returns on its own — stop() only joins here.
  ts->stop();
  EXPECT_GE(ts->server.metrics().find_counter("net.drains")->value(), 1u);
  ts.reset();

  // The listening socket is gone: a fresh connect must fail fast.
  ClientConfig ccfg = client_config(port);
  ccfg.connect_attempts = 2;
  ccfg.backoff_initial_ms = 1;
  Client late(ccfg);
  EXPECT_THROW(late.connect(), NetError);
}

TEST(NetClient, ConnectRetriesThenThrowsTyped) {
  // Grab an ephemeral port, then free it: nobody is listening there.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  ClientConfig cfg;
  cfg.port = dead_port;
  cfg.connect_attempts = 3;
  cfg.backoff_initial_ms = 1;
  Client client(cfg);
  EXPECT_THROW(client.connect(), NetError);
  EXPECT_FALSE(client.connected());
}

// ---- pinned served snapshot -----------------------------------------

// A few sequential jobs on a one-worker server: Server::metrics() has
// exactly this name set, and its runtime and ring counters these
// values.  rt.busy_us is wall time, so only its presence is pinned.
TEST(NetServerMetrics, SnapshotNamesAndRuntimeCountersArePinned) {
  const bool telemetry_was = obs::telemetry_enabled();
  obs::set_telemetry_enabled(true);
  ServerConfig scfg;
  scfg.runtime.workers = 1;
  TestServer ts(scfg);
  {
    Client client(client_config(ts.server.port()));
    for (const JobRequest& req : all_kernel_requests()) {
      const RemoteResult r = client.submit(req);
      ASSERT_TRUE(r.ok) << r.error;
    }
  }
  ts.stop();
  const obs::Registry m = ts.server.metrics();

  std::set<std::string> names;
  for (const auto& [name, c] : m.counters()) names.insert(name);
  for (const auto& [name, h] : m.histograms()) names.insert(name);
  const std::set<std::string> want_names{
      "net.admission.accepted", "net.admission.delayed",
      "net.admission.shed", "net.batch.jobs", "net.batch.requests",
      "net.bytes.in", "net.bytes.out", "net.connections.accepted",
      "net.connections.active", "net.connections.closed",
      "net.connections.rejected", "net.drains", "net.frames.in",
      "net.frames.out", "net.gemm.requests", "net.gemm.tile_jobs",
      "net.jobs.completed", "net.jobs.failed", "net.jobs.submitted",
      "net.latency.e2e_us", "net.latency.serialize_us",
      "net.protocol_errors",
      "net.rejects.busy", "net.rejects.shutdown", "net.shard.0.connections",
      "net.shard.0.frames_in", "net.shard.0.jobs", "net.shards",
      "net.timeouts", "ring.plan.compiles", "ring.plan.hits",
      "ring.plan.invalidations", "ring.superstep.cycles",
      "ring.superstep.dispatches", "ring.superstep.trace_cycles",
      "rt.busy_us", "rt.dnode_ops",
      "rt.host_words_in", "rt.host_words_out", "rt.job_cycles", "rt.jobs",
      "rt.latency.arm_us", "rt.latency.execute_us",
      "rt.latency.queue_wait_us", "rt.pool.fast_resets",
      "rt.pool.full_loads", "rt.queue.blocked_pushes", "rt.queue.capacity",
      "rt.queue.depth", "rt.queue.dequeued", "rt.queue.enqueued",
      "rt.queue.max_depth", "rt.queue.rejected_closed",
      "rt.queue.rejected_full", "rt.sim_cycles", "rt.worker.0.jobs",
      "rt.worker.0.pool.fast_resets", "rt.worker.0.pool.full_loads",
      "rt.worker.0.pool.systems", "rt.worker.0.sim_cycles", "rt.workers",
      "svc.compile.evictions", "svc.compile.failures",
      "svc.compile.hits", "svc.compile.latency_us", "svc.compile.misses",
      "svc.compile.validations", "tile.plan.evictions", "tile.plan.hits",
      "tile.plan.misses", "tile.scratch.bytes_filled",
      "tile.scratch.bytes_saved", "tile.scratch.evictions",
      "tile.scratch.hits", "tile.scratch.refills",
  };
  EXPECT_EQ(names, want_names);

  std::map<std::string, std::uint64_t> values;
  for (const auto& [name, c] : m.counters()) {
    const bool pinned = name.rfind("rt.", 0) == 0 ||
                        name.rfind("ring.plan.", 0) == 0 ||
                        name.rfind("ring.superstep.", 0) == 0;
    if (pinned && name != "rt.busy_us") values[name] = c.value();
  }
  const std::map<std::string, std::uint64_t> want_values{
      {"ring.plan.compiles", 11},
      {"ring.plan.hits", 543},
      {"ring.plan.invalidations", 75},
      {"ring.superstep.cycles", 543},
      {"ring.superstep.dispatches", 16},
      {"ring.superstep.trace_cycles", 67},
      {"rt.dnode_ops", 6107},
      {"rt.host_words_in", 4278},
      {"rt.host_words_out", 246},
      {"rt.jobs", 4},
      {"rt.pool.fast_resets", 0},
      {"rt.pool.full_loads", 4},
      {"rt.queue.blocked_pushes", 0},
      {"rt.queue.capacity", 64},
      {"rt.queue.depth", 0},
      {"rt.queue.dequeued", 4},
      {"rt.queue.enqueued", 4},
      {"rt.queue.max_depth", 1},
      {"rt.queue.rejected_closed", 0},
      {"rt.queue.rejected_full", 0},
      {"rt.sim_cycles", 565},
      {"rt.worker.0.jobs", 4},
      {"rt.worker.0.pool.fast_resets", 0},
      {"rt.worker.0.pool.full_loads", 4},
      {"rt.worker.0.pool.systems", 4},
      {"rt.worker.0.sim_cycles", 565},
      {"rt.workers", 1},
  };
  EXPECT_EQ(values, want_values);
  for (const char* name :
       {"rt.latency.queue_wait_us", "rt.latency.arm_us",
        "rt.latency.execute_us", "net.latency.serialize_us",
        "net.latency.e2e_us"}) {
    const obs::Histogram* h = m.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), all_kernel_requests().size()) << name;
  }
  obs::set_telemetry_enabled(telemetry_was);
}

// A server that has answered nothing names no latency or job-tally
// instrument; the first answered job brings each in with one sample.
TEST(NetServerMetrics, TalliesAppearWithTheFirstAnsweredJob) {
  const bool telemetry_was = obs::telemetry_enabled();
  obs::set_telemetry_enabled(true);
  ServerConfig scfg;
  scfg.shards = 2;
  TestServer ts(scfg);
  const auto has = [](const obs::Registry& m, const std::string& prefix) {
    for (const auto& [name, h] : m.histograms()) {
      if (name.rfind(prefix, 0) == 0) return true;
    }
    for (const auto& [name, c] : m.counters()) {
      if (name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  const obs::Registry before = ts.server.metrics();
  for (const char* prefix :
       {"net.latency.", "rt.latency.", "rt.jobs", "rt.worker.", "ring."}) {
    EXPECT_FALSE(has(before, prefix)) << prefix;
  }
  {
    Client client(client_config(ts.server.port()));
    ASSERT_TRUE(client.submit(all_kernel_requests()[0]).ok);
  }
  ts.stop();
  const obs::Registry after = ts.server.metrics();
  for (const char* name :
       {"rt.latency.queue_wait_us", "rt.latency.arm_us",
        "rt.latency.execute_us", "net.latency.serialize_us",
        "net.latency.e2e_us", "rt.job_cycles"}) {
    const obs::Histogram* h = after.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), 1u) << name;
  }
  obs::set_telemetry_enabled(telemetry_was);
}

// ---- live telemetry over the wire -----------------------------------

// GetStats against a loaded server: one consistent snapshot carrying
// shape, cumulative counters, per-phase latency quantiles and — once a
// sampler window catches completions in flight — nonzero rates.
TEST(NetServerStats, SnapshotUnderLoadCarriesQuantilesAndRates) {
  ServerConfig scfg;
  scfg.runtime.workers = 2;
  scfg.runtime.queue_capacity = 9;
  scfg.sample_interval = std::chrono::milliseconds(20);
  TestServer ts(scfg);
  Client client(client_config(ts.server.port()));

  const std::vector<JobRequest> reqs = all_kernel_requests();
  std::size_t completed = 0;
  StatsReplyMsg s;
  bool saw_rate = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  // Keep the server busy until a sampler interval contains completions;
  // rates derive from the newest delta window, so an idle tail would
  // legitimately read 0.
  while (!saw_rate) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "sampler never produced a nonzero completion rate";
    for (const RemoteResult& r : client.submit_batch(reqs)) {
      ASSERT_TRUE(r.ok) << r.error;
      ++completed;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    s = client.stats();
    for (const auto& [name, per_sec] : s.rates) {
      if (name == "net.jobs.completed" && per_sec > 0.0) saw_rate = true;
    }
  }

  EXPECT_GT(s.uptime_us, 0u);
  EXPECT_EQ(s.workers, 2u);
  EXPECT_EQ(s.queue_capacity, 9u);
  EXPECT_GE(s.worker_utilization, 0.0);
  EXPECT_LE(s.worker_utilization, 1.0);

  std::uint64_t counter_completed = 0;
  for (const auto& [name, value] : s.counters) {
    if (name == "net.jobs.completed") counter_completed = value;
  }
  EXPECT_EQ(counter_completed, completed);

  // Every pipeline phase shows up with one sample per completed job,
  // and its quantiles are ordered the way quantiles must be.
  for (const char* name :
       {"rt.latency.queue_wait_us", "rt.latency.arm_us",
        "rt.latency.execute_us", "net.latency.serialize_us",
        "net.latency.e2e_us"}) {
    const StatsQuantileMsg* q = nullptr;
    for (const auto& lat : s.latencies) {
      if (lat.name == name) q = &lat;
    }
    ASSERT_NE(q, nullptr) << name << " missing from the stats reply";
    EXPECT_EQ(q->count, completed) << name;
    EXPECT_LE(q->p50_us, q->p90_us) << name;
    EXPECT_LE(q->p90_us, q->p99_us) << name;
    EXPECT_LE(q->p99_us, static_cast<double>(q->max_us)) << name;
  }
  // A simulated kernel does not execute in zero microseconds.
  for (const auto& lat : s.latencies) {
    if (lat.name == "net.latency.e2e_us") {
      EXPECT_GT(lat.max_us, 0u);
    }
  }
}

// A deliberately slow job must land in the flight recorder with its
// full span timeline and the caller's trace id, and come back over the
// wire when the stats request asks for the flight ring.
TEST(NetServerStats, SlowJobIsCapturedInFlightWithFullTimeline) {
  ServerConfig scfg;
  scfg.slow_threshold_us = 1;  // a multi-ms sim job is always "slow"
  TestServer ts(scfg);
  Client client(client_config(ts.server.port()));

  JobRequest big;
  big.kernel = KernelId::kFir;
  big.geometry = kGeom;
  big.fir_coeffs = {1, 2, 3};
  big.input.resize(65536);
  for (std::size_t i = 0; i < big.input.size(); ++i) {
    big.input[i] = static_cast<Word>(i & 0x7F);
  }
  big.trace_id = 0xC0FFEE;
  const RemoteResult r = client.submit(big);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.trace_id, 0xC0FFEE);
  EXPECT_GT(r.execute_us, 0u);
  EXPECT_GE(r.total_us, r.execute_us);

  const StatsReplyMsg s = client.stats(/*include_flight=*/true);
  const obs::SpanRecord* rec = nullptr;
  for (const auto& span : s.flight) {
    if (span.trace_id == 0xC0FFEE) rec = &span;
  }
  ASSERT_NE(rec, nullptr) << "slow job missing from the flight ring";
  EXPECT_TRUE(rec->ok);
  EXPECT_TRUE(rec->slow);
  EXPECT_FALSE(rec->name.empty());
  EXPECT_GT(rec->sim_cycles, 0u);
  EXPECT_GT(rec->execute_us, 0u);
  EXPECT_GE(rec->e2e_us, rec->execute_us);
  // The wire telemetry tail and the recorder describe the same job.
  EXPECT_EQ(rec->execute_us, r.execute_us);
}

// A v1 client against the v2 server: byte-identical request layout,
// byte-identical results, no telemetry tail — and no GetStats.
TEST(NetServerStats, V1ClientsRoundTripWithoutTelemetryTails) {
  const std::vector<JobRequest> reqs = all_kernel_requests();
  std::vector<rt::JobResult> expected;
  {
    rt::RuntimeConfig cfg;
    cfg.workers = 2;
    rt::Runtime local(cfg);
    std::vector<rt::Job> jobs;
    for (const auto& req : reqs) jobs.push_back(to_rt_job(req));
    expected = local.submit_batch(std::move(jobs));
  }

  ServerConfig scfg;
  scfg.runtime.workers = 2;
  TestServer ts(scfg);
  ClientConfig ccfg = client_config(ts.server.port());
  ccfg.protocol_version = 1;
  Client v1(ccfg);

  const std::vector<RemoteResult> remote = v1.submit_batch(reqs);
  ASSERT_EQ(remote.size(), expected.size());
  for (std::size_t i = 0; i < remote.size(); ++i) {
    ASSERT_TRUE(remote[i].ok) << remote[i].error;
    EXPECT_EQ(remote[i].outputs, expected[i].outputs);
    // v1 frames have no room for the telemetry tail: all zeros.
    EXPECT_EQ(remote[i].trace_id, 0u);
    EXPECT_EQ(remote[i].queue_wait_us, 0u);
    EXPECT_EQ(remote[i].execute_us, 0u);
    EXPECT_EQ(remote[i].total_us, 0u);
  }
  EXPECT_THROW((void)v1.stats(), NetError);
}

// With a flight_dump_path configured, draining the server writes the
// captured ring as JSONL — the post-mortem artifact for a crash-loop
// or a slow-request investigation.
TEST(NetServerStats, DrainWritesTheFlightDump) {
  const std::string path = "test_net_server_flight_dump.jsonl";
  std::remove(path.c_str());

  {
    ServerConfig scfg;
    scfg.slow_threshold_us = 1;
    scfg.flight_dump_path = path;
    TestServer ts(scfg);
    Client client(client_config(ts.server.port()));
    JobRequest req = all_kernel_requests()[0];
    req.trace_id = 0xD00D;
    ASSERT_TRUE(client.submit(req).ok);
    EXPECT_TRUE(client.drain());
    ts.stop();  // run() returned on its own; join + dump happened
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "drain did not write " << path;
  std::string line;
  bool found = false;
  while (std::getline(in, line)) {
    if (line.find("\"trace_id\":53261") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << "captured job missing from the flight dump";
  in.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sring::net
