// Loopback tests of the server's admission accounting across every
// request kind (single, DFG, v5 batch, tiled GEMM), at one and two
// shards: after a drain every submitted job has exactly one outcome,
// and a peer that hangs up with units parked between the watermarks
// and a GEMM still lowering gets nothing more enqueued while the
// admission counters still balance.  Every socket carries a receive
// deadline so a regression fails instead of hanging.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "svc/dfg_codec.hpp"
#include "svc/dfg_text.hpp"
#include "tile/gemm_ref.hpp"

namespace sring::net {
namespace {

constexpr RingGeometry kGeom{8, 2, 16};

struct TestServer {
  explicit TestServer(ServerConfig cfg)
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

/// Minimal blocking socket: frames out, and a hang-up on demand.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    check(fd_ >= 0, "test: socket() failed");
    timeval tv{};
    tv.tv_sec = 10;  // receive deadline: fail, don't hang
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
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

  void send_frame(MsgType type, std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> wire;
    append_frame(wire, type, payload);
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL);
      check(n > 0, "test: send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_ = -1;
};

ClientConfig client_config(std::uint16_t port) {
  ClientConfig cfg;
  cfg.port = port;
  cfg.io_timeout_ms = 30000;  // fail, don't hang
  return cfg;
}

std::uint64_t counter(const obs::Registry& m, const std::string& name) {
  const obs::Counter* c = m.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

/// Spin until `done(metrics)` holds; false after 10 s.
template <class Pred>
bool await_metrics(const Server& server, Pred done) {
  for (int i = 0; i < 10000; ++i) {
    if (done(server.metrics())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

JobRequest small_fir(std::uint32_t salt) {
  JobRequest req;
  req.tag = salt;
  req.kernel = KernelId::kFir;
  req.geometry = kGeom;
  req.fir_coeffs = {1, static_cast<Word>(-2), 3};
  req.input.resize(48);
  Rng rng(0xACC0000ull + salt);
  for (auto& w : req.input) w = rng.next_word_in(-128, 127);
  return req;
}

/// A FIR job that pins the one worker for tens of milliseconds.
JobRequest fat_fir(std::uint32_t tag) {
  JobRequest req;
  req.tag = tag;
  req.kernel = KernelId::kFir;
  req.geometry = kGeom;
  req.fir_coeffs = {1, 2};
  req.input.resize(std::size_t{1} << 20);
  for (std::size_t i = 0; i < req.input.size(); ++i) {
    req.input[i] = static_cast<Word>(i & 0x7F);
  }
  return req;
}

std::vector<std::uint8_t> mac_dfg() {
  return svc::encode_dfg(svc::parse_dfg_text(
      "x input\nk const 3\nm mul x k\nd delay m 1\ny add m d\n"
      "out output y\n"));
}

std::vector<std::vector<Word>> one_stream(std::size_t samples) {
  std::vector<Word> s(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    s[i] = static_cast<Word>(static_cast<int>(i % 37) - 18);
  }
  return {s};
}

tile::GemmSpec ragged_ws_gemm() {
  tile::GemmSpec spec;
  spec.m = 40;
  spec.k = 24;
  spec.n = 56;
  spec.dtype = tile::Dtype::kInt8;
  spec.shift = 5;
  spec.mapping = tile::Mapping::kWeightStationary;
  return spec;
}

class NetAccounting : public ::testing::TestWithParam<std::size_t> {};

// Per connection, one per shard: two singles and two GEMMs (one of
// each refused before admission: an odd-length DWT signal, an A
// operand shorter than its spec), a DFG job and a v5 batch.  After the
// drain every submitted job has exactly one outcome — a whole GEMM
// counts one job — and every admitted unit was accepted or shed.
TEST_P(NetAccounting, EveryKindBalancesSubmittedAgainstOutcomes) {
  const std::size_t shards = GetParam();
  ServerConfig scfg;
  scfg.runtime.workers = 2;
  scfg.shards = shards;
  TestServer ts(scfg);

  const tile::GemmSpec spec = ragged_ws_gemm();
  const auto a = tile::random_operand(spec.m * spec.k, spec.dtype, 7);
  const auto b = tile::random_operand(spec.k * spec.n, spec.dtype, 8);
  const std::vector<Word> short_a(a.begin(), a.end() - 1);
  std::vector<JobRequest> batch;
  for (std::uint32_t i = 0; i < 5; ++i) batch.push_back(small_fir(10 + i));
  JobRequest bad_dwt;
  bad_dwt.kernel = KernelId::kDwt53;
  bad_dwt.geometry = kGeom;
  bad_dwt.input = {1, 2, 3};  // odd length: refused before admission

  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t s = 0; s < shards; ++s) {
    clients.push_back(
        std::make_unique<Client>(client_config(ts.server.port())));
    clients.back()->connect();  // round-robin: one connection per shard
  }
  for (auto& client : clients) {
    EXPECT_TRUE(client->submit(small_fir(1)).ok);
    EXPECT_FALSE(client->submit(bad_dwt).ok);
    const RemoteDfgResult dfg =
        client->submit_dfg(mac_dfg(), one_stream(40), kGeom);
    EXPECT_TRUE(dfg.ok) << dfg.error;
    for (const RemoteResult& r : client->submit_batch_wire(batch)) {
      EXPECT_TRUE(r.ok) << r.error;
    }
    const RemoteGemmResult gemm = client->submit_gemm(spec, a, b, kGeom, 8);
    ASSERT_TRUE(gemm.ok) << gemm.error;
    EXPECT_EQ(gemm.c, tile::gemm_reference(spec, a, b));
    EXPECT_FALSE(client->submit_gemm(spec, short_a, b, kGeom, 8).ok);
  }
  clients.clear();
  ts.stop();

  const obs::Registry m = ts.server.metrics();
  const std::uint64_t submitted = counter(m, "net.jobs.submitted");
  EXPECT_EQ(submitted, counter(m, "net.jobs.completed") +
                           counter(m, "net.jobs.failed"));
  // Per connection: 1 single + 1 DFG + 5 batch entries + 1 GEMM ran.
  EXPECT_EQ(counter(m, "net.jobs.completed"), 8 * shards);
  EXPECT_EQ(counter(m, "net.gemm.requests"), shards);
  std::uint64_t shard_jobs = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    shard_jobs += counter(m, "net.shard." + std::to_string(s) + ".jobs");
  }
  EXPECT_EQ(shard_jobs, submitted);
  // GEMMs bypass the watermarks; every other admitted unit ends in
  // exactly one of accepted or shed.
  EXPECT_EQ(counter(m, "net.admission.accepted") +
                counter(m, "net.admission.shed"),
            7 * shards);
}

// One worker pinned by a fat job, a second queued, and the watermarks
// at 1 and 2: two singles, a DFG job and a 4-entry batch group park
// between them (a unit that arrives after the worker has caught up is
// admitted instead; the balance holds either way), and a 105-step GEMM
// fills the queue and holds its next group.  Then the peer hangs up.
// Nothing more of its work may reach the fleet, and the drain must
// still balance every counter.
TEST_P(NetAccounting, VanishedPeerSubmitsNothingMore) {
  const std::size_t shards = GetParam();
  ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.runtime.queue_capacity = 2;
  scfg.admission_low = 1;
  scfg.admission_high = 2;
  scfg.admission_max_delay = std::chrono::seconds(10);
  scfg.shards = shards;
  TestServer ts(scfg);

  // With two shards an idle first connection stays on shard 0 and the
  // peer under test lands on shard 1.
  std::unique_ptr<RawConn> idle;
  if (shards > 1) idle = std::make_unique<RawConn>(ts.server.port());
  RawConn raw(ts.server.port());

  raw.send_frame(MsgType::kSubmitJob, encode_job_request(fat_fir(1)));
  ASSERT_TRUE(await_metrics(ts.server, [](const obs::Registry& m) {
    return counter(m, "rt.queue.dequeued") == 1;
  }));
  raw.send_frame(MsgType::kSubmitJob, encode_job_request(fat_fir(2)));
  ASSERT_TRUE(await_metrics(ts.server, [](const obs::Registry& m) {
    return counter(m, "rt.queue.enqueued") == 2;
  }));

  raw.send_frame(MsgType::kSubmitJob, encode_job_request(small_fir(3)));
  raw.send_frame(MsgType::kSubmitJob, encode_job_request(small_fir(4)));
  SubmitDfgJobMsg dfg;
  dfg.tag = 5;
  dfg.dfg = mac_dfg();
  dfg.streams = one_stream(40);
  raw.send_frame(MsgType::kSubmitDfgJob, encode_submit_dfg_job(dfg));
  SubmitJobBatchMsg batch;
  batch.tag = 6;
  for (std::uint32_t i = 0; i < 4; ++i) {
    batch.jobs.push_back(small_fir(20 + i));
  }
  raw.send_frame(MsgType::kSubmitJobBatch, encode_submit_job_batch(batch));
  constexpr std::uint64_t kUnits = 2 + 1 + 4;
  ASSERT_TRUE(await_metrics(ts.server, [](const obs::Registry& m) {
    return counter(m, "net.frames.in") == 6;
  }));

  const tile::GemmSpec spec = ragged_ws_gemm();
  SubmitGemmMsg gemm;
  gemm.tag = 7;
  gemm.spec = spec;
  gemm.a = tile::random_operand(spec.m * spec.k, spec.dtype, 31);
  gemm.b = tile::random_operand(spec.k * spec.n, spec.dtype, 32);
  gemm.scratch_tiles = 1;  // one step per group
  raw.send_frame(MsgType::kSubmitGemm, encode_submit_gemm(gemm));
  ASSERT_TRUE(await_metrics(ts.server, [](const obs::Registry& m) {
    return counter(m, "rt.queue.rejected_full") >= 1;
  }));

  raw.close();
  ASSERT_TRUE(await_metrics(ts.server, [](const obs::Registry& m) {
    return counter(m, "net.connections.closed") == 1;
  }));
  const std::uint64_t enqueued =
      counter(ts.server.metrics(), "rt.queue.enqueued");
  ts.stop();

  const obs::Registry m = ts.server.metrics();
  EXPECT_EQ(counter(m, "rt.queue.enqueued"), enqueued)
      << "work of a vanished peer reached the fleet";
  // 2 fat singles + the other units: each accepted or shed.
  EXPECT_EQ(counter(m, "net.admission.accepted") +
                counter(m, "net.admission.shed"),
            2 + kUnits);
  EXPECT_EQ(counter(m, "net.admission.shed"), counter(m, "net.rejects.busy"));
  EXPECT_EQ(counter(m, "net.jobs.submitted"),
            counter(m, "net.jobs.completed") + counter(m, "net.jobs.failed"));
  EXPECT_EQ(counter(m, "net.gemm.requests"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Shards, NetAccounting, ::testing::Values(1, 2),
                         [](const auto& info) {
                           return std::to_string(info.param) + "shard";
                         });

}  // namespace
}  // namespace sring::net
