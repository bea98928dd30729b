// Loopback integration tests of the tiled-GEMM workload behind the
// net server (protocol v4): a submitted GEMM is planned, staged and
// executed server-side, bit-exact to both the local tile runner and
// the scalar reference; the reply carries the scratchpad behaviour;
// pre-v4 clients are refused the new message type; and a lowering
// failure answers kBadRequest with the connection surviving.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "rt/runtime.hpp"
#include "tile/gemm_runner.hpp"

namespace sring::net {
namespace {

constexpr RingGeometry kGeom{8, 2, 16};

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

ClientConfig client_config(std::uint16_t port) {
  ClientConfig cfg;
  cfg.port = port;
  cfg.io_timeout_ms = 30000;  // fail, don't hang
  return cfg;
}

/// Minimal blocking socket for the one byte-level case the Client
/// class deliberately cannot express: a v4 message type inside a
/// pre-v4 frame header.
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
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_all(std::span<const std::uint8_t> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      check(n > 0, "test: send failed");
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
      if (status != ParseStatus::kNeedMore) return false;
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

// The acceptance bar of the workload family: the served path returns
// the exact words both the local tile runner and the scalar reference
// produce, for ragged shapes, both dtypes and both mappings.
TEST(TileServe, ServedGemmBitExactAgainstLocalAndReference) {
  ServerConfig scfg;
  scfg.runtime.workers = 2;
  TestServer ts(scfg);
  Client client(client_config(ts.server.port()));

  struct Case {
    std::size_t m, k, n;
    tile::Dtype dtype;
    unsigned shift;
    tile::Mapping mapping;
  };
  const Case cases[] = {
      {8, 8, 8, tile::Dtype::kInt8, 0, tile::Mapping::kOutputStationary},
      {17, 9, 13, tile::Dtype::kInt16, 2,
       tile::Mapping::kWeightStationary},
      {24, 16, 24, tile::Dtype::kInt8, 5,
       tile::Mapping::kOutputStationary},
  };
  std::uint64_t seed = 0x5E4Eull;
  for (const Case& c : cases) {
    tile::GemmSpec spec;
    spec.m = c.m;
    spec.k = c.k;
    spec.n = c.n;
    spec.dtype = c.dtype;
    spec.shift = c.shift;
    spec.mapping = c.mapping;
    const auto a = tile::random_operand(spec.m * spec.k, spec.dtype, ++seed);
    const auto b = tile::random_operand(spec.k * spec.n, spec.dtype, ++seed);

    const RemoteGemmResult remote =
        client.submit_gemm(spec, a, b, kGeom, 128, 0xBEEF00 + seed);
    ASSERT_TRUE(remote.ok) << remote.error;
    EXPECT_EQ(remote.c, tile::gemm_reference(spec, a, b));

    rt::RuntimeConfig rcfg;
    rcfg.workers = 2;
    rt::Runtime local(rcfg);
    tile::GemmRunConfig gcfg;
    gcfg.geometry = kGeom;
    const tile::GemmResult direct = tile::run_gemm(local, gcfg, spec, a, b);
    EXPECT_EQ(remote.c, direct.c) << "served GEMM diverged from local";

    // The reply's observability slice matches the local scratchpad
    // behaviour exactly (same planner, same LRU policy).
    EXPECT_EQ(remote.counter("tile.scratch.hits"), direct.scratch_hits);
    EXPECT_EQ(remote.counter("tile.scratch.refills"),
              direct.scratch_refills);
    EXPECT_EQ(remote.counter("tile.jobs"), direct.jobs);
    EXPECT_EQ(remote.sim_cycles, direct.sim_cycles);
    EXPECT_EQ(remote.trace_id, 0xBEEF00 + seed);
  }

  ts.stop();
  const auto m = ts.server.metrics();
  EXPECT_EQ(m.find_counter("net.gemm.requests")->value(), 3u);
  EXPECT_GT(m.find_counter("net.gemm.tile_jobs")->value(), 0u);
  EXPECT_GT(m.find_counter("tile.scratch.hits")->value(), 0u);
  EXPECT_GT(m.find_counter("tile.scratch.bytes_saved")->value(), 0u);
  // One GEMM counts as one completed job, not one per tile.
  EXPECT_EQ(m.find_counter("net.jobs.completed")->value(), 3u);
}

TEST(TileServe, GemmInterleavesWithPlainJobsOnOneConnection) {
  ServerConfig scfg;
  scfg.runtime.workers = 2;
  TestServer ts(scfg);
  Client client(client_config(ts.server.port()));

  tile::GemmSpec spec;
  spec.m = 16;
  spec.k = 16;
  spec.n = 16;
  const auto a = tile::random_operand(spec.m * spec.k, spec.dtype, 1);
  const auto b = tile::random_operand(spec.k * spec.n, spec.dtype, 2);
  const auto want = tile::gemm_reference(spec, a, b);

  JobRequest fir;
  fir.kernel = KernelId::kFir;
  fir.geometry = kGeom;
  fir.fir_coeffs = {1, 2, 3, 4};
  fir.input = tile::random_operand(64, tile::Dtype::kInt8, 3);

  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(client.submit_gemm(spec, a, b, kGeom).c, want);
    ASSERT_TRUE(client.submit(fir).ok);
  }
}

TEST(TileServe, PreV4ClientsAreRefusedGemmMessages) {
  TestServer ts;
  tile::GemmSpec spec;  // 8x8x8
  const auto a = tile::random_operand(64, spec.dtype, 7);
  const auto b = tile::random_operand(64, spec.dtype, 8);

  // Client-side gate: a v3-pinned client refuses to encode the frame.
  {
    ClientConfig cfg = client_config(ts.server.port());
    cfg.protocol_version = 3;
    Client old_client(cfg);
    EXPECT_THROW((void)old_client.submit_gemm(spec, a, b, kGeom),
                 NetError);
    // The v3 dialect itself still works fine against the v4 server.
    EXPECT_GT(old_client.ping(), 0.0);
  }

  // Server-side gate: a hand-rolled frame carrying the v4 type inside
  // a v3 header answers Error{kBadRequest} and closes the connection.
  SubmitGemmMsg msg;
  msg.spec = spec;
  msg.geometry = kGeom;
  msg.a = a;
  msg.b = b;
  std::vector<std::uint8_t> wire;
  append_frame(wire, MsgType::kSubmitGemm, encode_submit_gemm(msg), 3);
  RawConn raw(ts.server.port());
  raw.send_all(wire);
  Frame reply;
  ASSERT_TRUE(raw.recv_frame(reply));
  ASSERT_EQ(reply.type, MsgType::kError);
  const ErrorMsg err = decode_error(reply.payload, reply.version);
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  EXPECT_NE(err.message.find("protocol v4"), std::string::npos);
  EXPECT_TRUE(raw.recv_eof());
}

TEST(TileServe, UnlowerableGeometryAnswersBadRequestAndSurvives) {
  TestServer ts;
  Client client(client_config(ts.server.port()));

  tile::GemmSpec spec;  // 8x8x8
  const auto a = tile::random_operand(64, spec.dtype, 11);
  const auto b = tile::random_operand(64, spec.dtype, 12);
  // 2 layers x 2 lanes = 4 Dnodes: too few for the 8-row matvec page.
  const RemoteGemmResult r =
      client.submit_gemm(spec, a, b, RingGeometry{2, 2, 16});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("8 Dnodes"), std::string::npos) << r.error;

  // The connection survived the refusal; the same client runs the
  // request fine with a lowerable geometry.
  const RemoteGemmResult ok = client.submit_gemm(spec, a, b, kGeom);
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.c, tile::gemm_reference(spec, a, b));
}

tile::GemmSpec gemm_spec(std::size_t m, std::size_t k, std::size_t n,
                         tile::Mapping mapping) {
  tile::GemmSpec spec;
  spec.m = m;
  spec.k = k;
  spec.n = n;
  spec.dtype = tile::Dtype::kInt8;
  spec.shift = 5;
  spec.mapping = mapping;
  return spec;
}

std::uint64_t counter(const obs::Registry& m, const char* name) {
  const obs::Counter* c = m.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

// The server lowers each GEMM in schedule order and submits it as
// contiguous step groups (GemmJobBuilder::group_steps).  A 2-deep queue
// makes the pump hold refused groups, a 1- or 3-tile scratchpad caps
// the group size and forces eviction; none of it may move an output
// word or a scratchpad counter away from the local run.
TEST(TileServe, GroupedGemmsMatchLocalRunsUnderHeldGroupsAndEviction) {
  const tile::GemmSpec specs[] = {
      gemm_spec(32, 16, 24, tile::Mapping::kOutputStationary),
      gemm_spec(24, 24, 16, tile::Mapping::kWeightStationary),
      gemm_spec(40, 24, 56, tile::Mapping::kWeightStationary),  // ragged
  };
  std::uint64_t seed = 0x6A0Bull;
  for (const std::size_t workers : {1u, 2u, 3u}) {
    ServerConfig scfg;
    scfg.runtime.workers = workers;
    scfg.runtime.queue_capacity = 2;
    TestServer ts(scfg);
    Client client(client_config(ts.server.port()));
    rt::RuntimeConfig rcfg;
    rcfg.workers = workers;
    rt::Runtime local(rcfg);

    std::uint64_t tiles = 0;
    std::uint64_t groups = 0;
    for (const std::uint32_t scratch : {1u, 3u, 128u}) {
      for (const tile::GemmSpec& spec : specs) {
        const auto a =
            tile::random_operand(spec.m * spec.k, spec.dtype, ++seed);
        const auto b =
            tile::random_operand(spec.k * spec.n, spec.dtype, ++seed);
        const RemoteGemmResult remote =
            client.submit_gemm(spec, a, b, kGeom, scratch);
        ASSERT_TRUE(remote.ok) << remote.error;
        EXPECT_EQ(remote.c, tile::gemm_reference(spec, a, b))
            << workers << " workers, scratch " << scratch;

        tile::GemmRunConfig gcfg;
        gcfg.geometry = kGeom;
        gcfg.scratch_tiles = scratch;
        const tile::GemmResult direct =
            tile::run_gemm(local, gcfg, spec, a, b);
        EXPECT_EQ(direct.c, remote.c);
        EXPECT_EQ(remote.counter("tile.scratch.hits"), direct.scratch_hits);
        EXPECT_EQ(remote.counter("tile.scratch.refills"),
                  direct.scratch_refills);
        EXPECT_EQ(remote.counter("tile.scratch.evictions"),
                  direct.scratch_evictions);
        EXPECT_EQ(remote.counter("tile.scratch.bytes_filled"),
                  direct.bytes_filled);
        EXPECT_EQ(remote.counter("tile.scratch.bytes_saved"),
                  direct.bytes_saved);
        EXPECT_EQ(remote.counter("tile.jobs"), direct.jobs);
        EXPECT_EQ(remote.sim_cycles, direct.sim_cycles);

        const std::size_t per_group = tile::GemmJobBuilder::group_steps(
            direct.schedule, workers);
        EXPECT_LE(per_group, scratch);
        tiles += direct.jobs;
        groups += (direct.jobs + per_group - 1) / per_group;
      }
    }
    ts.stop();
    const obs::Registry m = ts.server.metrics();
    EXPECT_EQ(counter(m, "net.gemm.tile_jobs"), tiles);
    EXPECT_EQ(counter(m, "rt.jobs"), tiles);
    // One envelope per group: the queue saw groups, not tiles.
    EXPECT_EQ(counter(m, "rt.queue.enqueued"), groups);
    EXPECT_LT(groups, tiles);
    EXPECT_EQ(counter(m, "net.jobs.completed"), 9u);
    // The 2-deep queue refused groups, which the pump held and resent.
    EXPECT_GT(counter(m, "rt.queue.rejected_full"), 0u);
  }
}

// A served GEMM is one request: one e2e sample and one "gemm" flight
// record from admission to reply.  Its tiles add phase samples only.
TEST(TileServe, GemmRecordsOneE2eSampleAndOneFlightRecord) {
  const bool telemetry_was = obs::telemetry_enabled();
  obs::set_telemetry_enabled(true);
  ServerConfig scfg;
  scfg.runtime.workers = 2;
  TestServer ts(scfg);
  Client client(client_config(ts.server.port()));

  const tile::GemmSpec spec =
      gemm_spec(24, 16, 24, tile::Mapping::kOutputStationary);
  const auto a = tile::random_operand(spec.m * spec.k, spec.dtype, 21);
  const auto b = tile::random_operand(spec.k * spec.n, spec.dtype, 22);
  const RemoteGemmResult r = client.submit_gemm(spec, a, b, kGeom, 128, 77);
  ASSERT_TRUE(r.ok) << r.error;
  const std::uint64_t tiles = r.counter("tile.jobs");
  ASSERT_GT(tiles, 1u);

  const StatsReplyMsg stats = ts.server.stats_snapshot(kStatsIncludeFlight);
  std::size_t gemm_records = 0;
  for (const obs::SpanRecord& rec : stats.flight) {
    EXPECT_NE(rec.name, "gemm.tile");
    if (rec.name != "gemm") continue;
    ++gemm_records;
    EXPECT_EQ(rec.trace_id, 77u);
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.sim_cycles, r.sim_cycles);
  }
  EXPECT_EQ(gemm_records, 1u);

  ts.stop();
  const obs::Registry m = ts.server.metrics();
  const obs::Histogram* e2e = m.find_histogram("net.latency.e2e_us");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count(), 1u);
  const obs::Histogram* exec = m.find_histogram("rt.latency.execute_us");
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->count(), tiles);
  obs::set_telemetry_enabled(telemetry_was);
}

/// A FIR job that pins the one worker for tens of milliseconds.
JobRequest fat_fir(std::uint32_t tag) {
  JobRequest req;
  req.tag = tag;
  req.kernel = KernelId::kFir;
  req.geometry = kGeom;
  req.fir_coeffs = {1, 2};
  req.input.resize(std::size_t{1} << 19);
  for (std::size_t i = 0; i < req.input.size(); ++i) {
    req.input[i] = static_cast<Word>(i & 0x7F);
  }
  return req;
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

/// Pin the one worker with a fat job, fill the 1-deep queue with a
/// second, then send a 105-step GEMM over `raw`: its first group is
/// refused and held.  Returns once the server has held it.
void hold_a_gemm_group(TestServer& ts, RawConn& raw,
                       const tile::GemmSpec& spec,
                       const std::vector<Word>& a,
                       const std::vector<Word>& b) {
  std::vector<std::uint8_t> wire;
  append_frame(wire, MsgType::kSubmitJob, encode_job_request(fat_fir(1)));
  raw.send_all(wire);
  ASSERT_TRUE(await_metrics(ts.server, [](const obs::Registry& m) {
    return counter(m, "rt.queue.dequeued") == 1;
  }));
  wire.clear();
  append_frame(wire, MsgType::kSubmitJob, encode_job_request(fat_fir(2)));
  raw.send_all(wire);
  ASSERT_TRUE(await_metrics(ts.server, [](const obs::Registry& m) {
    return counter(m, "rt.queue.depth") == 1;
  }));
  SubmitGemmMsg msg;
  msg.tag = 3;
  msg.spec = spec;
  msg.a = a;
  msg.b = b;
  msg.scratch_tiles = 1;  // one step per group
  wire.clear();
  append_frame(wire, MsgType::kSubmitGemm, encode_submit_gemm(msg));
  raw.send_all(wire);
  ASSERT_TRUE(await_metrics(ts.server, [](const obs::Registry& m) {
    return counter(m, "rt.queue.rejected_full") >= 1;
  }));
}

ServerConfig one_slot_server() {
  ServerConfig scfg;
  scfg.runtime.workers = 1;
  scfg.runtime.queue_capacity = 1;
  return scfg;
}

TEST(TileServe, DisconnectWhileAGroupIsHeldLeavesServerHealthy) {
  TestServer ts(one_slot_server());
  const tile::GemmSpec spec =
      gemm_spec(40, 24, 56, tile::Mapping::kWeightStationary);
  const auto a = tile::random_operand(spec.m * spec.k, spec.dtype, 31);
  const auto b = tile::random_operand(spec.k * spec.n, spec.dtype, 32);
  {
    RawConn raw(ts.server.port());
    hold_a_gemm_group(ts, raw, spec, a, b);
    // Hang up with a group held and the rest of the GEMM unlowered.
  }
  Client client(client_config(ts.server.port()));
  const RemoteGemmResult r = client.submit_gemm(spec, a, b, kGeom, 3);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.c, tile::gemm_reference(spec, a, b));
  ts.stop();  // returns: the orphaned GEMM stopped lowering and failed
  EXPECT_EQ(counter(ts.server.metrics(), "net.gemm.requests"), 2u);
}

TEST(TileServe, DrainWhileAGroupIsHeldAnswersEveryRequest) {
  TestServer ts(one_slot_server());
  const tile::GemmSpec spec =
      gemm_spec(40, 24, 56, tile::Mapping::kWeightStationary);
  const auto a = tile::random_operand(spec.m * spec.k, spec.dtype, 41);
  const auto b = tile::random_operand(spec.k * spec.n, spec.dtype, 42);
  RawConn raw(ts.server.port());
  hold_a_gemm_group(ts, raw, spec, a, b);
  ts.server.request_drain();

  std::size_t fir_results = 0;
  bool gemm_answered = false;
  Frame frame;
  while (raw.recv_frame(frame)) {
    ASSERT_EQ(frame.type, MsgType::kJobResult);
    const JobResultMsg msg = decode_job_result(frame.payload, frame.version);
    if (msg.tag == 3) {
      EXPECT_EQ(msg.outputs, tile::gemm_reference(spec, a, b));
      gemm_answered = true;
    } else {
      ++fir_results;
    }
  }
  EXPECT_EQ(fir_results, 2u);
  EXPECT_TRUE(gemm_answered);
  ts.stop();
}

}  // namespace
}  // namespace sring::net
