// Loopback integration tests of the DFG compile service behind the
// net server (protocol v3): a submitted graph compiles server-side,
// runs on the worker fleet bit-exact to the local mapper, the second
// submission is a cache hit (no recompile, no validate, compile_us
// absent), mapper/codec diagnostics travel verbatim as kBadRequest
// with the connection surviving, and pre-v3 clients are refused the
// new message types.
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
#include "common/image.hpp"
#include "common/rng.hpp"
#include "mapper/mapper.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "svc/dfg_codec.hpp"
#include "svc/dfg_text.hpp"

namespace sring::net {
namespace {

using mapper::Dfg;
using mapper::DfgOp;

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
  cfg.io_timeout_ms = 10000;  // fail, don't hang
  return cfg;
}

/// Minimal blocking socket for the one byte-level case the Client
/// class deliberately cannot express: a v3 message type inside a
/// pre-v3 frame header.
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

const char* kMacGraph =
    "x input\n"
    "k const 3\n"
    "m mul x k\n"
    "d delay m 1\n"
    "y add m d\n"
    "out output y\n";

std::vector<std::uint8_t> blob_of(const char* text) {
  return svc::encode_dfg(svc::parse_dfg_text(text));
}

std::vector<std::vector<Word>> random_streams(std::size_t count,
                                              std::size_t samples,
                                              std::uint64_t seed) {
  std::vector<std::vector<Word>> streams(count);
  Rng rng(seed);
  for (auto& s : streams) {
    s.resize(samples);
    for (auto& w : s) w = rng.next_word_in(-150, 150);
  }
  return streams;
}

std::uint64_t stat_counter(const StatsReplyMsg& stats, const char* name) {
  for (const auto& [n, v] : stats.counters) {
    if (n == name) return v;
  }
  return 0;
}

TEST(SvcServe, CompileThenRunBitExactWithCacheHitOnResubmit) {
  TestServer ts;
  Client client(client_config(ts.server.port()));
  const auto blob = blob_of(kMacGraph);

  // Local reference: the same compile the server performs.
  const Dfg dfg = svc::parse_dfg_text(kMacGraph);
  const mapper::MappedProgram mapped = mapper::map_dfg(dfg, kGeom);

  const RemoteDfgCompiled compiled = client.compile_dfg(blob, kGeom);
  ASSERT_TRUE(compiled.ok) << compiled.error;
  EXPECT_FALSE(compiled.cache_hit);
  EXPECT_EQ(compiled.dfg_hash, svc::dfg_hash(blob));
  EXPECT_EQ(compiled.input_count, mapped.input_count);
  EXPECT_EQ(compiled.max_latency, mapped.max_latency);
  EXPECT_EQ(compiled.pushes_per_cycle, mapped.pushes_per_cycle);
  EXPECT_EQ(compiled.dnodes_used, mapped.dnodes_used);
  ASSERT_EQ(compiled.outputs.size(), mapped.outputs.size());
  for (std::size_t i = 0; i < mapped.outputs.size(); ++i) {
    EXPECT_EQ(compiled.outputs[i].name, mapped.outputs[i].name);
    EXPECT_EQ(compiled.outputs[i].latency, mapped.outputs[i].latency);
    EXPECT_EQ(compiled.outputs[i].push_rank, mapped.outputs[i].push_rank);
  }

  // First run: already compiled above, so this is a cache hit too.
  const auto streams = random_streams(mapped.input_count, 32, 0xF00D);
  const RemoteDfgResult run1 = client.submit_dfg(blob, streams, kGeom, 77);
  ASSERT_TRUE(run1.ok) << run1.error;
  EXPECT_TRUE(run1.cache_hit);
  EXPECT_EQ(run1.trace_id, 77u);
  EXPECT_EQ(run1.dfg_hash, svc::dfg_hash(blob));
  const mapper::MappedRun local = mapper::run_mapped(mapped, streams);
  EXPECT_EQ(run1.streams, local.outputs);

  // Different data, same graph: still a hit, still bit-exact.
  const auto streams2 = random_streams(mapped.input_count, 48, 0xBEEF);
  const RemoteDfgResult run2 = client.submit_dfg(blob, streams2, kGeom);
  ASSERT_TRUE(run2.ok) << run2.error;
  EXPECT_TRUE(run2.cache_hit);
  EXPECT_EQ(run2.streams, mapper::run_mapped(mapped, streams2).outputs);

  // One miss (the compile_dfg), two hits, one validation — no
  // recompile or re-validate happened on the hit path.
  const StatsReplyMsg stats = client.stats();
  EXPECT_EQ(stat_counter(stats, "svc.compile.misses"), 1u);
  EXPECT_EQ(stat_counter(stats, "svc.compile.hits"), 2u);
  EXPECT_EQ(stat_counter(stats, "svc.compile.validations"), 1u);

  // A cache-hit DfgCompiled reports compile_us == 0: no compile ran.
  const RemoteDfgCompiled again = client.compile_dfg(blob, kGeom);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.compile_us, 0u);
}

TEST(SvcServe, MultiOutputGraphDelacesEveryStream) {
  TestServer ts;
  Client client(client_config(ts.server.port()));
  const char* text =
      "a input\n"
      "b input\n"
      "s add a b\n"
      "d sub a b\n"
      "sum output s\n"
      "diff output d\n";
  const auto blob = blob_of(text);
  const Dfg dfg = svc::parse_dfg_text(text);
  const mapper::MappedProgram mapped = mapper::map_dfg(dfg, kGeom);

  const auto streams = random_streams(2, 40, 0xCAFE);
  const RemoteDfgResult r = client.submit_dfg(blob, streams, kGeom);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.streams.size(), 2u);
  EXPECT_EQ(r.streams, mapper::run_mapped(mapped, streams).outputs);
}

TEST(SvcServe, MapperAndCodecDiagnosticsTravelVerbatim) {
  TestServer ts;
  Client client(client_config(ts.server.port()));

  // Recursive graph — a forward edge through the delay operand, the
  // one cycle shape assemble() permits.
  std::vector<mapper::DfgNode> nodes(3);
  nodes[0].op = DfgOp::kInput;
  nodes[0].name = "x";
  nodes[1].op = DfgOp::kDelay;
  nodes[1].a = 2;
  nodes[1].delay = 1;
  nodes[2].op = DfgOp::kAdd;
  nodes[2].a = 0;
  nodes[2].b = 1;
  const auto recursive =
      svc::encode_dfg(Dfg::assemble(std::move(nodes), {2}));
  std::string expected;
  try {
    const Dfg d = svc::decode_dfg(recursive);
    d.validate();
    (void)mapper::map_dfg(d, kGeom);
    FAIL() << "recursive graph mapped locally";
  } catch (const SimError& e) {
    expected = e.what();
  }
  const RemoteDfgCompiled r1 = client.compile_dfg(recursive, kGeom);
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.error, expected);

  // Output-less graph: Dfg::validate()'s text, via the same wire path.
  const auto no_output = svc::encode_dfg(
      Dfg::assemble({mapper::DfgNode{DfgOp::kInput, 0, 0, 0, 0, "x"}}, {}));
  const RemoteDfgCompiled r2 = client.compile_dfg(no_output, kGeom);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("at least one output"), std::string::npos);

  // Codec-level damage: arity byte corrupted in an otherwise good blob.
  auto bad_arity = blob_of(kMacGraph);
  bad_arity[11] = 2;  // first node is an input (arity 0)
  const RemoteDfgCompiled r3 = client.compile_dfg(bad_arity, kGeom);
  EXPECT_FALSE(r3.ok);
  EXPECT_NE(r3.error.find("arity mismatch"), std::string::npos);

  // Graph too deep for a small ring: map_dfg's own diagnostic.
  std::string deep = "x input\n";
  std::string prev = "x";
  for (int i = 0; i < 12; ++i) {
    deep += "p" + std::to_string(i) + " abs " + prev + "\n";
    prev = "p" + std::to_string(i);
  }
  deep += "o output " + prev + "\n";
  const RemoteDfgCompiled r4 =
      client.compile_dfg(blob_of(deep.c_str()), RingGeometry{4, 2, 16});
  EXPECT_FALSE(r4.ok);
  EXPECT_NE(r4.error.find("map_dfg:"), std::string::npos);

  // After four bad graphs the connection is still alive and serving.
  const auto blob = blob_of(kMacGraph);
  const RemoteDfgCompiled ok = client.compile_dfg(blob, kGeom);
  EXPECT_TRUE(ok.ok) << ok.error;

  const StatsReplyMsg stats = client.stats();
  EXPECT_EQ(stat_counter(stats, "svc.compile.failures"), 4u);
}

TEST(SvcServe, StreamCountMismatchIsATypedRefusal) {
  TestServer ts;
  Client client(client_config(ts.server.port()));
  const auto blob = blob_of(kMacGraph);  // one input
  const RemoteDfgResult r =
      client.submit_dfg(blob, random_streams(2, 8, 1), kGeom);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("input stream"), std::string::npos);
}

TEST(SvcServe, PreV3ClientsAreRefusedDfgMessages) {
  TestServer ts;

  // Client-side gate: a v2-pinned client refuses to encode DFG frames.
  {
    ClientConfig cfg = client_config(ts.server.port());
    cfg.protocol_version = 2;
    Client old_client(cfg);
    EXPECT_THROW((void)old_client.compile_dfg(blob_of(kMacGraph), kGeom),
                 NetError);
    EXPECT_THROW((void)old_client.submit_dfg(blob_of(kMacGraph),
                                             random_streams(1, 4, 2),
                                             kGeom),
                 NetError);
    // The v2 dialect itself still works fine against the v3 server.
    EXPECT_GT(old_client.ping(), 0.0);
  }

  // Server-side gate: a hand-rolled frame carrying the v3 type inside
  // a v2 header answers Error{kBadRequest} and closes the connection.
  SubmitDfgMsg msg;
  msg.tag = 5;
  msg.geometry = kGeom;
  msg.dfg = blob_of(kMacGraph);
  std::vector<std::uint8_t> wire;
  append_frame(wire, MsgType::kSubmitDfg, encode_submit_dfg(msg), 2);
  RawConn raw(ts.server.port());
  raw.send_all(wire);
  Frame reply;
  ASSERT_TRUE(raw.recv_frame(reply));
  ASSERT_EQ(reply.type, MsgType::kError);
  const ErrorMsg err = decode_error(reply.payload, reply.version);
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  EXPECT_NE(err.message.find("protocol v3"), std::string::npos);
  EXPECT_TRUE(raw.recv_eof());
}

TEST(SvcServe, DfgJobNameLandsInTheFlightRecorder) {
  ServerConfig cfg;
  cfg.slow_threshold_us = 0;  // everything is "slow": always captured
  TestServer ts(cfg);
  Client client(client_config(ts.server.port()));
  const auto blob = blob_of(kMacGraph);
  const RemoteDfgResult r =
      client.submit_dfg(blob, random_streams(1, 16, 3), kGeom, 42);
  ASSERT_TRUE(r.ok) << r.error;

  const StatsReplyMsg stats = client.stats(/*include_flight=*/true);
  const std::string want = "dfg/" + svc::dfg_hash_hex(r.dfg_hash);
  bool found = false;
  for (const auto& rec : stats.flight) {
    if (rec.name == want && rec.trace_id == 42) found = true;
  }
  EXPECT_TRUE(found) << "no flight record named " << want;
}

// A shed submit_dfg waits the server's retry_after_ms hint before it
// resubmits, not the client's exponential backoff: the four request
// kinds share submit()'s exchange.  One worker and a one-deep queue
// (both watermarks at 1): a running batch of wide motion searches pins
// the worker and a second batch holds the queue at the high watermark,
// so the DFG job is shed on arrival.
TEST(SvcServe, ShedDfgJobWaitsTheServersRetryHint) {
  ServerConfig cfg;
  cfg.runtime.workers = 1;
  cfg.runtime.queue_capacity = 1;
  cfg.retry_after_hint_ms = 100;
  TestServer ts(cfg);
  ClientConfig ccfg = client_config(ts.server.port());
  ccfg.backoff_initial_ms = 1;
  ccfg.busy_retries = 1;
  Client client(ccfg);
  const auto blob = blob_of(kMacGraph);
  // Compiles inline on the shard (never shed), so the job below hits.
  ASSERT_TRUE(client.compile_dfg(blob, kGeom).ok);

  const auto metric = [&ts](const char* name) {
    const obs::Registry reg = ts.server.metrics();
    const obs::Counter* c = reg.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  const auto wait_for = [](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  };
  const auto me_batch = [](std::uint32_t tag, std::uint32_t jobs) {
    SubmitJobBatchMsg msg;
    msg.tag = tag;
    for (std::uint32_t i = 0; i < jobs; ++i) {
      JobRequest req;
      req.kernel = KernelId::kMotionEstimation;
      req.geometry = kGeom;
      req.tag = tag * 100 + i + 1;
      req.me_ref = Image(16, 16);
      req.me_cand = Image(16, 16);
      req.me_range = kMaxMotionRange;  // 129^2 candidates, ~570k cycles
      msg.jobs.push_back(std::move(req));
    }
    std::vector<std::uint8_t> wire;
    append_frame(wire, MsgType::kSubmitJobBatch,
                 encode_submit_job_batch(msg));
    return wire;
  };
  RawConn raw(ts.server.port());
  raw.send_all(me_batch(1, 12));  // a few hundred ms of work
  ASSERT_TRUE(wait_for([&] { return metric("rt.queue.dequeued") >= 1; }));
  raw.send_all(me_batch(2, 1));
  ASSERT_TRUE(wait_for([&] { return metric("rt.queue.enqueued") >= 2; }));

  const auto t0 = std::chrono::steady_clock::now();
  const RemoteDfgResult r =
      client.submit_dfg(blob, random_streams(1, 16, 4), kGeom);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(metric("net.admission.shed"), 1u);
  EXPECT_GE(waited, std::chrono::milliseconds(cfg.retry_after_hint_ms))
      << (r.busy ? "shed twice" : "shed, then ran");
}

}  // namespace
}  // namespace sring::net
