// The served path under load: an in-process net::Server (1 shard,
// 2 workers, default queue) driven over loopback by one load thread.
//
// The load thread speaks the public codec directly over a fixed set of
// non-blocking connections, each keeping `window` requests in flight
// (a closed loop: a connection sends its next request only when a
// reply settles one).  Every request is stamped at send and at its
// decoded reply, so each latency belongs to one request.  Every reply
// is compared word for word with the request's precomputed reference.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "workload.hpp"

namespace perfbench {

/// net::Server running on its own thread for the lifetime of the
/// object; the destructor drains it and joins the thread.
class ServedProgram {
 public:
  ServedProgram();
  ~ServedProgram();

  ServedProgram(const ServedProgram&) = delete;
  ServedProgram& operator=(const ServedProgram&) = delete;

  std::uint16_t port() const noexcept { return server_->port(); }
  sring::obs::Registry metrics() const { return server_->metrics(); }

 private:
  std::unique_ptr<sring::net::Server> server_;
  std::string error_;  ///< what escaped run(), reported on teardown
  std::thread thread_;
};

/// Outcome counts and timings of one pass of requests.
struct PassResult {
  std::uint64_t attempted = 0;  ///< requests sent (retries not counted)
  std::uint64_t completed = 0;  ///< settled with every output correct
  std::uint64_t failed = 0;     ///< busy after retries, error or mismatch
  std::uint64_t mismatched = 0; ///< subset of failed: wrong output words
  std::uint64_t busy_retries = 0;
  std::vector<double> latencies_us;  ///< completed requests, send->reply
  double wall_s = 0.0;           ///< first send -> last settle
  double process_cpu_s = 0.0;    ///< getrusage(RUSAGE_SELF) delta
  double load_thread_cpu_s = 0.0;///< CLOCK_THREAD_CPUTIME_ID delta
  double steal_share = 0.0;      ///< /proc/stat steal / all jiffies
  double busy_steal_share = 0.0; ///< steal / non-idle jiffies
  std::size_t max_threads = 0;   ///< live threads seen during the pass
  bool pool_exhausted = false;   ///< a one-shot pool ran dry early
};

/// The load thread's connections to one ServedProgram.
class LoadGen {
 public:
  LoadGen(const Workload& workload, std::uint16_t port);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Send every request in `reqs` once (windows respected) and wait
  /// for all replies: the set-up pass.
  PassResult run_once(const std::vector<Request>& reqs);

  /// The timed closed loop: keep every window full from the workload
  /// pool for `seconds`, then let the in-flight requests settle.  A
  /// cyclic pool is replayed round-robin; a one-shot pool is consumed
  /// in order and the pass ends early if it runs dry.
  PassResult run_timed(double seconds);

 private:
  struct Conn;
  struct Engine;

  const Workload& workload_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::size_t next_pool_ = 0;  ///< one-shot pools: next unsent request
};

/// CPU seconds of this process so far (getrusage, user + system).
double process_cpu_s();

/// CPU seconds of the calling thread so far.
double thread_cpu_s();

}  // namespace perfbench
