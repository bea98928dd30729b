// sring_perfbench — the served-path benchmark.
//
//   sring_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0: set up the served program several times (median set-up
// CPU time), then run the untraced closed loop for <s> seconds and
// print the end-to-end metrics.
// --trace 1: an untraced loop for half of <s> (the served wall-clock
// figures, the mean e2e latency the accounting needs, the server's
// queue-wait and admission counters), then the traced per-layer replay
// of the same requests on this thread for the other half.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  Any output that differs from its reference
// makes the exit code 1.  See perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "loadgen.hpp"
#include "obs/cli.hpp"
#include "obs/host_shape.hpp"
#include "obs/json.hpp"
#include "obs/quantile.hpp"
#include "replay.hpp"
#include "workload.hpp"

namespace {

using namespace sring;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Set-ups per run; set-up time is the median of their CPU times.
constexpr int kSetups = 15;

/// One-shot (cold_churn) pool size per timed second: sized well above
/// the rate the workload reaches here, so the pool does not run dry.
constexpr std::size_t kFreshPerSecond = 9000;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return obs::percentile_sorted(v, 0.5);
}

double rss_peak_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Wall-clock figures of a timed phase.  Printed and reported by the
/// traced run, but not bounded: on a shared VM they follow host steal
/// (see README.md).
struct WallFigures {
  double requests_per_s = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

WallFigures wall_figures(const PassResult& r) {
  WallFigures f;
  std::vector<double> lat = r.latencies_us;
  std::sort(lat.begin(), lat.end());
  for (const double x : lat) f.mean_us += x / static_cast<double>(lat.size());
  f.p50_us = obs::percentile_sorted(lat, 0.50);
  f.p99_us = obs::percentile_sorted(lat, 0.99);
  f.requests_per_s = static_cast<double>(r.completed) / r.wall_s;
  return f;
}

void add(std::vector<Metric>& out, std::string name, double value,
         std::string unit) {
  out.push_back({std::move(name), value, std::move(unit)});
}

/// Set up the served program `times` times (construction, connect, one
/// warm-up pass), keeping the last for the timed phase.  Each set-up is
/// timed on the wall clock and in process CPU seconds (all threads).
struct Setup {
  std::unique_ptr<ServedProgram> program;
  std::unique_ptr<LoadGen> load;
  std::vector<double> seconds;
  std::vector<double> cpu_seconds;
};

Setup set_up(const Workload& w, int times) {
  Setup s;
  for (int i = 0; i < times; ++i) {
    s.load.reset();
    s.program.reset();
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    s.program = std::make_unique<ServedProgram>();
    s.load = std::make_unique<LoadGen>(w, s.program->port());
    const PassResult warm = s.load->run_once(w.warmup);
    s.seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    s.cpu_seconds.push_back(process_cpu_s() - cpu0);
    check(warm.failed == 0, "perfbench: set-up pass failed");
  }
  return s;
}

void print_host_record(const std::string& workload, const PassResult& r) {
  const unsigned nproc = std::thread::hardware_concurrency();
  obs::JsonValue host = obs::JsonValue::object();
  host.set("workload", workload);
  host.set("steal_share", r.steal_share);
  host.set("busy_steal_share", r.busy_steal_share);
  host.set("max_threads", static_cast<std::uint64_t>(r.max_threads));
  host.set("nproc", static_cast<std::uint64_t>(nproc));
  host.set("threads_within_nproc", r.max_threads <= nproc);
  host.set("load_threads", static_cast<std::uint64_t>(1));
  host.set("host_shape", obs::host_shape_json());
  std::printf("host %s\n", host.dump().c_str());
  if (r.max_threads > nproc) {
    std::fprintf(stderr,
                 "perfbench: warning: %zu threads ran on %u CPUs; the "
                 "numbers measure the scheduler too\n",
                 r.max_threads, nproc);
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  obs::JsonValue m = obs::JsonValue::object();
  for (const Metric& x : metrics) {
    obs::JsonValue v = obs::JsonValue::object();
    v.set("value", x.value);
    v.set("unit", x.unit);
    m.set(x.name, std::move(v));
  }
  obs::JsonValue out = obs::JsonValue::object();
  out.set("correct", correct);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", std::move(m));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
}

int run(const std::string& name, std::uint64_t seed, double seconds,
        bool trace, const std::string& spans_path) {
  const double served_seconds = trace ? seconds / 2 : seconds;
  const Workload w = make_workload(
      name, seed,
      static_cast<std::size_t>(std::ceil(served_seconds * kFreshPerSecond)) + 64);

  Setup s = set_up(w, trace ? 1 : kSetups);
  const obs::Registry before = s.program->metrics();
  const PassResult r = s.load->run_timed(served_seconds);
  const obs::Registry after = s.program->metrics();
  s.load.reset();
  s.program.reset();

  print_host_record(name, r);
  std::printf(
      "served %s: attempted=%llu completed=%llu failed=%llu mismatched=%llu "
      "busy_retries=%llu wall_s=%.3f%s\n",
      name.c_str(), static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.mismatched),
      static_cast<unsigned long long>(r.busy_retries), r.wall_s,
      r.pool_exhausted ? " (pool ran dry early)" : "");
  check(r.completed > 0, "perfbench: no request completed");

  std::vector<Metric> metrics;
  std::uint64_t attempted = r.attempted;
  std::uint64_t failed = r.failed;
  bool correct = r.mismatched == 0;

  const WallFigures wall = wall_figures(r);
  std::printf(
      "wall %s: requests_per_s=%.1f latency_p50_us=%.1f latency_p99_us=%.1f "
      "(samples=%zu, beyond p99=%zu) at steal share %.4f of all and %.4f of "
      "busy CPU time\n",
      name.c_str(), wall.requests_per_s, wall.p50_us, wall.p99_us,
      r.latencies_us.size(), r.latencies_us.size() / 100, r.steal_share,
      r.busy_steal_share);
  if (!trace) {
    std::printf("setup %s: cpu_s", name.c_str());
    for (const double x : s.cpu_seconds) std::printf(" %.6f", x);
    std::printf(" wall_s");
    for (const double x : s.seconds) std::printf(" %.6f", x);
    std::printf("\n");
    add(metrics, "server_cpu_us_per_request",
        1e6 * (r.process_cpu_s - r.load_thread_cpu_s) /
            static_cast<double>(r.completed),
        "us");
    add(metrics, "setup_s", median(s.cpu_seconds), "s");
    add(metrics, "rss_peak_mb", rss_peak_mb(), "MB");
  } else {
    ServedFigures served;
    served.requests_per_s = wall.requests_per_s;
    served.mean_us = wall.mean_us;
    served.p50_us = wall.p50_us;
    served.p99_us = wall.p99_us;
    served.busy_steal_share = r.busy_steal_share;
    const obs::Histogram* q0 = before.find_histogram("rt.latency.queue_wait_us");
    const obs::Histogram* q1 = after.find_histogram("rt.latency.queue_wait_us");
    if (q1 != nullptr) {
      const std::uint64_t n = q1->count() - (q0 ? q0->count() : 0);
      const std::uint64_t sum = q1->sum() - (q0 ? q0->sum() : 0);
      served.queue_wait_us = n == 0 ? 0.0 : static_cast<double>(sum) / n;
    }
    const auto delta = [&](const char* name) {
      const obs::Counter* c0 = before.find_counter(name);
      const obs::Counter* c1 = after.find_counter(name);
      return static_cast<double>((c1 ? c1->value() : 0) - (c0 ? c0->value() : 0));
    };
    const double admitted =
        delta("net.admission.accepted") + delta("net.admission.shed");
    served.deferred_ratio =
        admitted == 0.0 ? 0.0 : delta("net.admission.delayed") / admitted;
    const ReplayReport rep =
        replay(w, seconds - served_seconds, served, spans_path);
    attempted += rep.attempted;
    failed += rep.mismatched;
    correct = correct && rep.mismatched == 0;
    metrics = rep.metrics;
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto workload = obs::extract_option(argc, argv, "--workload");
    const auto seed = obs::extract_option(argc, argv, "--seed");
    const auto seconds = obs::extract_option(argc, argv, "--seconds");
    const auto trace = obs::extract_option(argc, argv, "--trace");
    const auto spans = obs::extract_option(argc, argv, "--spans");
    if (!workload || !seed || !seconds || argc != 1) {
      std::fprintf(stderr,
                   "usage: sring_perfbench --workload <%s> --seed <n> "
                   "--seconds <s> [--trace 0|1] [--spans <path>]\n",
                   "serve_small|stream_long|fanout|cold_churn");
      return 2;
    }
    const double secs = std::strtod(seconds->c_str(), nullptr);
    check(secs > 0.0, "perfbench: --seconds must be positive");
    return run(*workload, std::strtoull(seed->c_str(), nullptr, 10), secs,
               trace.value_or("0") == "1", spans.value_or(""));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
