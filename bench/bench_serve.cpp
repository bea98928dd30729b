// bench_serve — loopback saturation sweep of the remote job-serving
// stack.
//
// Starts an in-process net::Server on an ephemeral loopback port for
// every sweep point (clients x pipeline depth x shards), drives it
// from C concurrent client threads — sequentially (pipeline 0) or
// with up to W frames in flight per connection (submit_pipelined) —
// and reports jobs/s for every point, plus per-request latency for
// the sequential points only: a pipelined window hides the round
// trips, so wall / n is not a latency and those points report null.
// A point with fewer than 40 samples reports only its median.  The
// server runs the largest --workers count.
//
// First the same jobs run straight through a local rt::Runtime at
// every --workers count (the fleet points, the list starting at 1):
// one untimed warm-up pass each, so every worker's SystemPool and plan
// caches are warm, then five timed passes, the fleets taking turns
// pass by pass.  Each point reports jobs/s, and speedup and efficiency
// over one worker paired pass by pass, as medians with quartiles
// (bench/repeat.hpp).  Every fleet pass and every remote output is
// compared word for word against the 1-worker warm-up pass — a number
// only counts if the runtime and the serving stack stayed bit-exact.
//
// On a single-core host shard and fleet scaling are not measurable
// (shards and workers time-slice one core); the report says so with
// null speedups instead of numbers that look like a scaling
// regression.
//
// Usage:
//   bench_serve [--jobs N] [--clients C[,C...]] [--pipeline W[,W...]]
//               [--shards S[,S...]] [--workers 1[,W...]] [--queue Q]
//               [--mix fir|me|dwt|matvec|mixed] [--json <path>]
//               [--min-jobs-per-s X] [--min-fleet-speedup X]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/image.hpp"
#include "common/rng.hpp"
#include "dsp/matvec.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/cli.hpp"
#include "obs/quantile.hpp"
#include "rt/runtime.hpp"
#include "sim/report.hpp"
#include "repeat.hpp"

namespace {

using namespace sring;

constexpr RingGeometry kGeom{8, 2, 16};

/// Deterministic request batch: request i depends only on (mix, i), so
/// reruns and the local reference build the exact same work.
std::vector<net::JobRequest> build_requests(const std::string& mix,
                                            std::size_t count) {
  std::vector<Word> dct_flat;
  for (const auto& row : dsp::dct8_matrix_q7()) {
    dct_flat.insert(dct_flat.end(), row.begin(), row.end());
  }

  std::vector<net::JobRequest> reqs;
  reqs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(0x5E7Eull + i);
    std::string kind = mix;
    if (mix == "mixed") {
      static const char* kinds[] = {"fir", "me", "dwt", "matvec"};
      kind = kinds[i % 4];
    }
    net::JobRequest req;
    req.geometry = kGeom;
    if (kind == "fir") {
      req.kernel = net::KernelId::kFir;
      req.fir_coeffs = {1, static_cast<Word>(-2), 3, 4};
      req.input.resize(256);
      for (auto& w : req.input) w = rng.next_word_in(-128, 127);
    } else if (kind == "me") {
      req.kernel = net::KernelId::kMotionEstimation;
      req.me_ref = Image::synthetic(16, 16, 31 + i);
      req.me_cand = Image::shifted(req.me_ref, 1, -1, 57 + i, 2);
      req.me_rx = 4;
      req.me_ry = 4;
      req.me_range = 2;
    } else if (kind == "dwt") {
      req.kernel = net::KernelId::kDwt53;
      req.input.resize(256);
      for (auto& w : req.input) w = rng.next_word_in(-128, 127);
    } else if (kind == "matvec") {
      req.kernel = net::KernelId::kMatvec8;
      req.matvec_m = dct_flat;
      req.input.resize(64);
      for (auto& w : req.input) w = rng.next_word_in(-64, 63);
    } else {
      throw SimError("unknown mix '" + mix + "'");
    }
    reqs.push_back(std::move(req));
  }
  return reqs;
}

std::vector<std::size_t> parse_list(const std::string& text,
                                    const char* flag,
                                    bool allow_zero) {
  std::vector<std::size_t> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string tok =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    check(!tok.empty(), std::string("empty entry in ") + flag);
    const std::size_t v = std::strtoul(tok.c_str(), nullptr, 10);
    check(allow_zero || v >= 1,
          std::string(flag) + " entries must be >= 1");
    out.push_back(v);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  check(!out.empty(), std::string("empty ") + flag + " list");
  return out;
}

/// Fewest latency samples a point needs for a p99 and a mean.
constexpr std::size_t kMinTailSamples = 40;

/// Timed passes per fleet point.
constexpr std::size_t kFleetPasses = 5;

/// One sweep point's outcome.  Latencies are per request and exist for
/// the sequential mode only; with fewer than kMinTailSamples samples
/// only the median does.
struct SweepPoint {
  std::size_t clients = 0;
  std::size_t pipeline = 0;  ///< 0 = sequential submit()
  std::size_t shards = 0;
  double seconds = 0.0;
  double jobs_per_s = 0.0;
  std::optional<double> p50_us;
  std::optional<double> p99_us;
  std::optional<double> mean_us;
  std::uint64_t busy_rejects = 0;
};

obs::JsonValue json_or_null(std::optional<double> v) {
  return v ? obs::JsonValue(*v) : obs::JsonValue(nullptr);
}

/// "%7.0f us", or a dash for a latency the point does not report.
std::string us_text(std::optional<double> v) {
  char buf[32];
  if (v) {
    std::snprintf(buf, sizeof(buf), "%7.0f us", *v);
  } else {
    std::snprintf(buf, sizeof(buf), "%7s   ", "-");
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sring;
  try {
    const std::string json_path =
        obs::extract_option(argc, argv, "--json").value_or("");
    const std::string mix =
        obs::extract_option(argc, argv, "--mix").value_or("mixed");
    const std::size_t jobs = std::strtoul(
        obs::extract_option(argc, argv, "--jobs").value_or("96").c_str(),
        nullptr, 10);
    const std::vector<std::size_t> client_counts = parse_list(
        obs::extract_option(argc, argv, "--clients").value_or("2"),
        "--clients", false);
    const std::vector<std::size_t> pipelines = parse_list(
        obs::extract_option(argc, argv, "--pipeline").value_or("0,8"),
        "--pipeline", true);
    const std::vector<std::size_t> shard_counts = parse_list(
        obs::extract_option(argc, argv, "--shards").value_or("1,2"),
        "--shards", false);
    const std::vector<std::size_t> worker_counts = parse_list(
        obs::extract_option(argc, argv, "--workers").value_or("1,2"),
        "--workers", false);
    const std::size_t workers =
        *std::max_element(worker_counts.begin(), worker_counts.end());
    const std::size_t queue = std::strtoul(
        obs::extract_option(argc, argv, "--queue").value_or("64").c_str(),
        nullptr, 10);
    const double min_jobs_per_s = std::strtod(
        obs::extract_option(argc, argv, "--min-jobs-per-s")
            .value_or("0")
            .c_str(),
        nullptr);
    // Fleet gate: fail unless the best multi-worker median speedup
    // reaches this factor (not measurable, and passing, on one core).
    const double min_fleet_speedup = std::strtod(
        obs::extract_option(argc, argv, "--min-fleet-speedup")
            .value_or("0")
            .c_str(),
        nullptr);
    check(jobs >= 1 && queue >= 1,
          "--jobs/--queue must be >= 1");
    check(worker_counts.front() == 1, "--workers must start at 1");

    std::printf(
        "bench_serve: mix=%s jobs=%zu workers=%zu queue=%zu "
        "host_cores=%u\n",
        mix.c_str(), jobs, workers, queue,
        std::thread::hardware_concurrency());

    // Shard and fleet scaling need real parallelism to mean anything:
    // on one core they time-slice, so the comparison reads as noise.
    const bool multicore = std::thread::hardware_concurrency() > 1;
    if (!multicore) {
      std::printf(
          "  WARNING: single-core host — shard and fleet scaling not "
          "measurable (they time-slice one core), reporting null "
          "speedups\n");
    }

    const std::vector<net::JobRequest> reqs = build_requests(mix, jobs);

    // Fleet points: the same jobs straight through local rt::Runtimes.
    std::vector<rt::Job> local_jobs;
    local_jobs.reserve(jobs);
    for (const auto& req : reqs) local_jobs.push_back(net::to_rt_job(req));
    std::vector<std::vector<Word>> expected;  // 1-worker warm-up outputs
    std::vector<std::unique_ptr<rt::Runtime>> fleets;
    std::vector<std::vector<double>> fleet_jps(worker_counts.size());
    const auto run_pass = [&](std::size_t f) {
      std::vector<rt::Job> batch = local_jobs;
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<rt::JobResult> results =
          fleets[f]->submit_batch(std::move(batch));
      const auto t1 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < jobs; ++i) {
        check(results[i].ok, "local job failed: " +
                                 results[i].error);
        if (expected.size() < jobs) {
          expected.push_back(std::move(results[i].outputs));
        } else {
          check(results[i].outputs == expected[i],
                "job " + std::to_string(i) + " DIVERGED at " +
                    std::to_string(worker_counts[f]) + " workers");
        }
      }
      return static_cast<double>(jobs) /
             std::chrono::duration<double>(t1 - t0).count();
    };
    for (const std::size_t w : worker_counts) {
      rt::RuntimeConfig lcfg;
      lcfg.workers = w;
      lcfg.queue_capacity = queue;
      fleets.push_back(std::make_unique<rt::Runtime>(lcfg));
      run_pass(fleets.size() - 1);  // warm-up, untimed
    }
    for (std::size_t pass = 0; pass < kFleetPasses; ++pass) {
      for (std::size_t f = 0; f < fleets.size(); ++f) {
        fleet_jps[f].push_back(run_pass(f));
      }
    }
    obs::JsonValue fleet_json = obs::JsonValue::array();
    double best_fleet_speedup = 0.0;
    for (std::size_t f = 0; f < fleets.size(); ++f) {
      const double w = static_cast<double>(worker_counts[f]);
      std::vector<double> speedups;
      for (std::size_t pass = 0; pass < kFleetPasses; ++pass) {
        speedups.push_back(fleet_jps[f][pass] / fleet_jps[0][pass]);
      }
      const bench::Spread jps = bench::spread_of(fleet_jps[f]);
      const bench::Spread speedup = bench::spread_of(speedups);
      const bench::Spread efficiency{speedup.median / w, speedup.q1 / w,
                                     speedup.q3 / w};
      obs::JsonValue pt = obs::JsonValue::object();
      pt.set("workers", std::uint64_t{worker_counts[f]});
      pt.set("jobs_per_s", bench::to_json(jps));
      std::printf("  fleet workers=%zu  %8.1f jobs/s (%.1f-%.1f)",
                  worker_counts[f], jps.median, jps.q1, jps.q3);
      if (worker_counts[f] > 1 && !multicore) {
        pt.set("speedup", nullptr);
        pt.set("efficiency", nullptr);
        pt.set("null_reason", "single-core host");
      } else if (worker_counts[f] > 1) {
        best_fleet_speedup = std::max(best_fleet_speedup, speedup.median);
        bench::set_speedup(pt, "speedup", speedup);
        if (efficiency.q1 > 1.0) {
          pt.set("efficiency", nullptr);
          pt.set("efficiency_null_reason",
                 "above 100% beyond its quartiles (q1 " +
                     std::to_string(efficiency.q1) +
                     "): not scaling, warm-up or timer noise");
        } else {
          pt.set("efficiency", bench::to_json(efficiency));
        }
        std::printf("  speedup %.2fx (%.2f-%.2f)  efficiency %.0f%%",
                    speedup.median, speedup.q1, speedup.q3,
                    100.0 * efficiency.median);
      }
      const obs::Registry m = fleets[f]->metrics();
      for (const char* name :
           {"rt.sim_cycles", "rt.pool.fast_resets", "rt.pool.full_loads"}) {
        const auto* c = m.find_counter(name);
        pt.set(name, c != nullptr ? c->value() : 0);
      }
      std::printf("\n");
      fleet_json.push_back(std::move(pt));
    }
    fleets.clear();  // their idle workers leave before the server sweep

    std::vector<SweepPoint> points;
    obs::Registry primary_metrics;
    net::StatsReplyMsg primary_stats;

    for (const std::size_t shards : shard_counts) {
      for (const std::size_t clients : client_counts) {
        for (const std::size_t pipeline : pipelines) {
          net::ServerConfig scfg;
          scfg.runtime.workers = workers;
          scfg.runtime.queue_capacity = queue;
          scfg.shards = shards;
          net::Server server(scfg);
          const std::uint16_t port = server.port();
          std::thread server_thread([&server] { server.run(); });

          std::vector<double> latencies_us(jobs, 0.0);
          std::atomic<bool> failed{false};
          const auto verified = [&](std::size_t i,
                                    const net::RemoteResult& r) {
            if (r.ok && r.outputs == expected[i]) return true;
            failed.store(true);
            std::fprintf(stderr, "bench_serve: job %zu %s\n", i,
                         !r.ok ? (r.busy ? "shed as busy"
                                         : ("failed: " + r.error).c_str())
                               : "DIVERGED from local execution");
            return false;
          };

          // Static contiguous chunks per client: deterministic work
          // split, no shared claim counter on the submit path.
          const auto t0 = std::chrono::steady_clock::now();
          std::vector<std::thread> client_threads;
          client_threads.reserve(clients);
          for (std::size_t c = 0; c < clients; ++c) {
            const std::size_t lo = c * jobs / clients;
            const std::size_t hi = (c + 1) * jobs / clients;
            client_threads.emplace_back([&, lo, hi] {
              if (lo == hi) return;
              net::ClientConfig ccfg;
              ccfg.port = port;
              ccfg.busy_retries = 64;  // loaded loopback: spin, don't shed
              net::Client client(ccfg);
              if (pipeline == 0) {
                for (std::size_t i = lo; i < hi && !failed.load(); ++i) {
                  const auto s0 = std::chrono::steady_clock::now();
                  const net::RemoteResult r = client.submit(reqs[i]);
                  const auto s1 = std::chrono::steady_clock::now();
                  latencies_us[i] =
                      std::chrono::duration<double, std::micro>(s1 - s0)
                          .count();
                  if (!verified(i, r)) return;
                }
                return;
              }
              const std::vector<net::JobRequest> chunk(
                  reqs.begin() + static_cast<std::ptrdiff_t>(lo),
                  reqs.begin() + static_cast<std::ptrdiff_t>(hi));
              const std::vector<net::RemoteResult> results =
                  client.submit_pipelined(chunk, pipeline);
              for (std::size_t i = lo; i < hi; ++i) {
                if (!verified(i, results[i - lo])) return;
              }
            });
          }
          for (auto& t : client_threads) t.join();
          const auto t1 = std::chrono::steady_clock::now();

          const obs::Registry m = server.metrics();
          const net::StatsReplyMsg stats = server.stats_snapshot(0);
          server.request_drain();
          server_thread.join();

          check(!failed.load(),
                "remote execution diverged or failed");

          SweepPoint p;
          p.clients = clients;
          p.pipeline = pipeline;
          p.shards = shards;
          p.seconds = std::chrono::duration<double>(t1 - t0).count();
          p.jobs_per_s = static_cast<double>(jobs) / p.seconds;
          if (pipeline == 0) {
            std::vector<double> sorted = latencies_us;
            std::sort(sorted.begin(), sorted.end());
            p.p50_us = obs::percentile_sorted(sorted, 0.50);
            if (sorted.size() >= kMinTailSamples) {
              p.p99_us = obs::percentile_sorted(sorted, 0.99);
              double sum = 0.0;
              for (const double v : sorted) sum += v;
              p.mean_us = sum / static_cast<double>(sorted.size());
            }
          }
          const auto* busy = m.find_counter("net.rejects.busy");
          p.busy_rejects = busy != nullptr ? busy->value() : 0;

          if (points.empty()) {
            primary_metrics = m;
            primary_stats = stats;
          }
          points.push_back(p);
          std::printf(
              "  shards=%zu clients=%zu pipeline=%-3zu %8.1f jobs/s  "
              "p50 %s  p99 %s  mean %s  (busy %llu)\n",
              p.shards, p.clients, p.pipeline, p.jobs_per_s,
              us_text(p.p50_us).c_str(), us_text(p.p99_us).c_str(),
              us_text(p.mean_us).c_str(),
              static_cast<unsigned long long>(p.busy_rejects));
        }
      }
    }

    const SweepPoint& primary = points.front();
    const SweepPoint* peak = &points.front();
    for (const SweepPoint& p : points) {
      if (p.jobs_per_s > peak->jobs_per_s) peak = &p;
    }

    // Shard speedup: best multi-shard point vs best single-shard
    // point.  Only meaningful with real cores underneath.
    double best_single = 0.0;
    double best_multi = 0.0;
    for (const SweepPoint& p : points) {
      if (p.shards == 1) {
        best_single = std::max(best_single, p.jobs_per_s);
      } else {
        best_multi = std::max(best_multi, p.jobs_per_s);
      }
    }
    const bool shard_speedup_measurable =
        multicore && best_single > 0.0 && best_multi > 0.0;
    const double shard_speedup =
        shard_speedup_measurable ? best_multi / best_single : 0.0;

    std::printf(
        "  peak: %8.1f jobs/s at shards=%zu clients=%zu pipeline=%zu\n"
        "  outputs bit-identical to local rt::Runtime execution at "
        "every sweep point\n",
        peak->jobs_per_s, peak->shards, peak->clients, peak->pipeline);
    if (shard_speedup_measurable) {
      std::printf("  shard speedup (best multi / best single): %.2fx\n",
                  shard_speedup);
    }

    const auto counter = [&](const char* name) {
      const auto* c = primary_metrics.find_counter(name);
      return c != nullptr ? c->value() : 0;
    };

    const std::uint64_t plan_compiles = counter("ring.plan.compiles");
    const std::uint64_t plan_hits = counter("ring.plan.hits");
    const double plan_hit_rate =
        plan_compiles + plan_hits > 0
            ? static_cast<double>(plan_hits) /
                  static_cast<double>(plan_compiles + plan_hits)
            : 0.0;
    // The server's histograms follow the same rule: under
    // kMinTailSamples samples only the median.
    const auto tail = [](const net::StatsQuantileMsg& q, double v) {
      return q.count >= kMinTailSamples ? std::optional<double>(v)
                                        : std::nullopt;
    };
    for (const auto& q : primary_stats.latencies) {
      std::printf("  %-28s p50 %s  p90 %s  p99 %s  (n=%llu)\n",
                  q.name.c_str(), us_text(q.p50_us).c_str(),
                  us_text(tail(q, q.p90_us)).c_str(),
                  us_text(tail(q, q.p99_us)).c_str(),
                  static_cast<unsigned long long>(q.count));
    }

    RunReport report;
    report.name = "bench_serve";
    // The flat fields describe the first sweep point (the legacy
    // single-shard sequential shape under default flags); the sweep
    // array carries every point.
    report.extra("schema_version", std::uint64_t{3})
        .extra("mix", mix)
        .extra("jobs", std::uint64_t{jobs})
        .extra("clients", std::uint64_t{primary.clients})
        .extra("pipeline", std::uint64_t{primary.pipeline})
        .extra("shards", std::uint64_t{primary.shards})
        .extra("workers", std::uint64_t{workers})
        .extra("queue_capacity", std::uint64_t{queue})
        .extra("host_cores",
               std::uint64_t{std::thread::hardware_concurrency()})
        .extra("seconds", primary.seconds)
        .extra("jobs_per_s", primary.jobs_per_s)
        .extra("latency_p50_us", json_or_null(primary.p50_us))
        .extra("latency_p99_us", json_or_null(primary.p99_us))
        .extra("latency_mean_us", json_or_null(primary.mean_us))
        .extra("busy_rejects", primary.busy_rejects)
        .extra("frames_in", counter("net.frames.in"))
        .extra("bytes_in", counter("net.bytes.in"))
        .extra("bytes_out", counter("net.bytes.out"))
        .extra("plan_compiles", plan_compiles)
        .extra("plan_hits", plan_hits)
        .extra("plan_hit_rate", plan_hit_rate)
        .extra("superstep_cycles", counter("ring.superstep.cycles"))
        .extra("superstep_dispatches",
               counter("ring.superstep.dispatches"))
        .extra("worker_utilization", primary_stats.worker_utilization)
        .extra("peak_jobs_per_s", peak->jobs_per_s)
        .extra("peak_clients", std::uint64_t{peak->clients})
        .extra("peak_pipeline", std::uint64_t{peak->pipeline})
        .extra("peak_shards", std::uint64_t{peak->shards})
        .extra("shard_speedup", shard_speedup_measurable
                                    ? obs::JsonValue(shard_speedup)
                                    : obs::JsonValue(nullptr))
        .extra("best_fleet_speedup", best_fleet_speedup > 0.0
                                         ? obs::JsonValue(best_fleet_speedup)
                                         : obs::JsonValue(nullptr))
        .extra("fleet_passes", std::uint64_t{kFleetPasses})
        .extra("fleet", std::move(fleet_json))
        .extra("outputs_bit_identical", true);
    obs::JsonValue sweep = obs::JsonValue::array();
    for (const SweepPoint& p : points) {
      obs::JsonValue pt = obs::JsonValue::object();
      pt.set("shards", std::uint64_t{p.shards});
      pt.set("clients", std::uint64_t{p.clients});
      pt.set("pipeline", std::uint64_t{p.pipeline});
      pt.set("seconds", p.seconds);
      pt.set("jobs_per_s", p.jobs_per_s);
      pt.set("latency_p50_us", json_or_null(p.p50_us));
      pt.set("latency_p99_us", json_or_null(p.p99_us));
      pt.set("latency_mean_us", json_or_null(p.mean_us));
      pt.set("busy_rejects", p.busy_rejects);
      sweep.push_back(std::move(pt));
    }
    report.extra("sweep", std::move(sweep));
    for (const auto& q : primary_stats.latencies) {
      obs::JsonValue lat = obs::JsonValue::object();
      lat.set("count", q.count);
      lat.set("mean_us", json_or_null(tail(q, q.mean_us)));
      lat.set("p50_us", q.p50_us);
      lat.set("p90_us", json_or_null(tail(q, q.p90_us)));
      lat.set("p99_us", json_or_null(tail(q, q.p99_us)));
      lat.set("max_us", q.max_us);
      report.extra(q.name, std::move(lat));
    }
    maybe_write_run_report(report, json_path);

    // Regression gate, same shape as bench_cycle --min-speedup: the
    // sweep's peak throughput must clear the bar.
    if (min_jobs_per_s > 0.0) {
      check(peak->jobs_per_s >= min_jobs_per_s,
            "peak " + std::to_string(peak->jobs_per_s) +
                " jobs/s below --min-jobs-per-s " +
                std::to_string(min_jobs_per_s));
      std::printf("  GATE OK: peak %.1f jobs/s >= %.1f\n",
                  peak->jobs_per_s, min_jobs_per_s);
    }
    if (min_fleet_speedup > 0.0 && best_fleet_speedup == 0.0) {
      std::printf("  --min-fleet-speedup not measurable (single-core host "
                  "or no multi-worker point), passing\n");
    } else if (min_fleet_speedup > 0.0) {
      check(best_fleet_speedup >= min_fleet_speedup,
            "best fleet speedup " +
                std::to_string(best_fleet_speedup) +
                "x below --min-fleet-speedup " +
                std::to_string(min_fleet_speedup) + "x");
      std::printf("  GATE OK: fleet speedup %.2fx >= %.2fx\n",
                  best_fleet_speedup, min_fleet_speedup);
    }
    return 0;
  } catch (const SimError& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    return 1;
  }
}
