// bench_cycle — simulator cycle throughput across the three execution
// paths: the ConfigMemory interpreter, the per-cycle decoded cycle
// plan, and the fused superstep engine (with the share of cycles it
// ran fused per kernel).
//
// Runs five steady-state kernels (spatial FIR, stand-alone running
// MAC, 5/3 wavelet, block matvec8, full-search motion estimation) on
// the same input three times — plan cache off; plan on with the
// superstep engine off; everything on (the shipped default) — and
// reports simulated cycles per wall-clock second for each path.  The
// run aborts unless all three paths are bit-exact: identical outputs,
// identical cycle counts, identical architectural statistics, and
// (between the per-cycle planned and superstep paths) identical full
// statistics and metrics apart from the ring.superstep.* counters.
//
// The per-run plan/superstep switches defer to the environment
// escape hatches: under SRING_NO_PLAN_CACHE or SRING_NO_SUPERSTEP the
// faster columns degrade to the slower path but every identity check
// still holds — which is exactly what the CI smoke asserts.
//
// Usage:
//   bench_cycle [--samples N] [--reps N] [--json <path>]
//               [--min-speedup X]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/image.hpp"
#include "common/rng.hpp"
#include "dsp/matvec.hpp"
#include "kernels/fir_kernel.hpp"
#include "kernels/jobs.hpp"
#include "kernels/mac_kernel.hpp"
#include "kernels/matvec_kernel.hpp"
#include "kernels/motion_estimation.hpp"
#include "obs/cli.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"

namespace {

using namespace sring;

constexpr RingGeometry kGeom{8, 2, 16};

enum class Path : std::size_t { kInterpreter = 0, kPlanned, kSuperstep };
constexpr std::size_t kPathCount = 3;

std::vector<Word> random_signal(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Word> x(n);
  for (auto& w : x) w = rng.next_word_in(-128, 127);
  return x;
}

Image random_image(std::uint64_t seed, std::size_t w, std::size_t h) {
  Rng rng(seed);
  Image img(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      img.at(x, y) = rng.next_word_in(0, 255);
    }
  }
  return img;
}

std::string arch_stats_string(SystemStats s) {
  s.plan_compiles = 0;
  s.plan_hits = 0;
  s.plan_invalidations = 0;
  s.plan_content_hits = 0;
  s.plan_evictions = 0;
  s.plan_seq_fusions = 0;
  s.plan_seq_hits = 0;
  return s.to_string();
}

/// Metrics snapshot with the ring.superstep.* counters dropped — the
/// only instruments allowed to differ between the per-cycle planned
/// path and the superstep engine.
std::string metrics_without_superstep(const obs::Registry& reg) {
  obs::JsonValue out = obs::JsonValue::object();
  for (const auto& [name, counter] : reg.counters()) {
    if (name.rfind("ring.superstep.", 0) == 0) continue;
    out.set(name, counter.value());
  }
  for (const auto& [name, hist] : reg.histograms()) {
    out.set(name, hist.to_json());
  }
  return out.dump();
}

/// FNV-1a over the output words — a stable digest the CI smoke can
/// compare across environment configurations.
std::uint64_t fnv64(const std::vector<Word>& words) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Word w : words) {
    h = (h ^ (w & 0xffu)) * 0x100000001b3ull;
    h = (h ^ (w >> 8)) * 0x100000001b3ull;
  }
  return h;
}

struct RunMeasure {
  double seconds = 0.0;
  std::uint64_t cycles = 0;
  std::vector<Word> outputs;
  std::string arch_stats;  ///< SystemStats minus the plan counters
  std::string full_stats;  ///< SystemStats including the plan counters
  std::string metrics;     ///< metrics minus ring.superstep.*
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_compiles = 0;
  std::uint64_t plan_invalidations = 0;
  std::uint64_t plan_content_hits = 0;
  std::uint64_t plan_evictions = 0;
  std::uint64_t plan_seq_fusions = 0;
  std::uint64_t plan_seq_hits = 0;
  std::uint64_t superstep_cycles = 0;
};

/// One timed run of a job on the chosen execution path.  The
/// interpreter path disables both knobs explicitly; the faster paths
/// leave the construction-time environment defaults in force so the
/// escape hatches stay observable end to end.
RunMeasure timed_run(const rt::Job& job, Path path) {
  System sys({kGeom, job.link});
  if (path == Path::kInterpreter) {
    sys.ring().set_plan_cache_enabled(false);
  }
  if (path != Path::kSuperstep) {
    sys.set_superstep_enabled(false);
  }
  sys.load(*job.program);
  sys.host().send(job.input);
  const auto t0 = std::chrono::steady_clock::now();
  if (job.run == rt::Job::Run::kUntilOutputs) {
    sys.run_until_outputs(job.expected_outputs, job.max_cycles);
  } else {
    sys.run_until_halt(job.max_cycles, job.drain_cycles);
  }
  const auto t1 = std::chrono::steady_clock::now();

  RunMeasure m;
  m.seconds = std::chrono::duration<double>(t1 - t0).count();
  m.cycles = sys.cycle();
  m.outputs = sys.host().take_received();
  m.arch_stats = arch_stats_string(sys.stats());
  m.full_stats = sys.stats().to_string();
  m.metrics = metrics_without_superstep(sys.metrics());
  m.plan_hits = sys.ring().plan_hits();
  m.plan_compiles = sys.ring().plan_compiles();
  m.plan_invalidations = sys.ring().plan_invalidations();
  m.plan_content_hits = sys.ring().plan_content_hits();
  m.plan_evictions = sys.ring().plan_evictions();
  m.plan_seq_fusions = sys.ring().plan_seq_fusions();
  m.plan_seq_hits = sys.ring().plan_seq_hits();
  m.superstep_cycles = sys.ring().superstep_cycles();
  return m;
}

struct KernelPoint {
  std::string name;
  std::uint64_t cycles = 0;
  double cps[kPathCount] = {0.0, 0.0, 0.0};  ///< cycles/s per Path
  double plan_hit_rate = 0.0;
  std::uint64_t plan_compiles = 0;
  std::uint64_t plan_invalidations = 0;
  /// Detaches whose rewritten content re-attached a cached plan — the
  /// recompiles the content-keyed cache avoided.  True misses (content
  /// never seen compiled before) = invalidations - content_hits.
  std::uint64_t plan_content_hits = 0;
  std::uint64_t plan_evictions = 0;
  std::uint64_t plan_seq_fusions = 0;
  std::uint64_t plan_seq_hits = 0;
  /// Share of the superstep run's cycles executed inside fused
  /// dispatches (controller-driven ones included).
  double superstep_cycle_share = 0.0;
  std::uint64_t outputs_fnv64 = 0;
};

/// Best-of-`reps` measurement for one kernel, with the three-way
/// bit-exactness contract enforced on every repetition.
KernelPoint measure(const rt::Job& job, std::size_t reps) {
  KernelPoint p;
  p.name = job.name;
  for (std::size_t r = 0; r < reps; ++r) {
    RunMeasure m[kPathCount];
    for (std::size_t path = 0; path < kPathCount; ++path) {
      m[path] = timed_run(job, static_cast<Path>(path));
    }
    const RunMeasure& interp = m[0];
    const RunMeasure& planned = m[1];
    const RunMeasure& super = m[2];
    check(planned.outputs == interp.outputs && super.outputs == interp.outputs,
          "bench_cycle: " + job.name + ": outputs diverged between paths");
    check(planned.cycles == interp.cycles && super.cycles == interp.cycles,
          "bench_cycle: " + job.name + ": cycle counts diverged");
    check(planned.arch_stats == interp.arch_stats &&
              super.arch_stats == interp.arch_stats,
          "bench_cycle: " + job.name + ": architectural stats diverged");
    check(super.full_stats == planned.full_stats,
          "bench_cycle: " + job.name +
              ": superstep changed the plan counters");
    check(super.metrics == planned.metrics,
          "bench_cycle: " + job.name +
              ": superstep changed a non-superstep metric");
    p.cycles = super.cycles;
    p.plan_hit_rate = static_cast<double>(super.plan_hits) /
                      static_cast<double>(super.cycles);
    p.plan_compiles = super.plan_compiles;
    p.plan_invalidations = super.plan_invalidations;
    p.plan_content_hits = super.plan_content_hits;
    p.plan_evictions = super.plan_evictions;
    p.plan_seq_fusions = super.plan_seq_fusions;
    p.plan_seq_hits = super.plan_seq_hits;
    p.superstep_cycle_share = static_cast<double>(super.superstep_cycles) /
                              static_cast<double>(super.cycles);
    p.outputs_fnv64 = fnv64(super.outputs);
    for (std::size_t path = 0; path < kPathCount; ++path) {
      const double cps =
          static_cast<double>(m[path].cycles) / m[path].seconds;
      if (cps > p.cps[path]) p.cps[path] = cps;
    }
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sring;
  try {
    const std::string json_path =
        obs::extract_option(argc, argv, "--json").value_or("");
    const std::size_t samples = std::strtoul(
        obs::extract_option(argc, argv, "--samples").value_or("32768").c_str(),
        nullptr, 10);
    const std::size_t reps = std::strtoul(
        obs::extract_option(argc, argv, "--reps").value_or("5").c_str(),
        nullptr, 10);
    // Regression gate: fail the run unless every kernel's end-to-end
    // speedup (superstep vs interpreter) is at least this factor.  0
    // (the default) disables the gate; the CI smoke passes 1.0 so the
    // compiled paths may never fall behind the interpreter.
    const double min_speedup = std::strtod(
        obs::extract_option(argc, argv, "--min-speedup").value_or("0").c_str(),
        nullptr);
    check(samples >= 16, "bench_cycle: --samples must be at least 16");
    check(reps >= 1, "bench_cycle: --reps must be at least 1");

    std::printf("bench_cycle: geometry %zux%zu, %zu samples, best of %zu\n",
                kGeom.layers, kGeom.lanes, samples, reps);

    std::vector<rt::Job> jobs;
    {  // spatial FIR: global-mode steady state, one host word per cycle
      const std::vector<Word> coeffs{5, static_cast<Word>(-3), 2, 1};
      jobs.push_back(kernels::make_spatial_fir_job(
          kGeom, random_signal(11, samples), coeffs));
      jobs.back().name = "fir.spatial";
    }
    {  // running MAC: local-mode steady state, two host words per cycle
      const std::vector<Word> a = random_signal(12, samples);
      const std::vector<Word> b = random_signal(13, samples);
      rt::Job job;
      job.name = "mac.local";
      job.program = std::make_shared<const LoadableProgram>(
          kernels::make_running_mac_program(kGeom));
      job.input.reserve(2 * samples);
      for (std::size_t i = 0; i < samples; ++i) {
        job.input.push_back(a[i]);
        job.input.push_back(b[i]);
      }
      job.run = rt::Job::Run::kUntilOutputs;
      job.expected_outputs = samples;
      job.max_cycles = 64 + 16 * samples;
      jobs.push_back(std::move(job));
    }
    {  // 5/3 wavelet: local-mode multi-slot programs (superstep period 2)
      const std::size_t n = samples & ~std::size_t{1};
      jobs.push_back(kernels::make_dwt53_job(kGeom, random_signal(14, n)));
      jobs.back().name = "dwt53";
    }
    {  // block matvec8: hardware-multiplexed pages, plan recompiles
      const std::size_t n = samples < 64 ? 64 : samples & ~std::size_t{7};
      jobs.push_back(kernels::make_matvec8_job(kGeom, dsp::dct8_matrix_q7(),
                                               random_signal(15, n)));
      jobs.back().name = "matvec8";
    }
    {  // motion estimation: halt-bounded SAD engine with WAIT phases
      const Image ref = random_image(16, 16, 16);
      const Image cand = random_image(17, 16, 16);
      jobs.push_back(
          kernels::make_motion_estimation_job(kGeom, ref, 4, 4, cand, 2));
      jobs.back().name = "motion_est";
    }

    std::vector<KernelPoint> points;
    points.reserve(jobs.size());
    for (const rt::Job& job : jobs) points.push_back(measure(job, reps));

    double worst_speedup = 0.0;
    std::string worst_kernel;
    for (const auto& p : points) {
      const double interp = p.cps[0];
      const double planned = p.cps[1];
      const double super = p.cps[2];
      const double speedup = super / interp;
      if (worst_kernel.empty() || speedup < worst_speedup) {
        worst_speedup = speedup;
        worst_kernel = p.name;
      }
      std::printf(
          "  %-12s %8llu cycles  interp %9.0f cyc/s  planned %9.0f cyc/s"
          "  superstep %9.0f cyc/s  speedup %.2fx\n"
          "  %-12s hit rate %.1f%%  compiles %llu  detaches %llu"
          "  (re-attached %llu, true misses %llu)  seq fusions %llu"
          "  seq hits %llu  evictions %llu  fused %.1f%%\n",
          p.name.c_str(), static_cast<unsigned long long>(p.cycles), interp,
          planned, super, speedup, "", 100.0 * p.plan_hit_rate,
          static_cast<unsigned long long>(p.plan_compiles),
          static_cast<unsigned long long>(p.plan_invalidations),
          static_cast<unsigned long long>(p.plan_content_hits),
          static_cast<unsigned long long>(p.plan_invalidations -
                                          p.plan_content_hits),
          static_cast<unsigned long long>(p.plan_seq_fusions),
          static_cast<unsigned long long>(p.plan_seq_hits),
          static_cast<unsigned long long>(p.plan_evictions),
          100.0 * p.superstep_cycle_share);
    }

    if (min_speedup > 0.0) {
      check(worst_speedup >= min_speedup,
            "bench_cycle: " + worst_kernel + " speedup " +
                std::to_string(worst_speedup) + "x below --min-speedup " +
                std::to_string(min_speedup) + "x");
      std::printf("bench_cycle: all kernels at or above %.2fx (worst: %s %.2fx)\n",
                  min_speedup, worst_kernel.c_str(), worst_speedup);
    }

    RunReport report;
    report.name = "bench_cycle";
    report.extra("schema_version", std::uint64_t{2})
        .extra("samples", std::uint64_t{samples})
        .extra("reps", std::uint64_t{reps})
        .extra("outputs_bit_identical", true);
    obs::JsonValue kernels_json = obs::JsonValue::array();
    for (const auto& p : points) {
      obs::JsonValue jp = obs::JsonValue::object();
      jp.set("kernel", p.name);
      jp.set("sim_cycles", p.cycles);
      jp.set("interpreter_cycles_per_s", p.cps[0]);
      jp.set("percycle_planned_cycles_per_s", p.cps[1]);
      jp.set("planned_cycles_per_s", p.cps[2]);
      jp.set("speedup", p.cps[2] / p.cps[0]);
      jp.set("plan_hit_rate", p.plan_hit_rate);
      jp.set("plan_compiles", p.plan_compiles);
      jp.set("plan_invalidations", p.plan_invalidations);
      jp.set("plan_content_hits", p.plan_content_hits);
      jp.set("plan_true_misses",
             p.plan_invalidations - p.plan_content_hits);
      jp.set("plan_evictions", p.plan_evictions);
      jp.set("plan_seq_fusions", p.plan_seq_fusions);
      jp.set("plan_seq_hits", p.plan_seq_hits);
      jp.set("superstep_cycle_share", p.superstep_cycle_share);
      char digest[19];
      std::snprintf(digest, sizeof digest, "0x%016llx",
                    static_cast<unsigned long long>(p.outputs_fnv64));
      jp.set("outputs_fnv64", digest);
      kernels_json.push_back(std::move(jp));
    }
    report.extra("kernels", std::move(kernels_json));
    maybe_write_run_report(report, json_path);
    return 0;
  } catch (const SimError& e) {
    std::fprintf(stderr, "bench_cycle: %s\n", e.what());
    return 1;
  }
}
