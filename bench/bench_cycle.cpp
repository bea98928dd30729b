// bench_cycle — simulator cycle throughput across the three ways a
// cycle can run: the ConfigMemory interpreter, one planned cycle per
// Ring::step (a one-cycle run of the plan's superstep tape — the
// "percycle planned" column), and fused superstep dispatches over the
// same tape (with the share of cycles it ran fused per kernel, and the
// share replayed from a controller loop tape).
//
// Runs five steady-state kernels (spatial FIR, stand-alone running
// MAC, 5/3 wavelet, block matvec8, full-search motion estimation, its
// search range scaled so it runs about --samples cycles) and an
// all-local MAC ring of 8, 16, 64 and 256 Dnodes (rows ring.8 ...
// ring.256: how the cost of a cycle grows with the ring) on the same
// input three times — plan cache off (Ring::set_plan_cache_enabled),
// stepped (one System::step() per cycle under the run_* stop rules,
// tests/stepped_run.hpp, the reference the tests use too), and the
// System's own run loop (the shipped default) — and reports simulated
// cycles per wall-clock second for each path.  The run aborts unless
// all three paths are bit-exact: identical outputs, identical cycle
// counts, identical architectural statistics, and (between the stepped
// planned and superstep paths) identical full statistics and metrics
// apart from the ring.superstep.* counters.  Every cycles/s figure and
// speedup is the median of --reps repeats with its quartiles
// (bench/repeat.hpp).
//
// Usage:
//   bench_cycle [--samples N] [--reps N] [--json <path>]
//               [--min-speedup X]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "asm/program_builder.hpp"
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
#include "../tests/stepped_run.hpp"
#include "repeat.hpp"

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

/// A ring of `dnodes` Dnodes (layers at most 32, lanes doubling past
/// that) whose every Dnode runs in1 * in2 + imm in local mode, for
/// `cycles` cycles after the controller halts: in1 and in2 are the
/// upstream Dnodes in its own lane and the next one, and imm is its own
/// odd local immediate.  Switch 0 forwards lane 0 of the last layer to
/// the host every cycle, so the digest depends on every Dnode.
rt::Job all_mac_ring_job(std::size_t dnodes, std::size_t cycles) {
  RingGeometry g{dnodes / 2, 2, 16};
  while (g.layers > 32) {
    g.layers /= 2;
    g.lanes *= 2;
  }
  ProgramBuilder pb(g, "all_mac");
  PageBuilder page(g);
  for (std::size_t l = 0; l < g.layers; ++l) {
    for (std::size_t k = 0; k < g.lanes; ++k) {
      page.mode(l, k, DnodeMode::kLocal);
      SwitchRoute r;
      r.in1 = PortRoute::prev(static_cast<std::uint8_t>(k));
      r.in2 = PortRoute::prev(static_cast<std::uint8_t>((k + 1) % g.lanes));
      r.host_out_en = l == 0 && k == 0;
      page.route(l, k, r);
    }
  }
  pb.add_page(std::move(page));
  DnodeInstr mac;
  mac.op = DnodeOp::kMac;
  mac.src_a = DnodeSrc::kIn1;
  mac.src_b = DnodeSrc::kIn2;
  mac.src_c = DnodeSrc::kImm;
  mac.dst = DnodeDst::kR0;
  mac.out_en = true;
  for (std::size_t d = 0; d < g.dnode_count(); ++d) {
    mac.imm = static_cast<Word>(2 * d + 1);
    pb.local_program(d, {mac});
  }
  pb.page_switch(0);
  pb.halt();
  rt::Job job;
  job.name = "ring." + std::to_string(dnodes);
  job.program =
      std::make_shared<const LoadableProgram>(std::move(pb).build());
  job.drain_cycles = cycles;
  return job;
}

std::string arch_stats_string(SystemStats s) {
  s.plan_compiles = 0;
  s.plan_hits = 0;
  s.plan_invalidations = 0;
  s.plan_content_hits = 0;
  s.plan_evictions = 0;
  return s.to_string();
}

/// Metrics snapshot with the ring.superstep.* counters dropped — the
/// only instruments allowed to differ between stepped planned cycles
/// and fused superstep dispatches.
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
  std::vector<Word> outputs;
  /// Its plan_content_hits count the detaches whose rewritten
  /// configuration re-attached a cached plan of the same structure —
  /// the recompiles the structure-keyed cache avoided.  True misses
  /// (structure never seen compiled before) = invalidations -
  /// content_hits.
  SystemStats stats;
  std::string arch_stats;  ///< stats minus the plan counters
  std::string metrics;     ///< metrics minus ring.superstep.*
  /// Cycles executed inside fused dispatches (controller-driven ones
  /// included), and those replayed from a controller loop tape.
  std::uint64_t superstep_cycles = 0;
  std::uint64_t trace_cycles = 0;
};

/// One timed run of a job on the chosen execution path: the
/// interpreter and the stepped planned path run one step() per cycle,
/// the superstep path the System's own run loop.
RunMeasure timed_run(const rt::Job& job, Path path) {
  System sys({job.program->geometry, job.link});
  if (path == Path::kInterpreter) {
    sys.ring().set_plan_cache_enabled(false);
  }
  sys.load(*job.program);
  sys.host().send(job.input);
  const auto t0 = std::chrono::steady_clock::now();
  Drive{.stepped = path != Path::kSuperstep}.job(sys, job);
  const auto t1 = std::chrono::steady_clock::now();

  RunMeasure m;
  m.seconds = std::chrono::duration<double>(t1 - t0).count();
  m.outputs = sys.host().take_received();
  m.stats = sys.stats();
  m.arch_stats = arch_stats_string(m.stats);
  m.metrics = metrics_without_superstep(sys.metrics());
  m.superstep_cycles = sys.ring().superstep_cycles();
  m.trace_cycles = sys.ring().trace_cycles();
  return m;
}

struct KernelPoint {
  std::string name;
  std::size_t dnodes = 0;
  RunMeasure super;               ///< the last superstep run
  bench::Spread cps[kPathCount];  ///< cycles/s per Path
  bench::Spread speedup;          ///< superstep / interpreter, per rep
};

/// `reps` measurements of one kernel, with the three-way bit-exactness
/// contract enforced on every repetition.
KernelPoint measure(const rt::Job& job, std::size_t reps) {
  KernelPoint p;
  p.name = job.name;
  p.dnodes = job.program->geometry.dnode_count();
  std::vector<double> cps[kPathCount];
  std::vector<double> speedups;
  for (std::size_t r = 0; r < reps; ++r) {
    RunMeasure m[kPathCount];
    for (std::size_t path = 0; path < kPathCount; ++path) {
      m[path] = timed_run(job, static_cast<Path>(path));
    }
    const RunMeasure& interp = m[0];
    const RunMeasure& planned = m[1];
    const RunMeasure& super = m[2];
    check(planned.outputs == interp.outputs && super.outputs == interp.outputs,
          job.name + ": outputs diverged between paths");
    check(planned.stats.cycles == interp.stats.cycles &&
              super.stats.cycles == interp.stats.cycles,
          job.name + ": cycle counts diverged");
    check(planned.arch_stats == interp.arch_stats &&
              super.arch_stats == interp.arch_stats,
          job.name + ": architectural stats diverged");
    check(super.stats.to_string() == planned.stats.to_string(),
          job.name +
              ": superstep changed the plan counters");
    check(super.metrics == planned.metrics,
          job.name +
              ": superstep changed a non-superstep metric");
    for (std::size_t path = 0; path < kPathCount; ++path) {
      cps[path].push_back(static_cast<double>(m[path].stats.cycles) /
                          m[path].seconds);
    }
    speedups.push_back(cps[2].back() / cps[0].back());
    p.super = std::move(m[2]);
  }
  for (std::size_t path = 0; path < kPathCount; ++path) {
    p.cps[path] = bench::spread_of(cps[path]);
  }
  p.speedup = bench::spread_of(speedups);
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
    check(samples >= 16, "--samples must be at least 16");
    check(reps >= 1, "--reps must be at least 1");

    std::printf("bench_cycle: kernels on %zux%zu, ring.N on N Dnodes, %zu"
                " samples, median of %zu (planned = one tape cycle per"
                " Ring::step)\n",
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
    {  // motion estimation: halt-bounded SAD engine with WAIT phases.
       // The search range grows with --samples (up to samples / 8
       // candidates, about as many cycles as the other kernels run) on
       // an image just large enough for the search area.
      std::size_t range = 2;
      while (8 * (2 * range + 3) * (2 * range + 3) <= samples) ++range;
      const Image ref = random_image(16, 2 * range + 16, 2 * range + 16);
      const Image cand = random_image(17, 2 * range + 16, 2 * range + 16);
      jobs.push_back(kernels::make_motion_estimation_job(
          kGeom, ref, range + 4, range + 4, cand, static_cast<int>(range)));
      jobs.back().name = "motion_est";
    }
    for (const std::size_t dnodes : {8, 16, 64, 256}) {
      jobs.push_back(all_mac_ring_job(dnodes, samples));
    }

    std::vector<KernelPoint> points;
    points.reserve(jobs.size());
    for (const rt::Job& job : jobs) points.push_back(measure(job, reps));

    double worst_speedup = 0.0;
    std::string worst_kernel;
    obs::JsonValue kernels_json = obs::JsonValue::array();
    for (const auto& p : points) {
      const SystemStats& st = p.super.stats;
      const auto share = [&st](std::uint64_t n) {
        return static_cast<double>(n) / static_cast<double>(st.cycles);
      };
      const double speedup = p.speedup.median;
      if (worst_kernel.empty() || speedup < worst_speedup) {
        worst_speedup = speedup;
        worst_kernel = p.name;
      }
      std::printf(
          "  %-12s %8llu cycles  interp %9.0f cyc/s  planned %9.0f cyc/s"
          "  superstep %9.0f cyc/s  speedup %.2fx (%.2f-%.2f)\n"
          "  %-12s hit rate %.1f%%  compiles %llu  detaches %llu"
          "  (re-attached %llu, true misses %llu)  evictions %llu"
          "  fused %.1f%%  traced %.1f%%\n",
          p.name.c_str(), static_cast<unsigned long long>(st.cycles),
          p.cps[0].median, p.cps[1].median, p.cps[2].median, speedup,
          p.speedup.q1, p.speedup.q3, "", 100.0 * share(st.plan_hits),
          static_cast<unsigned long long>(st.plan_compiles),
          static_cast<unsigned long long>(st.plan_invalidations),
          static_cast<unsigned long long>(st.plan_content_hits),
          static_cast<unsigned long long>(st.plan_invalidations -
                                          st.plan_content_hits),
          static_cast<unsigned long long>(st.plan_evictions),
          100.0 * share(p.super.superstep_cycles),
          100.0 * share(p.super.trace_cycles));

      obs::JsonValue jp = obs::JsonValue::object();
      jp.set("kernel", p.name);
      jp.set("dnodes", std::uint64_t{p.dnodes});
      jp.set("sim_cycles", st.cycles);
      jp.set("interpreter_cycles_per_s", bench::to_json(p.cps[0]));
      jp.set("percycle_planned_cycles_per_s", bench::to_json(p.cps[1]));
      jp.set("planned_cycles_per_s", bench::to_json(p.cps[2]));
      bench::set_speedup(jp, "speedup", p.speedup);
      jp.set("plan_hit_rate", share(st.plan_hits));
      jp.set("plan_compiles", st.plan_compiles);
      jp.set("plan_invalidations", st.plan_invalidations);
      jp.set("plan_content_hits", st.plan_content_hits);
      jp.set("plan_true_misses", st.plan_invalidations - st.plan_content_hits);
      jp.set("plan_evictions", st.plan_evictions);
      jp.set("superstep_cycle_share", share(p.super.superstep_cycles));
      jp.set("trace_cycle_share", share(p.super.trace_cycles));
      char digest[19];
      std::snprintf(digest, sizeof digest, "0x%016llx",
                    static_cast<unsigned long long>(fnv64(p.super.outputs)));
      jp.set("outputs_fnv64", digest);
      kernels_json.push_back(std::move(jp));
    }

    if (min_speedup > 0.0) {
      check(worst_speedup >= min_speedup,
            worst_kernel + " speedup " +
                std::to_string(worst_speedup) + "x below --min-speedup " +
                std::to_string(min_speedup) + "x");
      std::printf("bench_cycle: all kernels at or above %.2fx (worst: %s %.2fx)\n",
                  min_speedup, worst_kernel.c_str(), worst_speedup);
    }

    RunReport report;
    report.name = "bench_cycle";
    report.extra("schema_version", std::uint64_t{3})
        .extra("samples", std::uint64_t{samples})
        .extra("reps", std::uint64_t{reps})
        .extra("outputs_bit_identical", true);
    report.extra("kernels", std::move(kernels_json));
    maybe_write_run_report(report, json_path);
    return 0;
  } catch (const SimError& e) {
    std::fprintf(stderr, "bench_cycle: %s\n", e.what());
    return 1;
  }
}
