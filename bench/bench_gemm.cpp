// bench_gemm — operand-traffic reduction of the tiled narrow-int
// GEMM/conv workload family (src/tile/).
//
// Sweeps tile shapes, dtypes and dataflow mappings over the rt worker
// fleet and reports, per point, the scratchpad staging behaviour:
// bytes filled vs bytes the tile schedule streamed into jobs, their
// ratio (the traffic reduction a host-side scratchpad buys over
// streaming every operand tile per job), hit/refill counts and the
// planner's up-front prediction.  Every point is verified bit-exact
// against the scalar int GEMM reference before its numbers count —
// a traffic figure only matters if the lowered fleet result is the
// mathematically correct one.
//
// The last point lowers a small conv2d through im2col onto the same
// engine, so the family's second workload is covered by the same
// bit-exactness bar.
//
// Usage:
//   bench_gemm [--workers N] [--scratch-tiles N] [--json <path>]
//              [--min-reuse X]
//
// --min-reuse is the regression gate the CI smoke uses: the run fails
// unless at least one 64x64x64 int8 mapping reaches that traffic
// reduction factor (the ISSUE acceptance bar is 1.5x; the default 0
// disables the gate).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/cli.hpp"
#include "rt/runtime.hpp"
#include "sim/report.hpp"
#include "tile/gemm_runner.hpp"

namespace {

using namespace sring;

struct Point {
  std::string name;
  tile::GemmSpec spec;
  std::size_t scratch_tiles = 128;
  bool gate_candidate = false;  ///< counts toward the --min-reuse gate
};

struct Measured {
  Point point;
  tile::GemmResult result;
  double seconds = 0.0;
};

Measured run_point(rt::Runtime& rt, const Point& p, std::uint64_t seed) {
  const auto a =
      tile::random_operand(p.spec.m * p.spec.k, p.spec.dtype, seed);
  const auto b =
      tile::random_operand(p.spec.k * p.spec.n, p.spec.dtype, seed + 1);

  tile::GemmRunConfig cfg;
  cfg.scratch_tiles = p.scratch_tiles;
  const auto t0 = std::chrono::steady_clock::now();
  tile::GemmResult res = tile::run_gemm(rt, cfg, p.spec, a, b);
  const auto t1 = std::chrono::steady_clock::now();

  check(res.c == tile::gemm_reference(p.spec, a, b),
        p.name + " diverged from the scalar reference");
  // The planner's prediction is part of the contract: a traffic
  // number we report must be the one plan_gemm promised up front.
  check(res.scratch_hits == res.schedule.expected_hits &&
            res.scratch_refills == res.schedule.expected_refills,
        p.name + " observed scratchpad behaviour "
        "diverged from the planner prediction");

  Measured m;
  m.point = p;
  m.result = std::move(res);
  m.seconds = std::chrono::duration<double>(t1 - t0).count();
  return m;
}

Measured run_conv_point(rt::Runtime& rt, std::uint64_t seed) {
  tile::Conv2dSpec conv;
  conv.in_h = 16;
  conv.in_w = 16;
  conv.kh = 3;
  conv.kw = 3;
  conv.filters = 8;
  conv.dtype = tile::Dtype::kInt8;
  conv.shift = 6;
  conv.validate();
  const auto filters = tile::random_operand(
      conv.filters * conv.kh * conv.kw, conv.dtype, seed);
  const auto image =
      tile::random_operand(conv.in_h * conv.in_w, conv.dtype, seed + 1);

  tile::GemmRunConfig cfg;
  const auto t0 = std::chrono::steady_clock::now();
  tile::GemmResult res = tile::run_conv2d(rt, cfg, conv, filters, image);
  const auto t1 = std::chrono::steady_clock::now();

  const tile::GemmSpec as_gemm = conv.as_gemm();
  check(res.c == tile::gemm_reference(as_gemm, filters,
                                      tile::im2col(conv, image)),
        "conv2d diverged from the im2col'd scalar reference");

  Measured m;
  m.point.name = "conv16x16.3x3.f8.int8.os";
  m.point.spec = as_gemm;
  m.point.scratch_tiles = cfg.scratch_tiles;
  m.result = std::move(res);
  m.seconds = std::chrono::duration<double>(t1 - t0).count();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sring;
  try {
    const std::string json_path =
        obs::extract_option(argc, argv, "--json").value_or("");
    const std::size_t workers = std::strtoul(
        obs::extract_option(argc, argv, "--workers").value_or("2").c_str(),
        nullptr, 10);
    const std::size_t scratch = std::strtoul(
        obs::extract_option(argc, argv, "--scratch-tiles")
            .value_or("128")
            .c_str(),
        nullptr, 10);
    const double min_reuse = std::strtod(
        obs::extract_option(argc, argv, "--min-reuse").value_or("0").c_str(),
        nullptr);
    check(workers >= 1, "--workers must be at least 1");
    check(scratch >= 1, "--scratch-tiles must be at least 1");

    rt::RuntimeConfig rcfg;
    rcfg.workers = workers;
    rt::Runtime rt(rcfg);

    const auto spec = [](std::size_t m, std::size_t k, std::size_t n,
                         tile::Dtype dtype, unsigned shift,
                         tile::Mapping mapping, std::size_t tile_n) {
      tile::GemmSpec s;
      s.m = m;
      s.k = k;
      s.n = n;
      s.dtype = dtype;
      s.shift = shift;
      s.mapping = mapping;
      s.tile_n = tile_n;
      return s;
    };
    using tile::Dtype;
    using tile::Mapping;
    std::vector<Point> points = {
        // The acceptance shape, both mappings and two column-tile
        // widths.  These are the --min-reuse gate candidates.
        {"64x64x64.int8.os.t8",
         spec(64, 64, 64, Dtype::kInt8, 5, Mapping::kOutputStationary, 8),
         scratch, true},
        {"64x64x64.int8.ws.t8",
         spec(64, 64, 64, Dtype::kInt8, 5, Mapping::kWeightStationary, 8),
         scratch, true},
        {"64x64x64.int8.os.t16",
         spec(64, 64, 64, Dtype::kInt8, 5, Mapping::kOutputStationary, 16),
         scratch, true},
        {"64x64x64.int8.ws.t16",
         spec(64, 64, 64, Dtype::kInt8, 5, Mapping::kWeightStationary, 16),
         scratch, true},
        // int16 readback on the same shape.
        {"64x64x64.int16.os.t8",
         spec(64, 64, 64, Dtype::kInt16, 7, Mapping::kOutputStationary, 8),
         scratch, false},
        // A capacity-starved run: the scratchpad is far smaller than
        // the working set, so the mappings have to earn their reuse.
        {"64x64x64.int8.os.t8.s16",
         spec(64, 64, 64, Dtype::kInt8, 5, Mapping::kOutputStationary, 8),
         16, false},
        {"64x64x64.int8.ws.t8.s16",
         spec(64, 64, 64, Dtype::kInt8, 5, Mapping::kWeightStationary, 8),
         16, false},
        // Ragged shape: padded edge tiles must stay bit-exact too.
        {"40x24x56.int8.os.t8",
         spec(40, 24, 56, Dtype::kInt8, 4, Mapping::kOutputStationary, 8),
         scratch, false},
        {"40x24x56.int8.ws.t8",
         spec(40, 24, 56, Dtype::kInt8, 4, Mapping::kWeightStationary, 8),
         scratch, false},
    };

    std::printf("bench_gemm: workers=%zu scratch=%zu (%zu points + conv)\n",
                rt.worker_count(), scratch, points.size());

    std::vector<Measured> measured;
    std::uint64_t seed = 0x6E44ull;
    for (const Point& p : points) {
      measured.push_back(run_point(rt, p, seed));
      seed += 2;
    }
    measured.push_back(run_conv_point(rt, seed));

    double best_gate_reuse = 0.0;
    std::string best_gate_name;
    for (const Measured& m : measured) {
      const tile::GemmResult& r = m.result;
      if (m.point.gate_candidate &&
          r.traffic_reduction > best_gate_reuse) {
        best_gate_reuse = r.traffic_reduction;
        best_gate_name = m.point.name;
      }
      std::printf(
          "  %-26s %4llu jobs  %8llu cycles  %6llu hits / %4llu refills"
          "  %7llu B filled / %7llu B streamed  reuse %5.2fx  (%.3fs)\n",
          m.point.name.c_str(),
          static_cast<unsigned long long>(r.jobs),
          static_cast<unsigned long long>(r.sim_cycles),
          static_cast<unsigned long long>(r.scratch_hits),
          static_cast<unsigned long long>(r.scratch_refills),
          static_cast<unsigned long long>(r.bytes_filled),
          static_cast<unsigned long long>(r.schedule.streamed_bytes),
          r.traffic_reduction, m.seconds);
    }
    std::printf(
        "bench_gemm: all %zu points bit-exact against the scalar "
        "reference; best 64x64x64 int8 traffic reduction %.2fx (%s)\n",
        measured.size(), best_gate_reuse, best_gate_name.c_str());

    if (min_reuse > 0.0) {
      check(best_gate_reuse >= min_reuse,
            "best 64x64x64 int8 traffic reduction " +
                std::to_string(best_gate_reuse) + "x below --min-reuse " +
                std::to_string(min_reuse) + "x");
      std::printf("bench_gemm: --min-reuse %.2fx gate passed\n", min_reuse);
    }

    RunReport report;
    report.name = "bench_gemm";
    report.extra("schema_version", std::uint64_t{1})
        .extra("workers", std::uint64_t{rt.worker_count()})
        .extra("scratch_tiles", std::uint64_t{scratch})
        .extra("outputs_bit_identical", true)
        .extra("best_64cubed_int8_reuse", best_gate_reuse)
        .extra("best_64cubed_int8_point", best_gate_name);
    obs::JsonValue sweep = obs::JsonValue::array();
    for (const Measured& m : measured) {
      const tile::GemmResult& r = m.result;
      obs::JsonValue jp = obs::JsonValue::object();
      jp.set("point", m.point.name);
      jp.set("m", std::uint64_t{m.point.spec.m});
      jp.set("k", std::uint64_t{m.point.spec.k});
      jp.set("n", std::uint64_t{m.point.spec.n});
      jp.set("dtype", std::string(tile::dtype_name(m.point.spec.dtype)));
      jp.set("mapping",
             std::string(tile::mapping_name(m.point.spec.mapping)));
      jp.set("tile_n", std::uint64_t{m.point.spec.tile_n});
      jp.set("scratch_tiles", std::uint64_t{m.point.scratch_tiles});
      jp.set("tile_jobs", r.jobs);
      jp.set("sim_cycles", r.sim_cycles);
      jp.set("scratch_hits", r.scratch_hits);
      jp.set("scratch_refills", r.scratch_refills);
      jp.set("scratch_evictions", r.scratch_evictions);
      jp.set("bytes_filled", r.bytes_filled);
      jp.set("bytes_saved", r.bytes_saved);
      jp.set("streamed_bytes", r.schedule.streamed_bytes);
      jp.set("traffic_reduction", r.traffic_reduction);
      jp.set("seconds", m.seconds);
      sweep.push_back(std::move(jp));
    }
    report.extra("sweep", std::move(sweep));
    maybe_write_run_report(report, json_path);
    return 0;
  } catch (const SimError& e) {
    std::fprintf(stderr, "bench_gemm: %s\n", e.what());
    return 1;
  }
}
