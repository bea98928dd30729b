// bench_dfg_compile — latency of the svc compile service.
//
// Builds a family of distinct DFGs (FIR-shaped MAC chains whose
// constants vary, so every graph has a unique content hash), then
// measures:
//
//   cold   encode -> get_or_compile miss: map + golden-validate + cache
//   hot    get_or_compile hit: hash the blob, bump the LRU, return
//
// The hit path never decodes the blob, so the hot number is the real
// steady-state cost a server pays per repeat submission.
//
// Usage:
//   bench_dfg_compile [--graphs N] [--taps K] [--hits M] [--json <path>]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/cli.hpp"
#include "sim/report.hpp"
#include "svc/compile_service.hpp"
#include "svc/dfg_codec.hpp"
#include "svc/dfg_text.hpp"

namespace {

using namespace sring;

constexpr RingGeometry kGeom{8, 2, 16};

/// K-tap transposed FIR as DFG text; the coefficient values carry the
/// variant id so each graph hashes differently.
std::string fir_graph_text(std::size_t taps, std::size_t variant) {
  std::string text = "x input\n";
  for (std::size_t t = 0; t < taps; ++t) {
    // 1021 is prime, so graphs are pairwise distinct for any
    // --graphs up to 1021 (mod-17 would collide at 18).
    const long coeff =
        static_cast<long>((variant * 31 + t * 7) % 1021) - 510;
    text += "c" + std::to_string(t) + " const " + std::to_string(coeff) +
            "\n";
    text += "m" + std::to_string(t) + " mul x c" + std::to_string(t) + "\n";
  }
  std::string acc = "m0";
  for (std::size_t t = 1; t < taps; ++t) {
    text += "d" + std::to_string(t) + " delay " + acc + " 1\n";
    text += "a" + std::to_string(t) + " add m" + std::to_string(t) + " d" +
            std::to_string(t) + "\n";
    acc = "a" + std::to_string(t);
  }
  text += "y output " + acc + "\n";
  return text;
}

double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sring;
  try {
    const std::string json_path =
        obs::extract_option(argc, argv, "--json").value_or("");
    const std::size_t graphs = std::strtoul(
        obs::extract_option(argc, argv, "--graphs").value_or("32").c_str(),
        nullptr, 10);
    const std::size_t taps = std::strtoul(
        obs::extract_option(argc, argv, "--taps").value_or("4").c_str(),
        nullptr, 10);
    const std::size_t hits = std::strtoul(
        obs::extract_option(argc, argv, "--hits").value_or("64").c_str(),
        nullptr, 10);
    check(graphs >= 1 && taps >= 1 && hits >= 1,
          "--graphs, --taps and --hits must be >= 1");

    svc::CompileServiceConfig cfg;
    cfg.cache_capacity = graphs;  // the whole family stays resident
    svc::CompileService service(cfg);

    std::vector<std::vector<std::uint8_t>> blobs;
    blobs.reserve(graphs);
    for (std::size_t v = 0; v < graphs; ++v) {
      blobs.push_back(
          svc::encode_dfg(svc::parse_dfg_text(fir_graph_text(taps, v))));
    }

    std::printf("bench_dfg_compile: graphs=%zu taps=%zu hits=%zu "
                "blob=%zuB geom=%zux%zu\n",
                graphs, taps, hits, blobs.front().size(), kGeom.layers,
                kGeom.lanes);

    const auto t_cold = std::chrono::steady_clock::now();
    for (const auto& blob : blobs) {
      const auto r = service.get_or_compile(blob, kGeom);
      check(!r.cache_hit, "unexpected cold-pass hit");
    }
    const double cold_us = us_since(t_cold);

    const auto t_hot = std::chrono::steady_clock::now();
    for (std::size_t m = 0; m < hits; ++m) {
      for (const auto& blob : blobs) {
        const auto r = service.get_or_compile(blob, kGeom);
        check(r.cache_hit, "unexpected hot-pass miss");
      }
    }
    const double hot_us = us_since(t_hot);

    const double cold_per = cold_us / static_cast<double>(graphs);
    const double hot_per =
        hot_us / static_cast<double>(graphs * hits);
    std::printf("  cold compile: %8.1f us/graph  (map + validate + cache)\n",
                cold_per);
    std::printf("  cache hit:    %8.3f us/graph  (hash + LRU bump)\n",
                hot_per);
    std::printf("  hit speedup:  %8.1fx\n",
                hot_per > 0 ? cold_per / hot_per : 0.0);

    RunReport report;
    report.name = "bench_dfg_compile";
    report.extra("schema_version", std::uint64_t{1})
        .extra("graphs", std::uint64_t{graphs})
        .extra("taps", std::uint64_t{taps})
        .extra("hits_per_graph", std::uint64_t{hits})
        .extra("blob_bytes", std::uint64_t{blobs.front().size()})
        .extra("cold_us_per_graph", cold_per)
        .extra("hit_us_per_graph", hot_per)
        .extra("hit_speedup", hot_per > 0 ? cold_per / hot_per : 0.0);
    maybe_write_run_report(report, json_path);
    return 0;
  } catch (const SimError& e) {
    std::fprintf(stderr, "bench_dfg_compile: %s\n", e.what());
    return 1;
  }
}
