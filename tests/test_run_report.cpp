// Tests of the machine-readable RunReport (schema
// "sring.run_report.v1") and its file writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/matvec.hpp"
#include "json_test_util.hpp"
#include "kernels/jobs.hpp"
#include "kernels/mac_kernel.hpp"
#include "mapper/mapper.hpp"
#include "obs/host_shape.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "svc/dfg_job.hpp"

namespace sring {
namespace {

/// A short but fully-featured run: one Dnode MACs 32 host pairs.
System& traced_system() {
  static System sys({RingGeometry{4, 2, 16}});
  static bool ran = false;
  if (!ran) {
    ran = true;
    sys.load(kernels::make_running_mac_program({4, 2, 16}));
    sys.host().send(std::vector<Word>(64, 2));
    sys.run_until_outputs(32, 1000);
  }
  return sys;
}

TEST(RunReport, FromSystemHasTheFullSchema) {
  const System& sys = traced_system();
  const obs::JsonValue j = RunReport::from_system("unit", sys).to_json();

  ASSERT_NE(j.find("schema"), nullptr);
  EXPECT_EQ(j.find("schema")->as_string(), "sring.run_report.v1");
  EXPECT_EQ(j.find("name")->as_string(), "unit");

  ASSERT_NE(j.find("geometry"), nullptr);
  EXPECT_EQ(j.find("geometry")->find("layers")->as_uint(), 4u);
  EXPECT_EQ(j.find("geometry")->find("lanes")->as_uint(), 2u);
  EXPECT_EQ(j.find("cycles")->as_uint(), sys.stats().cycles);

  const obs::JsonValue* stats = j.find("stats");
  ASSERT_NE(stats, nullptr);
  for (const char* key :
       {"cycles", "ring_stall_cycles", "ctrl_stall_cycles", "dnode_ops",
        "arith_ops", "host_words_in", "host_words_out", "ctrl_instructions",
        "config_words_written", "bus_drives", "bus_conflicts",
        "switch_route_changes", "utilization"}) {
    EXPECT_NE(stats->find(key), nullptr) << "stats." << key;
  }
  EXPECT_GT(stats->find("utilization")->as_double(), 0.0);

  const obs::JsonValue* stalls = j.find("stalls");
  ASSERT_NE(stalls, nullptr);
  EXPECT_NE(stalls->find("ring_host_underflow"), nullptr);
  EXPECT_NE(stalls->find("ctrl_inpop"), nullptr);
  EXPECT_NE(stalls->find("ctrl_wait"), nullptr);

  ASSERT_NE(j.find("host"), nullptr);
  EXPECT_EQ(j.find("host")->find("words_in")->as_uint(), 64u);

  // Per-component detail: 8 Dnodes, 4 switches.
  const obs::JsonValue* dnodes = j.find("dnodes");
  ASSERT_NE(dnodes, nullptr);
  ASSERT_EQ(dnodes->items().size(), 8u);
  const obs::JsonValue& d0 = dnodes->items()[0];
  EXPECT_EQ(d0.find("layer")->as_uint(), 0u);
  EXPECT_EQ(d0.find("lane")->as_uint(), 0u);
  EXPECT_GT(d0.find("issue")->as_uint(), 0u);
  EXPECT_GT(d0.find("mac")->as_uint(), 0u);
  ASSERT_NE(j.find("switches"), nullptr);
  ASSERT_EQ(j.find("switches")->items().size(), 4u);
  EXPECT_NE(j.find("switches")->items()[0].find("route_changes"), nullptr);
  EXPECT_NE(j.find("switches")->items()[0].find("host_out_words"), nullptr);

  // Full metrics registry rides along.
  const obs::JsonValue* metrics = j.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("counters")->find("sys.cycles")->as_uint(),
            sys.stats().cycles);
  EXPECT_NE(metrics->find("histograms")->find("host.in_fifo_depth"),
            nullptr);
}

TEST(RunReport, FromStatsIsAggregateOnly) {
  SystemStats s;
  s.cycles = 10;
  s.dnode_ops = 5;
  const obs::JsonValue j = RunReport::from_stats("agg", s).to_json();
  EXPECT_EQ(j.find("name")->as_string(), "agg");
  EXPECT_EQ(j.find("cycles")->as_uint(), 10u);
  EXPECT_EQ(j.find("geometry"), nullptr);
  EXPECT_EQ(j.find("dnodes"), nullptr);
  EXPECT_EQ(j.find("switches"), nullptr);
  EXPECT_EQ(j.find("metrics"), nullptr);
  // No geometry -> no utilization entry.
  EXPECT_EQ(j.find("stats")->find("utilization"), nullptr);
}

TEST(RunReport, ExtrasChainInInsertionOrder) {
  RunReport r;
  r.name = "model_only";
  r.extra("zeta", 1.5).extra("alpha", std::uint64_t{2});
  const obs::JsonValue j = r.to_json();
  EXPECT_EQ(j.find("cycles"), nullptr) << "no stats were attached";
  const obs::JsonValue* extras = j.find("extras");
  ASSERT_NE(extras, nullptr);
  ASSERT_EQ(extras->members().size(), 2u);
  EXPECT_EQ(extras->members()[0].first, "zeta");
  EXPECT_EQ(extras->members()[1].first, "alpha");
}

TEST(RunReport, WriteRunReportRoundTripsThroughDisk) {
  const RunReport report = RunReport::from_system("disk", traced_system());
  const std::string path = testing::TempDir() + "sring_report_test.json";
  write_run_report(report, path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::JsonValue parsed = test::parse_json(ss.str());

  // On disk == in memory, plus the injected extras.host block.
  obs::JsonValue expected = report.to_json();
  obs::JsonValue extras = obs::JsonValue::object();
  extras.set("host", obs::host_shape_json());
  expected.set("extras", std::move(extras));
  EXPECT_EQ(parsed.dump(), expected.dump());
  std::remove(path.c_str());
}

TEST(RunReport, WrittenReportSelfDescribesTheHost) {
  RunReport r;
  r.name = "host_shape";
  const std::string path = testing::TempDir() + "sring_host_shape.json";
  write_run_report(r, path);

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::JsonValue parsed = test::parse_json(ss.str());
  const obs::JsonValue* host = parsed.find("extras")->find("host");
  ASSERT_NE(host, nullptr);
  EXPECT_GE(host->find("cores")->as_uint(), 1u);
  EXPECT_GE(host->find("page_size")->as_uint(), 512u);
  const std::string build = host->find("build_type")->as_string();
  EXPECT_TRUE(build == "release" || build == "debug");
  EXPECT_NE(host->find("compiler"), nullptr);
  EXPECT_NE(host->find("lto"), nullptr);
  EXPECT_NE(host->find("sanitizers"), nullptr);
  std::remove(path.c_str());
}

TEST(RunReport, AnExplicitHostExtraIsNotOverwritten) {
  RunReport r;
  r.name = "pinned_host";
  obs::JsonValue fake = obs::JsonValue::object();
  fake.set("cores", std::uint64_t{12345});
  r.extra("host", std::move(fake));
  const std::string path = testing::TempDir() + "sring_pinned_host.json";
  write_run_report(r, path);

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::JsonValue parsed = test::parse_json(ss.str());
  EXPECT_EQ(
      parsed.find("extras")->find("host")->find("cores")->as_uint(),
      12345u);
  std::remove(path.c_str());
}

TEST(RunReport, WriteRunReportThrowsOnUnwritablePath) {
  EXPECT_THROW(
      write_run_report(RunReport{}, "/nonexistent-dir/report.json"),
      SimError);
}

TEST(RunReport, MaybeWriteIsANoOpOnEmptyPath) {
  maybe_write_run_report(RunReport{}, "");  // must not throw
}

// --- byte identity of the serialized report --------------------------
//
// The report JSON (per-Dnode / per-switch detail and every metric
// name, order and value) is pinned by digest per kernel and geometry,
// so a change to how RunReport stores or renders its counters cannot
// move a single byte unnoticed.

std::uint64_t fnv64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<Word> signal(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Word> x(n);
  for (auto& w : x) w = rng.next_word_in(-200, 200);
  return x;
}

Image image(std::uint64_t seed, std::size_t w, std::size_t h) {
  Rng rng(seed);
  Image img(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) img.at(x, y) = rng.next_word_in(0, 255);
  }
  return img;
}

/// y[n] = 3 x[n] + 3 x[n-1] - x[n]: a MAC-fused graph with a delayed
/// feedback-pipeline read.
rt::Job dfg_job(const RingGeometry& g) {
  mapper::Dfg dfg;
  const auto x = dfg.add_input("x");
  const auto m = dfg.add_binary(mapper::DfgOp::kMul, x, dfg.add_const(3));
  const auto d = dfg.add_delay(m, 1);
  const auto a = dfg.add_binary(mapper::DfgOp::kAdd, m, d);
  dfg.mark_output(dfg.add_binary(mapper::DfgOp::kSub, a, x), "y");
  auto compiled = std::make_shared<svc::CompiledDfg>();
  compiled->mapped = mapper::map_dfg(dfg, g);
  return svc::make_dfg_job(compiled, {signal(5, 48)});
}

/// Run `job` on a fresh System, the way a runtime worker does.
void run_fresh(System& sys, const rt::Job& job) {
  sys.load(*job.program);
  sys.host().send(job.input);
  if (job.run == rt::Job::Run::kUntilOutputs) {
    sys.run_until_outputs(job.expected_outputs, job.max_cycles);
  } else {
    sys.run_until_halt(job.max_cycles, job.drain_cycles);
  }
}

/// Serialized report with the ring.superstep.* counters zeroed.
std::string without_superstep(RunReport report) {
  report.metrics.counter("ring.superstep.dispatches").set(0);
  report.metrics.counter("ring.superstep.cycles").set(0);
  return report.to_json().dump();
}

struct PinnedReport {
  const char* kernel;
  RingGeometry geometry;
  std::uint64_t digest;  ///< FNV-1a 64 of to_json().dump()
};

rt::Job make_job(std::string_view kernel, const RingGeometry& g) {
  if (kernel == "fir") {
    const std::vector<Word> coeffs{1, static_cast<Word>(-2), 3};
    return kernels::make_spatial_fir_job(g, signal(1, 96), coeffs);
  }
  if (kernel == "dwt53") return kernels::make_dwt53_job(g, signal(2, 64));
  if (kernel == "matvec8") {
    return kernels::make_matvec8_job(g, dsp::dct8_matrix_q7(),
                                     signal(3, 24));
  }
  if (kernel == "me") {
    return kernels::make_motion_estimation_job(g, image(4, 16, 16), 4, 4,
                                               image(6, 16, 16), 2);
  }
  return dfg_job(g);
}

TEST(RunReport, SerializedReportIsPinnedPerKernelAndGeometry) {
  constexpr RingGeometry k8x2{8, 2, 16};
  constexpr RingGeometry k4x2{4, 2, 16};
  constexpr RingGeometry k6x3{6, 3, 8};
  // dwt53 needs a Ring-16, so it runs on 8x2 only.
  const PinnedReport pinned[] = {
      {"fir", k8x2, 0xc9e466e80d82a124ull},
      {"fir", k4x2, 0x9ab884c163e50062ull},
      {"fir", k6x3, 0xa3b8b87a6b8534b3ull},
      {"dwt53", k8x2, 0xe76feff14e56694dull},
      {"matvec8", k8x2, 0xdf5bb979e2e0e274ull},
      {"matvec8", k4x2, 0x080ff882b77772d8ull},
      {"matvec8", k6x3, 0xb7e6d0fb23578aa7ull},
      {"me", k8x2, 0x1a81c749d5581f46ull},
      {"me", k4x2, 0x9f55d735ac9def79ull},
      {"me", k6x3, 0xce4c6c76fb9def56ull},
      {"dfg", k8x2, 0x8b25018911ca877cull},
      {"dfg", k4x2, 0x765400e1ef03e6c4ull},
      {"dfg", k6x3, 0x7d43d96344de6a2eull},
  };
  for (const PinnedReport& p : pinned) {
    const RingGeometry& g = p.geometry;
    SCOPED_TRACE(std::string(p.kernel) + " on " + std::to_string(g.layers) +
                 "x" + std::to_string(g.lanes) + "/fb" +
                 std::to_string(g.fb_depth));
    System sys({g});
    run_fresh(sys, make_job(p.kernel, g));
    const obs::JsonValue j = RunReport::from_system(p.kernel, sys).to_json();
    const std::uint64_t digest = fnv64(j.dump());
    char hex[19];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, p.digest) << "report digest " << hex;

    // The report's registry and the System's own snapshot render the
    // same names through the same code: identical bytes.
    ASSERT_NE(j.find("metrics"), nullptr);
    EXPECT_EQ(j.find("metrics")->dump(), sys.metrics().to_json().dump());

    // The superstep engine may move only the ring.superstep.* counters:
    // with those zeroed, the report of the same job run per cycle is
    // the same bytes.
    System percycle({g});
    percycle.set_superstep_enabled(false);
    run_fresh(percycle, make_job(p.kernel, g));
    EXPECT_EQ(without_superstep(RunReport::from_system(p.kernel, sys)),
              without_superstep(RunReport::from_system(p.kernel, percycle)));
  }
}

}  // namespace
}  // namespace sring
