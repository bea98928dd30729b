// CompileService unit tests: cache hit/miss/evict accounting, golden
// validation, typed failure paths, and the job plumbing that carries a
// compiled DFG through the rt fleet (svc/dfg_job).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mapper/mapper.hpp"
#include "rt/runtime.hpp"
#include "svc/compile_service.hpp"
#include "svc/dfg_codec.hpp"
#include "svc/dfg_job.hpp"
#include "svc/dfg_text.hpp"

namespace sring::svc {
namespace {

using mapper::Dfg;
using mapper::DfgOp;
using mapper::NodeId;

constexpr RingGeometry kGeom{8, 2, 16};

std::vector<std::uint8_t> blob_of(const char* text) {
  return encode_dfg(parse_dfg_text(text));
}

std::uint64_t counter_of(const CompileService& svc, const char* name) {
  const obs::Registry m = svc.metrics();
  const obs::Counter* c = m.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

const char* kMacGraph =
    "x input\n"
    "k const 3\n"
    "m mul x k\n"
    "d delay m 1\n"
    "y add m d\n"
    "out output y\n";

TEST(CompileService, MissThenHitSharesTheSameProgram) {
  CompileService svc;
  const auto blob = blob_of(kMacGraph);

  const auto first = svc.get_or_compile(blob, kGeom);
  EXPECT_FALSE(first.cache_hit);
  ASSERT_NE(first.compiled, nullptr);
  EXPECT_EQ(first.compiled->dfg_hash, dfg_hash(blob));

  const auto second = svc.get_or_compile(blob, kGeom);
  EXPECT_TRUE(second.cache_hit);
  // Same shared object, not an equal copy: jobs alias into it.
  EXPECT_EQ(second.compiled.get(), first.compiled.get());

  EXPECT_EQ(counter_of(svc, "svc.compile.misses"), 1u);
  EXPECT_EQ(counter_of(svc, "svc.compile.hits"), 1u);
  EXPECT_EQ(counter_of(svc, "svc.compile.validations"), 1u);
  EXPECT_EQ(counter_of(svc, "svc.compile.failures"), 0u);
  EXPECT_EQ(svc.cache_size(), 1u);
}

TEST(CompileService, GeometryIsPartOfTheCacheKey) {
  CompileService svc;
  const auto blob = blob_of(kMacGraph);
  const auto a = svc.get_or_compile(blob, kGeom);
  const auto b = svc.get_or_compile(blob, RingGeometry{4, 2, 16});
  EXPECT_FALSE(b.cache_hit);
  EXPECT_NE(a.compiled.get(), b.compiled.get());
  EXPECT_EQ(counter_of(svc, "svc.compile.misses"), 2u);
  EXPECT_EQ(svc.cache_size(), 2u);
}

TEST(CompileService, LruEvictionKeepsTheCapacityBound) {
  CompileServiceConfig cfg;
  cfg.cache_capacity = 2;
  CompileService svc(cfg);
  const auto a = blob_of("x input\ny abs x\no output y\n");
  const auto b = blob_of("x input\ny not x\no output y\n");
  const auto c = blob_of("x input\ny pass x\no output y\n");

  (void)svc.get_or_compile(a, kGeom);
  (void)svc.get_or_compile(b, kGeom);
  (void)svc.get_or_compile(a, kGeom);  // refresh a: b becomes LRU
  (void)svc.get_or_compile(c, kGeom);  // evicts b
  EXPECT_EQ(counter_of(svc, "svc.compile.evictions"), 1u);
  EXPECT_EQ(svc.cache_size(), 2u);

  EXPECT_TRUE(svc.get_or_compile(a, kGeom).cache_hit);
  EXPECT_FALSE(svc.get_or_compile(b, kGeom).cache_hit);  // recompiled
}

TEST(CompileService, EvictedProgramStaysAliveThroughItsSharedPtr) {
  CompileServiceConfig cfg;
  cfg.cache_capacity = 1;
  CompileService svc(cfg);
  const auto held = svc.get_or_compile(blob_of(kMacGraph), kGeom).compiled;
  (void)svc.get_or_compile(blob_of("x input\ny abs x\no output y\n"),
                           kGeom);  // evicts the first entry
  EXPECT_EQ(counter_of(svc, "svc.compile.evictions"), 1u);
  // The aliasing job-program pointer pattern depends on this.
  EXPECT_EQ(held->mapped.outputs.size(), 1u);
  EXPECT_EQ(held->mapped.program.geometry, kGeom);
}

TEST(CompileService, MapperDiagnosticsSurviveVerbatimAndCountAsFailures) {
  CompileService svc;

  // Recursive graph: expressible only at the wire level (forward delay
  // reference), rejected by map_dfg with its own text.
  std::vector<mapper::DfgNode> nodes(3);
  nodes[0].op = DfgOp::kInput;
  nodes[0].name = "x";
  nodes[1].op = DfgOp::kDelay;
  nodes[1].a = 2;  // forward edge through the delay: recursion
  nodes[1].delay = 1;
  nodes[2].op = DfgOp::kAdd;
  nodes[2].a = 0;
  nodes[2].b = 1;
  const auto recursive =
      encode_dfg(Dfg::assemble(std::move(nodes), {2}));
  std::string mapper_text;
  try {
    const Dfg d = decode_dfg(recursive);
    d.validate();
    (void)mapper::map_dfg(d, kGeom);
    FAIL() << "recursive graph mapped";
  } catch (const SimError& e) {
    mapper_text = e.what();
  }
  try {
    (void)svc.get_or_compile(recursive, kGeom);
    FAIL() << "service compiled a recursive graph";
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()), mapper_text);
  }

  // Output-less graph: decode accepts it, Dfg::validate() names it.
  const auto no_output =
      encode_dfg(Dfg::assemble(
          {mapper::DfgNode{DfgOp::kInput, 0, 0, 0, 0, "x"}}, {}));
  try {
    (void)svc.get_or_compile(no_output, kGeom);
    FAIL() << "output-less graph compiled";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("at least one output"),
              std::string::npos);
  }

  // Too many layers for the ring.
  std::string deep = "x input\n";
  std::string prev = "x";
  for (int i = 0; i < 12; ++i) {
    deep += "p" + std::to_string(i) + " abs " + prev + "\n";
    prev = "p" + std::to_string(i);
  }
  deep += "o output " + prev + "\n";
  try {
    (void)svc.get_or_compile(blob_of(deep.c_str()), RingGeometry{4, 2, 16});
    FAIL() << "overdeep graph compiled";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("map_dfg:"), std::string::npos);
  }

  EXPECT_EQ(counter_of(svc, "svc.compile.failures"), 3u);
  EXPECT_EQ(svc.cache_size(), 0u);  // failures are never cached
}

TEST(CompileService, MalformedBlobsAreBadRequestsNotCrashes) {
  CompileService svc;
  EXPECT_THROW((void)svc.get_or_compile({}, kGeom), SimError);
  const std::vector<std::uint8_t> garbage = {'S', 'D', 'F', 'G', 9, 9};
  EXPECT_THROW((void)svc.get_or_compile(garbage, kGeom), SimError);
  EXPECT_EQ(counter_of(svc, "svc.compile.failures"), 1u);
}

TEST(CompileService, FreshServiceAlreadyNamesItsSeries) {
  // CI greps svc.compile.hits off the first stats poll; the series
  // must exist before any compile happens.
  CompileService svc;
  const obs::Registry m = svc.metrics();
  for (const char* name :
       {"svc.compile.hits", "svc.compile.misses", "svc.compile.evictions",
        "svc.compile.validations", "svc.compile.failures"}) {
    EXPECT_NE(m.find_counter(name), nullptr) << name;
  }
  EXPECT_NE(m.find_histogram("svc.compile.latency_us"), nullptr);
}

TEST(DfgJob, RunsOnTheFleetBitExactToTheLocalMapper) {
  CompileService svc;
  const auto blob = blob_of(kMacGraph);
  const auto compiled = svc.get_or_compile(blob, kGeom).compiled;

  const std::size_t samples = 24;
  std::vector<std::vector<Word>> streams(compiled->mapped.input_count);
  Rng rng(0xABCDEF);
  for (auto& s : streams) {
    s.resize(samples);
    for (auto& w : s) w = rng.next_word_in(-100, 100);
  }

  rt::Runtime runtime;
  rt::Job job = make_dfg_job(compiled, streams);
  EXPECT_EQ(job.name, "dfg/" + dfg_hash_hex(compiled->dfg_hash));
  EXPECT_EQ(job.program.get(), &compiled->mapped.program);  // aliased
  const rt::JobResult result = runtime.submit(std::move(job)).get();
  ASSERT_TRUE(result.ok) << result.error;

  const auto streams_out =
      delace_outputs(*compiled, result.outputs, samples);
  const auto local = mapper::run_mapped(compiled->mapped, streams);
  EXPECT_EQ(streams_out, local.outputs);
}

TEST(DfgJob, RejectsRaggedAndMismatchedStreams) {
  CompileService svc;
  const auto compiled =
      svc.get_or_compile(blob_of(kMacGraph), kGeom).compiled;
  EXPECT_THROW((void)make_dfg_job(compiled, {}), SimError);
  EXPECT_THROW((void)make_dfg_job(compiled, {{1, 2}, {3, 4}}), SimError);
  EXPECT_THROW((void)make_dfg_job(compiled, {{}}), SimError);
}

}  // namespace
}  // namespace sring::svc
