// The metric catalogue cannot drift from the code: every instrument
// name a served run, a runtime snapshot or a run report produces must
// be documented in docs/OBSERVABILITY.md, docs/RUNTIME.md or
// docs/SERVING.md.
//
// Indexed names are normalized on both sides (rt.worker.<i>.*,
// net.shard.<i>.*, dnode.L.K.*, switch.S.*).  The docs list names in
// backticks and use two shorthands, both expanded here:
// `a.b.c/d/e` lists siblings of the last segment (or of the last
// `_`-suffix, as in `rt.host_words_in/out`), and a token starting with
// a dot (`.alu`) is a sibling of the previous token's last segment.
//
// The ring-wide counter table is checked in both directions: every
// kRingCounterNames entry is documented, and every `ring.*` row of
// OBSERVABILITY.md's Metrics table is a counter the code produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dsp/matvec.hpp"
#include "kernels/jobs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/protocol.hpp"
#include "rt/runtime.hpp"
#include "sim/system.hpp"
#include "svc/dfg_codec.hpp"
#include "svc/dfg_text.hpp"
#include "tile/gemm_ref.hpp"

namespace sring {
namespace {

constexpr RingGeometry kGeom{8, 2, 16};

std::string normalize(std::string name) {
  static const std::vector<std::pair<std::regex, std::string>> rules{
      {std::regex(R"(^rt\.worker\.[^.]+\.)"), "rt.worker.<i>."},
      {std::regex(R"(^net\.shard\.[^.]+\.)"), "net.shard.<i>."},
      {std::regex(R"(^dnode\.[^.]+\.[^.]+\.)"), "dnode.L.K."},
      {std::regex(R"(^switch\.[^.]+\.)"), "switch.S."},
  };
  for (const auto& [re, with] : rules) name = std::regex_replace(name, re, with);
  return name;
}

std::string parent_of(const std::string& name, char sep) {
  const auto cut = name.rfind(sep);
  return cut == std::string::npos ? std::string() : name.substr(0, cut + 1);
}

/// Every metric name the given docs document, normalized.
std::set<std::string> documented_names(
    std::initializer_list<const char*> docs = {"OBSERVABILITY.md",
                                               "RUNTIME.md", "SERVING.md"}) {
  std::set<std::string> out;
  const std::regex token("`([^`\n]+)`");
  for (const char* doc : docs) {
    std::ifstream in(std::string(SRING_DOCS_DIR) + "/" + doc);
    EXPECT_TRUE(in) << doc;
    std::stringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    std::string prev;
    for (std::sregex_iterator it(s.begin(), s.end(), token), end; it != end;
         ++it) {
      std::vector<std::string> alts;
      std::stringstream parts((*it)[1].str());
      for (std::string alt; std::getline(parts, alt, '/');) {
        alts.push_back(alt);
      }
      if (alts.empty() || alts[0].empty()) continue;
      std::string first = alts[0];
      if (first[0] == '.') first = parent_of(prev, '.') + first.substr(1);
      if (first.find('.') == std::string::npos) continue;
      out.insert(normalize(first));
      for (std::size_t i = 1; i < alts.size(); ++i) {
        const std::string& alt = alts[i];
        if (!alt.empty() && alt[0] == '.') {
          out.insert(normalize(parent_of(first, '.') + alt.substr(1)));
        } else {
          out.insert(normalize(parent_of(first, '.') + alt));
          out.insert(normalize(parent_of(first, '_') + alt));
        }
      }
      prev = first;
    }
  }
  return out;
}

/// The `ring.*` names in the first column of OBSERVABILITY.md's
/// Metrics table.
std::set<std::string> ring_table_names() {
  std::ifstream in(std::string(SRING_DOCS_DIR) + "/OBSERVABILITY.md");
  EXPECT_TRUE(in);
  std::set<std::string> out;
  const std::regex token("`(ring\\.[^`]+)`");
  bool in_table = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) in_table = line == "## Metrics";
    if (!in_table || line.rfind("| `", 0) != 0) continue;
    const std::string cell = line.substr(0, line.find('|', 1));
    for (std::sregex_iterator it(cell.begin(), cell.end(), token), end;
         it != end; ++it) {
      out.insert((*it)[1].str());
    }
  }
  return out;
}

void collect(const obs::Registry& reg, std::set<std::string>& names) {
  for (const auto& [name, c] : reg.counters()) names.insert(normalize(name));
  for (const auto& [name, h] : reg.histograms()) {
    names.insert(normalize(name));
  }
}

void collect(const std::vector<std::pair<std::string, std::uint64_t>>& slice,
             std::set<std::string>& names) {
  for (const auto& [name, value] : slice) names.insert(name);
}

TEST(MetricCatalogue, EveryProducedNameIsDocumented) {
  std::set<std::string> produced;
  // The per-job counter slices the replies carry, checked on their own
  // against OBSERVABILITY.md below.
  std::set<std::string> slices;

  {  // a small mixed served run: kernels, a batch and a GEMM
    net::ServerConfig scfg;
    scfg.runtime.workers = 2;
    scfg.shards = 2;
    net::Server server(scfg);
    std::thread loop([&server] { server.run(); });
    {
      net::ClientConfig ccfg;
      ccfg.port = server.port();
      ccfg.io_timeout_ms = 10000;
      net::Client client(ccfg);
      net::JobRequest fir;
      fir.kernel = net::KernelId::kFir;
      fir.geometry = kGeom;
      fir.fir_coeffs = {1, 2, 3};
      fir.input.assign(48, 5);
      net::JobRequest mv;
      mv.kernel = net::KernelId::kMatvec8;
      mv.geometry = kGeom;
      for (const auto& row : dsp::dct8_matrix_q7()) {
        mv.matvec_m.insert(mv.matvec_m.end(), row.begin(), row.end());
      }
      mv.input.assign(16, 3);
      const net::RemoteResult one = client.submit(fir);
      EXPECT_TRUE(one.ok);
      collect(one.counters, slices);
      for (const auto& r : client.submit_batch_wire({fir, mv})) {
        EXPECT_TRUE(r.ok) << r.error;
        collect(r.counters, slices);
      }
      tile::GemmSpec spec;
      spec.m = 8;
      spec.k = 8;
      spec.n = 8;
      const auto a = tile::random_operand(64, spec.dtype, 1);
      const auto b = tile::random_operand(64, spec.dtype, 2);
      const net::RemoteGemmResult gemm = client.submit_gemm(spec, a, b, kGeom);
      EXPECT_TRUE(gemm.ok);
      collect(gemm.counters, slices);
      const net::RemoteDfgResult dfg = client.submit_dfg(
          svc::encode_dfg(svc::parse_dfg_text("x input\n"
                                              "y add x x\n"
                                              "o output y\n")),
          {std::vector<Word>(16, 3)}, kGeom);
      EXPECT_TRUE(dfg.ok) << dfg.error;
      collect(dfg.counters, slices);
    }
    server.request_drain();
    loop.join();
    collect(server.metrics(), produced);
  }

  {  // a runtime that also saw a failure, and one job's run report
    rt::Runtime runtime({.workers = 1});
    const std::vector<Word> coeffs{1, 2};
    rt::Job starved =
        kernels::make_spatial_fir_job(kGeom, std::vector<Word>(32, 1), coeffs);
    starved.max_cycles = 3;
    EXPECT_FALSE(runtime.submit(std::move(starved)).get().ok);
    const rt::JobResult ok =
        runtime
            .submit(kernels::make_dwt53_job(kGeom, std::vector<Word>(32, 7)))
            .get();
    ASSERT_TRUE(ok.ok) << ok.error;
    collect(runtime.metrics(), produced);

    const obs::JsonValue report = ok.report.to_json();
    const obs::JsonValue* metrics = report.find("metrics");
    ASSERT_NE(metrics, nullptr);
    for (const char* kind : {"counters", "histograms"}) {
      ASSERT_NE(metrics->find(kind), nullptr) << kind;
      for (const auto& [name, v] : metrics->find(kind)->members()) {
        produced.insert(normalize(name));
      }
    }
  }

  const std::set<std::string> documented = documented_names();
  std::string missing;
  for (const auto& name : produced) {
    if (documented.count(name) == 0) missing += "\n  " + name;
  }
  EXPECT_GT(produced.size(), 100u);
  EXPECT_TRUE(missing.empty()) << "undocumented metric names:" << missing;
  // The fleet's queue-wait, arm and execute phases are rt.latency.*
  // only; the server's duplicates are gone from the code and the docs.
  for (const char* retired : {"net.latency.queue_wait_us",
                              "net.latency.arm_us", "net.latency.execute_us"}) {
    EXPECT_EQ(produced.count(retired), 0u) << retired;
    EXPECT_EQ(documented.count(retired), 0u) << retired;
  }
  for (const char* phase : {"rt.latency.queue_wait_us", "rt.latency.arm_us",
                            "rt.latency.execute_us"}) {
    EXPECT_EQ(produced.count(phase), 1u) << phase;
  }

  // Per-job slices: every sim.* name net::result_counters renders, the
  // svc.dfg.* slice of a DFG reply and the tile.* slice of a GEMM reply.
  for (const std::string_view name : net::kResultCounterNames) {
    EXPECT_EQ(slices.count(std::string(name)), 1u) << "reply lacks " << name;
  }
  EXPECT_EQ(net::kResultCounterNames.size(), 8u);
  for (const char* prefix : {"sim.", "svc.dfg.", "tile."}) {
    EXPECT_TRUE(std::any_of(slices.begin(), slices.end(),
                            [prefix](const std::string& n) {
                              return n.rfind(prefix, 0) == 0;
                            }))
        << "no " << prefix << "* slice collected";
  }
  const std::set<std::string> observability =
      documented_names({"OBSERVABILITY.md"});
  std::string undocumented;
  for (const auto& name : slices) {
    if (observability.count(name) == 0) undocumented += "\n  " + name;
  }
  EXPECT_TRUE(undocumented.empty())
      << "per-job counters missing from OBSERVABILITY.md:" << undocumented;
}

TEST(MetricCatalogue, RingCountersAndTheMetricsTableAgree) {
  const std::set<std::string> documented = documented_names();
  for (const std::string_view name : kRingCounterNames) {
    EXPECT_EQ(documented.count(std::string(name)), 1u)
        << "undocumented ring counter " << name;
  }
  const std::set<std::string> table = ring_table_names();
  EXPECT_GE(table.size(), 7u);
  for (const std::string& name : table) {
    EXPECT_NE(std::find(kRingCounterNames.begin(), kRingCounterNames.end(),
                        name),
              kRingCounterNames.end())
        << "documented ring counter the code no longer produces: " << name;
  }
}

}  // namespace
}  // namespace sring
