// Golden-file tests of the event sinks: byte-exact output for
// hand-fed event streams, end-to-end structural validation of a real
// 3-Dnode MAC run traced through the JSONL and Chrome sinks, and pinned
// digests of the text, JSONL and VCD traces of two kernel runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "asm/program_builder.hpp"
#include "json_test_util.hpp"
#include "kernels/jobs.hpp"
#include "kernels/mac_kernel.hpp"
#include "obs/sinks.hpp"
#include "sim/system.hpp"
#include "sim/vcd.hpp"

namespace sring {
namespace {

RingGeometry small_geom() { return {3, 1, 16}; }

/// Three Dnodes, one per layer, all in local stand-alone mode.  Layer 0
/// MACs host pairs into R0 and streams every partial sum back; layers 1
/// and 2 run a register-only MAC so every Dnode issues each cycle.
LoadableProgram three_dnode_mac_program() {
  const RingGeometry g = small_geom();
  ProgramBuilder pb(g, "trace_mac3");
  PageBuilder page(g);
  SwitchRoute r;
  r.in1 = PortRoute::host();
  r.in2 = PortRoute::host();
  page.route(0, 0, r);
  for (std::size_t layer = 0; layer < g.layers; ++layer) {
    page.mode(layer, 0, DnodeMode::kLocal);
  }
  pb.add_page(page);

  DnodeInstr host_mac;
  host_mac.op = DnodeOp::kMac;
  host_mac.src_a = DnodeSrc::kIn1;
  host_mac.src_b = DnodeSrc::kIn2;
  host_mac.src_c = DnodeSrc::kR0;
  host_mac.dst = DnodeDst::kR0;
  host_mac.host_en = true;
  pb.local_program(0, {host_mac});

  DnodeInstr reg_mac;
  reg_mac.op = DnodeOp::kMac;
  reg_mac.src_a = DnodeSrc::kR1;
  reg_mac.src_b = DnodeSrc::kR2;
  reg_mac.src_c = DnodeSrc::kR0;
  reg_mac.dst = DnodeDst::kR0;
  pb.local_program(1, {reg_mac});
  pb.local_program(2, {reg_mac});

  pb.page_switch(0);
  pb.halt();
  return pb.build();
}

/// Run the 3-Dnode program with `sink` attached and return the cycle
/// count.  Detaches and finalizes the sink before returning.
std::uint64_t run_traced(obs::EventSink& sink) {
  System sys({small_geom()});
  sys.load(three_dnode_mac_program());
  sys.set_trace(&sink);
  sys.host().send(std::vector<Word>{2, 3, 4, 5});  // two MAC pairs
  sys.run_cycles(8);
  sys.set_trace(nullptr);
  sink.end();
  return sys.cycle();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

// --- byte-exact goldens on a hand-fed stream ---------------------------

std::vector<obs::Event> golden_events() {
  return {
      {1, obs::kControllerTrack, "pgswitch", 0, 1},
      {2, obs::dnode_track(0), "mac", -6, 1},
      {2, obs::switch_track(1, 0), "route.update", 1, 1},
  };
}

TEST(JsonlSink, GoldenOutput) {
  std::ostringstream os;
  obs::JsonlSink sink(os);
  sink.begin(obs::make_tracks(1, 1));
  for (const auto& e : golden_events()) sink.event(e);
  sink.end();
  EXPECT_EQ(
      os.str(),
      "{\"type\":\"trace_begin\",\"tracks\":[\"ctrl\",\"bus\",\"ring\","
      "\"dnode 0.0\",\"switch 0\"]}\n"
      "{\"type\":\"event\",\"cycle\":1,\"track\":\"ctrl\","
      "\"name\":\"pgswitch\",\"value\":0,\"dur\":1}\n"
      "{\"type\":\"event\",\"cycle\":2,\"track\":\"dnode 0.0\","
      "\"name\":\"mac\",\"value\":-6,\"dur\":1}\n"
      "{\"type\":\"event\",\"cycle\":2,\"track\":\"switch 0\","
      "\"name\":\"route.update\",\"value\":1,\"dur\":1}\n"
      "{\"type\":\"trace_end\"}\n");
}

TEST(ChromeTraceSink, GoldenOutput) {
  std::ostringstream os;
  obs::ChromeTraceSink sink(os);
  sink.begin(obs::make_tracks(1, 1));
  for (const auto& e : golden_events()) sink.event(e);
  sink.end();
  EXPECT_EQ(
      os.str(),
      "[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"system\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"ctrl\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"bus\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"ring\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"dnodes\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"dnode 0.0\"}},\n"
      "{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"switches\"}},\n"
      "{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"switch 0\"}},\n"
      "{\"ph\":\"X\",\"ts\":1,\"dur\":1,\"pid\":1,\"tid\":0,"
      "\"name\":\"pgswitch\",\"args\":{\"value\":0}},\n"
      "{\"ph\":\"X\",\"ts\":2,\"dur\":1,\"pid\":2,\"tid\":0,"
      "\"name\":\"mac\",\"args\":{\"value\":-6}},\n"
      "{\"ph\":\"X\",\"ts\":2,\"dur\":1,\"pid\":3,\"tid\":0,"
      "\"name\":\"route.update\",\"args\":{\"value\":1}}\n"
      "]\n");
}

TEST(ChromeTraceSink, DestructorClosesTheArray) {
  std::ostringstream os;
  {
    obs::ChromeTraceSink sink(os);
    sink.begin(obs::make_tracks(1, 1));
    // owner "forgets" end()
  }
  const obs::JsonValue doc = test::parse_json(os.str());
  EXPECT_TRUE(doc.is_array());
}

// --- end-to-end: real System run through each sink ---------------------

TEST(JsonlSink, SystemRunIsValidJsonl) {
  std::ostringstream os;
  obs::JsonlSink sink(os);
  const std::uint64_t cycles = run_traced(sink);
  ASSERT_EQ(cycles, 8u);

  const auto lines = lines_of(os.str());
  ASSERT_GE(lines.size(), 3u);

  // Framing records.
  const obs::JsonValue head = test::parse_json(lines.front());
  EXPECT_EQ(head.find("type")->as_string(), "trace_begin");
  ASSERT_NE(head.find("tracks"), nullptr);
  EXPECT_EQ(head.find("tracks")->items().size(), 3u + 3u + 3u);
  const obs::JsonValue tail = test::parse_json(lines.back());
  EXPECT_EQ(tail.find("type")->as_string(), "trace_end");

  // Every interior line is a complete event record with a monotonically
  // nondecreasing cycle, labeled from 1 (the legacy trace convention).
  std::uint64_t prev_cycle = 1;
  std::size_t mac_on_dnode0 = 0;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    const obs::JsonValue e = test::parse_json(lines[i]);
    ASSERT_NE(e.find("type"), nullptr) << lines[i];
    EXPECT_EQ(e.find("type")->as_string(), "event");
    ASSERT_NE(e.find("cycle"), nullptr);
    ASSERT_NE(e.find("track"), nullptr);
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("value"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    const std::uint64_t cyc = e.find("cycle")->as_uint();
    EXPECT_GE(cyc, prev_cycle);
    EXPECT_LE(cyc, cycles);
    prev_cycle = cyc;
    if (e.find("track")->as_string() == "dnode 0.0" &&
        e.find("name")->as_string() == "mac") {
      ++mac_on_dnode0;
    }
  }
  EXPECT_GE(mac_on_dnode0, 2u) << "both host MAC pairs must be traced";
}

TEST(ChromeTraceSink, SystemRunIsValidChromeTrace) {
  std::ostringstream os;
  obs::ChromeTraceSink sink(os);
  run_traced(sink);

  const obs::JsonValue doc = test::parse_json(os.str());
  ASSERT_TRUE(doc.is_array());
  ASSERT_FALSE(doc.items().empty());

  std::size_t meta = 0, complete = 0, mac_events = 0;
  bool saw_dnode_thread_name = false;
  for (const obs::JsonValue& e : doc.items()) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    ASSERT_NE(e.find("name"), nullptr);
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "M") {
      ++meta;
      if (e.find("name")->as_string() == "thread_name" &&
          e.find("args")->find("name")->as_string() == "dnode 0.0") {
        saw_dnode_thread_name = true;
      }
      continue;
    }
    // Everything else must be a complete event with a timestamp.
    ASSERT_EQ(ph, "X");
    ++complete;
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    ASSERT_NE(e.find("args"), nullptr);
    if (e.find("name")->as_string() == "mac" &&
        e.find("pid")->as_uint() == 2u) {
      ++mac_events;
    }
  }
  // 3 process_name + 9 thread_name metadata records for {3,1}.
  EXPECT_EQ(meta, 12u);
  EXPECT_GT(complete, 0u);
  EXPECT_TRUE(saw_dnode_thread_name);
  EXPECT_GE(mac_events, 2u);
}

TEST(TextSink, SystemRunKeepsLegacyLineFormat) {
  std::ostringstream os;
  obs::TextSink sink(os);
  const std::uint64_t cycles = run_traced(sink);

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), cycles) << "one line per cycle";
  EXPECT_EQ(lines.front().substr(0, 4), "cyc ");
  EXPECT_NE(lines.front().find(" pc "), std::string::npos);
  EXPECT_NE(lines.front().find(" bus "), std::string::npos);
  // {3,1} geometry: three Dnode columns, two layer separators.
  std::size_t separators = 0;
  for (const char c : lines.front()) separators += (c == '/');
  EXPECT_EQ(separators, 2u);
}

// --- pinned traces of kernel runs --------------------------------------

/// "len N fnv H": the size and FNV-1a 64 digest of `bytes`.
std::string digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return "len " + std::to_string(bytes.size()) + " fnv " + hex;
}

/// Forwards every callback to two sinks.
class TeeSink : public obs::EventSink {
 public:
  TeeSink(obs::EventSink& a, obs::EventSink& b) : a_(a), b_(b) {}
  void begin(const std::vector<obs::Track>& tracks) override {
    a_.begin(tracks);
    b_.begin(tracks);
  }
  void event(const obs::Event& e) override {
    a_.event(e);
    b_.event(e);
  }
  void cycle_end(const obs::CycleState& state) override {
    a_.cycle_end(state);
    b_.cycle_end(state);
  }
  void end() override {
    a_.end();
    b_.end();
  }

 private:
  obs::EventSink& a_;
  obs::EventSink& b_;
};

struct TraceDigests {
  std::string text, jsonl, vcd;
  std::uint64_t cycles = 0;
  std::uint64_t plan_hits = 0;
};

/// Run `cycles` System::step() calls of `program` on `input` with the
/// text and JSONL sinks attached and a VCD sample after every cycle.
TraceDigests trace_digests(const RingGeometry& g,
                           const LoadableProgram& program,
                           const std::vector<Word>& input, int cycles) {
  System sys({g});
  sys.load(program);
  sys.host().send(input);
  std::ostringstream text, jsonl, vcd_out;
  obs::TextSink text_sink(text);
  obs::JsonlSink jsonl_sink(jsonl);
  TeeSink tee(text_sink, jsonl_sink);
  VcdWriter vcd(vcd_out, sys);
  sys.set_trace(&tee);
  for (int c = 0; c < cycles; ++c) {
    sys.step();
    vcd.sample(sys);
  }
  sys.set_trace(nullptr);
  tee.end();
  return {digest(text.str()), digest(jsonl.str()), digest(vcd_out.str()),
          sys.stats().cycles, sys.ring().plan_hits()};
}

std::vector<Word> ramp(std::size_t n, int step) {
  std::vector<Word> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = to_word(static_cast<int>(i % 37) * step - 200);
  }
  return x;
}

// A trace reads the ring state after every cycle.  The bytes of a
// planned global-mode run and a local-mode run are pinned, so a change
// to how the sinks read that state shows as a changed digest.
TEST(TracedRun, FirSpatialDigestsArePinned) {
  const RingGeometry g{8, 2, 16};
  const std::vector<Word> coeffs{5, static_cast<Word>(-3), 2, 1};
  const rt::Job job = kernels::make_spatial_fir_job(g, ramp(96, 11), coeffs);
  const TraceDigests d = trace_digests(g, *job.program, job.input, 120);
  EXPECT_GT(d.plan_hits, d.cycles / 2) << "the cycles must run planned";
  EXPECT_EQ(d.text, "len 19080 fnv 3f68e8941af96535");
  EXPECT_EQ(d.jsonl, "len 99744 fnv 9d527fce7395ca17");
  EXPECT_EQ(d.vcd, "len 17951 fnv 4936424be2a953db");
}

TEST(TracedRun, MacLocalDigestsArePinned) {
  const RingGeometry g{4, 2, 16};
  // The running MAC, also driving its output register so the text and
  // VCD traces show the partial sums.
  LoadableProgram program = kernels::make_running_mac_program(g);
  for (auto& lw : program.local_init) {
    if (lw.slot < kLocalProgramSlots) {
      DnodeInstr instr = DnodeInstr::decode(lw.value);
      instr.out_en = true;
      lw.value = instr.encode();
    }
  }
  const TraceDigests d = trace_digests(g, program, ramp(80, 7), 48);
  EXPECT_GT(d.plan_hits, d.cycles / 2) << "the cycles must run planned";
  EXPECT_EQ(d.text, "len 4560 fnv 0c2f9016639d40e3");
  EXPECT_EQ(d.jsonl, "len 10700 fnv a2b8152d74b418d0");
  EXPECT_EQ(d.vcd, "len 2418 fnv 46f13c9024874be7");
}

}  // namespace
}  // namespace sring
