// Seeded differential at the edges of guard-free superstep spans.
//
// A fused dispatch runs its steady state in spans: stretches of cycles
// sized up front so that no budget, output-stop or host-input guard can
// stop them, with the host-FIFO depth histogram and the host output
// range credited once per span.  These cases drive four kernels —
// spatial FIR, the 5/3 wavelet, the local-mode running MAC and a random
// local-mode schedule whose superstep period exceeds 1 (per-phase host
// pops and outputs differ) — through random sequences of run_cycles(k)
// and run_until_outputs(m), with the host input cut short so spans end
// at the host-input limit, the output stop and the budget at arbitrary
// phases.  The interpreter, the planned path stepped one System::step()
// per cycle and the default run must agree on outputs, SystemStats,
// the host.in_fifo_depth histogram and the RunReport.  A failure names
// its kernel and seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "asm/program_builder.hpp"
#include "common/rng.hpp"
#include "kernels/jobs.hpp"
#include "kernels/mac_kernel.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "stepped_run.hpp"

namespace sring {
namespace {

constexpr int kSeedsPerKernel = 16;

enum class Kernel { kFir, kDwt53, kMacLocal, kLocalSchedule, kCount };

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kFir:
      return "fir.spatial";
    case Kernel::kDwt53:
      return "dwt53";
    case Kernel::kMacLocal:
      return "mac.local";
    default:
      return "local.schedule";
  }
}

std::vector<Word> signal(Rng& rng, std::size_t n) {
  std::vector<Word> x(n);
  for (Word& w : x) w = rng.next_word_in(-500, 500);
  return x;
}

/// Local-mode Dnodes on layer 0 with programs of 1-4 slots (period up
/// to 12) that read host words in some slots and output in others,
/// feeding a global-mode layer with a host-out tap.
LoadableProgram make_local_schedule(Rng& rng, const RingGeometry& g) {
  ProgramBuilder pb(g, "local_schedule");
  PageBuilder page(g);
  SwitchRoute host_in;
  host_in.in1 = PortRoute::host();
  host_in.in2 = PortRoute::prev(0);
  static const DnodeOp kOps[] = {DnodeOp::kPass, DnodeOp::kAdd,
                                 DnodeOp::kMac, DnodeOp::kSub,
                                 DnodeOp::kAbsdiff};
  static const DnodeSrc kSrcs[] = {DnodeSrc::kIn1, DnodeSrc::kIn2,
                                   DnodeSrc::kHost, DnodeSrc::kR0,
                                   DnodeSrc::kImm, DnodeSrc::kFifo1};
  std::size_t period = 1;
  for (std::size_t lane = 0; lane < g.lanes; ++lane) {
    page.route(0, lane, host_in);
    page.mode(0, lane, DnodeMode::kLocal);
    std::vector<DnodeInstr> prog(1 + rng.next_below(4));
    for (DnodeInstr& in : prog) {
      if (rng.next_below(5) == 0) continue;  // NOP slot
      in.op = kOps[rng.next_below(std::size(kOps))];
      in.src_a = kSrcs[rng.next_below(std::size(kSrcs))];
      in.src_b = kSrcs[rng.next_below(std::size(kSrcs))];
      in.src_c = DnodeSrc::kR0;
      in.dst = rng.next_below(2) == 0 ? DnodeDst::kR0 : DnodeDst::kNone;
      in.imm = rng.next_word_in(-20, 20);
      in.out_en = true;
      in.host_en = rng.next_below(2) == 0;
    }
    period = std::lcm(period, prog.size());
    pb.local_program(lane, prog);
  }
  DnodeInstr sum;
  sum.op = DnodeOp::kAdd;
  sum.src_a = DnodeSrc::kIn1;
  sum.src_b = DnodeSrc::kIn2;
  sum.out_en = true;
  SwitchRoute from_prev;
  from_prev.in1 = PortRoute::prev(0);
  from_prev.in2 = PortRoute::prev(g.lanes - 1);
  from_prev.host_out_en = rng.next_below(2) == 0;
  page.instr(1, 0, sum);
  page.route(1, 0, from_prev);
  pb.add_page(std::move(page));
  pb.page_switch(0);
  pb.halt();
  return std::move(pb).build();
}

struct Case {
  RingGeometry g{};
  std::shared_ptr<const LoadableProgram> program;
  std::vector<Word> input;
  /// Host feeds (kSend), cycle budgets (kCycles) and output targets
  /// (kOutputs: n more words within kOutputBudget cycles).
  struct Action {
    enum Kind { kSend, kCycles, kOutputs } kind;
    std::size_t n;
  };
  std::vector<Action> drive;
};

constexpr std::uint64_t kOutputBudget = 300;

Case make_case(Kernel kernel, int seed) {
  Rng rng(0x5BA9ull * 1000003u + static_cast<std::uint64_t>(kernel) * 7919u +
          static_cast<std::uint64_t>(seed));
  Case c;
  c.g = {8, 2, 16};
  const std::size_t samples = 200 + rng.next_below(600);
  switch (kernel) {
    case Kernel::kFir: {
      const std::vector<Word> coeffs{5, static_cast<Word>(-3), 2, 1};
      rt::Job job =
          kernels::make_spatial_fir_job(c.g, signal(rng, samples), coeffs);
      c.program = job.program;
      c.input = std::move(job.input);
      break;
    }
    case Kernel::kDwt53: {
      rt::Job job =
          kernels::make_dwt53_job(c.g, signal(rng, samples & ~std::size_t{1}));
      c.program = job.program;
      c.input = std::move(job.input);
      break;
    }
    case Kernel::kMacLocal:
      c.program = std::make_shared<const LoadableProgram>(
          kernels::make_running_mac_program(c.g));
      c.input = signal(rng, 2 * samples);
      break;
    default:
      c.g = {3, 2 + rng.next_below(2), 4};
      c.program = std::make_shared<const LoadableProgram>(
          make_local_schedule(rng, c.g));
      c.input = signal(rng, 3 * samples);
      break;
  }

  // Feeds cut the input short of what the next runs consume, so spans
  // end at the host-input limit as well as at stops and budgets.
  std::size_t sent = 0;
  for (int step = 0; step < 40; ++step) {
    if (sent < c.input.size() && rng.next_below(100) < 55) {
      const std::size_t k = std::min<std::size_t>(c.input.size() - sent,
                                                  1 + rng.next_below(90));
      c.drive.push_back({Case::Action::kSend, k});
      sent += k;
    }
    if (rng.next_below(2) == 0) {
      c.drive.push_back({Case::Action::kCycles, 1 + rng.next_below(
                                                        rng.next_below(4) == 0
                                                            ? 400
                                                            : 24)});
    } else {
      c.drive.push_back({Case::Action::kOutputs, 1 + rng.next_below(40)});
    }
  }
  if (sent < c.input.size()) {
    c.drive.push_back({Case::Action::kSend, c.input.size() - sent});
  }
  c.drive.push_back({Case::Action::kCycles, 4 * samples});
  return c;
}

enum class Path { kInterpreter, kStepped, kFused };

struct Outcome {
  std::vector<Word> outputs;
  SystemStats stats;
  std::array<std::uint64_t, RingMetrics::kHostDepthBounds.size() + 1>
      depths{};
  RunReport report;
  std::uint64_t timeouts = 0;  ///< kOutputs actions past their budget
  std::uint64_t superstep_cycles = 0;
};

Outcome run_case(const Case& c, Path path) {
  System sys({c.g});
  sys.ring().set_plan_cache_enabled(path != Path::kInterpreter);
  const Drive drive{path != Path::kFused};
  sys.load(*c.program);
  Outcome o;
  std::size_t sent = 0;
  for (const Case::Action& a : c.drive) {
    switch (a.kind) {
      case Case::Action::kSend:
        sys.host().send(std::span<const Word>(c.input).subspan(sent, a.n));
        sent += a.n;
        break;
      case Case::Action::kCycles:
        drive.cycles(sys, a.n);
        break;
      case Case::Action::kOutputs:
        // The budget throws at the same cycle on every path.
        try {
          drive.until_outputs(sys, sys.host().received().size() + a.n,
                              kOutputBudget);
        } catch (const SimError&) {
          ++o.timeouts;
        }
        break;
    }
  }
  o.outputs = sys.host().received();
  o.stats = sys.stats();
  o.depths = sys.ring_metrics().host_in_fifo_depth;
  o.report = RunReport::from_system("span_edges", sys);
  o.superstep_cycles = sys.ring().superstep_cycles();
  return o;
}

/// Serialized report minus the counters a path may move: ring.superstep.*
/// always, and the plan counters against the interpreter.
std::string report_json(RunReport r, bool drop_plan) {
  for (const char* name :
       {"ring.superstep.dispatches", "ring.superstep.cycles",
        "ring.superstep.trace_cycles"}) {
    r.metrics.counter(name).set(0);
  }
  if (drop_plan) {
    for (const char* name :
         {"ring.plan.compiles", "ring.plan.hits", "ring.plan.invalidations",
          "ring.plan.content_hits", "ring.plan.evictions"}) {
      r.metrics.counter(name).set(0);
    }
    r.stats.plan_compiles = 0;
    r.stats.plan_hits = 0;
    r.stats.plan_invalidations = 0;
    r.stats.plan_content_hits = 0;
    r.stats.plan_evictions = 0;
  }
  return r.to_json().dump();
}

TEST(SpanEdges, InterpreterSteppedAndFusedAgree) {
  for (int k = 0; k < static_cast<int>(Kernel::kCount); ++k) {
    const auto kernel = static_cast<Kernel>(k);
    std::uint64_t fused = 0;
    std::uint64_t cycles = 0;
    for (int seed = 0; seed < kSeedsPerKernel; ++seed) {
      SCOPED_TRACE(std::string(kernel_name(kernel)) + " seed " +
                   std::to_string(seed));
      const Case c = make_case(kernel, seed);
      const Outcome interp = run_case(c, Path::kInterpreter);
      const Outcome stepped = run_case(c, Path::kStepped);
      const Outcome run = run_case(c, Path::kFused);

      EXPECT_EQ(interp.outputs, stepped.outputs);
      EXPECT_EQ(stepped.outputs, run.outputs);
      EXPECT_EQ(interp.timeouts, run.timeouts);
      EXPECT_EQ(stepped.timeouts, run.timeouts);
      EXPECT_EQ(interp.depths, stepped.depths);
      EXPECT_EQ(stepped.depths, run.depths);
      EXPECT_EQ(stepped.stats.to_string(), run.stats.to_string());
      EXPECT_EQ(report_json(interp.report, true),
                report_json(stepped.report, true));
      EXPECT_EQ(report_json(stepped.report, false),
                report_json(run.report, false));
      EXPECT_EQ(stepped.superstep_cycles, 0u);
      if (testing::Test::HasFailure()) return;
      fused += run.superstep_cycles;
      cycles += run.stats.cycles - run.stats.ring_stall_cycles;
    }
    // The default runs must fuse most cycles that are not host-input
    // stalls (step() replays those), or they test no span.
    EXPECT_GT(fused, cycles / 2) << kernel_name(kernel);
  }
}

}  // namespace
}  // namespace sring
