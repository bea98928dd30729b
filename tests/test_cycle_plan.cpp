// The Ring's decoded cycle-plan cache: bit-exactness against the
// interpreter (steady-state kernels, hardware multiplexing, stalls),
// invalidation via the generation counters, stall semantics on the
// planned path, and the plan observability counters.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "common/image.hpp"
#include "common/rng.hpp"
#include "core/ring.hpp"
#include "dsp/matvec.hpp"
#include "kernels/fir_kernel.hpp"
#include "kernels/jobs.hpp"
#include "kernels/mac_kernel.hpp"
#include "obs/event.hpp"
#include "obs/sinks.hpp"
#include "sim/system.hpp"
#include "stepped_run.hpp"
#include "tile/gemm_job.hpp"
#include "tile/gemm_ref.hpp"

namespace sring {
namespace {

std::vector<Word> signal(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Word> x(n);
  for (auto& w : x) w = rng.next_word_in(-100, 100);
  return x;
}

/// Statistics with the plan counters blanked: everything here must be
/// identical between the planned and the interpreted execution.
SystemStats arch_only(SystemStats s) {
  s.plan_compiles = 0;
  s.plan_hits = 0;
  s.plan_invalidations = 0;
  s.plan_content_hits = 0;
  s.plan_evictions = 0;
  return s;
}

/// The interpreter reference for a kernels::run_* helper: `job`, built
/// from the same make_*_program, on a fresh System with the plan cache
/// off, its outputs sliced as an rt worker slices them.
kernels::FirResult interpret(const rt::Job& job) {
  System sys({job.program->geometry, job.link});
  sys.ring().set_plan_cache_enabled(false);
  sys.load(*job.program);
  sys.host().send(job.input);
  Drive{}.job(sys, job);
  const std::vector<Word> raw = sys.host().take_received();
  kernels::FirResult r;
  const auto first = static_cast<std::ptrdiff_t>(job.discard_prefix);
  r.outputs.assign(raw.begin() + first,
                   raw.begin() + first +
                       static_cast<std::ptrdiff_t>(job.take_words));
  r.stats = sys.stats();
  return r;
}

/// kernels::run_paged_serial_fir / run_wordwise_serial_fir's schedule
/// as a job: x plus `pad` zeros in, run to the halt, the first word
/// (the boot-time accumulator) dropped.
rt::Job serial_fir_job(LoadableProgram program, std::span<const Word> x,
                       std::size_t pad) {
  rt::Job job;
  job.program = std::make_shared<const LoadableProgram>(std::move(program));
  job.input.assign(x.begin(), x.end());
  job.input.insert(job.input.end(), pad, 0);
  job.max_cycles = 1000 + 200 * job.input.size();
  job.discard_prefix = 1;
  job.take_words = x.size();
  return job;
}

DnodeInstr pass_out(DnodeSrc src) {
  DnodeInstr i;
  i.op = DnodeOp::kPass;
  i.src_a = src;
  i.out_en = true;
  return i;
}

TEST(CyclePlan, RunningMacBitExactAndServedFromPlan) {
  const RingGeometry g{4, 2, 8};
  const std::vector<Word> a = signal(1, 200);
  const std::vector<Word> b = signal(2, 200);
  const LoadableProgram program = kernels::make_running_mac_program(g);

  std::vector<Word> outs[2];
  SystemStats stats[2];
  std::uint64_t hits = 0;
  for (const bool planned : {false, true}) {
    System sys({g});
    sys.ring().set_plan_cache_enabled(planned);
    sys.load(program);
    std::vector<Word> interleaved;
    for (std::size_t i = 0; i < a.size(); ++i) {
      interleaved.push_back(a[i]);
      interleaved.push_back(b[i]);
    }
    sys.host().send(interleaved);
    sys.run_until_outputs(a.size(), 64 + 16 * a.size());
    outs[planned] = sys.host().take_received();
    stats[planned] = sys.stats();
    if (planned) hits = sys.ring().plan_hits();
  }
  EXPECT_EQ(outs[0], outs[1]);
  EXPECT_EQ(arch_only(stats[0]).to_string(), arch_only(stats[1]).to_string());
  EXPECT_EQ(stats[0].plan_hits, 0u);
  EXPECT_EQ(stats[1].plan_compiles, 1u)
      << "steady-state local-mode kernel compiles exactly once";
  EXPECT_GE(hits + 4, a.size()) << "the MAC loop must run from the plan";
}

TEST(CyclePlan, SpatialFirBitExactAgainstInterpreter) {
  const RingGeometry g{6, 2, 16};
  const std::vector<Word> x = signal(3, 160);
  const std::vector<Word> coeffs{5, static_cast<Word>(-3), 2, 1};

  const kernels::FirResult planned = kernels::run_spatial_fir(g, x, coeffs);
  const kernels::FirResult interp =
      interpret(kernels::make_spatial_fir_job(g, x, coeffs));

  EXPECT_EQ(planned.outputs, interp.outputs);
  EXPECT_EQ(arch_only(planned.stats).to_string(),
            arch_only(interp.stats).to_string());
  EXPECT_GT(planned.stats.plan_hits, 0u);
  EXPECT_EQ(interp.stats.plan_hits, 0u);
  EXPECT_EQ(interp.stats.plan_compiles, 0u);
}

TEST(CyclePlan, HardwareMultiplexingBitExactWithoutRecompileThrash) {
  // The paged and word-by-word serial FIRs rewrite configware every
  // cycle (or nearly so) — the plan cache must neither change results
  // nor recompile on every rewrite.
  const RingGeometry g{6, 2, 16};
  const std::vector<Word> x = signal(4, 48);
  const std::vector<Word> coeffs{2, static_cast<Word>(-1), 3};

  const kernels::FirResult paged = kernels::run_paged_serial_fir(g, x, coeffs);
  const kernels::FirResult wordwise =
      kernels::run_wordwise_serial_fir(g, x, coeffs);
  {
    const kernels::FirResult paged_i = interpret(serial_fir_job(
        kernels::make_paged_serial_fir_program(g, coeffs, x.size()), x, 1));
    const kernels::FirResult wordwise_i = interpret(serial_fir_job(
        kernels::make_wordwise_serial_fir_program(g, coeffs, x.size()), x,
        0));
    EXPECT_EQ(paged.outputs, paged_i.outputs);
    EXPECT_EQ(wordwise.outputs, wordwise_i.outputs);
    EXPECT_EQ(arch_only(paged.stats).to_string(),
              arch_only(paged_i.stats).to_string());
    EXPECT_EQ(arch_only(wordwise.stats).to_string(),
              arch_only(wordwise_i.stats).to_string());
  }
  // Config-in-flux cycles run the interpreter directly: recompiles are
  // bounded by the stable stretches, never one per rewritten cycle.
  EXPECT_LT(paged.stats.plan_compiles, paged.stats.cycles / 4);
  EXPECT_LT(wordwise.stats.plan_compiles, wordwise.stats.cycles / 4);
}

TEST(CyclePlan, LimitedLinkStallsBitExact) {
  // A starved host link makes the ring stall mid-run; the planned and
  // interpreted executions must agree on outputs AND on the exact
  // stall pattern, and the stalls must not corrupt the stream vs an
  // unstalled run.
  const RingGeometry g{6, 2, 16};
  const std::vector<Word> x = signal(5, 96);
  const std::vector<Word> coeffs{1, 4, static_cast<Word>(-2)};
  const LinkRate starved{1, 2};  // one word every two cycles

  const kernels::FirResult planned =
      kernels::run_spatial_fir(g, x, coeffs, starved);
  const kernels::FirResult smooth = kernels::run_spatial_fir(g, x, coeffs);
  rt::Job starved_job = kernels::make_spatial_fir_job(g, x, coeffs);
  starved_job.link = starved;
  const kernels::FirResult interp = interpret(starved_job);

  ASSERT_GT(planned.stats.ring_stall_cycles, 0u) << "link must starve";
  EXPECT_EQ(planned.outputs, interp.outputs);
  EXPECT_EQ(arch_only(planned.stats).to_string(),
            arch_only(interp.stats).to_string());
  EXPECT_EQ(planned.outputs, smooth.outputs)
      << "stalled and unstalled runs must produce the same stream";
}

TEST(CyclePlan, CountersTrackCompileHitInvalidate) {
  ConfigMemory cfg({2, 1, 4});
  Ring ring({2, 1, 4});
  HostFifo in;
  std::vector<Word> out;
  cfg.write_dnode_instr(0, pass_out(DnodeSrc::kImm).encode());

  ring.step(cfg, 0, in, out);  // first sight: interpreter
  EXPECT_EQ(ring.plan_compiles(), 0u);
  ring.step(cfg, 0, in, out);  // stable: compile + run planned
  EXPECT_EQ(ring.plan_compiles(), 1u);
  EXPECT_EQ(ring.plan_hits(), 0u);
  ring.step(cfg, 0, in, out);  // served by the cached plan
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_hits(), 2u);
  EXPECT_EQ(ring.plan_invalidations(), 0u);

  // A configuration write invalidates; the write-cycle interprets and
  // the plan recompiles one stable step later.
  cfg.write_dnode_instr(0, pass_out(DnodeSrc::kZero).encode());
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_invalidations(), 1u);
  EXPECT_EQ(ring.plan_compiles(), 1u);
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_compiles(), 2u);

  // A local-control write also invalidates (WRLOC path).
  ring.step(cfg, 0, in, out);
  ring.write_local(0, 0, pass_out(DnodeSrc::kImm).encode());
  ring.step(cfg, 0, in, out);
  EXPECT_EQ(ring.plan_invalidations(), 2u);

  // A reset zeroes the counters (the cache itself stays warm).
  ring.reset_for_rerun();
  EXPECT_EQ(ring.plan_compiles(), 0u);
  EXPECT_EQ(ring.plan_hits(), 0u);
  EXPECT_EQ(ring.plan_invalidations(), 0u);
}

TEST(CyclePlan, PlannedModeEntryUnderStallCommitsOnce) {
  // A Dnode entering local mode while the ring stalls: the plan path
  // must fetch slot 0 without touching the counter until a cycle
  // actually advances.
  ConfigMemory cfg({1, 1, 4});
  Ring ring({1, 1, 4});
  HostFifo in;
  std::vector<Word> out;

  DnodeInstr eat = pass_out(DnodeSrc::kHost);  // slot 0: pops one word
  DnodeInstr emit = pass_out(DnodeSrc::kImm);  // slot 1: no host data
  emit.imm = 20;
  ring.write_local(0, 0, eat.encode());
  ring.write_local(0, 1, emit.encode());
  ring.write_local(0, LocalControl::kLimitSlot, 1);
  cfg.write_dnode_mode(0, DnodeMode::kLocal);

  EXPECT_TRUE(ring.step(cfg, 0, in, out).stalled);  // interpreter
  EXPECT_TRUE(ring.step(cfg, 0, in, out).stalled);  // compiles, planned
  EXPECT_TRUE(ring.step(cfg, 0, in, out).stalled);  // plan hit
  EXPECT_EQ(ring.plan_compiles(), 1u);
  EXPECT_EQ(ring.local(0).counter(), 0u)
      << "stalled entry cycles must not advance the local program";

  in.push_back(7);
  EXPECT_FALSE(ring.step(cfg, 0, in, out).stalled);
  EXPECT_EQ(ring.out(0, 0), 7u) << "slot 0 runs on the retry";
  EXPECT_EQ(ring.local(0).counter(), 1u);
  EXPECT_FALSE(ring.step(cfg, 0, in, out).stalled);  // slot 1, no pop
  EXPECT_EQ(ring.out(0, 0), 20u);
}

TEST(CyclePlan, CompileRejectsWhatTheInterpreterRejects) {
  // An out-of-geometry feedback route in local slot 1 (limit 1): both
  // paths must throw from step() on the cycle that reaches it.
  for (const bool planned : {false, true}) {
    ConfigMemory cfg({2, 1, 4});
    Ring ring({2, 1, 4});
    ring.set_plan_cache_enabled(planned);
    HostFifo in;
    std::vector<Word> out;

    SwitchRoute bad;
    bad.fifo1 = {7, 0, 0};  // pipe 7 does not exist in 2 layers
    cfg.write_switch_route(0, 0, bad.encode());
    // Slot 0 stays NOP (routes unchecked for NOP on both paths);
    // slot 1 is the first instruction that samples the bad route.
    ring.write_local(0, 1, pass_out(DnodeSrc::kFifo1).encode());
    ring.write_local(0, LocalControl::kLimitSlot, 1);
    cfg.write_dnode_mode(0, DnodeMode::kLocal);

    EXPECT_NO_THROW(ring.step(cfg, 0, in, out));  // slot 0 is a NOP
    // Interpreter: slot 1 executes and trips the range check.  Plan:
    // the compile on this same step validates the whole program.
    EXPECT_THROW(ring.step(cfg, 0, in, out), SimError);
  }
}

// ---------------------------------------------------------------------
// Superstep engine: the fused run must be observationally identical to
// per-cycle execution — outputs, full SystemStats (including the plan
// counters), and every metric except ring.superstep.* — across every
// boundary that forces it back to single-step.

/// Metrics snapshot minus the ring.superstep.* counters, the only
/// instruments the superstep engine is allowed to move.
std::string metrics_no_superstep(const obs::Registry& reg) {
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

struct SuperRun {
  std::vector<Word> outputs;
  std::string stats;    ///< full SystemStats, plan counters included
  std::string metrics;  ///< minus ring.superstep.*
  std::uint64_t cycles = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t ss_cycles = 0;
};

/// Run `drive` on a fresh System, fused or stepped, and capture
/// everything the engine must not change.
template <typename DriveFn>
SuperRun drive_system(const RingGeometry& g, bool superstep,
                      DriveFn&& drive) {
  System sys({g});
  drive(sys, Drive{!superstep});
  SuperRun r;
  r.outputs = sys.host().take_received();
  r.stats = sys.stats().to_string();
  r.metrics = metrics_no_superstep(sys.metrics());
  r.cycles = sys.cycle();
  r.dispatches = sys.ring().superstep_dispatches();
  r.ss_cycles = sys.ring().superstep_cycles();
  return r;
}

void expect_transparent(const SuperRun& on, const SuperRun& off) {
  EXPECT_EQ(on.outputs, off.outputs);
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(on.stats, off.stats);
  EXPECT_EQ(on.metrics, off.metrics);
  EXPECT_EQ(off.dispatches, 0u)
      << "the stepped reference must never dispatch";
}

TEST(Superstep, HostFifoExhaustionAndRefillBitExact) {
  const RingGeometry g{8, 2, 16};
  const std::vector<Word> coeffs{5, static_cast<Word>(-3), 2, 1};
  const std::vector<Word> x = signal(21, 120);
  const LoadableProgram program =
      kernels::make_spatial_fir_program(g, coeffs);

  const auto drive = [&](System& sys, const Drive& run) {
    sys.load(program);
    // First half, then run long enough to drain the FIFO and sit in
    // ring stalls; refill and finish.  A superstep must break exactly
    // at the exhaustion point and resume after the refill.
    std::vector<Word> first(x.begin(), x.begin() + 60);
    sys.host().send(first);
    run.cycles(sys, 100);
    std::vector<Word> rest(x.begin() + 60, x.end());
    rest.insert(rest.end(), coeffs.size(), 0);  // flush the pipeline
    sys.host().send(rest);
    run.until_outputs(sys, x.size() + coeffs.size(), 4096);
  };

  const SuperRun on = drive_system(g, true, drive);
  const SuperRun off = drive_system(g, false, drive);
  expect_transparent(on, off);
  EXPECT_GT(on.dispatches, 0u);
  EXPECT_GT(on.ss_cycles, 60u) << "the steady phases must run fused";
}

TEST(Superstep, BusDriveBreaksDispatchBitExact) {
  // Dnode 0.0 drives the bus every executed cycle; 1.0 echoes the bus
  // to the host.  The drive lands in the fused loop's next state
  // buffer, so every value is visible the next cycle without ending the
  // dispatch, and the final one reaches the System bus at exit.
  const RingGeometry g{2, 1, 4};
  const LoadableProgram program = assemble(R"(
.ring 2 1 4
.controller
    page boot
    halt
.page boot
    dnode 0.0 { pass none, host bus host }
    dnode 1.0 { pass none, bus host }
)");

  const auto drive = [&](System& sys, const Drive& run) {
    sys.load(program);
    sys.host().send(signal(22, 48));
    run.cycles(sys, 64);  // trailing cycles stall on the drained FIFO
  };

  const SuperRun on = drive_system(g, true, drive);
  const SuperRun off = drive_system(g, false, drive);
  expect_transparent(on, off);
  EXPECT_GT(on.dispatches, 0u);
}

TEST(Superstep, ControllerWaitAndPageSwapBitExact) {
  // Local two-slot program streams through a long controller WAIT
  // (supersteps must cap at the wake-up), then a page swap flips the
  // Dnode to global mode (plan invalidation mid-run).
  const RingGeometry g{2, 1, 4};
  const LoadableProgram program = assemble(R"(
.ring 2 1 4
.controller
    page boot
    wait 37
    page coda
    halt
.page boot
    dnode 0.0 local
.local 0.0
{
    pass none, host host
    pass none, imm(5) host
}
.page coda
    dnode 0.0 { pass none, imm(9) host }
)");

  const auto drive = [&](System& sys, const Drive& run) {
    sys.load(program);
    sys.host().send(signal(23, 40));
    run.until_halt(sys, 400, 6);
  };

  const SuperRun on = drive_system(g, true, drive);
  const SuperRun off = drive_system(g, false, drive);
  expect_transparent(on, off);
  EXPECT_GT(on.dispatches, 0u) << "the WAIT window must run fused";
}

TEST(Superstep, TraceSinkForcesPerCycleBitExact) {
  // A sink attached mid-run must stop fused dispatches immediately —
  // every subsequent cycle needs its events published.
  struct NullSink : obs::EventSink {
    void event(const obs::Event&) override { ++events; }
    std::uint64_t events = 0;
  };

  const RingGeometry g{8, 2, 16};
  const std::vector<Word> coeffs{2, static_cast<Word>(-1), 3};
  const std::vector<Word> x = signal(24, 80);
  const LoadableProgram program =
      kernels::make_spatial_fir_program(g, coeffs);

  NullSink sink;
  std::uint64_t dispatches_at_attach = 0;
  const auto drive = [&](System& sys, const Drive& run) {
    sys.load(program);
    std::vector<Word> feed = x;
    feed.insert(feed.end(), coeffs.size(), 0);
    sys.host().send(feed);
    run.cycles(sys, 40);
    if (!run.stepped) {
      dispatches_at_attach = sys.ring().superstep_dispatches();
    }
    sys.set_trace(&sink);
    run.until_outputs(sys, x.size() + coeffs.size(), 4096);
    sys.set_trace(nullptr);
  };

  const SuperRun on = drive_system(g, true, drive);
  EXPECT_GT(on.dispatches, 0u);
  EXPECT_EQ(on.dispatches, dispatches_at_attach)
      << "no fused dispatch may run while a sink is attached";

  const SuperRun off = drive_system(g, false, drive);
  expect_transparent(on, off);
}

TEST(Superstep, RearmRepeatsBitExact) {
  const RingGeometry g{4, 2, 8};
  const std::vector<Word> a = signal(25, 150);
  const std::vector<Word> b = signal(26, 150);
  const LoadableProgram program = kernels::make_running_mac_program(g);
  std::vector<Word> interleaved;
  for (std::size_t i = 0; i < a.size(); ++i) {
    interleaved.push_back(a[i]);
    interleaved.push_back(b[i]);
  }

  for (const bool superstep : {true, false}) {
    System sys({g});
    const Drive run{!superstep};
    std::vector<Word> first, second;
    sys.load(program);
    sys.host().send(interleaved);
    run.until_outputs(sys, a.size(), 64 + 16 * a.size());
    first = sys.host().take_received();
    ASSERT_TRUE(sys.rearm(program));
    sys.host().send(interleaved);
    run.until_outputs(sys, a.size(), 64 + 16 * a.size());
    second = sys.host().take_received();
    EXPECT_EQ(first, second)
        << "rerun diverged with superstep " << (superstep ? "on" : "off");
  }
}

TEST(Superstep, CountersReachMetrics) {
  System sys({RingGeometry{4, 2, 8}});

  const std::vector<Word> a = signal(27, 100);
  const LoadableProgram program = kernels::make_running_mac_program({4, 2, 8});
  sys.load(program);
  std::vector<Word> interleaved;
  for (const Word w : a) {
    interleaved.push_back(w);
    interleaved.push_back(1);
  }
  sys.host().send(interleaved);
  sys.run_until_outputs(a.size(), 64 + 16 * a.size());

  const obs::Registry reg = sys.metrics();
  const obs::Counter* d = reg.find_counter("ring.superstep.dispatches");
  const obs::Counter* c = reg.find_counter("ring.superstep.cycles");
  ASSERT_NE(d, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_GT(d->value(), 0u);
  EXPECT_GT(c->value(), a.size() / 2)
      << "a steady local-mode run must spend most cycles fused";
  EXPECT_EQ(sys.ring().superstep_cycles(), c->value());
}

// ---------------------------------------------------------------------
// Controller-driven supersteps: an active controller steps inside the
// fused loop, page swaps re-attach the predicted plan and its tape.

/// Run `job` the way a runtime worker does, or stepped.
void run_job(System& sys, const rt::Job& job, Drive run = {}) {
  sys.load(*job.program);
  sys.host().send(job.input);
  run.job(sys, job);
}

TEST(Superstep, ControllerDrivenMatvec8BitExactAndMostlyFused) {
  const RingGeometry g{8, 2, 16};
  const rt::Job job = kernels::make_matvec8_job(g, dsp::dct8_matrix_q7(),
                                                signal(31, 8 * 96));
  const auto drive = [&](System& sys, const Drive& run) {
    run_job(sys, job, run);
  };

  const SuperRun on = drive_system(g, true, drive);
  const SuperRun off = drive_system(g, false, drive);
  expect_transparent(on, off);
  EXPECT_GT(on.ss_cycles, on.cycles * 9 / 10)
      << "once the page rotation is fused, the controller must run "
         "inside the loop";
}

TEST(Superstep, ControllerDrivenGemmTilesBitExact) {
  const RingGeometry g{4, 2, 16};
  tile::GemmSpec spec;
  spec.m = 16;
  spec.k = 24;
  spec.n = 16;
  spec.dtype = tile::Dtype::kInt8;
  spec.shift = 7;
  const tile::TileSchedule sched = tile::plan_gemm(spec, 64);
  const auto a = tile::random_operand(spec.m * spec.k, spec.dtype, 32);
  const auto b = tile::random_operand(spec.k * spec.n, spec.dtype, 33);
  tile::Scratchpad spad(64);
  tile::GemmJobBuilder builder(g, spad);
  ASSERT_GE(sched.steps.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const rt::Job job = builder.build(sched, sched.steps[i], a, b);
    const auto drive = [&](System& sys, const Drive& run) {
      run_job(sys, job, run);
    };
    expect_transparent(drive_system(g, true, drive),
                       drive_system(g, false, drive));
  }
}

TEST(Superstep, MotionEstimationBitExact) {
  const RingGeometry g{8, 2, 16};
  Rng rng(34);
  Image ref(16, 16);
  Image cand(16, 16);
  for (std::size_t y = 0; y < 16; ++y) {
    for (std::size_t x = 0; x < 16; ++x) {
      ref.at(x, y) = rng.next_word_in(0, 255);
      cand.at(x, y) = rng.next_word_in(0, 255);
    }
  }
  const rt::Job job =
      kernels::make_motion_estimation_job(g, ref, 4, 4, cand, 2);
  const auto drive = [&](System& sys, const Drive& run) {
    run_job(sys, job, run);
  };
  const SuperRun on = drive_system(g, true, drive);
  expect_transparent(on, drive_system(g, false, drive));
  EXPECT_GT(on.dispatches, 0u);
}

TEST(Superstep, ControllerLoopMixesPagesWithHostAndBusTraffic) {
  // INPOP ahead of the ring's own pops, BUSW visible in the same cycle,
  // RDCYC and OUTPUSH interleaved with the ring's host output, a Dnode
  // bus drive every cycle of page b and a feedback read across swaps.
  const RingGeometry g{2, 2, 4};
  const LoadableProgram program = assemble(R"(
.ring 2 2 4
.controller
    ldi   r1, 40
    ldi   r2, 0
loop:
    inpop r3
    busw  r3
    page  a
    rdcyc r4
    outpush r4
    page  b
    outpush r3
    addi  r1, r1, -1
    bne   r1, r2, loop
    halt
.page a
    dnode 0.0 { mac r0, bus, imm(3), r0 out }
    dnode 0.1 { add r1, in1, r1 out host }
    switch 0.1 in1=host
.page b
    dnode 1.0 { add none, in1, bus bus host }
    dnode 1.1 { add r2, fifo1, r2 out host }
    switch 1.0 in1=prev0
    switch 1.1 fifo1=fb(1,1,2)
)");

  for (const bool short_budgets : {false, true}) {
    const auto drive = [&](System& sys, const Drive& run) {
      sys.load(program);
      sys.host().send(signal(35, 170));
      // Uneven budgets start dispatches on every page of the rotation,
      // so page b's feedback read also finds pre-dispatch history.
      for (std::uint64_t k = 1; short_budgets && !sys.controller().halted();
           k = k % 7 + 1) {
        run.cycles(sys, k);
      }
      run.until_halt(sys, 2000, 3);
    };
    const SuperRun on = drive_system(g, true, drive);
    expect_transparent(on, drive_system(g, false, drive));
    EXPECT_GT(on.ss_cycles, on.cycles / 2);
  }
}

TEST(Superstep, MidRunConfigWritesBreakFusionAndResume) {
  // A page rotation with one WRCFG and one WRLOC half-way: the word
  // write and the local-program write make content never seen before,
  // so those cycles finish through Ring::step; the rotation re-fuses
  // afterwards.
  const RingGeometry g{4, 2, 8};
  ProgramBuilder pb(g, "midrun_writes");
  const std::size_t idle = pb.add_page(PageBuilder(g));
  std::size_t pages[2];
  for (std::size_t j = 0; j < 2; ++j) {
    PageBuilder page(g);
    DnodeInstr mac;
    mac.op = DnodeOp::kMac;
    mac.src_a = DnodeSrc::kBus;
    mac.src_b = DnodeSrc::kImm;
    mac.src_c = DnodeSrc::kR0;
    mac.imm = static_cast<Word>(3 + j);
    mac.dst = DnodeDst::kR0;
    mac.out_en = true;
    mac.host_en = j == 1;
    page.instr(0, j, mac);
    pages[j] = pb.add_page(page);
  }
  DnodeInstr poke = pass_out(DnodeSrc::kImm);
  poke.imm = 77;
  poke.host_en = true;
  pb.set_reg(1, 30);
  pb.ldi(2, 0);
  pb.ldi(6, 15);
  pb.label("loop");
  pb.inpop(3);
  pb.busw(3);
  pb.page_switch(pages[0]);
  pb.page_switch(idle);
  pb.page_switch(pages[1]);
  pb.page_switch(idle);
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 6, "skip");
  pb.wrcfg(3, poke);
  pb.wrloc(5, 0, poke.encode());
  pb.page_switch(idle);
  pb.label("skip");
  pb.branch(RiscOp::kBne, 1, 2, "loop");
  pb.halt();
  const LoadableProgram program = pb.build();

  const auto drive = [&](System& sys, const Drive& run) {
    sys.load(program);
    sys.host().send(signal(36, 30));
    run.until_halt(sys, 4000, 2);
  };
  const SuperRun on = drive_system(g, true, drive);
  expect_transparent(on, drive_system(g, false, drive));
  EXPECT_GE(on.dispatches, 2u) << "fused before and after the writes";
}

TEST(Superstep, RingStallsWhileTheControllerRuns) {
  // Page a pops one host word per cycle; the controller keeps rotating
  // after the FIFO runs dry, so ring stalls happen inside the loop.
  const RingGeometry g{2, 1, 4};
  const LoadableProgram program = assemble(R"(
.ring 2 1 4
.controller
loop:
    page a
    page b
    jmp  loop
.page a
    dnode 0.0 { add r0, host, r0 out host }
.page b
    dnode 1.0 { pass none, in1 host }
    switch 1.0 in1=prev0
)");

  std::uint64_t stalls = 0;
  const auto drive = [&](System& sys, const Drive& run) {
    sys.load(program);
    sys.host().send(signal(37, 50));
    run.cycles(sys, 300);
    sys.host().send(signal(38, 20));
    run.cycles(sys, 100);
    stalls = sys.stats().ring_stall_cycles;
  };
  const SuperRun on = drive_system(g, true, drive);
  const SuperRun off = drive_system(g, false, drive);
  expect_transparent(on, off);
  EXPECT_GT(stalls, 40u);
  EXPECT_GT(on.ss_cycles, 200u) << "the stalls must run inside the loop";
}

TEST(Superstep, ControllerDrivenOutputAndCycleStops) {
  // run_until_outputs stops mid-block (with the host mirror's one-tick
  // lag) and run_cycles stops mid-rotation; both resume exactly.
  const RingGeometry g{8, 2, 16};
  const rt::Job job = kernels::make_matvec8_job(g, dsp::dct8_matrix_q7(),
                                                signal(39, 8 * 40));
  const auto drive = [&](System& sys, const Drive& run) {
    sys.load(*job.program);
    sys.host().send(job.input);
    run.until_outputs(sys, 85, job.max_cycles);
    run.cycles(sys, 137);
    run.until_outputs(sys, 203, job.max_cycles);
    run.until_halt(sys, job.max_cycles, job.drain_cycles);
  };
  const SuperRun on = drive_system(g, true, drive);
  expect_transparent(on, drive_system(g, false, drive));
  EXPECT_GT(on.dispatches, 2u);
}

TEST(CyclePlan, TracedEventStreamsMatchTheInterpreter) {
  // The issue events of a traced run come from the ring's last-cycle
  // views: the planned path must fill them exactly as the interpreter
  // does, cycle for cycle, for global, local-mode, page-multiplexed and
  // WAIT-bounded kernels, and for pages that share one plan because
  // they differ only in immediates.
  const RingGeometry g{8, 2, 16};
  std::vector<rt::Job> jobs;
  jobs.push_back(kernels::make_spatial_fir_job(
      g, signal(41, 64), std::vector<Word>{5, static_cast<Word>(-3), 2, 1}));
  {
    rt::Job mac;
    mac.name = "mac.local";
    mac.program = std::make_shared<const LoadableProgram>(
        kernels::make_running_mac_program(g));
    mac.input = signal(42, 2 * 48);
    mac.run = rt::Job::Run::kUntilOutputs;
    mac.expected_outputs = 48;
    mac.max_cycles = 64 + 16 * 48;
    jobs.push_back(std::move(mac));
  }
  jobs.push_back(
      kernels::make_matvec8_job(g, dsp::dct8_matrix_q7(), signal(43, 8 * 6)));
  {
    Rng rng(44);
    Image ref(16, 16);
    Image cand(16, 16);
    for (std::size_t y = 0; y < 16; ++y) {
      for (std::size_t x = 0; x < 16; ++x) {
        ref.at(x, y) = rng.next_word_in(0, 255);
        cand.at(x, y) = rng.next_word_in(0, 255);
      }
    }
    jobs.push_back(kernels::make_motion_estimation_job(g, ref, 4, 4, cand, 2));
  }
  {  // imm-only pages in rotation, then an imm-only WRCFG
    const auto adder = [](Word imm) {
      DnodeInstr add;
      add.op = DnodeOp::kAdd;
      add.src_a = DnodeSrc::kHost;
      add.src_b = DnodeSrc::kImm;
      add.imm = imm;
      add.out_en = true;
      add.host_en = true;
      return add;
    };
    ProgramBuilder pb(g, "imm_pages");
    std::vector<std::size_t> pages;
    for (Word k = 1; k <= 4; ++k) {
      pages.push_back(pb.add_page(PageBuilder(g).instr(0, 0, adder(11 * k))));
    }
    pb.set_reg(1, 12);
    pb.ldi(2, 0);
    pb.label("loop");
    for (const std::size_t p : pages) pb.page_switch(p);
    pb.wrcfg(0, adder(99));
    pb.addi(1, 1, -1);
    pb.branch(RiscOp::kBne, 1, 2, "loop");
    pb.halt();
    rt::Job job;
    job.name = "imm_pages";
    job.program = std::make_shared<const LoadableProgram>(pb.build());
    job.input = signal(45, 120);
    job.run = rt::Job::Run::kUntilHalt;
    job.max_cycles = 2000;
    job.drain_cycles = 2;
    jobs.push_back(std::move(job));
  }

  for (const rt::Job& job : jobs) {
    std::string streams[2];
    for (const bool planned : {false, true}) {
      std::ostringstream os;
      obs::JsonlSink sink(os);
      System sys({g, job.link});
      sys.ring().set_plan_cache_enabled(planned);
      sys.set_trace(&sink);
      run_job(sys, job);
      sys.set_trace(nullptr);
      sink.end();
      streams[planned] = os.str();
      if (planned) {
        EXPECT_GT(sys.ring().plan_hits(), sys.cycle() / 2) << job.name;
      }
    }
    EXPECT_GT(streams[0].size(), 1000u) << job.name;
    EXPECT_EQ(streams[0], streams[1]) << job.name;
  }
}

TEST(CyclePlan, LocalPeriodOverTheCapBitExact) {
  // Local programs of 5, 7 and 8 slots repeat every 280 cycles, above
  // kMaxSuperstepPeriod: no tape covers that schedule.  Outputs,
  // statistics and every per-element counter must still match the
  // interpreter, fused and stepped.
  const RingGeometry g{3, 1, 4};
  ProgramBuilder pb(g, "long_period");
  PageBuilder page(g);
  SwitchRoute r1;
  r1.in1 = PortRoute::prev(0);
  r1.fifo1 = {0, 0, 2};
  page.route(1, 0, r1);
  SwitchRoute r2;
  r2.in1 = PortRoute::prev(0);
  r2.in2 = PortRoute::host();
  r2.host_out_en = true;
  page.route(2, 0, r2);
  for (std::size_t d = 0; d < 3; ++d) page.mode(d, 0, DnodeMode::kLocal);
  const std::size_t boot = pb.add_page(page);
  const DnodeSrc srcs[3][3] = {
      {DnodeSrc::kHost, DnodeSrc::kImm, DnodeSrc::kR0},
      {DnodeSrc::kIn1, DnodeSrc::kFifo1, DnodeSrc::kR1},
      {DnodeSrc::kIn1, DnodeSrc::kIn2, DnodeSrc::kR2}};
  const std::size_t lens[3] = {5, 7, 8};
  for (std::size_t d = 0; d < 3; ++d) {
    std::vector<DnodeInstr> prog;
    for (std::size_t s = 0; s < lens[d]; ++s) {
      DnodeInstr in;
      in.op = s % 3 == 0 ? DnodeOp::kMac : DnodeOp::kAdd;
      in.src_a = srcs[d][s % 3];
      in.src_b = DnodeSrc::kImm;
      in.src_c = DnodeSrc::kR3;
      in.imm = static_cast<Word>(s + 1);
      in.dst = s % 2 == 0 ? DnodeDst::kR3 : DnodeDst::kNone;
      in.out_en = true;
      in.host_en = s == d;
      in.bus_en = d == 1 && s == 4;
      if (s == 6) in.op = DnodeOp::kNop;
      prog.push_back(in);
    }
    pb.local_program(d, prog);
  }
  pb.page_switch(boot);
  pb.halt();
  const LoadableProgram program = pb.build();
  const std::vector<Word> input = signal(45, 900);

  struct Run {
    std::vector<Word> outputs;
    std::string stats;
    std::vector<std::uint64_t> elements;
  };
  const auto run = [&](bool planned, bool superstep) {
    System sys({g});
    sys.ring().set_plan_cache_enabled(planned);
    const Drive drive{!superstep};
    sys.load(program);
    sys.host().send(std::span<const Word>(input).first(500));
    drive.cycles(sys, 333);
    sys.host().send(std::span<const Word>(input).subspan(500));
    drive.cycles(sys, 1200);  // drains the FIFO, then stalls
    Run r;
    r.outputs = sys.host().take_received();
    r.stats = arch_only(sys.stats()).to_string();
    r.elements = sys.element_counters().data;
    return r;
  };
  const Run interp = run(false, false);
  ASSERT_GT(interp.outputs.size(), 500u);
  for (const bool superstep : {false, true}) {
    const Run planned = run(true, superstep);
    EXPECT_EQ(interp.outputs, planned.outputs) << "superstep " << superstep;
    EXPECT_EQ(interp.stats, planned.stats) << "superstep " << superstep;
    EXPECT_EQ(interp.elements, planned.elements) << "superstep " << superstep;
  }
}

TEST(CyclePlan, FbReadDepthCountsSizedByGeometry) {
  // The per-depth feedback histogram is sized by fb_depth, not a
  // hard-coded 16-deep stride.
  ConfigMemory cfg({2, 1, 8});
  Ring ring({2, 1, 8});
  HostFifo in;
  std::vector<Word> out;
  ASSERT_EQ(ring.fb_read_depth_counts().size(), 2u * 8u);

  SwitchRoute r;
  r.fifo1 = {1, 0, 5};
  cfg.write_switch_route(0, 0, r.encode());
  cfg.write_dnode_instr(0, pass_out(DnodeSrc::kFifo1).encode());
  for (int c = 0; c < 6; ++c) ring.step(cfg, 0, in, out);

  EXPECT_EQ(ring.fb_read_depth_counts()[1 * 8 + 5], 6u);
  EXPECT_EQ(ring.fb_reads_per_pipe()[1], 6u);
  EXPECT_GT(ring.plan_hits(), 0u) << "reads must also count on the plan path";
}

}  // namespace
}  // namespace sring
