// Determinism guarantees of the batch-execution runtime:
//
//  * the same batch yields bit-identical per-job outputs and
//    RunReports at 1, 2 and 8 workers (only JobResult provenance —
//    worker index, reused_system — may differ);
//  * a job run on a pooled, re-armed System matches one run on a
//    fresh System;
//  * System::rearm restores a System to a state
//    indistinguishable from a fresh load().
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/image.hpp"
#include "common/rng.hpp"
#include "dsp/matvec.hpp"
#include "kernels/dwt_kernel.hpp"
#include "kernels/fir_kernel.hpp"
#include "kernels/jobs.hpp"
#include "kernels/motion_estimation.hpp"
#include "rt/runtime.hpp"
#include "rt/system_pool.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "stepped_run.hpp"

namespace sring::rt {
namespace {

constexpr RingGeometry kGeom{8, 2, 16};

std::vector<Word> signal(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Word> x(n);
  for (auto& w : x) w = rng.next_word_in(-100, 100);
  return x;
}

Image image(std::uint64_t seed, std::size_t w, std::size_t h) {
  Rng rng(seed);
  Image img(w, h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      img.at(x, y) = rng.next_word_in(0, 255);
    }
  }
  return img;
}

/// Report JSON with the ring.plan.* and ring.superstep.* counters
/// normalized away.  Those counters describe which execution machinery
/// served each cycle — plan-cache warmth carried across reruns and the
/// worker scheduling that decides it — not the simulated machine, and
/// they are the only part of a RunReport allowed to vary between a
/// fresh System, a pooled rerun and different worker counts.
std::string report_normalized(RunReport r) {
  for (const char* name :
       {"ring.plan.compiles", "ring.plan.hits", "ring.plan.invalidations",
        "ring.plan.content_hits", "ring.plan.evictions",
        "ring.superstep.dispatches", "ring.superstep.cycles",
        "ring.superstep.trace_cycles"}) {
    r.metrics.counter(name).set(0);
  }
  return r.to_json().dump();
}

/// A mixed 16-job batch rebuilt identically on every call.
std::vector<Job> mixed_batch() {
  const std::vector<Word> coeffs{1, static_cast<Word>(-2), 3, 4};
  const dsp::Matrix8 dct = dsp::dct8_matrix_q7();
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < 4; ++i) {
    jobs.push_back(
        kernels::make_spatial_fir_job(kGeom, signal(10 + i, 96), coeffs));
    jobs.push_back(kernels::make_motion_estimation_job(
        kGeom, image(20 + i, 16, 16), 4, 4, image(30 + i, 16, 16), 2));
    jobs.push_back(kernels::make_dwt53_job(kGeom, signal(40 + i, 64)));
    jobs.push_back(
        kernels::make_matvec8_job(kGeom, dct, signal(50 + i, 24)));
  }
  return jobs;
}

TEST(RtDeterminism, SameBatchBitIdenticalAcrossWorkerCounts) {
  std::vector<std::vector<Word>> ref_outputs;
  std::vector<std::string> ref_reports;

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    Runtime rt({.workers = workers, .queue_capacity = 8});
    const std::vector<JobResult> results = rt.submit_batch(mixed_batch());
    ASSERT_EQ(results.size(), 16u);

    if (ref_outputs.empty()) {
      for (const auto& r : results) {
        ASSERT_TRUE(r.ok) << r.error;
        ref_outputs.push_back(r.outputs);
        // RunReport carries only simulated state (cycles, ops, FIFO
        // depths) — no wall-clock — so the full JSON must reproduce.
        ref_reports.push_back(report_normalized(r.report));
      }
      continue;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok) << results[i].error;
      EXPECT_EQ(results[i].outputs, ref_outputs[i])
          << "job " << i << " outputs diverged at " << workers << " workers";
      EXPECT_EQ(report_normalized(results[i].report), ref_reports[i])
          << "job " << i << " report diverged at " << workers << " workers";
    }
  }
}

TEST(RtDeterminism, PooledRerunMatchesFreshSystem) {
  const std::vector<Word> coeffs{3, static_cast<Word>(-1), 2};
  const Job first =
      kernels::make_spatial_fir_job(kGeom, signal(60, 80), coeffs);
  const Job second =
      kernels::make_spatial_fir_job(kGeom, signal(61, 80), coeffs);

  // Fresh System per job = the ground truth.  (Strip the bench extras
  // the kernel helper attaches; the simulated record must match.)
  kernels::FirResult fresh =
      kernels::run_spatial_fir(kGeom, signal(61, 80), coeffs);
  fresh.report.extras = obs::JsonValue::object();

  SystemPool pool(2);
  {
    SystemPool::Lease lease = pool.acquire(first);
    EXPECT_FALSE(lease.rearmed);
    lease.system.host().send(first.input);
    lease.system.run_until_outputs(first.expected_outputs, first.max_cycles);
  }
  SystemPool::Lease lease = pool.acquire(second);
  EXPECT_TRUE(lease.rearmed);  // same structure: re-arm, no reload
  lease.system.host().send(second.input);
  lease.system.run_until_outputs(second.expected_outputs, second.max_cycles);

  std::vector<Word> got = lease.system.host().take_received();
  got.erase(got.begin(),
            got.begin() + static_cast<std::ptrdiff_t>(second.discard_prefix));
  got.resize(second.take_words);
  EXPECT_EQ(got, fresh.outputs);
  EXPECT_EQ(report_normalized(
                RunReport::from_system("fir.spatial", lease.system)),
            report_normalized(fresh.report));
}

TEST(RtDeterminism, RearmMatchesFreshLoad) {
  const std::vector<Word> coeffs{1, 2, 3};
  const std::vector<Word> x = signal(70, 48);
  const Job job = kernels::make_spatial_fir_job(kGeom, x, coeffs);

  System reused({kGeom});
  reused.load(*job.program);
  reused.host().send(job.input);
  reused.run_until_outputs(job.expected_outputs, job.max_cycles);
  const std::string first_report =
      report_normalized(RunReport::from_system("run", reused));

  ASSERT_TRUE(reused.rearm(*job.program));
  EXPECT_EQ(reused.cycle(), 0u);
  reused.host().send(job.input);
  reused.run_until_outputs(job.expected_outputs, job.max_cycles);

  System fresh({kGeom});
  fresh.load(*job.program);
  fresh.host().send(job.input);
  fresh.run_until_outputs(job.expected_outputs, job.max_cycles);

  EXPECT_EQ(reused.host().take_received(), fresh.host().take_received());
  EXPECT_EQ(report_normalized(RunReport::from_system("run", reused)),
            report_normalized(RunReport::from_system("run", fresh)));
  EXPECT_EQ(report_normalized(RunReport::from_system("run", fresh)),
            first_report);
}

TEST(RtDeterminism, RearmUnderLinkStallsReproducesStallPattern) {
  // A starved host link forces mid-run ring stalls.  Stalled cycles
  // must advance nothing, so a rerun on the same System — and a fresh
  // System — reproduce the exact stall count and the full report.
  const std::vector<Word> coeffs{2, static_cast<Word>(-1), 4};
  const std::vector<Word> x = signal(90, 64);
  const Job job = kernels::make_spatial_fir_job(kGeom, x, coeffs);
  const LinkRate starved{1, 2};  // one word every two cycles

  System reused({kGeom, starved});
  reused.load(*job.program);
  reused.host().send(job.input);
  reused.run_until_outputs(job.expected_outputs, job.max_cycles);
  const SystemStats first = reused.stats();
  ASSERT_GT(first.ring_stall_cycles, 0u) << "link must actually starve";
  const std::string first_report =
      report_normalized(RunReport::from_system("run", reused));
  const std::vector<Word> first_out = reused.host().take_received();

  ASSERT_TRUE(reused.rearm(*job.program));
  reused.host().send(job.input);
  reused.run_until_outputs(job.expected_outputs, job.max_cycles);
  EXPECT_EQ(reused.stats().ring_stall_cycles, first.ring_stall_cycles);
  EXPECT_EQ(reused.host().take_received(), first_out);
  EXPECT_EQ(report_normalized(RunReport::from_system("run", reused)),
            first_report);

  System fresh({kGeom, starved});
  fresh.load(*job.program);
  fresh.host().send(job.input);
  fresh.run_until_outputs(job.expected_outputs, job.max_cycles);
  EXPECT_EQ(fresh.stats().ring_stall_cycles, first.ring_stall_cycles);
  EXPECT_EQ(report_normalized(RunReport::from_system("run", fresh)),
            first_report);
}

TEST(RtDeterminism, SuperstepEngineTransparentAcrossBatch) {
  Runtime fused({.workers = 4, .queue_capacity = 8});
  const std::vector<JobResult> with = fused.submit_batch(mixed_batch());

  // The reference: every job on a fresh System, one step() per cycle,
  // its outputs sliced as the worker slices them.
  const std::vector<Job> jobs = mixed_batch();
  ASSERT_EQ(with.size(), jobs.size());
  std::uint64_t fused_dispatches = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    System sys({job.program->geometry, job.link});
    sys.load(*job.program);
    sys.host().send(job.input);
    Drive{.stepped = true}.job(sys, job);
    std::vector<Word> stepped = sys.host().take_received();
    stepped.erase(stepped.begin(),
                  stepped.begin() +
                      static_cast<std::ptrdiff_t>(job.discard_prefix));
    if (job.take_words > 0) stepped.resize(job.take_words);
    const RunReport report = RunReport::from_system(job.name, sys);

    ASSERT_TRUE(with[i].ok) << with[i].error;
    EXPECT_EQ(with[i].outputs, stepped) << "job " << i;
    EXPECT_EQ(report_normalized(with[i].report), report_normalized(report))
        << "job " << i;
    const obs::Counter* fused_c =
        with[i].report.metrics.find_counter("ring.superstep.dispatches");
    const obs::Counter* plain_c =
        report.metrics.find_counter("ring.superstep.dispatches");
    ASSERT_NE(fused_c, nullptr);
    ASSERT_NE(plain_c, nullptr);
    fused_dispatches += fused_c->value();
    EXPECT_EQ(plain_c->value(), 0u)
        << "job " << i << ": the stepped reference never dispatches";
  }
  EXPECT_GT(fused_dispatches, 0u)
      << "default path must actually exercise the superstep engine";
}

TEST(RtDeterminism, WrongStructureForRearmIsRejected) {
  const std::vector<Word> coeffs{1, 2};
  const Job fir = kernels::make_spatial_fir_job(kGeom, signal(80, 32), coeffs);

  System sys({kGeom});
  EXPECT_FALSE(sys.rearm(*fir.program)) << "nothing loaded yet";
  sys.load(*fir.program);

  // Different geometry: rejected outright.
  const RingGeometry other{6, 2, 16};
  const LoadableProgram narrow =
      kernels::make_spatial_fir_program(other, coeffs);
  EXPECT_FALSE(sys.rearm(narrow));

  // Same geometry but a different configware footprint (the SAD
  // engine carries several pages, the FIR one): also rejected.
  const LoadableProgram sad = kernels::make_sad_engine_program(kGeom, 64, 2);
  EXPECT_FALSE(sys.rearm(sad));

  // Same footprint, one more tap: a different structure.
  const std::vector<Word> three{1, 2, 3};
  EXPECT_FALSE(sys.rearm(kernels::make_spatial_fir_program(kGeom, three)));

  // A rejected re-arm changed nothing: the loaded program still runs.
  System fresh({kGeom});
  fresh.load(*fir.program);
  for (System* s : {&sys, &fresh}) {
    s->host().send(fir.input);
    s->run_until_outputs(fir.expected_outputs, fir.max_cycles);
  }
  EXPECT_EQ(sys.host().take_received(), fresh.host().take_received());

  // New taps of the same length: the same structure, re-armed.
  const std::vector<Word> other_taps{7, static_cast<Word>(-3)};
  EXPECT_TRUE(sys.rearm(kernels::make_spatial_fir_program(kGeom, other_taps)));
}

}  // namespace
}  // namespace sring::rt
