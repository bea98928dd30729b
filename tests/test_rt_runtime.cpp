// rt::Runtime behaviour: job results match direct kernel runs
// bit-for-bit, batches keep submission order, errors are propagated
// (not fatal to the fleet), metrics aggregate, shutdown is clean.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/image.hpp"
#include "common/rng.hpp"
#include "dsp/fir.hpp"
#include "dsp/matvec.hpp"
#include "dsp/sad.hpp"
#include "kernels/dwt_kernel.hpp"
#include "kernels/fir_kernel.hpp"
#include "kernels/jobs.hpp"
#include "kernels/matvec_kernel.hpp"
#include "kernels/motion_estimation.hpp"
#include "obs/span.hpp"
#include "rt/runtime.hpp"

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

TEST(Runtime, FirJobMatchesDirectKernelRun) {
  const std::vector<Word> coeffs{1, static_cast<Word>(-2), 3, 4};
  const std::vector<Word> x = signal(1, 64);

  Runtime rt({.workers = 2});
  JobResult r = rt.submit(kernels::make_spatial_fir_job(kGeom, x, coeffs))
                    .get();
  ASSERT_TRUE(r.ok) << r.error;

  kernels::FirResult direct = kernels::run_spatial_fir(kGeom, x, coeffs);
  EXPECT_EQ(r.outputs, direct.outputs);
  EXPECT_EQ(r.outputs, dsp::fir_reference(x, coeffs));
  // Same program, same feed, same machine: the whole simulated record
  // agrees (the kernel helper adds bench extras the job does not).
  direct.report.extras = obs::JsonValue::object();
  EXPECT_EQ(r.report.to_json().dump(), direct.report.to_json().dump());
}

TEST(Runtime, MotionEstimationJobMatchesReference) {
  const Image ref = image(2, 16, 16);
  const Image cand = image(3, 16, 16);
  constexpr int kRange = 2;

  Runtime rt({.workers = 2});
  JobResult r =
      rt.submit(kernels::make_motion_estimation_job(kGeom, ref, 4, 4, cand,
                                                    kRange))
          .get();
  ASSERT_TRUE(r.ok) << r.error;

  const auto expect = dsp::all_candidate_sads(ref, 4, 4, cand, kRange);
  ASSERT_EQ(r.outputs.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(r.outputs[i], static_cast<Word>(expect[i])) << "candidate " << i;
  }

  const dsp::MotionVector best =
      kernels::best_motion_vector(r.outputs, kRange);
  const dsp::MotionVector want = dsp::full_search(ref, 4, 4, cand, kRange);
  EXPECT_EQ(best.dx, want.dx);
  EXPECT_EQ(best.dy, want.dy);
  EXPECT_EQ(best.sad, want.sad);
}

TEST(Runtime, DwtJobMatchesDirectKernelRun) {
  const std::vector<Word> x = signal(4, 128);

  Runtime rt({.workers = 2});
  JobResult r = rt.submit(kernels::make_dwt53_job(kGeom, x)).get();
  ASSERT_TRUE(r.ok) << r.error;

  const dsp::Subbands got =
      kernels::dwt53_bands_from_raw(r.outputs, x.size() / 2);
  const kernels::DwtResult direct = kernels::run_dwt53(kGeom, x);
  EXPECT_EQ(got.low, direct.bands.low);
  EXPECT_EQ(got.high, direct.bands.high);
}

TEST(Runtime, MatvecJobMatchesReference) {
  const dsp::Matrix8 dct = dsp::dct8_matrix_q7();
  const std::vector<Word> x = signal(5, 32);  // 4 blocks

  Runtime rt({.workers = 2});
  JobResult r = rt.submit(kernels::make_matvec8_job(kGeom, dct, x)).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.outputs, dsp::block_matvec8_reference(dct, x));
}

TEST(Runtime, BatchKeepsSubmissionOrder) {
  const std::vector<Word> coeffs{2, 3};
  std::vector<Job> jobs;
  std::vector<std::vector<Word>> want;
  for (std::size_t i = 0; i < 12; ++i) {
    const std::vector<Word> x = signal(100 + i, 48);
    jobs.push_back(kernels::make_spatial_fir_job(kGeom, x, coeffs));
    want.push_back(dsp::fir_reference(x, coeffs));
  }

  Runtime rt({.workers = 3, .queue_capacity = 4});
  const std::vector<JobResult> results = rt.submit_batch(std::move(jobs));
  ASSERT_EQ(results.size(), want.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << i << ": " << results[i].error;
    EXPECT_EQ(results[i].outputs, want[i]) << "job " << i;
  }
}

TEST(Runtime, FailedJobReportsErrorAndFleetSurvives) {
  const std::vector<Word> coeffs{1, 2, 3, 4};
  const std::vector<Word> x = signal(6, 64);

  Runtime rt({.workers = 2});

  Job starved = kernels::make_spatial_fir_job(kGeom, x, coeffs);
  starved.max_cycles = 3;  // cannot possibly produce the outputs
  JobResult bad = rt.submit(std::move(starved)).get();
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());

  Job null_prog;
  null_prog.name = "null";
  JobResult null_res = rt.submit(std::move(null_prog)).get();
  EXPECT_FALSE(null_res.ok);

  // The fleet keeps serving after failures.
  JobResult good =
      rt.submit(kernels::make_spatial_fir_job(kGeom, x, coeffs)).get();
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.outputs, dsp::fir_reference(x, coeffs));

  const obs::Registry m = rt.metrics();
  ASSERT_NE(m.find_counter("rt.jobs"), nullptr);
  EXPECT_EQ(m.find_counter("rt.jobs")->value(), 3u);
  ASSERT_NE(m.find_counter("rt.jobs_failed"), nullptr);
  EXPECT_EQ(m.find_counter("rt.jobs_failed")->value(), 2u);
}

TEST(Runtime, PoolReArmsSystemForSameStructure) {
  const std::vector<Word> coeffs{1, 2};
  const std::vector<Word> other{5, static_cast<Word>(-2)};
  Runtime rt({.workers = 1});

  JobResult a =
      rt.submit(kernels::make_spatial_fir_job(kGeom, signal(7, 32), coeffs))
          .get();
  JobResult b =
      rt.submit(kernels::make_spatial_fir_job(kGeom, signal(8, 32), coeffs))
          .get();
  // New taps of the same length: the same structure, new immediates.
  JobResult c =
      rt.submit(kernels::make_spatial_fir_job(kGeom, signal(9, 32), other))
          .get();
  ASSERT_TRUE(a.ok && b.ok && c.ok);
  EXPECT_FALSE(a.reused_system);
  EXPECT_TRUE(b.reused_system);  // exact rerun: a re-arm writing nothing
  EXPECT_TRUE(c.reused_system);  // immediates patched, no reload
  EXPECT_EQ(b.outputs, dsp::fir_reference(signal(8, 32), coeffs));
  EXPECT_EQ(c.outputs, dsp::fir_reference(signal(9, 32), other));

  const obs::Registry m = rt.metrics();
  ASSERT_NE(m.find_counter("rt.pool.fast_resets"), nullptr);
  EXPECT_EQ(m.find_counter("rt.pool.fast_resets")->value(), 2u);
  EXPECT_EQ(m.find_counter("rt.pool.full_loads")->value(), 1u);
}

TEST(Runtime, MetricsAggregateAcrossWorkers) {
  const std::vector<Word> coeffs{1, 2, 3};
  std::vector<Job> jobs;
  std::uint64_t want_cycles = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::vector<Word> x = signal(200 + i, 40);
    jobs.push_back(kernels::make_spatial_fir_job(kGeom, x, coeffs));
    want_cycles += kernels::run_spatial_fir(kGeom, x, coeffs).stats.cycles;
  }

  Runtime rt({.workers = 4});
  const auto results = rt.submit_batch(std::move(jobs));
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;

  const obs::Registry m = rt.metrics();
  ASSERT_NE(m.find_counter("rt.jobs"), nullptr);
  EXPECT_EQ(m.find_counter("rt.jobs")->value(), 8u);
  ASSERT_NE(m.find_counter("rt.sim_cycles"), nullptr);
  EXPECT_EQ(m.find_counter("rt.sim_cycles")->value(), want_cycles);
  ASSERT_NE(m.find_counter("rt.workers"), nullptr);
  EXPECT_EQ(m.find_counter("rt.workers")->value(), 4u);
  ASSERT_NE(m.find_counter("rt.queue.enqueued"), nullptr);
  EXPECT_EQ(m.find_counter("rt.queue.enqueued")->value(), 8u);
  EXPECT_EQ(m.find_counter("rt.queue.dequeued")->value(), 8u);
  ASSERT_NE(m.find_histogram("rt.job_cycles"), nullptr);
  EXPECT_EQ(m.find_histogram("rt.job_cycles")->count(), 8u);

  // Every job landed on some worker; per-worker counts sum to the total.
  std::uint64_t per_worker_sum = 0;
  for (std::size_t w = 0; w < 4; ++w) {
    const auto* c =
        m.find_counter("rt.worker." + std::to_string(w) + ".jobs");
    if (c != nullptr) per_worker_sum += c->value();
  }
  EXPECT_EQ(per_worker_sum, 8u);
}

TEST(Runtime, SubmitAfterShutdownThrows) {
  Runtime rt({.workers = 1});
  rt.shutdown();
  rt.shutdown();  // idempotent
  Job job;
  job.name = "late";
  EXPECT_THROW((void)rt.submit(std::move(job)), SimError);
}

TEST(Runtime, ZeroWorkerConfigFallsBackToHardware) {
  Runtime rt({.workers = 0});
  EXPECT_GE(rt.worker_count(), 1u);
}

// ---- pinned fleet snapshot ------------------------------------------
//
// Runtime::metrics() is pinned byte for byte for a fixed job list on
// one worker, so a change to how workers tally their jobs cannot move
// a name, a value or an instrument's existence unnoticed.

std::uint64_t fnv64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// fir, matvec8, dwt53 and one starved fir that fails, submitted one
/// at a time (so every queue statistic is deterministic) to a
/// one-worker runtime.  Returns the number of jobs run.
std::size_t run_pinned_job_list(Runtime& rt) {
  const std::vector<Word> coeffs{1, static_cast<Word>(-2), 3, 4};
  std::vector<Job> jobs;
  jobs.push_back(kernels::make_spatial_fir_job(kGeom, signal(30, 64), coeffs));
  jobs.push_back(kernels::make_matvec8_job(kGeom, dsp::dct8_matrix_q7(),
                                           signal(31, 32)));
  jobs.push_back(kernels::make_dwt53_job(kGeom, signal(32, 64)));
  Job starved = kernels::make_spatial_fir_job(kGeom, signal(33, 64), coeffs);
  starved.max_cycles = 3;
  jobs.push_back(std::move(starved));
  const std::size_t n = jobs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const JobResult r = rt.submit(std::move(jobs[i])).get();
    EXPECT_EQ(r.ok, i + 1 < n) << "job " << i << ": " << r.error;
  }
  return n;
}

/// Restores the process-wide telemetry switch on scope exit.
struct TelemetryScope {
  explicit TelemetryScope(bool on) : was(obs::telemetry_enabled()) {
    obs::set_telemetry_enabled(on);
  }
  ~TelemetryScope() { obs::set_telemetry_enabled(was); }
  bool was;
};

TEST(RuntimeMetrics, SnapshotIsPinnedWithTelemetryOff) {
  const TelemetryScope off(false);
  Runtime rt({.workers = 1});
  run_pinned_job_list(rt);
  const std::string dump = rt.metrics().to_json().dump();
  EXPECT_EQ(fnv64(dump), 0x78775d83941d64a5ull) << dump;
}

TEST(RuntimeMetrics, TelemetryAddsExactlyTheLatencyInstruments) {
  const TelemetryScope on(true);
  Runtime rt({.workers = 1});
  const std::size_t jobs = run_pinned_job_list(rt);
  const obs::Registry m = rt.metrics();

  std::set<std::string> names;
  for (const auto& [name, c] : m.counters()) names.insert(name);
  for (const auto& [name, h] : m.histograms()) names.insert(name);
  const std::set<std::string> want{
      "ring.plan.compiles",
      "ring.plan.hits",
      "ring.plan.invalidations",
      "ring.superstep.cycles",
      "ring.superstep.dispatches",
      "ring.superstep.trace_cycles",
      "rt.busy_us",
      "rt.dnode_ops",
      "rt.host_words_in",
      "rt.host_words_out",
      "rt.job_cycles",
      "rt.jobs",
      "rt.jobs_failed",
      "rt.latency.arm_us",
      "rt.latency.execute_us",
      "rt.latency.queue_wait_us",
      "rt.pool.fast_resets",
      "rt.pool.full_loads",
      "rt.queue.blocked_pushes",
      "rt.queue.capacity",
      "rt.queue.depth",
      "rt.queue.dequeued",
      "rt.queue.enqueued",
      "rt.queue.max_depth",
      "rt.queue.rejected_closed",
      "rt.queue.rejected_full",
      "rt.sim_cycles",
      "rt.worker.0.jobs",
      "rt.worker.0.jobs_failed",
      "rt.worker.0.pool.fast_resets",
      "rt.worker.0.pool.full_loads",
      "rt.worker.0.pool.systems",
      "rt.worker.0.sim_cycles",
      "rt.workers",
  };
  EXPECT_EQ(names, want);
  for (const char* name : {"rt.latency.queue_wait_us", "rt.latency.arm_us",
                           "rt.latency.execute_us"}) {
    const obs::Histogram* h = m.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), jobs) << name;
  }
  // The same list with telemetry off differs only by those instruments.
  EXPECT_EQ(m.find_histogram("rt.job_cycles")->count(), jobs - 1);
}

// The pool counters are the worker's pool totals after its latest job:
// a one-System pool reloads in place, so it constructs one System but
// fully loads every new program.
TEST(RuntimeMetrics, PoolCountersAreThePoolTotals) {
  const std::vector<Word> coeffs{1, 2};
  Runtime rt({.workers = 1, .pool_systems_per_worker = 1});
  ASSERT_TRUE(
      rt.submit(kernels::make_spatial_fir_job(kGeom, signal(40, 32), coeffs))
          .get()
          .ok);
  ASSERT_TRUE(
      rt.submit(kernels::make_dwt53_job(kGeom, signal(41, 32))).get().ok);
  ASSERT_TRUE(
      rt.submit(kernels::make_spatial_fir_job(kGeom, signal(42, 32), coeffs))
          .get()
          .ok);
  const obs::Registry m = rt.metrics();
  const auto value = [&m](const char* name) {
    const obs::Counter* c = m.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c == nullptr ? ~std::uint64_t{0} : c->value();
  };
  EXPECT_EQ(value("rt.worker.0.pool.systems"), 1u);
  EXPECT_EQ(value("rt.worker.0.pool.full_loads"), 3u);
  EXPECT_EQ(value("rt.pool.full_loads"), 3u);
  EXPECT_EQ(value("rt.worker.0.pool.fast_resets"), 0u);
  EXPECT_EQ(value("rt.pool.fast_resets"), 0u);
}

// Snapshots taken while two workers run must never tear a worker's
// tally; the final totals account for every job exactly once.
TEST(RuntimeMetrics, ConcurrentSnapshotsSeeConsistentTotals) {
  constexpr std::size_t kJobs = 200;
  const std::vector<Word> coeffs{1, 2};
  Runtime rt({.workers = 2, .queue_capacity = 16});

  std::atomic<bool> done{false};
  std::thread poller([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const obs::Registry m = rt.metrics();
      const obs::Counter* jobs = m.find_counter("rt.jobs");
      const std::uint64_t now = jobs == nullptr ? 0 : jobs->value();
      EXPECT_GE(now, last) << "rt.jobs went backwards";
      last = now;
      if (const obs::Histogram* h = m.find_histogram("rt.job_cycles")) {
        EXPECT_LE(h->count(), now);
      }
    }
  });

  std::vector<Job> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back(
        kernels::make_spatial_fir_job(kGeom, signal(400 + i % 7, 24), coeffs));
  }
  for (const auto& r : rt.submit_batch(std::move(jobs))) {
    ASSERT_TRUE(r.ok) << r.error;
  }
  done.store(true, std::memory_order_release);
  poller.join();

  const obs::Registry m = rt.metrics();
  ASSERT_NE(m.find_counter("rt.jobs"), nullptr);
  EXPECT_EQ(m.find_counter("rt.jobs")->value(), kJobs);
  EXPECT_EQ(m.find_histogram("rt.job_cycles")->count(), kJobs);
  std::uint64_t per_worker = 0;
  std::uint64_t pool_runs = 0;
  for (std::size_t w = 0; w < 2; ++w) {
    const std::string p = "rt.worker." + std::to_string(w) + ".";
    if (const auto* c = m.find_counter(p + "jobs")) per_worker += c->value();
  }
  for (const char* name : {"rt.pool.fast_resets", "rt.pool.full_loads"}) {
    if (const auto* c = m.find_counter(name)) pool_runs += c->value();
  }
  EXPECT_EQ(per_worker, kJobs);
  EXPECT_EQ(pool_runs, kJobs);
}

// ---- job groups ------------------------------------------------------
//
// A group is one queue envelope that one worker runs back to back:
// same per-job path, same results, one future and one notify.

/// fir, matvec8, dwt53 and motion estimation, twice over with
/// different data, so a group mixes programs and repeats them.
std::vector<Job> mixed_jobs() {
  const std::vector<Word> coeffs{1, static_cast<Word>(-2), 3, 4};
  std::vector<Job> jobs;
  for (std::uint64_t round = 0; round < 2; ++round) {
    jobs.push_back(
        kernels::make_spatial_fir_job(kGeom, signal(50 + round, 64), coeffs));
    jobs.push_back(kernels::make_matvec8_job(kGeom, dsp::dct8_matrix_q7(),
                                             signal(52 + round, 32)));
    jobs.push_back(kernels::make_dwt53_job(kGeom, signal(54 + round, 64)));
    jobs.push_back(kernels::make_motion_estimation_job(
        kGeom, image(56 + round, 16, 16), 4, 4, image(58 + round, 16, 16),
        1));
  }
  return jobs;
}

/// A fleet of `workers` with every other setting at its default.
RuntimeConfig fleet(std::size_t workers) {
  RuntimeConfig cfg;
  cfg.workers = workers;
  return cfg;
}

std::uint64_t counter_value(const obs::Registry& m, const char* name) {
  const obs::Counter* c = m.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

// A group runs on one fresh worker in job order, exactly like single
// submits to a one-worker fleet, so even the pool-warmth-dependent
// ring.plan.* / ring.superstep.* report counters agree byte for byte.
TEST(RuntimeGroup, ResultsMatchSingleSubmitsAtAnyWorkerCount) {
  Runtime singles(fleet(1));
  std::vector<JobResult> want;
  for (Job& job : mixed_jobs()) {
    want.push_back(singles.submit(std::move(job)).get());
  }
  const std::uint64_t want_cycles =
      counter_value(singles.metrics(), "rt.sim_cycles");

  for (const std::size_t workers : {1u, 2u, 4u}) {
    Runtime rt(fleet(workers));
    const std::vector<JobResult> got = rt.submit_group(mixed_jobs()).get();
    ASSERT_EQ(got.size(), want.size()) << workers << " workers";
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].ok) << "job " << i << ": " << got[i].error;
      EXPECT_EQ(got[i].outputs, want[i].outputs) << "job " << i;
      EXPECT_EQ(got[i].report.to_json().dump(),
                want[i].report.to_json().dump())
          << "job " << i << " at " << workers << " workers";
      EXPECT_EQ(got[i].worker, got[0].worker) << "one worker ran the group";
    }
    const obs::Registry m = rt.metrics();
    EXPECT_EQ(counter_value(m, "rt.jobs"), got.size());
    EXPECT_EQ(counter_value(m, "rt.queue.enqueued"), 1u);
    EXPECT_EQ(counter_value(m, "rt.queue.dequeued"), 1u);
    EXPECT_EQ(counter_value(m, "rt.sim_cycles"), want_cycles);
  }
}

TEST(RuntimeGroup, NotifyRunsOnceAfterTheFutureIsReady) {
  Runtime rt(fleet(2));
  std::mutex mu;
  std::condition_variable cv;
  std::optional<std::shared_future<std::vector<JobResult>>> published;
  std::atomic<int> calls{0};
  std::atomic<bool> ready_in_notify{false};

  std::vector<Job> jobs = mixed_jobs();
  const std::size_t n = jobs.size();
  Runtime::TrySubmitGroup t = rt.try_submit_group(jobs, [&] {
    // The worker waits until the test has published its copy of the
    // future, then checks it is already fulfilled.
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return published.has_value(); });
    ready_in_notify = published->wait_for(std::chrono::seconds(0)) ==
                      std::future_status::ready;
    ++calls;
  });
  ASSERT_EQ(t.status, Runtime::SubmitStatus::kAccepted);
  EXPECT_TRUE(jobs.empty()) << "an accepted group is consumed";
  const std::shared_future<std::vector<JobResult>> shared = t.result.share();
  {
    std::lock_guard lock(mu);
    published = shared;
  }
  cv.notify_all();
  EXPECT_EQ(shared.get().size(), n);
  rt.shutdown();  // joins the worker, so its notify has returned
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(ready_in_notify.load());
}

TEST(RuntimeGroup, RefusedGroupIsLeftWithTheCaller) {
  Runtime rt(fleet(1));
  rt.shutdown();
  std::vector<Job> jobs = mixed_jobs();
  const std::size_t n = jobs.size();
  const Runtime::TrySubmitGroup t = rt.try_submit_group(jobs);
  EXPECT_EQ(t.status, Runtime::SubmitStatus::kShutDown);
  EXPECT_FALSE(t.result.valid());
  ASSERT_EQ(jobs.size(), n);
  EXPECT_EQ(jobs[1].name, "matvec8");
  EXPECT_THROW((void)rt.submit_group(std::move(jobs)), SimError);
}

TEST(RuntimeGroup, FailingJobFailsOnlyItsOwnEntry) {
  const std::vector<Word> coeffs{1, 2, 3, 4};
  const std::vector<Word> x = signal(60, 64);
  std::vector<Job> jobs;
  jobs.push_back(kernels::make_spatial_fir_job(kGeom, x, coeffs));
  Job starved = kernels::make_spatial_fir_job(kGeom, x, coeffs);
  starved.max_cycles = 3;
  jobs.push_back(std::move(starved));
  Job null_prog;
  null_prog.name = "null";
  jobs.push_back(std::move(null_prog));
  jobs.push_back(kernels::make_dwt53_job(kGeom, signal(61, 64)));

  Runtime rt(fleet(2));
  const std::vector<JobResult> r = rt.submit_group(std::move(jobs)).get();
  ASSERT_EQ(r.size(), 4u);
  ASSERT_TRUE(r[0].ok) << r[0].error;
  EXPECT_EQ(r[0].outputs, dsp::fir_reference(x, coeffs));
  EXPECT_FALSE(r[1].ok);
  EXPECT_FALSE(r[1].error.empty());
  EXPECT_FALSE(r[2].ok);
  ASSERT_TRUE(r[3].ok) << r[3].error;
  EXPECT_EQ(r[3].outputs,
            rt.submit(kernels::make_dwt53_job(kGeom, signal(61, 64)))
                .get()
                .outputs);

  const obs::Registry m = rt.metrics();
  EXPECT_EQ(counter_value(m, "rt.jobs"), 5u);
  EXPECT_EQ(counter_value(m, "rt.jobs_failed"), 2u);
}

// Each job of a group stamps its own pickup, so busy time and phase
// latencies count every sibling once: the jobs' execute times fit in
// rt.busy_us, which fits in the group's wall span.
TEST(RuntimeGroup, ChildTimelinesNeverCountASiblingTwice) {
  const TelemetryScope on(true);
  Runtime rt(fleet(1));
  const auto t0 = obs::SpanTimeline::Clock::now();
  const std::vector<JobResult> r = rt.submit_group(mixed_jobs()).get();
  const auto t1 = obs::SpanTimeline::Clock::now();
  const std::uint64_t wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
          .count());

  std::uint64_t execute_sum = 0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    ASSERT_TRUE(r[i].ok) << r[i].error;
    const obs::SpanTimeline& tl = r[i].timeline;
    execute_sum += tl.execute_us();
    EXPECT_EQ(tl.at(obs::SpanTimeline::kEnqueued),
              r[0].timeline.at(obs::SpanTimeline::kEnqueued));
    if (i > 0) {
      // Picked up only once the previous sibling completed.
      EXPECT_GE(tl.at(obs::SpanTimeline::kDequeued),
                r[i - 1].timeline.at(obs::SpanTimeline::kCompleted));
    }
  }
  const obs::Registry m = rt.metrics();
  const std::uint64_t busy = counter_value(m, "rt.busy_us");
  EXPECT_LE(execute_sum, busy);
  EXPECT_LE(busy, wall_us);
  const obs::Histogram* exec = m.find_histogram("rt.latency.execute_us");
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->count(), r.size());
  EXPECT_EQ(exec->sum(), execute_sum);
}

}  // namespace
}  // namespace sring::rt
