// Concurrent batch-execution runtime: a fleet of Systolic Ring
// instances serving a stream of kernel jobs.
//
// Architecture (the multi-core deployment the paper's §3 host/IP-core
// split implies, scaled out):
//
//   submit()/submit_group()/submit_batch()
//        --> JobQueue (bounded, backpressured; one envelope per job or
//            per group)
//        --> N worker threads, each owning a private SystemPool; a
//            group runs back to back on one worker
//        --> JobResult via std::future / ordered group or batch vector
//
// Determinism: a job never shares a System with a concurrently
// running job — each worker arms a private instance, so per-job
// outputs and RunReports are bit-identical at any worker count (only
// the JobResult provenance fields differ).  The test suite holds the
// runtime to that.
//
// Observability: each worker adds every finished job into a typed
// tally (plain integers and pre-shaped histograms) under a per-worker
// mutex taken only at job boundaries — the simulation hot path is
// lock-free, and no job builds or searches an instrument name.
// metrics() names the tallies (plus queue statistics) into one fleet
// snapshot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/quantile.hpp"
#include "rt/job.hpp"
#include "rt/job_queue.hpp"
#include "rt/system_pool.hpp"

namespace sring::rt {

struct RuntimeConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  std::size_t workers = 0;

  /// JobQueue capacity: how far submission may run ahead of the fleet
  /// before push() blocks (backpressure).
  std::size_t queue_capacity = 64;

  /// Resident Systems per worker (SystemPool LRU bound).
  std::size_t pool_systems_per_worker = 4;
};

/// The fan-out rule of every multi-job request (v5 batches, GEMM
/// tiles): `jobs` jobs split into one contiguous run per worker, so a
/// group holds ceil(jobs / workers) of them, capped at `cap`, and at
/// least one.
inline std::size_t group_size(std::size_t jobs, std::size_t workers,
                              std::size_t cap = SIZE_MAX) noexcept {
  const std::size_t w = std::max<std::size_t>(1, workers);
  return std::max<std::size_t>(1, std::min((jobs + w - 1) / w, cap));
}

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config = {});
  ~Runtime();  ///< closes the queue, drains the backlog, joins workers

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Asynchronous submission; blocks only while the queue is full.
  /// Throws SimError after shutdown().
  std::future<JobResult> submit(Job job);

  /// Asynchronous group submission: `jobs` (at least one) take one
  /// queue slot and one worker runs them back to back, in order, each
  /// through the same arm/execute/report path and tally as a single
  /// job.  The future carries their results in job order.  Blocks only
  /// while the queue is full; throws SimError after shutdown().
  std::future<std::vector<JobResult>> submit_group(std::vector<Job> jobs);

  /// Outcome of a non-blocking try_submit() / try_submit_group().
  enum class SubmitStatus : std::uint8_t {
    kAccepted = 0,
    kQueueFull,  ///< bounded queue at capacity — caller should shed load
    kShutDown,   ///< runtime already shut down
  };
  template <class R>
  struct TrySubmitOf {
    SubmitStatus status = SubmitStatus::kShutDown;
    std::future<R> result;  ///< valid only when kAccepted
  };
  using TrySubmit = TrySubmitOf<JobResult>;
  using TrySubmitGroup = TrySubmitOf<std::vector<JobResult>>;

  /// Non-blocking submission for callers that must never park (the net
  /// server's accept loop): returns kQueueFull instead of waiting and
  /// kShutDown instead of throwing.  `notify`, when set, is invoked by
  /// the worker after the result future becomes ready — it runs on the
  /// worker thread and must be cheap and non-throwing.
  TrySubmit try_submit(Job job, std::function<void()> notify = {});

  /// Non-blocking group submission (see submit_group()).  `jobs` is
  /// consumed (left empty) only on kAccepted; on kQueueFull or
  /// kShutDown it is left intact, so the caller can hold the group and
  /// retry it.  `notify` runs once, after the whole group's future is
  /// ready.
  TrySubmitGroup try_submit_group(std::vector<Job>& jobs,
                                  std::function<void()> notify = {});

  /// Synchronous convenience: submit every job, wait for all, return
  /// results in submission order.  Jobs still spread across the whole
  /// fleet; ordering is restored on collection.
  std::vector<JobResult> submit_batch(std::vector<Job> jobs);

  /// Stop accepting work, run the backlog dry, join the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Envelopes queued right now (JobQueue depth; a group counts
  /// once).  Thread-safe; the net server's watermark admission polls
  /// it on every submit.
  std::size_t queue_depth() const { return queue_.stats().depth; }

  /// The queue's configured capacity (admission watermarks scale off
  /// it).
  std::size_t queue_capacity() const { return queue_.stats().capacity; }

  /// Fleet-wide metrics snapshot: queue statistics plus the named
  /// per-worker tallies (rt.jobs, rt.sim_cycles, per-worker
  /// rt.worker.<i>.* counters, pool reuse counters, job-cycle and
  /// rt.latency.* histograms, ring.plan.* / ring.superstep.*
  /// effectiveness counters).  Callable at any time, including
  /// mid-run.
  obs::Registry metrics() const;

 private:
  /// Bucket bounds of rt.job_cycles: powers of two up to 1M cycles.
  static const std::vector<std::uint64_t>& job_cycle_bounds();

  /// One worker's job accounting; metrics() names it.
  struct Tally {
    std::uint64_t jobs = 0;
    std::uint64_t jobs_failed = 0;
    // Successful jobs only (rt.job_cycles counts them).
    std::uint64_t sim_cycles = 0;
    std::uint64_t dnode_ops = 0;
    std::uint64_t host_words_in = 0;
    std::uint64_t host_words_out = 0;
    std::uint64_t plan_compiles = 0;
    std::uint64_t plan_hits = 0;
    std::uint64_t plan_invalidations = 0;
    std::uint64_t superstep_dispatches = 0;
    std::uint64_t superstep_cycles = 0;
    std::uint64_t trace_cycles = 0;
    obs::Histogram job_cycles{job_cycle_bounds()};
    // Jobs finished while telemetry was on (rt.latency.* count them).
    std::uint64_t busy_us = 0;
    obs::Histogram queue_wait_us{obs::latency_bounds_us()};
    obs::Histogram arm_us{obs::latency_bounds_us()};
    obs::Histogram execute_us{obs::latency_bounds_us()};
    // The pool's cumulative totals after the worker's latest job.
    std::uint64_t pool_fast_resets = 0;
    std::uint64_t pool_full_loads = 0;
    std::uint64_t pool_systems = 0;
  };

  struct Worker {
    std::thread thread;
    SystemPool pool;
    mutable std::mutex mu;  ///< guards tally; taken per job, not per cycle
    Tally tally;

    explicit Worker(std::size_t pool_size) : pool(pool_size) {}
  };

  static void name_tally(obs::Registry& out, std::size_t index,
                         const Tally& t);
  /// Queue `jobs` as one envelope whose promise yields R, blocking
  /// while the queue is full / returning a status instead.
  template <class R>
  std::future<R> enqueue(std::vector<Job> jobs);
  template <class R>
  TrySubmitOf<R> try_enqueue(std::vector<Job>& jobs,
                             std::function<void()> notify);
  void worker_main(std::size_t index);
  JobResult run_job(const Job& job, std::size_t index, Worker& worker,
                    obs::SpanTimeline& timeline);
  void tally_job(Worker& worker, const JobResult& result);

  RuntimeConfig config_;
  JobQueue queue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool shut_down_ = false;
};

}  // namespace sring::rt
