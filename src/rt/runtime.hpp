// Concurrent batch-execution runtime: a fleet of Systolic Ring
// instances serving a stream of kernel jobs.
//
// Architecture (the multi-core deployment the paper's §3 host/IP-core
// split implies, scaled out):
//
//   submit()/submit_batch() --> JobQueue (bounded, backpressured)
//        --> N worker threads, each owning a private SystemPool
//        --> JobResult via std::future / ordered batch vector
//
// Determinism: a job never shares a System with a concurrently
// running job — each worker arms a private instance, so per-job
// outputs and RunReports are bit-identical at any worker count (only
// the JobResult provenance fields differ).  The test suite holds the
// runtime to that.
//
// Observability: workers accumulate into per-worker obs::Registry
// instances guarded by per-worker mutexes taken only at job
// boundaries — the simulation hot path is lock-free.  metrics()
// merges those registries (plus queue statistics) into one fleet
// snapshot via Registry::merge_from.  An optional sink factory gives
// each worker its own EventSink; a traced worker re-attaches the sink
// per job, so each job appears as one begin()-delimited trace segment.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
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

  /// Optional per-worker event sink factory, called once per worker
  /// at start-up with the worker index.  The worker owns the sink,
  /// attaches it to the System of every job it runs, and calls end()
  /// when the runtime shuts down.
  std::function<std::unique_ptr<obs::EventSink>(std::size_t)> sink_factory;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config = {});
  ~Runtime();  ///< closes the queue, drains the backlog, joins workers

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Asynchronous submission; blocks only while the queue is full.
  /// Throws SimError after shutdown().
  std::future<JobResult> submit(Job job);

  /// Outcome of a non-blocking try_submit().
  enum class SubmitStatus : std::uint8_t {
    kAccepted = 0,
    kQueueFull,  ///< bounded queue at capacity — caller should shed load
    kShutDown,   ///< runtime already shut down
  };
  struct TrySubmit {
    SubmitStatus status = SubmitStatus::kShutDown;
    std::future<JobResult> result;  ///< valid only when kAccepted
  };

  /// Non-blocking submission for callers that must never park (the net
  /// server's accept loop): returns kQueueFull instead of waiting and
  /// kShutDown instead of throwing.  `notify`, when set, is invoked by
  /// the worker after the result future becomes ready — it runs on the
  /// worker thread and must be cheap and non-throwing.
  TrySubmit try_submit(Job job, std::function<void()> notify = {});

  /// Synchronous convenience: submit every job, wait for all, return
  /// results in submission order.  Jobs still spread across the whole
  /// fleet; ordering is restored on collection.
  std::vector<JobResult> submit_batch(std::vector<Job> jobs);

  /// Stop accepting work, run the backlog dry, join the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Jobs queued right now (JobQueue depth).  Thread-safe; the net
  /// server's watermark admission polls it on every submit.
  std::size_t queue_depth() const { return queue_.stats().depth; }

  /// The queue's configured capacity (admission watermarks scale off
  /// it).
  std::size_t queue_capacity() const { return queue_.stats().capacity; }

  /// Fleet-wide metrics snapshot: queue statistics plus the merged
  /// per-worker registries (rt.jobs, rt.sim_cycles, per-worker
  /// rt.worker.<i>.* counters, pool reuse counters, job-cycle and
  /// rt.latency.* histograms, ring.plan.* / ring.superstep.*
  /// effectiveness counters).  Callable at any time, including
  /// mid-run.
  obs::Registry metrics() const;

 private:
  struct Worker {
    /// This worker's rt.worker.<i>.* counter names, built once.
    struct Names {
      explicit Names(std::size_t index);
      std::string jobs, jobs_failed, sim_cycles;
      std::string pool_fast_resets, pool_full_loads, pool_systems;
    };

    std::thread thread;
    SystemPool pool;
    std::unique_ptr<obs::EventSink> sink;
    mutable std::mutex mu;    ///< guards registry; taken per job, not per cycle
    obs::Registry registry;
    const Names names;

    Worker(std::size_t index, std::size_t pool_size)
        : pool(pool_size), names(index) {}
  };

  void worker_main(std::size_t index);
  JobResult run_job(const Job& job, std::size_t index, Worker& worker,
                    obs::SpanTimeline& timeline);

  RuntimeConfig config_;
  JobQueue queue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool shut_down_ = false;
};

}  // namespace sring::rt
