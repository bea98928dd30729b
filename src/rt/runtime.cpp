#include "rt/runtime.hpp"

#include <exception>
#include <utility>

#include "common/error.hpp"
#include "obs/quantile.hpp"
#include "sim/system.hpp"

namespace sring::rt {

namespace {

std::size_t resolve_workers(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

const std::vector<std::uint64_t>& Runtime::job_cycle_bounds() {
  static const std::vector<std::uint64_t> bounds = [] {
    std::vector<std::uint64_t> b;
    for (std::uint64_t v = 64; v <= (1u << 20); v <<= 1) b.push_back(v);
    return b;
  }();
  return bounds;
}

Runtime::Runtime(RuntimeConfig config)
    : config_(std::move(config)), queue_(config_.queue_capacity) {
  const std::size_t n = resolve_workers(config_.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(config_.pool_systems_per_worker));
  }
  // Threads start only after every Worker slot exists: worker_main
  // indexes workers_ freely.
  for (std::size_t i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_main(i); });
  }
}

Runtime::~Runtime() { shutdown(); }

void Runtime::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  queue_.close();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

namespace {

std::vector<Job> one_job(Job job) {
  std::vector<Job> jobs;
  jobs.push_back(std::move(job));
  return jobs;
}

}  // namespace

template <class R>
std::future<R> Runtime::enqueue(std::vector<Job> jobs) {
  check(!jobs.empty(), "Runtime::submit_group: empty group");
  JobQueue::Envelope env;
  env.jobs = std::move(jobs);
  std::future<R> fut = env.result.emplace<std::promise<R>>().get_future();
  // Stamped before push(): a full queue blocks here, and that wait IS
  // the queue-wait phase the latency histograms must see.
  env.timeline.stamp(obs::SpanTimeline::kEnqueued);
  check(queue_.push(std::move(env)),
        "Runtime::submit: runtime is shut down");
  return fut;
}

template <class R>
Runtime::TrySubmitOf<R> Runtime::try_enqueue(std::vector<Job>& jobs,
                                             std::function<void()> notify) {
  check(!jobs.empty(), "Runtime::try_submit_group: empty group");
  JobQueue::Envelope env;
  env.jobs = std::move(jobs);
  env.notify = std::move(notify);
  TrySubmitOf<R> out;
  out.result = env.result.emplace<std::promise<R>>().get_future();
  env.timeline.stamp(obs::SpanTimeline::kEnqueued);
  const JobQueue::PushStatus pushed = queue_.try_push(env);
  if (pushed == JobQueue::PushStatus::kOk) {
    out.status = SubmitStatus::kAccepted;
    jobs.clear();
    return out;
  }
  out.status = pushed == JobQueue::PushStatus::kFull
                   ? SubmitStatus::kQueueFull
                   : SubmitStatus::kShutDown;
  out.result = {};
  // try_push consumed nothing: the refused jobs go back to the caller.
  jobs = std::move(env.jobs);
  return out;
}

std::future<JobResult> Runtime::submit(Job job) {
  return enqueue<JobResult>(one_job(std::move(job)));
}

std::future<std::vector<JobResult>> Runtime::submit_group(
    std::vector<Job> jobs) {
  return enqueue<std::vector<JobResult>>(std::move(jobs));
}

Runtime::TrySubmit Runtime::try_submit(Job job,
                                       std::function<void()> notify) {
  std::vector<Job> jobs = one_job(std::move(job));
  return try_enqueue<JobResult>(jobs, std::move(notify));
}

Runtime::TrySubmitGroup Runtime::try_submit_group(
    std::vector<Job>& jobs, std::function<void()> notify) {
  return try_enqueue<std::vector<JobResult>>(jobs, std::move(notify));
}

std::vector<JobResult> Runtime::submit_batch(std::vector<Job> jobs) {
  std::vector<std::future<JobResult>> futures;
  futures.reserve(jobs.size());
  for (auto& job : jobs) futures.push_back(submit(std::move(job)));
  std::vector<JobResult> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

void Runtime::worker_main(std::size_t index) {
  Worker& w = *workers_[index];
  while (auto env = queue_.pop()) {
    std::vector<JobResult> results;
    results.reserve(env->jobs.size());
    for (const Job& job : env->jobs) {
      // Each job keeps its own timeline: it shares the envelope's
      // enqueue stamp, but its pickup is when this worker starts it,
      // so busy and phase times of siblings never overlap.
      obs::SpanTimeline timeline = env->timeline;
      timeline.stamp(obs::SpanTimeline::kDequeued);
      results.push_back(run_job(job, index, w, timeline));
      tally_job(w, results.back());
    }
    if (auto* one = std::get_if<std::promise<JobResult>>(&env->result)) {
      one->set_value(std::move(results.front()));
    } else {
      std::get<std::promise<std::vector<JobResult>>>(env->result)
          .set_value(std::move(results));
    }
    if (env->notify) env->notify();
  }
}

void Runtime::tally_job(Worker& w, const JobResult& result) {
  // Job-boundary accounting; the simulation itself ran lock-free.
  std::lock_guard lock(w.mu);
  Tally& t = w.tally;
  ++t.jobs;
  if (!result.ok) {
    ++t.jobs_failed;
  } else {
    const SystemStats& s = result.report.stats;
    const RingMetrics& m = result.report.metrics;
    t.sim_cycles += s.cycles;
    t.dnode_ops += s.dnode_ops;
    t.host_words_in += s.host_words_in;
    t.host_words_out += s.host_words_out;
    t.job_cycles.record(s.cycles);
    // Plan-cache / superstep effectiveness per deployment, not
    // just per cycle-bench run (ROADMAP: matvec8's 0.29 hit rate).
    t.plan_compiles += s.plan_compiles;
    t.plan_hits += s.plan_hits;
    t.plan_invalidations += s.plan_invalidations;
    t.superstep_dispatches += m.value(RingMetrics::kSuperstepDispatches);
    t.superstep_cycles += m.value(RingMetrics::kSuperstepCycles);
    t.trace_cycles += m.value(RingMetrics::kTraceCycles);
  }
  if (obs::telemetry_enabled()) {
    const obs::SpanTimeline& tl = result.timeline;
    t.queue_wait_us.record(tl.queue_wait_us());
    t.arm_us.record(tl.arm_us());
    t.execute_us.record(tl.execute_us());
    // Worker busy time; utilization = rate(rt.busy_us) / workers.
    t.busy_us += tl.us_between(obs::SpanTimeline::kDequeued,
                               obs::SpanTimeline::kCompleted);
  }
  t.pool_fast_resets = w.pool.fast_resets();
  t.pool_full_loads = w.pool.full_loads();
  t.pool_systems = w.pool.systems_constructed();
}

JobResult Runtime::run_job(const Job& job, std::size_t index,
                           Worker& worker, obs::SpanTimeline& timeline) {
  JobResult result;
  result.worker = index;
  result.trace_id = job.trace_id;
  try {
    const SystemPool::Lease lease = worker.pool.acquire(job);
    System& sys = lease.system;
    result.reused_system = lease.rearmed;
    timeline.stamp(obs::SpanTimeline::kArmed);
    result.outputs = run_on(sys, job);
    timeline.stamp(obs::SpanTimeline::kExecuted);
    result.report = RunReport::from_system(job.name, sys);
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  timeline.stamp(obs::SpanTimeline::kCompleted);
  result.timeline = timeline;
  return result;
}

/// Name worker `index`'s tally into `out`.  Counters add and
/// histograms merge, so fleet-wide names sum across workers.  An
/// instrument appears once it has something to count: failures after
/// the first failed job, the per-job ring figures after the first
/// successful one, the latencies after a job finished with telemetry
/// on.
void Runtime::name_tally(obs::Registry& out, std::size_t index,
                         const Tally& t) {
  if (t.jobs == 0) return;
  const std::string worker = "rt.worker." + std::to_string(index) + ".";
  const auto add = [&out](std::string_view name, std::uint64_t v) {
    out.counter(name).add(v);
  };
  // rt.<leaf> sums across the fleet, rt.worker.<i>.<leaf> is this
  // worker's share.
  const auto add_both = [&](const std::string& leaf, std::uint64_t v) {
    add("rt." + leaf, v);
    add(worker + leaf, v);
  };
  const auto merge = [&out](std::string_view name, const obs::Histogram& h) {
    out.histogram(name, h.bounds()).merge_from(h);
  };
  add_both("jobs", t.jobs);
  if (t.jobs_failed > 0) add_both("jobs_failed", t.jobs_failed);
  if (t.job_cycles.count() > 0) {
    add_both("sim_cycles", t.sim_cycles);
    add("rt.dnode_ops", t.dnode_ops);
    add("rt.host_words_in", t.host_words_in);
    add("rt.host_words_out", t.host_words_out);
    merge("rt.job_cycles", t.job_cycles);
    add("ring.plan.compiles", t.plan_compiles);
    add("ring.plan.hits", t.plan_hits);
    add("ring.plan.invalidations", t.plan_invalidations);
    add("ring.superstep.dispatches", t.superstep_dispatches);
    add("ring.superstep.cycles", t.superstep_cycles);
    add("ring.superstep.trace_cycles", t.trace_cycles);
  }
  if (t.queue_wait_us.count() > 0) {
    merge("rt.latency.queue_wait_us", t.queue_wait_us);
    merge("rt.latency.arm_us", t.arm_us);
    merge("rt.latency.execute_us", t.execute_us);
    add("rt.busy_us", t.busy_us);
  }
  add_both("pool.fast_resets", t.pool_fast_resets);
  add_both("pool.full_loads", t.pool_full_loads);
  add(worker + "pool.systems", t.pool_systems);
}

obs::Registry Runtime::metrics() const {
  obs::Registry out;
  out.counter("rt.workers").set(workers_.size());

  const JobQueue::Stats q = queue_.stats();
  out.counter("rt.queue.capacity").set(q.capacity);
  out.counter("rt.queue.depth").set(q.depth);
  out.counter("rt.queue.enqueued").set(q.enqueued);
  out.counter("rt.queue.dequeued").set(q.dequeued);
  out.counter("rt.queue.max_depth").set(q.max_depth);
  out.counter("rt.queue.blocked_pushes").set(q.blocked_pushes);
  out.counter("rt.queue.rejected_full").set(q.rejected_full);
  out.counter("rt.queue.rejected_closed").set(q.rejected_closed);

  for (std::size_t i = 0; i < workers_.size(); ++i) {
    std::lock_guard lock(workers_[i]->mu);
    name_tally(out, i, workers_[i]->tally);
  }
  return out;
}

}  // namespace sring::rt
