// Bounded, backpressured MPMC job queue.
//
// The host-side admission path of the runtime: producers block in
// push() while the queue is full (backpressure — submission slows to
// the fleet's drain rate instead of buffering unboundedly), workers
// block in pop() while it is empty.  close() wakes everyone: pending
// items still drain, then pop() returns nullopt and push() returns
// false.  All statistics are maintained under the queue mutex and
// snapshot via stats().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <variant>
#include <vector>

#include "rt/job.hpp"

namespace sring::rt {

class JobQueue {
 public:
  /// One queued unit of work: one job (submit/try_submit) or a
  /// contiguous group of jobs (submit_group/try_submit_group) that a
  /// single worker runs back to back, plus the promise their results
  /// are delivered through.  A group is one envelope: it takes one
  /// queue slot and counts once in the queue statistics.
  struct Envelope {
    std::vector<Job> jobs;
    /// A single job's result, or a group's results in job order.
    std::variant<std::promise<JobResult>,
                 std::promise<std::vector<JobResult>>>
        result;

    /// Optional completion hook, invoked by the worker *after* the
    /// promise is fulfilled — once per envelope, not per job.  Lets a
    /// poll-loop consumer (the net server) get woken without blocking
    /// on the future; must be cheap and must not throw.
    std::function<void()> notify;

    /// kEnqueued is stamped at submission; every job of the envelope
    /// starts its own timeline from this stamp.
    obs::SpanTimeline timeline;
  };

  /// Outcome of a non-blocking try_push().
  enum class PushStatus : std::uint8_t { kOk = 0, kFull, kClosed };

  struct Stats {
    std::size_t capacity = 0;
    std::size_t depth = 0;           ///< envelopes queued right now
    std::uint64_t enqueued = 0;      ///< successful push() calls
    std::uint64_t dequeued = 0;      ///< successful pop() calls
    std::uint64_t max_depth = 0;     ///< high-water mark
    std::uint64_t blocked_pushes = 0;///< push() calls that had to wait
    std::uint64_t rejected_full = 0; ///< try_push() calls that saw kFull
    std::uint64_t rejected_closed = 0;///< push/try_push after close()
    bool closed = false;
  };

  explicit JobQueue(std::size_t capacity);

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Enqueue, blocking while full.  Returns false (envelope untouched
  /// beyond the move attempt) once the queue is closed.
  bool push(Envelope envelope);

  /// Non-blocking enqueue: kFull when the queue is at capacity (the
  /// admission decision a network server needs to reject with Busy
  /// instead of parking its accept loop), kClosed after close().  The
  /// envelope is consumed only on kOk.
  PushStatus try_push(Envelope& envelope);

  /// Dequeue, blocking while empty.  nullopt only after close() AND
  /// the queue fully drained — a closed queue still hands out its
  /// backlog.
  std::optional<Envelope> pop();

  /// Close the queue: subsequent push() fails, pop() drains then ends.
  void close();

  Stats stats() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Envelope> items_;
  Stats stats_;
  bool closed_ = false;
};

}  // namespace sring::rt
