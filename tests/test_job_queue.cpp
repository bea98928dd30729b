// JobQueue / Runtime edge-case hardening regressions: non-blocking
// admission (try_push / try_submit), submit-after-close as a typed
// error, and deterministic close-while-full draining.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "kernels/fir_kernel.hpp"
#include "kernels/jobs.hpp"
#include "rt/job_queue.hpp"
#include "rt/runtime.hpp"

namespace sring::rt {
namespace {

JobQueue::Envelope envelope(std::string name) {
  JobQueue::Envelope e;
  e.jobs.emplace_back().name = std::move(name);
  return e;
}

TEST(JobQueueTryPush, FullThenClosedAreTypedStatuses) {
  JobQueue q(1);
  JobQueue::Envelope a = envelope("a");
  EXPECT_EQ(q.try_push(a), JobQueue::PushStatus::kOk);

  JobQueue::Envelope b = envelope("b");
  EXPECT_EQ(q.try_push(b), JobQueue::PushStatus::kFull);
  // kFull leaves the envelope with the caller, resubmittable as-is.
  EXPECT_EQ(b.jobs[0].name, "b");
  EXPECT_EQ(q.stats().rejected_full, 1u);

  EXPECT_EQ(q.pop()->jobs[0].name, "a");
  EXPECT_EQ(q.try_push(b), JobQueue::PushStatus::kOk);
  EXPECT_EQ(q.pop()->jobs[0].name, "b");

  q.close();
  JobQueue::Envelope c = envelope("c");
  EXPECT_EQ(q.try_push(c), JobQueue::PushStatus::kClosed);
  EXPECT_EQ(q.stats().rejected_closed, 1u);
}

TEST(JobQueueClose, PushAfterCloseIsTypedNotUb) {
  JobQueue q(4);
  q.close();
  // Repeated post-close pushes keep failing cleanly and keep counting.
  EXPECT_FALSE(q.push(envelope("x")));
  EXPECT_FALSE(q.push(envelope("y")));
  EXPECT_EQ(q.stats().rejected_closed, 2u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(JobQueueClose, CloseWhileFullDrainsDeterministically) {
  JobQueue q(2);
  ASSERT_TRUE(q.push(envelope("a")));
  ASSERT_TRUE(q.push(envelope("b")));

  // Several producers parked on the full queue.
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int i = 0; i < 3; ++i) {
    producers.emplace_back([&q, &rejected, i] {
      if (!q.push(envelope("blocked" + std::to_string(i)))) ++rejected;
    });
  }
  // Let them reach the wait; blocked_pushes confirms at least one did.
  for (int spin = 0; spin < 200 && q.stats().blocked_pushes < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  q.close();
  for (auto& t : producers) t.join();
  // Every parked producer woke and was rejected — none deadlocked,
  // none slipped an item in past close.
  EXPECT_EQ(rejected.load(), 3);

  // The pre-close backlog drains in FIFO order, then end-of-stream.
  EXPECT_EQ(q.pop()->jobs[0].name, "a");
  EXPECT_EQ(q.pop()->jobs[0].name, "b");
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.stats().dequeued, 2u);
}

TEST(RuntimeTrySubmit, ShutDownIsTypedForBothSubmitPaths) {
  const RingGeometry g{4, 2, 16};
  const std::vector<Word> coeffs{1, 2};
  const std::vector<Word> x{1, 2, 3, 4};

  Runtime rt;
  rt.shutdown();
  // Blocking submit throws the documented SimError...
  EXPECT_THROW(rt.submit(kernels::make_spatial_fir_job(g, x, coeffs)),
               SimError);
  // ...and try_submit reports the same condition as a status.
  auto t = rt.try_submit(kernels::make_spatial_fir_job(g, x, coeffs));
  EXPECT_EQ(t.status, Runtime::SubmitStatus::kShutDown);
  EXPECT_FALSE(t.result.valid());
}

TEST(RuntimeTrySubmit, AcceptedJobRunsAndNotifies) {
  const RingGeometry g{4, 2, 16};
  const std::vector<Word> coeffs{1, 2};
  const std::vector<Word> x{1, 2, 3, 4};

  RuntimeConfig cfg;
  cfg.workers = 1;
  Runtime rt(cfg);

  std::promise<void> notified;
  auto t = rt.try_submit(kernels::make_spatial_fir_job(g, x, coeffs),
                         [&notified] { notified.set_value(); });
  ASSERT_EQ(t.status, Runtime::SubmitStatus::kAccepted);
  ASSERT_TRUE(t.result.valid());

  // The notify hook fires only after the future is ready.
  ASSERT_EQ(notified.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  ASSERT_EQ(t.result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const JobResult r = t.result.get();
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.outputs.size(), x.size());
}

TEST(RuntimeTrySubmit, QueueFullSurfacesWithoutBlocking) {
  const RingGeometry g{4, 2, 16};
  const std::vector<Word> coeffs{1, 2};
  // A fat job keeps the single worker busy long enough for the tiny
  // queue to fill behind it.
  std::vector<Word> big(4096);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<Word>(i & 0x7F);
  }

  RuntimeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  Runtime rt(cfg);

  std::vector<std::future<JobResult>> accepted;
  bool saw_full = false;
  for (int i = 0; i < 64 && !saw_full; ++i) {
    auto t = rt.try_submit(kernels::make_spatial_fir_job(g, big, coeffs));
    if (t.status == Runtime::SubmitStatus::kAccepted) {
      accepted.push_back(std::move(t.result));
    } else {
      EXPECT_EQ(t.status, Runtime::SubmitStatus::kQueueFull);
      EXPECT_FALSE(t.result.valid());
      saw_full = true;
    }
  }
  EXPECT_TRUE(saw_full) << "queue of capacity 1 never reported kFull";

  // Everything that was accepted still completes bit-correctly.
  for (auto& f : accepted) {
    const JobResult r = f.get();
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.outputs.size(), big.size());
  }
  const auto m = rt.metrics();
  EXPECT_GE(m.find_counter("rt.queue.rejected_full")->value(), 1u);
}

}  // namespace
}  // namespace sring::rt
