// JobQueue unit tests: FIFO order, bounded backpressure, close/drain
// semantics, statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "rt/job_queue.hpp"

namespace sring::rt {
namespace {

JobQueue::Envelope envelope(std::string name) {
  JobQueue::Envelope e;
  e.jobs.emplace_back().name = std::move(name);
  return e;
}

TEST(JobQueue, FifoOrder) {
  JobQueue q(8);
  EXPECT_TRUE(q.push(envelope("a")));
  EXPECT_TRUE(q.push(envelope("b")));
  EXPECT_TRUE(q.push(envelope("c")));
  EXPECT_EQ(q.pop()->jobs[0].name, "a");
  EXPECT_EQ(q.pop()->jobs[0].name, "b");
  EXPECT_EQ(q.pop()->jobs[0].name, "c");
}

TEST(JobQueue, RejectsZeroCapacity) {
  EXPECT_THROW(JobQueue q(0), SimError);
}

TEST(JobQueue, PushBlocksWhenFullUntilPopped) {
  JobQueue q(2);
  ASSERT_TRUE(q.push(envelope("a")));
  ASSERT_TRUE(q.push(envelope("b")));

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(envelope("c")));  // must wait for a pop
    third_pushed = true;
  });

  // The producer should be parked on the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());

  EXPECT_EQ(q.pop()->jobs[0].name, "a");
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_GE(q.stats().blocked_pushes, 1u);

  EXPECT_EQ(q.pop()->jobs[0].name, "b");
  EXPECT_EQ(q.pop()->jobs[0].name, "c");
}

TEST(JobQueue, CloseDrainsBacklogThenEnds) {
  JobQueue q(4);
  ASSERT_TRUE(q.push(envelope("a")));
  ASSERT_TRUE(q.push(envelope("b")));
  q.close();

  EXPECT_FALSE(q.push(envelope("rejected")));

  // Backlog still drains after close...
  EXPECT_EQ(q.pop()->jobs[0].name, "a");
  EXPECT_EQ(q.pop()->jobs[0].name, "b");
  // ...then pop reports end-of-stream.
  EXPECT_FALSE(q.pop().has_value());
}

TEST(JobQueue, CloseWakesBlockedConsumer) {
  JobQueue q(4);
  std::atomic<bool> ended{false};
  std::thread consumer([&] {
    EXPECT_FALSE(q.pop().has_value());
    ended = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ended.load());
  q.close();
  consumer.join();
  EXPECT_TRUE(ended.load());
}

TEST(JobQueue, StatsTrackDepthAndTraffic) {
  JobQueue q(4);
  EXPECT_EQ(q.stats().capacity, 4u);
  ASSERT_TRUE(q.push(envelope("a")));
  ASSERT_TRUE(q.push(envelope("b")));
  EXPECT_EQ(q.stats().depth, 2u);
  EXPECT_EQ(q.stats().enqueued, 2u);
  EXPECT_EQ(q.stats().max_depth, 2u);
  (void)q.pop();
  EXPECT_EQ(q.stats().depth, 1u);
  EXPECT_EQ(q.stats().dequeued, 1u);
  EXPECT_EQ(q.stats().max_depth, 2u);
  EXPECT_FALSE(q.stats().closed);
  q.close();
  EXPECT_TRUE(q.stats().closed);
}

}  // namespace
}  // namespace sring::rt
