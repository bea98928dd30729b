// Unit tests for the host link (bandwidth modeling) and the flat
// HostFifo beneath it.
#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <vector>

#include "common/error.hpp"
#include "common/host_fifo.hpp"
#include "common/rng.hpp"
#include "sim/host_interface.hpp"

namespace sring {
namespace {

TEST(HostFifo, FifoOrderAndPeek) {
  HostFifo f;
  EXPECT_TRUE(f.empty());
  f.push_back(1);
  f.push_back(2);
  f.push_back(3);
  EXPECT_EQ(f.size(), 3u);
  EXPECT_EQ(f.front(), 1u);
  EXPECT_EQ(f.at(0), 1u);
  EXPECT_EQ(f.at(2), 3u);
  EXPECT_EQ(f.pop(), 1u);
  f.pop_front();
  EXPECT_EQ(f.front(), 3u);
  EXPECT_EQ(f.pop(), 3u);
  EXPECT_TRUE(f.empty());
}

TEST(HostFifo, AssignReplacesAndAppendExtends) {
  HostFifo f;
  f.push_back(7);
  f.pop_front();
  f.assign({4, 5});
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.front(), 4u);
  const std::vector<Word> more{6, 7};
  f.append(more);
  EXPECT_EQ(f.size(), 4u);
  EXPECT_EQ(f.at(3), 7u);
  f.clear();
  EXPECT_TRUE(f.empty());
}

TEST(HostFifo, MatchesDequeAcrossReclaimChurn) {
  // Interleaved pushes and pops well past the lazy-reclaim threshold:
  // the flat fifo must stay word-for-word a std::deque.
  HostFifo f;
  std::deque<Word> ref;
  Rng rng(99);
  for (std::size_t round = 0; round < 10'000; ++round) {
    const int burst = static_cast<int>(rng.next_word_in(1, 5));
    for (int i = 0; i < burst; ++i) {
      const Word w = rng.next_word_in(-5000, 5000);
      f.push_back(w);
      ref.push_back(w);
    }
    const int pops = static_cast<int>(rng.next_word_in(0, 6));
    for (int i = 0; i < pops && !ref.empty(); ++i) {
      ASSERT_FALSE(f.empty());
      ASSERT_EQ(f.pop(), ref.front());
      ref.pop_front();
    }
    ASSERT_EQ(f.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(f.front(), ref.front());
    }
  }
  while (!ref.empty()) {
    ASSERT_EQ(f.pop(), ref.front());
    ref.pop_front();
  }
  EXPECT_TRUE(f.empty());
}

TEST(LinkRate, FromBytesPerSecond) {
  // 250 MB/s at 200 MHz: 0.625 words/cycle.
  const LinkRate r = LinkRate::from_bytes_per_second(250e6, 200e6);
  EXPECT_NEAR(static_cast<double>(r.num) / r.den, 0.625, 1e-6);
  EXPECT_THROW(LinkRate::from_bytes_per_second(0, 200e6), SimError);
  // Absurdly slow links that can never move a word are rejected.
  EXPECT_THROW(LinkRate::from_bytes_per_second(1e-9, 200e6), SimError);
}

TEST(HostInterface, IdealLinkIsImmediate) {
  HostInterface host;
  host.send(std::vector<Word>{1, 2, 3});
  EXPECT_EQ(host.ring_in().size(), 3u);
  host.ring_out().push_back(9);
  host.tick();
  EXPECT_EQ(host.received(), (std::vector<Word>{9}));
  EXPECT_EQ(host.words_to_core(), 3u);
  EXPECT_EQ(host.words_to_host(), 1u);
}

TEST(HostInterface, RateLimitedDelivery) {
  // One word every two cycles.
  HostInterface host(LinkRate{1, 2});
  host.send(std::vector<Word>{10, 11, 12});
  EXPECT_TRUE(host.ring_in().empty());
  host.tick();
  EXPECT_TRUE(host.ring_in().empty()) << "half a credit is not a word";
  host.tick();
  EXPECT_EQ(host.ring_in().size(), 1u);
  host.tick();
  host.tick();
  EXPECT_EQ(host.ring_in().size(), 2u);
}

TEST(HostInterface, IdleBandwidthDoesNotBank) {
  HostInterface host(LinkRate{1, 2});
  // 10 idle cycles must not accumulate credits.
  for (int i = 0; i < 10; ++i) host.tick();
  host.send(std::vector<Word>{1, 2, 3, 4});
  host.tick();
  host.tick();
  EXPECT_EQ(host.ring_in().size(), 1u)
      << "burst after idle must still respect the rate";
}

TEST(HostInterface, ReturnPathIsAlsoLimited) {
  HostInterface host(LinkRate{1, 2});
  for (Word w = 0; w < 6; ++w) host.ring_out().push_back(w);
  host.tick();
  host.tick();
  EXPECT_EQ(host.received().size(), 1u);
  for (int i = 0; i < 20; ++i) host.tick();
  EXPECT_EQ(host.received().size(), 6u);
}

TEST(HostInterface, TakeReceivedClears) {
  HostInterface host;
  host.ring_out().push_back(5);
  host.tick();
  EXPECT_EQ(host.take_received(), (std::vector<Word>{5}));
  EXPECT_TRUE(host.received().empty());
  // New output after taking is still delivered.
  host.ring_out().push_back(6);
  host.tick();
  EXPECT_EQ(host.take_received(), (std::vector<Word>{6}));
}

TEST(HostInterface, FastLinkMovesMultipleWordsPerCycle) {
  HostInterface host(LinkRate{3, 1});
  host.send(std::vector<Word>{1, 2, 3, 4, 5});
  host.tick();
  EXPECT_EQ(host.ring_in().size(), 3u);
  host.tick();
  EXPECT_EQ(host.ring_in().size(), 5u);
}

}  // namespace
}  // namespace sring
