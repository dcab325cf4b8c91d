// SpscQueue unit tests: FIFO order through ring wraparound, spill past
// capacity, and the bounded TryPush path the serving ingress relies on.
#include "sim/spsc.h"

#include <gtest/gtest.h>

namespace ndp::sim {
namespace {

TEST(SpscQueueTest, FifoThroughRingWraparound) {
  SpscQueue<int> q(/*capacity_pow2=*/4);
  int out = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) q.Push(round * 10 + i);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(q.Pop(&out));
      EXPECT_EQ(out, round * 10 + i);
    }
  }
  EXPECT_FALSE(q.Pop(&out));
  EXPECT_TRUE(q.Empty());
}

TEST(SpscQueueTest, SpillPreservesFifoPastCapacity) {
  SpscQueue<int> q(/*capacity_pow2=*/4);
  // Push far beyond the ring: the tail spills, and once spilling starts all
  // later pushes must spill too, or FIFO order would interleave.
  for (int i = 0; i < 100; ++i) q.Push(i);
  int out = 0;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(q.Empty());
  // After a full drain, the ring path is active again.
  q.Push(777);
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 777);
}

TEST(SpscQueueTest, TryPushShedsAtCapacityWithoutSpilling) {
  SpscQueue<int> q(/*capacity_pow2=*/4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  // Full ring: TryPush refuses instead of growing the spill deque.
  EXPECT_FALSE(q.TryPush(99));
  EXPECT_FALSE(q.TryPush(100));
  int out = 0;
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 0);
  // One slot freed, one accepted — still bounded, still FIFO.
  EXPECT_TRUE(q.TryPush(4));
  EXPECT_FALSE(q.TryPush(5));
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(SpscQueueTest, TryPushRefusesWhileSpillInProgress) {
  SpscQueue<int> q(/*capacity_pow2=*/4);
  for (int i = 0; i < 6; ++i) q.Push(i);  // 2 past capacity -> spilling
  // A spill is in progress: TryPush must refuse even after ring pops, or
  // accepted entries would overtake the spilled tail and break FIFO.
  int out = 0;
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_FALSE(q.TryPush(99));
  for (int i = 1; i < 6; ++i) ASSERT_TRUE(q.Pop(&out));
  EXPECT_TRUE(q.Empty());
  // Spill drained: the bounded path is live again.
  EXPECT_TRUE(q.TryPush(7));
}

}  // namespace
}  // namespace ndp::sim
