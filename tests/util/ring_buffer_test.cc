#include "src/util/ring_buffer.h"

#include <gtest/gtest.h>

namespace sdb {
namespace {

TEST(RingBufferTest, StartsEmpty) {
  RingBuffer<int> buf(4);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), 4u);
}

TEST(RingBufferTest, PushAndRead) {
  RingBuffer<int> buf(3);
  buf.Push(1);
  buf.Push(2);
  EXPECT_EQ(buf.At(0), 1);
  EXPECT_EQ(buf.At(1), 2);
  EXPECT_EQ(buf.Back(), 2);
}

TEST(RingBufferTest, EvictsOldestWhenFull) {
  RingBuffer<int> buf(3);
  for (int i = 1; i <= 5; ++i) {
    buf.Push(i);
  }
  EXPECT_TRUE(buf.full());
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.At(0), 3);
  EXPECT_EQ(buf.At(1), 4);
  EXPECT_EQ(buf.At(2), 5);
}

TEST(RingBufferTest, ClearResets) {
  RingBuffer<int> buf(2);
  buf.Push(1);
  buf.Clear();
  EXPECT_TRUE(buf.empty());
  buf.Push(9);
  EXPECT_EQ(buf.Back(), 9);
}

// Storage is taken on the first push and kept by Clear: a fresh ring, a
// ring that has wrapped and been cleared, and a ring of capacity 1 answer
// capacity/full/At/Back/Clear the same way.
TEST(RingBufferTest, SameBehaviourBeforeAndAfterTheFirstPush) {
  RingBuffer<int> fresh(3);
  RingBuffer<int> reused(3);
  for (int i = 0; i < 5; ++i) {
    reused.Push(100 + i);
  }
  reused.Clear();
  for (RingBuffer<int>* buf : {&fresh, &reused}) {
    EXPECT_EQ(buf->capacity(), 3u);
    EXPECT_TRUE(buf->empty());
    EXPECT_FALSE(buf->full());
    buf->Push(1);
    EXPECT_EQ(buf->capacity(), 3u);
    EXPECT_EQ(buf->At(0), 1);
    EXPECT_EQ(buf->Back(), 1);
    EXPECT_FALSE(buf->full());
    for (int i = 2; i <= 4; ++i) {
      buf->Push(i);
    }
    EXPECT_TRUE(buf->full());
    EXPECT_EQ(buf->At(0), 2);
    EXPECT_EQ(buf->At(2), 4);
    EXPECT_EQ(buf->Back(), 4);
    buf->Clear();
    EXPECT_TRUE(buf->empty());
    EXPECT_FALSE(buf->full());
    EXPECT_EQ(buf->capacity(), 3u);
  }
  RingBuffer<int> one(1);
  EXPECT_FALSE(one.full());
  one.Push(5);
  EXPECT_TRUE(one.full());
  one.Push(6);
  EXPECT_EQ(one.At(0), 6);
  EXPECT_EQ(one.Back(), 6);
}

TEST(RingBufferTest, MeanOfContents) {
  RingBuffer<double> buf(4);
  buf.Push(1.0);
  buf.Push(2.0);
  buf.Push(3.0);
  EXPECT_DOUBLE_EQ(Mean(buf), 2.0);
}

TEST(RingBufferDeathTest, OutOfRangeAccess) {
  RingBuffer<int> buf(2);
  buf.Push(1);
  EXPECT_DEATH((void)buf.At(1), "CHECK failed");
}

TEST(RingBufferDeathTest, BackOnEmpty) {
  RingBuffer<int> buf(2);
  EXPECT_DEATH((void)buf.Back(), "CHECK failed");
}

}  // namespace
}  // namespace sdb
