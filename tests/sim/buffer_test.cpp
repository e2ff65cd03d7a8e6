#include "sim/buffer.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../test_support.hpp"

namespace dtn::sim {
namespace {

using test::make_message;

StoredMessage stored(MsgId id, std::int64_t kb = 25, double received_at = 0.0,
                     int replicas = 1) {
  StoredMessage sm;
  sm.msg = make_message(id, 0, 1, 0.0, 1200.0, kb);
  sm.replicas = replicas;
  sm.received_at = received_at;
  return sm;
}

TEST(BufferTest, InsertFindErase) {
  Buffer buf(1 << 20);
  buf.insert(stored(7));
  EXPECT_TRUE(buf.contains(7));
  EXPECT_TRUE(buf.has(7));  // compat alias
  EXPECT_EQ(buf.count(), 1u);
  ASSERT_NE(buf.find(7), nullptr);
  EXPECT_EQ(buf.find(7)->msg.id, 7);
  EXPECT_TRUE(buf.erase(7));
  EXPECT_FALSE(buf.contains(7));
  EXPECT_FALSE(buf.erase(7));
  EXPECT_EQ(buf.used(), 0);
}

TEST(BufferTest, UsedBytesTracked) {
  Buffer buf(1 << 20);
  buf.insert(stored(1, 25));
  buf.insert(stored(2, 100));
  EXPECT_EQ(buf.used(), (25 + 100) * 1024);
  buf.erase(1);
  EXPECT_EQ(buf.used(), 100 * 1024);
  EXPECT_EQ(buf.free_bytes(), (1 << 20) - 100 * 1024);
}

TEST(BufferTest, FitsAndAdmissible) {
  Buffer buf(50 * 1024);
  const Message small = make_message(1, 0, 1, 0.0, 1200.0, 25);
  const Message huge = make_message(2, 0, 1, 0.0, 1200.0, 100);
  EXPECT_TRUE(buf.admissible(small));
  EXPECT_FALSE(buf.admissible(huge));
  buf.insert(stored(3, 40));
  EXPECT_FALSE(buf.fits(small));
  EXPECT_TRUE(buf.admissible(small));  // would fit an empty buffer
}

TEST(BufferTest, OldestAndNewestFollowInsertionOrder) {
  Buffer buf(1 << 20);
  EXPECT_EQ(buf.oldest(), Buffer::kInvalidMsg);
  EXPECT_EQ(buf.newest(), Buffer::kInvalidMsg);
  buf.insert(stored(5));
  buf.insert(stored(6));
  buf.insert(stored(7));
  EXPECT_EQ(buf.oldest(), 5);
  EXPECT_EQ(buf.newest(), 7);
  buf.erase(5);
  EXPECT_EQ(buf.oldest(), 6);
  buf.erase(7);
  EXPECT_EQ(buf.newest(), 6);
}

TEST(BufferTest, IteratesInInsertionOrder) {
  Buffer buf(1 << 20);
  for (MsgId id = 10; id < 15; ++id) buf.insert(stored(id));
  MsgId expected = 10;
  for (const auto& sm : buf) {
    EXPECT_EQ(sm.msg.id, expected++);
  }
  EXPECT_EQ(expected, 15);
  // Order survives a middle erase and a subsequent insert (slot recycling
  // must not perturb the order links).
  buf.erase(12);
  buf.insert(stored(20));
  std::vector<MsgId> order;
  for (const auto& sm : buf) order.push_back(sm.msg.id);
  EXPECT_EQ(order, (std::vector<MsgId>{10, 11, 13, 14, 20}));
}

TEST(BufferTest, MutableIterationUpdatesInPlace) {
  Buffer buf(1 << 20);
  buf.insert(stored(1, 25, 0.0, 4));
  buf.insert(stored(2, 25, 0.0, 4));
  for (auto& sm : buf) sm.replicas /= 2;
  EXPECT_EQ(buf.find(1)->replicas, 2);
  EXPECT_EQ(buf.find(2)->replicas, 2);
}

TEST(BufferTest, FindPointerAllowsInPlaceUpdate) {
  Buffer buf(1 << 20);
  buf.insert(stored(1, 25, 0.0, 10));
  StoredMessage* sm = buf.find(1);
  ASSERT_NE(sm, nullptr);
  sm->replicas -= 4;
  EXPECT_EQ(buf.find(1)->replicas, 6);
}

TEST(BufferTest, ExpiredInto) {
  Buffer buf(1 << 20);
  StoredMessage a = stored(1);
  a.msg.created = 0.0;
  a.msg.ttl = 100.0;
  StoredMessage b = stored(2);
  b.msg.created = 0.0;
  b.msg.ttl = 1000.0;
  buf.insert(a);
  buf.insert(b);
  std::vector<MsgId> out{99};  // pre-dirtied: expired_into must clear it
  buf.expired_into(50.0, out);
  EXPECT_TRUE(out.empty());
  buf.expired_into(100.0, out);
  EXPECT_EQ(out, (std::vector<MsgId>{1}));
  buf.expired_into(2000.0, out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(BufferTest, EmptyState) {
  Buffer buf(1024);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.count(), 0u);
  EXPECT_EQ(buf.find(1), nullptr);
  EXPECT_EQ(buf.begin(), buf.end());
  const Buffer& cref = buf;
  EXPECT_EQ(cref.find(1), nullptr);
  EXPECT_EQ(cref.begin(), cref.end());
}

// ---- slab-only surface ----

TEST(BufferSlab, HandlesResolveAndTrackOrder) {
  Buffer buf(1 << 20);
  buf.insert(stored(3));
  buf.insert(stored(4));
  const Buffer::Handle h3 = buf.handle_of(3);
  const Buffer::Handle h4 = buf.handle_of(4);
  ASSERT_NE(h3, Buffer::kNoHandle);
  ASSERT_NE(h4, Buffer::kNoHandle);
  EXPECT_EQ(buf.front_handle(), h3);
  EXPECT_EQ(buf.next_handle(h3), h4);
  EXPECT_EQ(buf.next_handle(h4), Buffer::kNoHandle);
  EXPECT_EQ(buf.get(h4).msg.id, 4);
  buf.get(h4).replicas = 9;
  EXPECT_EQ(buf.find(4)->replicas, 9);
  EXPECT_EQ(buf.handle_of(99), Buffer::kNoHandle);
}

TEST(BufferSlab, IteratorExposesHandle) {
  Buffer buf(1 << 20);
  buf.insert(stored(1));
  buf.insert(stored(2));
  auto it = buf.begin();
  EXPECT_EQ(it.handle(), buf.handle_of(1));
  ++it;
  EXPECT_EQ(it.handle(), buf.handle_of(2));
  ++it;
  EXPECT_EQ(it, buf.end());
}

TEST(BufferSlab, SlotsAreRecycled) {
  Buffer buf(1 << 20);
  for (MsgId id = 0; id < 8; ++id) buf.insert(stored(id));
  const std::size_t high_water = buf.slot_capacity();
  EXPECT_EQ(high_water, 8u);
  // Churn far past the high-water count: the slab must reuse freed slots
  // instead of growing.
  for (MsgId id = 8; id < 500; ++id) {
    buf.erase(id - 8);
    buf.insert(stored(id));
  }
  EXPECT_EQ(buf.count(), 8u);
  EXPECT_EQ(buf.slot_capacity(), high_water);
}

}  // namespace
}  // namespace dtn::sim
