#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "stramash/common/units.hh"
#include "stramash/msg/ring_buffer.hh"

using namespace stramash;

namespace
{

class RingTest : public testing::Test
{
  protected:
    RingTest()
        : machine_(MachineConfig::paperPair(MemoryModel::Shared)),
          ring_(machine_, 1_GiB, 1_MiB)
    {
    }

    Message
    makeMsg(MsgType t, std::size_t payload = 0)
    {
        Message m;
        m.type = t;
        m.from = 0;
        m.to = 1;
        m.arg0 = 0x1111;
        m.arg1 = 0x2222;
        m.arg2 = 0x3333;
        m.payload.resize(payload);
        for (std::size_t i = 0; i < payload; ++i)
            m.payload[i] = static_cast<std::uint8_t>(i * 13);
        return m;
    }

    Machine machine_;
    MessageRing ring_;
};

} // namespace

TEST_F(RingTest, EmptyDequeueReturnsNothing)
{
    EXPECT_FALSE(ring_.dequeue(1).has_value());
    EXPECT_EQ(ring_.size(), 0u);
}

TEST_F(RingTest, RoundTripPreservesEverything)
{
    Message in = makeMsg(MsgType::PageRequest, 512);
    in.seq = 77;
    ASSERT_TRUE(ring_.enqueue(0, in));
    EXPECT_EQ(ring_.size(), 1u);
    auto out = ring_.dequeue(1);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->type, in.type);
    EXPECT_EQ(out->from, in.from);
    EXPECT_EQ(out->to, in.to);
    EXPECT_EQ(out->seq, in.seq);
    EXPECT_EQ(out->arg0, in.arg0);
    EXPECT_EQ(out->arg1, in.arg1);
    EXPECT_EQ(out->arg2, in.arg2);
    EXPECT_EQ(out->payload, in.payload);
    EXPECT_EQ(ring_.size(), 0u);
}

TEST_F(RingTest, FifoOrder)
{
    for (int i = 0; i < 10; ++i) {
        Message m = makeMsg(MsgType::FutexWait);
        m.arg0 = static_cast<std::uint64_t>(i);
        ASSERT_TRUE(ring_.enqueue(0, m));
    }
    for (int i = 0; i < 10; ++i) {
        auto out = ring_.dequeue(1);
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(out->arg0, static_cast<std::uint64_t>(i));
    }
}

TEST_F(RingTest, FullPageloadFits)
{
    Message m = makeMsg(MsgType::PageResponse, pageSize);
    ASSERT_TRUE(ring_.enqueue(0, m));
    auto out = ring_.dequeue(1);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->payload.size(), pageSize);
    EXPECT_EQ(out->payload, m.payload);
}

TEST_F(RingTest, WrapAroundWorks)
{
    // Push/pop more than the ring capacity several times over.
    std::size_t total = ring_.capacity() * 3 + 7;
    for (std::size_t i = 0; i < total; ++i) {
        Message m = makeMsg(MsgType::TaskMigrate);
        m.arg0 = i;
        ASSERT_TRUE(ring_.enqueue(0, m));
        auto out = ring_.dequeue(1);
        ASSERT_TRUE(out.has_value());
        ASSERT_EQ(out->arg0, i);
    }
}

TEST_F(RingTest, ControlWordsInGuestMemoryTrackTheRing)
{
    // The ring reads its own copies of head and tail; the words it
    // stores to guest memory must stay equal to them past several
    // wrap-arounds.
    std::size_t total = ring_.capacity() * 3 + 5;
    for (std::size_t i = 0; i < total; ++i) {
        ASSERT_TRUE(ring_.enqueue(0, makeMsg(MsgType::TaskMigrate)));
        ASSERT_TRUE(ring_.dequeue(1).has_value());
    }
    ASSERT_TRUE(ring_.enqueue(0, makeMsg(MsgType::TaskMigrate)));
    ASSERT_TRUE(ring_.enqueue(0, makeMsg(MsgType::TaskMigrate)));

    GuestMemory &mem = machine_.memory();
    auto head = mem.load<std::uint64_t>(ring_.base());
    auto tail = mem.load<std::uint64_t>(ring_.base() + 8);
    EXPECT_EQ(head, total);
    EXPECT_EQ(tail, total + 2);
    EXPECT_EQ(tail - head, ring_.size());
}

TEST_F(RingTest, ChargedAccessStreamIsPinned)
{
    // One header-only message through slot 0, then one page-payload
    // message through slot 1: every charged access, in order.
    using Access = std::tuple<NodeId, AccessType, Addr, unsigned>;
    std::vector<Access> seen;
    machine_.setTraceHooks(
        [&](NodeId n, AccessType t, Addr a, unsigned size) {
            seen.emplace_back(n, t, a, size);
        },
        nullptr);
    ASSERT_TRUE(ring_.enqueue(0, makeMsg(MsgType::FutexWait)));
    ASSERT_TRUE(ring_.dequeue(1).has_value());
    ASSERT_TRUE(ring_.enqueue(0, makeMsg(MsgType::PageResponse, pageSize)));
    ASSERT_TRUE(ring_.dequeue(1).has_value());
    machine_.clearTraceHooks();

    const Addr head = ring_.base(), tail = ring_.base() + 8;
    const Addr slot0 = ring_.base() + 64;
    const Addr slot1 = slot0 + MessageRing::slotBytes;
    const auto L = AccessType::Load, S = AccessType::Store;
    const unsigned hdr = Message::headerBytes;
    const unsigned page = pageSize;
    std::vector<Access> expected = {
        // Header-only enqueue and dequeue.
        {0, L, head, 8}, {0, L, tail, 8}, {0, S, slot0, hdr},
        {0, S, tail, 8},
        {1, L, head, 8}, {1, L, tail, 8}, {1, L, slot0, hdr},
        {1, S, head, 8},
        // Page-payload enqueue and dequeue.
        {0, L, head, 8}, {0, L, tail, 8}, {0, S, slot1, hdr},
        {0, S, slot1 + hdr, page}, {0, S, tail, 8},
        {1, L, head, 8}, {1, L, tail, 8}, {1, L, slot1, hdr},
        {1, L, slot1 + hdr, page}, {1, S, head, 8},
    };
    EXPECT_EQ(seen, expected);
}

TEST_F(RingTest, RoundTripsMaterialiseNoGuestFrames)
{
    // Message bytes travel on the host: only the control words live
    // in guest memory, however many slots the ring cycles through.
    GuestMemory &mem = machine_.memory();
    std::size_t frames = mem.frameCount();
    for (std::size_t i = 0; i < ring_.capacity() * 3; ++i) {
        ASSERT_TRUE(ring_.enqueue(0, makeMsg(MsgType::PageResponse,
                                             pageSize)));
        ASSERT_TRUE(ring_.dequeue(1).has_value());
    }
    EXPECT_EQ(mem.frameCount(), frames);
}

TEST_F(RingTest, FullRingRejectsEnqueue)
{
    std::size_t cap = ring_.capacity();
    for (std::size_t i = 0; i < cap; ++i)
        ASSERT_TRUE(ring_.enqueue(0, makeMsg(MsgType::TaskMigrate)));
    EXPECT_FALSE(ring_.enqueue(0, makeMsg(MsgType::TaskMigrate)));
    // Draining one slot frees space.
    EXPECT_TRUE(ring_.dequeue(1).has_value());
    EXPECT_TRUE(ring_.enqueue(0, makeMsg(MsgType::TaskMigrate)));
}

TEST_F(RingTest, EnqueueChargesProducer)
{
    Cycles before = machine_.node(0).cycles();
    ring_.enqueue(0, makeMsg(MsgType::PageResponse, pageSize));
    EXPECT_GT(machine_.node(0).cycles(), before);
    EXPECT_EQ(machine_.node(1).cycles(), 0u);
}

TEST_F(RingTest, DequeueChargesConsumer)
{
    ring_.enqueue(0, makeMsg(MsgType::PageResponse, pageSize));
    Cycles before = machine_.node(1).cycles();
    ring_.dequeue(1);
    EXPECT_GT(machine_.node(1).cycles(), before);
}

TEST(RingPlacement, PoolRingIsRemoteForBoth)
{
    // A ring in the CXL pool (Shared model) costs both sides remote
    // latency; a ring in x86-local memory is cheaper for x86.
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    MessageRing poolRing(m, 4_GiB, 1_MiB);
    MessageRing localRing(m, 1_GiB, 1_MiB);

    Message msg;
    msg.type = MsgType::TaskMigrate;
    msg.from = 0;
    msg.to = 1;

    Cycles x0 = m.node(0).cycles();
    poolRing.enqueue(0, msg);
    Cycles poolCost = m.node(0).cycles() - x0;

    x0 = m.node(0).cycles();
    localRing.enqueue(0, msg);
    Cycles localCost = m.node(0).cycles() - x0;

    EXPECT_GT(poolCost, localCost);
}

TEST(RingDeath, TinyAreaPanics)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    EXPECT_DEATH(MessageRing(m, 1_GiB, 128), "too small");
}

TEST(RingOccupancy, SizeTracksDepth)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    MessageRing ring(m, 4_GiB, 1_MiB);

    EXPECT_EQ(ring.size(), 0u);

    Message msg;
    msg.type = MsgType::TaskMigrate;
    msg.from = 0;
    msg.to = 1;
    ASSERT_TRUE(ring.enqueue(0, msg));
    ASSERT_TRUE(ring.enqueue(0, msg));
    EXPECT_EQ(ring.size(), 2u);

    ring.dequeue(1);
    ring.dequeue(1);
    EXPECT_EQ(ring.size(), 0u);
    ASSERT_TRUE(ring.enqueue(0, msg));
    EXPECT_EQ(ring.size(), 1u);
}

TEST(RingOccupancy, FullRingReportsFullAndRefuses)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    // Smallest legal area: header + a handful of slots.
    MessageRing ring(m, 4_GiB, 64 + 4 * MessageRing::slotBytes);

    Message msg;
    msg.type = MsgType::TaskMigrate;
    msg.from = 0;
    msg.to = 1;
    for (std::size_t i = 0; i < ring.capacity(); ++i)
        ASSERT_TRUE(ring.enqueue(0, msg));
    EXPECT_EQ(ring.size(), ring.capacity());
    EXPECT_FALSE(ring.enqueue(0, msg));
}
