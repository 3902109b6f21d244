#include <gtest/gtest.h>

#include "stramash/mem/guest_memory.hh"
#include "stramash/mem/phys_map.hh"
#include "stramash/mem/topology.hh"

using namespace stramash;

TEST(GuestMemory, UntouchedReadsZero)
{
    GuestMemory mem;
    EXPECT_EQ(mem.load<std::uint64_t>(0x12345678), 0u);
    std::uint8_t buf[16];
    mem.read(0xdeadbeef000, buf, sizeof(buf));
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(mem.frameCount(), 0u);
}

TEST(GuestMemory, TypedRoundTrip)
{
    GuestMemory mem;
    mem.store<std::uint32_t>(0x1000, 0xabcd1234);
    mem.store<double>(0x2000, 3.25);
    EXPECT_EQ(mem.load<std::uint32_t>(0x1000), 0xabcd1234u);
    EXPECT_DOUBLE_EQ(mem.load<double>(0x2000), 3.25);
    EXPECT_EQ(mem.frameCount(), 2u);
}

TEST(GuestMemory, CrossPageReadWrite)
{
    GuestMemory mem;
    std::vector<std::uint8_t> data(3 * pageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    Addr base = 5 * pageSize - 100; // straddles boundaries
    mem.write(base, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    mem.read(base, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(GuestMemory, CrossPageTypedValue)
{
    GuestMemory mem;
    Addr straddle = pageSize - 4;
    mem.store<std::uint64_t>(straddle, 0x1122334455667788ULL);
    EXPECT_EQ(mem.load<std::uint64_t>(straddle),
              0x1122334455667788ULL);
}

TEST(GuestMemory, ZeroRange)
{
    GuestMemory mem;
    mem.store<std::uint64_t>(0x1000, ~0ull);
    mem.store<std::uint64_t>(0x1ff8, ~0ull);
    mem.store<std::uint64_t>(0x2000, ~0ull);
    mem.zero(0x1000, pageSize);
    EXPECT_EQ(mem.load<std::uint64_t>(0x1000), 0u);
    EXPECT_EQ(mem.load<std::uint64_t>(0x1ff8), 0u);
    EXPECT_EQ(mem.load<std::uint64_t>(0x2000), ~0ull);
}

TEST(GuestMemory, CopyGuestToGuest)
{
    GuestMemory mem;
    std::vector<std::uint8_t> data(pageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    mem.write(0x10000, data.data(), data.size());
    mem.copy(0x50000, 0x10000, pageSize);
    std::vector<std::uint8_t> back(pageSize);
    mem.read(0x50000, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(GuestMemory, OverlappingWritesLastWins)
{
    GuestMemory mem;
    mem.store<std::uint32_t>(0x100, 0x11111111);
    mem.store<std::uint16_t>(0x102, 0x2222);
    EXPECT_EQ(mem.load<std::uint32_t>(0x100), 0x22221111u);
}

TEST(GuestMemory, SparsenessAtScale)
{
    GuestMemory mem;
    // Touch one byte every 64 MiB over an 8 GiB span: 128 frames.
    for (Addr a = 0; a < (Addr{8} << 30); a += Addr{64} << 20)
        mem.store<std::uint8_t>(a, 1);
    EXPECT_EQ(mem.frameCount(), 128u);
}

TEST(GuestMemory, WriteStraddlesDirectoryLeafBoundary)
{
    // One directory leaf maps 2 MiB; this write starts in the last
    // frame of one leaf and ends in the first frame of the next.
    GuestMemory mem;
    Addr leafEnd = Addr{2} << 20;
    std::vector<std::uint8_t> data(256);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i + 1);
    mem.write(leafEnd - 100, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    mem.read(leafEnd - 100, back.data(), back.size());
    EXPECT_EQ(back, data);
    EXPECT_EQ(mem.load<std::uint8_t>(leafEnd - 1), 100u);
    EXPECT_EQ(mem.load<std::uint8_t>(leafEnd), 101u);
    EXPECT_EQ(mem.frameCount(), 2u);
}

TEST(GuestMemory, HighestPoolAddressOfEightNodeMachine)
{
    PhysMap map = PhysMap::generate(
        TopologySpec::alternating(8, MemoryModel::Shared));
    auto pools = map.poolRanges();
    ASSERT_FALSE(pools.empty());
    Addr last = pools.back().end - sizeof(std::uint64_t);
    GuestMemory mem;
    mem.store<std::uint64_t>(last, 0x0123456789abcdefULL);
    EXPECT_EQ(mem.load<std::uint64_t>(last), 0x0123456789abcdefULL);
    EXPECT_EQ(mem.load<std::uint64_t>(last - pageSize), 0u);
    EXPECT_EQ(mem.frameCount(), 1u);
}

TEST(GuestMemory, FrameCountExactAfterRewrites)
{
    GuestMemory mem;
    std::vector<std::uint8_t> page(pageSize, 0xab);
    for (int round = 0; round < 3; ++round) {
        for (Addr a = 0; a < 8 * pageSize; a += pageSize)
            mem.write(a, page.data(), page.size());
        mem.store<std::uint32_t>(Addr{5} << 30, 7);
        mem.zero(0, 2 * pageSize);
    }
    EXPECT_EQ(mem.frameCount(), 9u);
}

TEST(GuestMemory, DiscardReleasesTheFrameAndReadsZero)
{
    GuestMemory mem;
    mem.store<std::uint64_t>(0x3000, 0x1122);
    mem.store<std::uint64_t>(0x5008, 0x3344);
    EXPECT_EQ(mem.frameCount(), 2u);
    mem.discard(0x3ff8); // any address within the frame
    EXPECT_EQ(mem.frameCount(), 1u);
    EXPECT_EQ(mem.load<std::uint64_t>(0x3000), 0u);
    EXPECT_EQ(mem.load<std::uint64_t>(0x5008), 0x3344u);
    // Discarding an absent frame, or the same one twice, is a no-op.
    mem.discard(0x3000);
    mem.discard(Addr{7} << 30);
    EXPECT_EQ(mem.frameCount(), 1u);
    // A later write re-materialises a zeroed frame.
    mem.store<std::uint32_t>(0x3010, 9);
    EXPECT_EQ(mem.frameCount(), 2u);
    EXPECT_EQ(mem.load<std::uint64_t>(0x3000), 0u);
    EXPECT_EQ(mem.load<std::uint32_t>(0x3010), 9u);
}

TEST(GuestMemoryDeath, AddressBeyondPhysicalSpacePanics)
{
    GuestMemory mem;
    EXPECT_DEATH(mem.store<std::uint8_t>(Addr{1} << 48, 1), "48-bit");
    EXPECT_DEATH(mem.load<std::uint8_t>(~Addr{0}), "48-bit");
}
