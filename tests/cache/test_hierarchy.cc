#include <gtest/gtest.h>

#include "stramash/cache/hierarchy.hh"
#include "stramash/common/units.hh"

#include <utility>
#include <vector>

using namespace stramash;

namespace
{

HierarchyGeometry
smallGeom()
{
    HierarchyGeometry g;
    g.l1i = {1_KiB, 2};
    g.l1d = {1_KiB, 2};
    g.l2 = {4_KiB, 4};
    g.l3 = {16_KiB, 4};
    return g;
}

} // namespace

TEST(HierarchyGeometry, PaperDefaultShape)
{
    auto g = HierarchyGeometry::paperDefault(4_MiB);
    EXPECT_EQ(g.l1i.sizeBytes, 32_KiB);
    EXPECT_EQ(g.l1d.sizeBytes, 32_KiB);
    EXPECT_EQ(g.l2.sizeBytes, 1_MiB);
    EXPECT_EQ(g.l3.sizeBytes, 4_MiB);
}

TEST(CacheHierarchy, FillThenHitAtL1)
{
    StatGroup stats("h");
    CacheHierarchy h(0, smallGeom(), stats);
    EXPECT_EQ(h.lookup(0x1000, false), HitLevel::Memory);
    h.fill(0x1000, Mesi::Exclusive, false, nullptr);
    EXPECT_EQ(h.lookup(0x1000, false), HitLevel::L1);
    EXPECT_EQ(stats.value("l1_hits"), 1u);
    EXPECT_EQ(stats.value("l1_accesses"), 2u);
}

TEST(CacheHierarchy, InstFetchFillsL1I)
{
    StatGroup stats("h");
    CacheHierarchy h(0, smallGeom(), stats);
    h.fill(0x2000, Mesi::Exclusive, true, nullptr);
    EXPECT_TRUE(h.l1i().holds(0x2000));
    EXPECT_FALSE(h.l1d().holds(0x2000));
    EXPECT_EQ(h.lookup(0x2000, true), HitLevel::L1);
    // A data access to the same line hits in L2 and gets promoted
    // into L1D.
    EXPECT_EQ(h.lookup(0x2000, false), HitLevel::L2);
    EXPECT_TRUE(h.l1d().holds(0x2000));
}

TEST(CacheHierarchy, PromotionFromL2AndL3)
{
    StatGroup stats("h");
    CacheHierarchy h(0, smallGeom(), stats);
    h.fill(0x3000, Mesi::Exclusive, false, nullptr);
    // Evict from L1 (2 ways per set in 1 KiB/2-way = 8 sets): lines
    // 8*64 apart collide in L1, but not in the larger L2.
    Addr l1Stride = (1_KiB / 2);
    h.fill(0x3000 + l1Stride, Mesi::Exclusive, false, nullptr);
    h.fill(0x3000 + 2 * l1Stride, Mesi::Exclusive, false, nullptr);
    EXPECT_FALSE(h.l1d().holds(0x3000));
    // Next access hits L2 and promotes back to L1.
    EXPECT_EQ(h.lookup(0x3000, false), HitLevel::L2);
    EXPECT_TRUE(h.l1d().holds(0x3000));
}

TEST(CacheHierarchy, LastLevelEvictionBackInvalidatesInner)
{
    StatGroup stats("h");
    HierarchyGeometry g = smallGeom();
    g.l3 = {1_KiB, 1}; // 16 sets, direct-mapped: easy conflicts
    CacheHierarchy h(0, g, stats);
    Addr stride = 1_KiB;
    std::vector<Addr> evicted;
    auto onEvict = [&](Addr a, bool) { evicted.push_back(a); };
    h.fill(0x0, Mesi::Exclusive, false, onEvict);
    EXPECT_TRUE(h.l1d().holds(0x0));
    h.fill(stride, Mesi::Exclusive, false, onEvict);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 0x0u);
    // Inclusion: the inner copies disappeared too.
    EXPECT_FALSE(h.holds(0x0));
}

TEST(CacheHierarchy, DirtyEvictionReported)
{
    StatGroup stats("h");
    HierarchyGeometry g = smallGeom();
    g.l3 = {1_KiB, 1};
    CacheHierarchy h(0, g, stats);
    bool sawDirty = false;
    auto onEvict = [&](Addr, bool dirty) { sawDirty = dirty; };
    h.fill(0x0, Mesi::Modified, false, onEvict);
    h.fill(1_KiB, Mesi::Exclusive, false, onEvict);
    EXPECT_TRUE(sawDirty);
}

TEST(CacheHierarchy, StateQueriesAndTransitions)
{
    StatGroup stats("h");
    CacheHierarchy h(0, smallGeom(), stats);
    h.fill(0x4000, Mesi::Exclusive, false, nullptr);
    EXPECT_EQ(h.lineState(0x4000), Mesi::Exclusive);
    h.setState(0x4000, Mesi::Modified);
    EXPECT_EQ(h.lineState(0x4000), Mesi::Modified);
    EXPECT_EQ(h.downgradeLine(0x4000), Mesi::Modified);
    EXPECT_EQ(h.lineState(0x4000), Mesi::Shared);
    EXPECT_EQ(h.downgradeLine(0x4000), Mesi::Shared);
    EXPECT_EQ(h.invalidateLine(0x4000), Mesi::Shared);
    EXPECT_FALSE(h.holds(0x4000));
    // A line no level holds reports Invalid to every transition.
    EXPECT_EQ(h.downgradeLine(0x4000), Mesi::Invalid);
    EXPECT_EQ(h.invalidateLine(0x4000), Mesi::Invalid);
    EXPECT_EQ(h.setState(0x4000, Mesi::Modified), Mesi::Invalid);
    EXPECT_FALSE(h.holds(0x4000));
}

TEST(CacheHierarchy, InvalidateDirtyLineReportsDirty)
{
    StatGroup stats("h");
    CacheHierarchy h(0, smallGeom(), stats);
    h.fill(0x5000, Mesi::Modified, false, nullptr);
    EXPECT_EQ(h.invalidateLine(0x5000), Mesi::Modified);
}

TEST(CacheHierarchy, NoL3Works)
{
    StatGroup stats("h");
    HierarchyGeometry g = smallGeom();
    g.l3.sizeBytes = 0; // Cortex-A72 style
    CacheHierarchy h(0, g, stats);
    EXPECT_FALSE(h.hasL3());
    h.fill(0x6000, Mesi::Exclusive, false, nullptr);
    EXPECT_EQ(h.lookup(0x6000, false), HitLevel::L1);
    EXPECT_EQ(stats.value("l3_accesses"), 0u);
}

TEST(CacheHierarchy, FlushAllEmptiesEverything)
{
    StatGroup stats("h");
    CacheHierarchy h(0, smallGeom(), stats);
    for (Addr a = 0; a < 16 * 64; a += 64)
        h.fill(a, Mesi::Exclusive, false, nullptr);
    h.flushAll();
    for (Addr a = 0; a < 16 * 64; a += 64)
        EXPECT_FALSE(h.holds(a));
}

TEST(CacheHierarchy, SharedL3KeepsL1OnlyCopiesVisible)
{
    // With a shared L3 the L2 is not the last level, so an L2 victim
    // does not back-invalidate the L1s: a line can live in L1 alone.
    StatGroup stats("h");
    HierarchyGeometry g = smallGeom();
    g.l2 = {1_KiB, 1}; // 16 sets, direct-mapped: easy conflicts
    g.l3.sizeBytes = 0;
    CacheHierarchy h(0, g, stats);
    SetAssocCache shared({64_KiB, 16}); // 64 sets, 4 KiB stride
    h.attachSharedL3(&shared);
    ASSERT_TRUE(h.usesSharedL3());
    EXPECT_FALSE(h.hasL3());

    std::vector<std::pair<Addr, bool>> evicted; // (line, dirty)
    auto onEvict = [&](Addr a, bool dirty) { evicted.emplace_back(a, dirty); };
    // 0x0 and 1 KiB share the direct-mapped L2 set, but the 2-way
    // L1D keeps both.
    h.fill(0x0, Mesi::Modified, false, onEvict);
    h.fill(1_KiB, Mesi::Exclusive, false, onEvict);
    EXPECT_TRUE(evicted.empty());
    EXPECT_FALSE(h.l2().holds(0x0));
    ASSERT_TRUE(h.l1d().holds(0x0));
    EXPECT_TRUE(h.holds(0x0));
    EXPECT_EQ(h.lineState(0x0), Mesi::Modified);

    // Push 0x0 out of the shared L3 with instruction fetches, which
    // leave the L1D alone: its L1-only copy is back-invalidated and
    // its Modified state makes the victim dirty.
    for (int i = 1; i <= 16; ++i)
        h.fill(i * 4_KiB, Mesi::Exclusive, true, onEvict);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], std::make_pair(Addr{0x0}, true));
    EXPECT_FALSE(h.holds(0x0));

    // A line in the shared L3 and in no private level (its private
    // copies were snooped away) leaves clean.
    Addr y = 64; // shared-L3 set 1
    h.fill(y, Mesi::Exclusive, false, onEvict);
    EXPECT_EQ(h.invalidateLine(y), Mesi::Exclusive);
    EXPECT_FALSE(h.holds(y));
    EXPECT_TRUE(shared.holds(y)); // the shared L3 is not private
    for (int i = 1; i <= 16; ++i)
        h.fill(y + i * 4_KiB, Mesi::Exclusive, true, onEvict);
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[1], std::make_pair(y, false));
    EXPECT_FALSE(shared.holds(y));
}
