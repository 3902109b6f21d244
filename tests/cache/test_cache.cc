#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "stramash/cache/cache.hh"
#include "stramash/common/units.hh"

using namespace stramash;

namespace
{

CacheGeometry
tinyCache(unsigned ways = 2, Addr sets = 4)
{
    return {sets * ways * cacheLineSize, ways};
}

} // namespace

TEST(CacheGeometry, SetMath)
{
    CacheGeometry g{32_KiB, 8};
    EXPECT_EQ(g.numSets(), 32_KiB / (8 * 64));
}

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c(tinyCache());
    EXPECT_EQ(c.probe(0x1000), nullptr);
    c.insert(0x1000, Mesi::Exclusive);
    auto *l = c.probe(0x1000);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state(), Mesi::Exclusive);
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(SetAssocCache, SameSetEvictsLru)
{
    // 2-way, 4 sets: addresses 4 sets * 64 B apart collide.
    SetAssocCache c(tinyCache(2, 4));
    Addr stride = 4 * 64;
    c.insert(0 * stride, Mesi::Exclusive);
    c.insert(1 * stride, Mesi::Exclusive);
    // Touch line 0 so line 1 becomes LRU.
    EXPECT_NE(c.probe(0 * stride), nullptr);
    auto victim = c.insert(2 * stride, Mesi::Exclusive);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, 1 * stride);
    EXPECT_FALSE(victim->dirty);
    EXPECT_TRUE(c.holds(0 * stride));
    EXPECT_FALSE(c.holds(1 * stride));
    EXPECT_TRUE(c.holds(2 * stride));
}

TEST(SetAssocCache, DirtyVictimReported)
{
    SetAssocCache c(tinyCache(1, 4));
    Addr stride = 4 * 64;
    c.insert(0, Mesi::Modified);
    auto victim = c.insert(stride, Mesi::Exclusive);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(victim->lineAddr, 0u);
}

TEST(SetAssocCache, InsertExistingUpdatesState)
{
    SetAssocCache c(tinyCache());
    c.insert(0x40, Mesi::Shared);
    auto victim = c.insert(0x40, Mesi::Modified);
    EXPECT_FALSE(victim.has_value());
    EXPECT_EQ(c.find(0x40)->state(), Mesi::Modified);
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(SetAssocCache, InvalidateReturnsPreviousState)
{
    SetAssocCache c(tinyCache());
    c.insert(0x80, Mesi::Modified);
    EXPECT_EQ(c.invalidate(0x80), Mesi::Modified);
    EXPECT_EQ(c.invalidate(0x80), Mesi::Invalid);
    EXPECT_FALSE(c.holds(0x80));
}

TEST(SetAssocCache, PeekDoesNotRefreshLru)
{
    SetAssocCache c(tinyCache(2, 1));
    c.insert(0x0, Mesi::Exclusive);
    c.insert(0x40, Mesi::Exclusive);
    // Peek at line 0 (no LRU refresh): it stays LRU and is evicted.
    EXPECT_NE(c.find(0x0), nullptr);
    auto victim = c.insert(0x80, Mesi::Exclusive);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, 0x0u);
}

TEST(SetAssocCache, UnalignedAddressesShareLine)
{
    SetAssocCache c(tinyCache());
    c.insert(0x1000, Mesi::Exclusive);
    EXPECT_TRUE(c.holds(0x103f));
    EXPECT_FALSE(c.holds(0x1040));
    EXPECT_EQ(c.lineAddrOf(0x107f), 0x1040u);
}

TEST(SetAssocCache, FlushAll)
{
    SetAssocCache c(tinyCache());
    for (Addr a = 0; a < 8 * 64; a += 64)
        c.insert(a, Mesi::Shared);
    EXPECT_GT(c.validCount(), 0u);
    c.flushAll();
    EXPECT_EQ(c.validCount(), 0u);
}

TEST(SetAssocCacheDeath, BadGeometry)
{
    // Size and way count must be powers of two, or set indexing
    // would silently alias; the constructor fails loudly instead.
    EXPECT_DEATH(SetAssocCache({100, 2}), "power of two");
    EXPECT_DEATH(SetAssocCache({1024, 0}), "way count");
    EXPECT_DEATH(SetAssocCache({1024, 3}), "way count");
    EXPECT_DEATH(SetAssocCache({0, 2}), "cache size");
    // Too small to hold even one full set.
    EXPECT_DEATH(SetAssocCache({128, 4}), "cannot hold one set");
}

TEST(SetAssocCacheDeath, MoreThanSixteenWays)
{
    // The LRU order packs 4-bit way numbers into one word per set.
    EXPECT_DEATH(SetAssocCache({64_KiB, 32}), "way count above 16");
}

namespace
{

/** One 16-way set: every line-aligned address below maps to it. */
constexpr CacheGeometry oneSet16{16 * cacheLineSize, 16};

Addr
lineAt(unsigned i)
{
    return i * cacheLineSize;
}

/** Insert @p count new lines and return the victims, in order. */
std::vector<Addr>
victimsOf(SetAssocCache &c, unsigned firstNew, unsigned count)
{
    std::vector<Addr> out;
    for (unsigned i = firstNew; i < firstNew + count; ++i) {
        if (auto v = c.insert(lineAt(i), Mesi::Exclusive))
            out.push_back(v->lineAddr);
    }
    return out;
}

std::vector<Addr>
lines(std::initializer_list<unsigned> ids)
{
    std::vector<Addr> out;
    for (unsigned i : ids)
        out.push_back(lineAt(i));
    return out;
}

} // namespace

TEST(SetAssocCache, SixteenWayVictimsFollowHitRefreshes)
{
    SetAssocCache c(oneSet16);
    ASSERT_EQ(c.numSets(), 1u);
    EXPECT_TRUE(victimsOf(c, 0, 16).empty());
    for (unsigned i : {0u, 5u, 10u, 5u})
        ASSERT_NE(c.probe(lineAt(i)), nullptr);
    // find() is a snoop: it must not refresh line 1.
    ASSERT_NE(c.find(lineAt(1)), nullptr);
    EXPECT_EQ(victimsOf(c, 100, 16),
              lines({1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 15, 0, 10,
                     5}));
}

TEST(SetAssocCache, SixteenWayVictimsAfterInvalidateAndReinsert)
{
    SetAssocCache c(oneSet16);
    victimsOf(c, 0, 16);
    // An invalidated way is refilled before any valid line goes, the
    // lowest invalid way first, and the refill is most recent.
    EXPECT_EQ(c.invalidate(lineAt(9)), Mesi::Exclusive);
    EXPECT_EQ(c.invalidate(lineAt(2)), Mesi::Exclusive);
    EXPECT_EQ(c.invalidate(lineAt(5)), Mesi::Exclusive);
    EXPECT_FALSE(c.insert(lineAt(9), Mesi::Shared).has_value());
    EXPECT_TRUE(victimsOf(c, 100, 2).empty());
    EXPECT_EQ(c.validCount(), 16u);
    EXPECT_EQ(victimsOf(c, 200, 16),
              lines({0, 1, 3, 4, 6, 7, 8, 10, 11, 12, 13, 14, 15, 9, 100,
                     101}));
}

TEST(SetAssocCache, SixteenWayVictimsAfterFlushAll)
{
    SetAssocCache c(oneSet16);
    victimsOf(c, 0, 16);
    for (unsigned i : {15u, 3u, 7u})
        c.probe(lineAt(i));
    c.flushAll();
    // The pre-flush recency order no longer matters: refills take
    // the ways in order and age in insertion order.
    EXPECT_TRUE(victimsOf(c, 100, 16).empty());
    c.probe(lineAt(100));
    EXPECT_EQ(victimsOf(c, 200, 16),
              lines({101, 102, 103, 104, 105, 106, 107, 108, 109, 110,
                     111, 112, 113, 114, 115, 100}));
}

TEST(SetAssocCache, CachedGeometryMatchesComputed)
{
    SetAssocCache c({32_KiB, 8});
    EXPECT_EQ(c.numSets(), c.geometry().numSets());
    EXPECT_EQ(c.numSets(), 64u);
}

TEST(Mesi, Names)
{
    EXPECT_STREQ(mesiName(Mesi::Invalid), "I");
    EXPECT_STREQ(mesiName(Mesi::Shared), "S");
    EXPECT_STREQ(mesiName(Mesi::Exclusive), "E");
    EXPECT_STREQ(mesiName(Mesi::Modified), "M");
}
