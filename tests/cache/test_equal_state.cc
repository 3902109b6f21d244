/**
 * @file
 * The equal-state rule of a private-LLC hierarchy: every level that
 * holds a line holds it in the same MESI state. A store hit on a line
 * already Modified and a promotion's inner victim both rely on it to
 * skip a walk, so it is checked after every access of seeded random
 * traces, and the store hits it governs are pinned directly.
 */

#include <gtest/gtest.h>

#include <string>

#include "stramash/cache/coherence.hh"
#include "stramash/common/rng.hh"
#include "stramash/common/units.hh"
#include "stramash/mem/topology.hh"

using namespace stramash;

namespace
{

/** Tiny hierarchy: a 16 KiB L3 that a 64 KiB trace overflows. */
HierarchyGeometry
tinyGeom()
{
    HierarchyGeometry g;
    g.l1i = {1_KiB, 2};
    g.l1d = {1_KiB, 2};
    g.l2 = {4_KiB, 4};
    g.l3 = {16_KiB, 4};
    return g;
}

/** Every private level of @p h that holds @p line holds one state. */
testing::AssertionResult
oneState(CacheHierarchy &h, Addr line)
{
    const SetAssocCache *levels[] = {&h.l1i(), &h.l1d(), &h.l2(), h.l3()};
    Mesi seen = Mesi::Invalid;
    for (const SetAssocCache *c : levels) {
        const SetAssocCache::Line *l = c->find(line);
        if (!l)
            continue;
        if (seen != Mesi::Invalid && l->state() != seen) {
            return testing::AssertionFailure()
                   << "node " << h.node() << " holds line 0x" << std::hex
                   << line << std::dec << " as " << mesiName(seen) << " and "
                   << mesiName(l->state());
        }
        seen = l->state();
    }
    return testing::AssertionSuccess();
}

} // namespace

TEST(EqualStates, RandomTracesKeepOneStatePerLine)
{
    constexpr Addr base = 0x10000000;
    constexpr Addr span = 64_KiB;
    for (unsigned nodes : {2u, 4u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(std::to_string(nodes) + " nodes, seed " +
                         std::to_string(seed));
            TopologySpec topo =
                nodes == 2
                    ? TopologySpec::paperPair(MemoryModel::Separated)
                    : TopologySpec::alternating(nodes,
                                                MemoryModel::Separated);
            PhysMap map = PhysMap::generate(topo);
            CoherenceDomain d(map, SnoopCosts{});
            for (const TopologyNode &n : topo.nodes)
                d.addNode(n.id, tinyGeom(), latencyProfile(n.core));

            Rng rng(seed);
            std::uint64_t llcEvictions = 0;
            for (int i = 1; i <= 20000; ++i) {
                auto node = static_cast<NodeId>(rng.below(nodes));
                unsigned roll = rng.below(100);
                AccessType type = roll < 30   ? AccessType::Store
                                  : roll < 35 ? AccessType::InstFetch
                                              : AccessType::Load;
                // Half the accesses share a hot 8 KiB region (snoops,
                // upgrades); the rest sweep 4x the L3 (evictions).
                Addr line = lineBase(base + rng.below(rng.chance(0.5)
                                                          ? 8_KiB
                                                          : span));
                SetAssocCache &llc = *d.hierarchy(node).l3();
                std::size_t before = llc.validCount();
                AccessResult r = d.accessLine(node, type, line);
                // A fill that leaves the LLC no fuller replaced a line.
                if (r.level == HitLevel::Memory &&
                    llc.validCount() == before)
                    ++llcEvictions;
                for (NodeId n = 0; n < nodes; ++n)
                    ASSERT_TRUE(oneState(d.hierarchy(n), line))
                        << "after access " << i;
                if (i % 2500 != 0)
                    continue;
                for (Addr a = base; a < base + span; a += cacheLineSize) {
                    for (NodeId n = 0; n < nodes; ++n)
                        ASSERT_TRUE(oneState(d.hierarchy(n), a))
                            << "after access " << i;
                }
            }
            std::uint64_t invalidates = 0, datas = 0;
            for (NodeId n = 0; n < nodes; ++n) {
                invalidates += d.nodeStats(n).value("snoop_invalidates");
                datas += d.nodeStats(n).value("snoop_datas");
            }
            EXPECT_GT(invalidates, 1000u);
            EXPECT_GT(datas, 1000u);
            EXPECT_GT(llcEvictions, 1000u);
        }
    }
}

namespace
{

/**
 * Two nodes with tiny hierarchies and a line @ref a that node 0 can
 * push out of its L1D (two loads to the same 2-way L1 set, in another
 * L2 set) or out of its L1D and L2 (four loads to the same 4-way L2
 * set, in other L3 sets).
 */
class StoreHitUpgrade : public testing::Test
{
  protected:
    StoreHitUpgrade()
    {
        d_.addNode(0, tinyGeom(), latencyProfile(CoreModel::XeonGold));
        d_.addNode(1, tinyGeom(), latencyProfile(CoreModel::ThunderX2));
    }

    void
    evictFromL1()
    {
        for (Addr off : {512u, 1536u})
            d_.accessLine(0, AccessType::Load, a + off);
        ASSERT_FALSE(h().l1d().holds(a));
        ASSERT_TRUE(h().l2().holds(a));
    }

    void
    evictFromL2()
    {
        for (Addr off : {1_KiB, 2_KiB, 3_KiB, 5_KiB})
            d_.accessLine(0, AccessType::Load, a + off);
        ASSERT_FALSE(h().l1d().holds(a));
        ASSERT_FALSE(h().l2().holds(a));
        ASSERT_TRUE(h().l3()->holds(a));
    }

    CacheHierarchy &h() { return d_.hierarchy(0); }

    /** Node 0's L1D, L2 and L3 all hold @ref a Modified. */
    void
    expectModifiedEverywhere()
    {
        for (const SetAssocCache *c : {&h().l1d(), &h().l2(), h().l3()}) {
            const SetAssocCache::Line *l = c->find(a);
            ASSERT_NE(l, nullptr);
            EXPECT_EQ(l->state(), Mesi::Modified);
        }
    }

    std::uint64_t
    snoops()
    {
        return d_.nodeStats(0).value("snoop_invalidates");
    }

    static constexpr Addr a = 0x100000;
    const LatencyProfile &lat = latencyProfile(CoreModel::XeonGold);
    PhysMap map_ = PhysMap::paperDefault(MemoryModel::Separated);
    CoherenceDomain d_{map_, SnoopCosts{}};
};

} // namespace

TEST_F(StoreHitUpgrade, ExclusiveAtL2GoesModifiedEverywhere)
{
    d_.accessLine(0, AccessType::Load, a);
    evictFromL1();
    AccessResult r = d_.accessLine(0, AccessType::Store, a);
    EXPECT_EQ(r.level, HitLevel::L2);
    // No other node holds an Exclusive line: nothing to snoop.
    EXPECT_EQ(r.latency, lat.l2);
    EXPECT_FALSE(r.snoopInvalidate);
    expectModifiedEverywhere();
}

TEST_F(StoreHitUpgrade, ExclusiveAtL3GoesModifiedEverywhere)
{
    d_.accessLine(0, AccessType::Load, a);
    evictFromL2();
    AccessResult r = d_.accessLine(0, AccessType::Store, a);
    EXPECT_EQ(r.level, HitLevel::L3);
    EXPECT_EQ(r.latency, lat.l3);
    expectModifiedEverywhere();
}

TEST_F(StoreHitUpgrade, SharedAtL2ChargesTheSnoop)
{
    d_.accessLine(0, AccessType::Load, a);
    d_.accessLine(1, AccessType::Load, a);
    evictFromL1();
    AccessResult r = d_.accessLine(0, AccessType::Store, a);
    EXPECT_EQ(r.level, HitLevel::L2);
    EXPECT_EQ(r.latency, lat.l2 + SnoopCosts{}.snoopInvalidate);
    EXPECT_TRUE(r.snoopInvalidate);
    EXPECT_EQ(snoops(), 1u);
    EXPECT_FALSE(d_.hierarchy(1).holds(a));
    expectModifiedEverywhere();
}

TEST_F(StoreHitUpgrade, ModifiedAtL2ChargesNothing)
{
    d_.accessLine(0, AccessType::Store, a);
    evictFromL1();
    AccessResult r = d_.accessLine(0, AccessType::Store, a);
    EXPECT_EQ(r.level, HitLevel::L2);
    EXPECT_EQ(r.latency, lat.l2);
    EXPECT_FALSE(r.snoopInvalidate);
    EXPECT_EQ(snoops(), 0u);
    expectModifiedEverywhere();
}
