#include <gtest/gtest.h>

#include "stramash/cache/coherence.hh"
#include "stramash/common/units.hh"

using namespace stramash;

namespace
{

class CoherenceTest : public testing::Test
{
  protected:
    void
    build(MemoryModel model, bool sharedLlc = false)
    {
        map_ = std::make_unique<PhysMap>(PhysMap::paperDefault(model));
        CacheGeometry shared{4_MiB, 16};
        domain_ = std::make_unique<CoherenceDomain>(
            *map_, SnoopCosts{}, sharedLlc ? &shared : nullptr);
        auto geom = HierarchyGeometry::paperDefault(4_MiB);
        domain_->addNode(0, geom, latencyProfile(CoreModel::XeonGold));
        domain_->addNode(1, geom, latencyProfile(CoreModel::ThunderX2));
    }

    std::unique_ptr<PhysMap> map_;
    std::unique_ptr<CoherenceDomain> domain_;
};

/** Two nodes with tiny hierarchies, so a few conflicting lines force
 *  evictions. */
class CoherenceTinyCaches : public testing::Test
{
  protected:
    void
    build(const CacheGeometry *sharedLlc = nullptr)
    {
        HierarchyGeometry g;
        g.l1i = {1_KiB, 2};
        g.l1d = {1_KiB, 2};
        g.l2 = {4_KiB, 4};
        g.l3 = {16_KiB, 4};
        d_ = std::make_unique<CoherenceDomain>(map_, SnoopCosts{},
                                               sharedLlc);
        d_->addNode(0, g, latencyProfile(CoreModel::XeonGold));
        d_->addNode(1, g, latencyProfile(CoreModel::ThunderX2));
    }

    PhysMap map_ = PhysMap::paperDefault(MemoryModel::FullyShared);
    std::unique_ptr<CoherenceDomain> d_;
};

} // namespace

TEST_F(CoherenceTest, ColdMissPaysLocalMemoryLatency)
{
    build(MemoryModel::Separated);
    auto r = domain_->accessLine(0, AccessType::Load, 0x1000);
    EXPECT_EQ(r.level, HitLevel::Memory);
    EXPECT_EQ(r.memClass, MemoryClass::Local);
    EXPECT_EQ(r.latency, latencyProfile(CoreModel::XeonGold).mem);
}

TEST_F(CoherenceTest, RemoteMissPaysRemoteLatency)
{
    build(MemoryModel::Separated);
    // Node 0 (x86) touching Arm-home memory at 2 GiB.
    auto r = domain_->accessLine(0, AccessType::Load, 2_GiB);
    EXPECT_EQ(r.memClass, MemoryClass::Remote);
    EXPECT_EQ(r.latency,
              latencyProfile(CoreModel::XeonGold).remoteMem);
}

TEST_F(CoherenceTest, SharedPoolCountsSeparately)
{
    build(MemoryModel::Shared);
    domain_->accessLine(1, AccessType::Load, 5_GiB);
    EXPECT_EQ(domain_->nodeStats(1).value("remote_shared_mem_hits"),
              1u);
    EXPECT_EQ(domain_->nodeStats(1).value("remote_mem_hits"), 0u);
}

TEST_F(CoherenceTest, HitAfterFill)
{
    build(MemoryModel::Separated);
    domain_->accessLine(0, AccessType::Load, 0x1000);
    auto r = domain_->accessLine(0, AccessType::Load, 0x1000);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_EQ(r.latency, latencyProfile(CoreModel::XeonGold).l1);
}

TEST_F(CoherenceTest, LoadInstallsExclusiveThenSharedOnOtherReader)
{
    build(MemoryModel::FullyShared);
    domain_->accessLine(0, AccessType::Load, 0x1000);
    EXPECT_EQ(domain_->hierarchy(0).lineState(0x1000),
              Mesi::Exclusive);
    auto r = domain_->accessLine(1, AccessType::Load, 0x1000);
    // Reader snoops the Exclusive holder: Snoop Data + downgrade.
    EXPECT_TRUE(r.snoopData);
    EXPECT_EQ(domain_->hierarchy(0).lineState(0x1000), Mesi::Shared);
    EXPECT_EQ(domain_->nodeStats(1).value("snoop_datas"), 1u);
}

TEST_F(CoherenceTest, StoreInvalidatesOtherHolder)
{
    build(MemoryModel::FullyShared);
    domain_->accessLine(0, AccessType::Load, 0x2000);
    auto r = domain_->accessLine(1, AccessType::Store, 0x2000);
    EXPECT_TRUE(r.snoopInvalidate);
    EXPECT_FALSE(domain_->hierarchy(0).holds(0x2000));
    EXPECT_EQ(domain_->hierarchy(1).lineState(0x2000), Mesi::Modified);
    EXPECT_EQ(domain_->nodeStats(1).value("snoop_invalidates"), 1u);
}

TEST_F(CoherenceTest, StoreUpgradeFromSharedSnoopsOthers)
{
    build(MemoryModel::FullyShared);
    domain_->accessLine(0, AccessType::Load, 0x3000);
    domain_->accessLine(1, AccessType::Load, 0x3000); // both Shared
    auto r = domain_->accessLine(0, AccessType::Store, 0x3000);
    EXPECT_NE(r.level, HitLevel::Memory); // hit, upgrade in place
    EXPECT_TRUE(r.snoopInvalidate);
    EXPECT_FALSE(domain_->hierarchy(1).holds(0x3000));
    EXPECT_EQ(domain_->hierarchy(0).lineState(0x3000), Mesi::Modified);
}

TEST_F(CoherenceTest, StoreToOwnModifiedLineIsCheap)
{
    build(MemoryModel::FullyShared);
    domain_->accessLine(0, AccessType::Store, 0x4000);
    auto r = domain_->accessLine(0, AccessType::Store, 0x4000);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_FALSE(r.snoopInvalidate);
    EXPECT_EQ(r.latency, latencyProfile(CoreModel::XeonGold).l1);
}

TEST_F(CoherenceTest, ReadOfDirtyRemoteLineGetsSnoopDataCost)
{
    build(MemoryModel::Separated);
    domain_->accessLine(1, AccessType::Store, 2_GiB); // Arm dirties
    auto r = domain_->accessLine(0, AccessType::Load, 2_GiB);
    EXPECT_TRUE(r.snoopData);
    EXPECT_EQ(r.latency,
              latencyProfile(CoreModel::XeonGold).remoteMem +
                  domain_->snoopCosts().snoopData);
    // Fill state must be Shared since the other node keeps a copy.
    EXPECT_EQ(domain_->hierarchy(0).lineState(2_GiB), Mesi::Shared);
    EXPECT_EQ(domain_->hierarchy(1).lineState(2_GiB), Mesi::Shared);
}

TEST_F(CoherenceTest, WritebackHookFiresOnDirtyInvalidation)
{
    build(MemoryModel::FullyShared);
    std::vector<std::pair<NodeId, Addr>> writebacks;
    domain_->setWritebackHook([&](NodeId n, Addr a) {
        writebacks.emplace_back(n, a);
    });
    domain_->accessLine(0, AccessType::Store, 0x5000);
    domain_->accessLine(1, AccessType::Store, 0x5000);
    ASSERT_EQ(writebacks.size(), 1u);
    EXPECT_EQ(writebacks[0].first, 0u);
    EXPECT_EQ(writebacks[0].second, 0x5000u);
}

TEST_F(CoherenceTest, MultiLineAccessAccumulatesLatency)
{
    build(MemoryModel::Separated);
    // 256 bytes spanning 4 lines, plus one for misalignment.
    auto r = domain_->access(0, AccessType::Load, 0x1020, 256);
    Cycles mem = latencyProfile(CoreModel::XeonGold).mem;
    EXPECT_EQ(r.latency, 5 * mem);
}

TEST_F(CoherenceTest, SharedLlcServesBothNodes)
{
    build(MemoryModel::FullyShared, true);
    EXPECT_TRUE(domain_->hasSharedLlc());
    domain_->accessLine(0, AccessType::Load, 0x6000);
    // Evict node 0's private copies so only the shared LLC holds it.
    domain_->hierarchy(0).l1d().invalidate(0x6000);
    domain_->hierarchy(0).l2().invalidate(0x6000);
    auto r = domain_->accessLine(1, AccessType::Load, 0x6000);
    EXPECT_EQ(r.level, HitLevel::L3);
}

TEST_F(CoherenceTest, FlushAllResetsState)
{
    build(MemoryModel::FullyShared);
    domain_->accessLine(0, AccessType::Store, 0x7000);
    domain_->flushAll();
    EXPECT_FALSE(domain_->hierarchy(0).holds(0x7000));
    auto r = domain_->accessLine(0, AccessType::Load, 0x7000);
    EXPECT_EQ(r.level, HitLevel::Memory);
}

TEST_F(CoherenceTest, SnoopsReachTheL1iAgainAfterFlush)
{
    // Coherence walks skip an L1I that has held nothing since the
    // last flush; a fetch after the flush must bring it back into
    // every walk.
    build(MemoryModel::FullyShared);
    Addr line = 0x9000;
    domain_->accessLine(0, AccessType::InstFetch, line);
    domain_->flushAll();
    domain_->accessLine(0, AccessType::InstFetch, line);
    ASSERT_TRUE(domain_->hierarchy(0).l1i().holds(line));
    auto r = domain_->accessLine(1, AccessType::Store, line);
    EXPECT_TRUE(r.snoopInvalidate);
    EXPECT_FALSE(domain_->hierarchy(0).l1i().holds(line));
    EXPECT_EQ(domain_->hierarchy(0).lineState(line), Mesi::Invalid);
}

TEST_F(CoherenceTest, StatsTrackHitsAndAccesses)
{
    build(MemoryModel::Separated);
    for (int i = 0; i < 10; ++i)
        domain_->accessLine(0, AccessType::Load, 0x8000);
    auto &s = domain_->nodeStats(0);
    EXPECT_EQ(s.value("l1_accesses"), 10u);
    EXPECT_EQ(s.value("l1_hits"), 9u);
    EXPECT_EQ(s.value("mem_accesses"), 1u);
    EXPECT_EQ(s.value("local_mem_hits"), 1u);
}

/**
 * Evicting a line from the shared LLC back-invalidates every node's
 * private copy, including one a node picked up through a shared-LLC
 * hit rather than a fill, and charges the evicting access.
 */
TEST_F(CoherenceTinyCaches, SharedLlcEvictionBackInvalidatesEveryCopy)
{
    // 4 KiB 2-way shared LLC: 32 sets; lines 2 KiB apart collide.
    CacheGeometry shared{4_KiB, 2};
    build(&shared);
    CoherenceDomain &d = *d_;

    Addr a = 0x100000;
    d.accessLine(0, AccessType::Load, a);
    EXPECT_EQ(d.accessLine(1, AccessType::Load, a).level, HitLevel::L3);
    ASSERT_TRUE(d.hierarchy(0).holds(a));
    ASSERT_TRUE(d.hierarchy(1).holds(a));

    // Fill the same shared-LLC set from node 1 until `a` is evicted.
    Addr stride = 2_KiB;
    for (int i = 1; i <= 2; ++i)
        d.accessLine(1, AccessType::Load, a + stride * i);
    EXPECT_FALSE(d.hierarchy(0).holds(a));
    EXPECT_FALSE(d.hierarchy(1).holds(a));
    EXPECT_GT(d.nodeStats(1).value("back_invalidates"), 0u);
}

/**
 * After node 0's copy ages out of its private LLC, a store by node 1
 * finds no holder, and node 0's next read pays Snoop Data against
 * node 1's now-dirty copy.
 */
TEST_F(CoherenceTinyCaches, AgedOutLineSkipsSnoopUntilNextRead)
{
    build();
    CoherenceDomain &d = *d_;

    Addr a = 0x200000;
    d.accessLine(0, AccessType::Load, a);
    // Stream conflicting lines on node 0 until `a` leaves its L3
    // (16 KiB, 4-way: 64 sets, 4 KiB stride aliases the set).
    Addr stride = 4_KiB;
    for (int i = 1; i <= 8 && d.hierarchy(0).holds(a); ++i)
        d.accessLine(0, AccessType::Load, a + stride * i);
    ASSERT_FALSE(d.hierarchy(0).holds(a));

    auto r1 = d.accessLine(1, AccessType::Store, a);
    EXPECT_FALSE(r1.snoopInvalidate);
    auto r0 = d.accessLine(0, AccessType::Load, a);
    EXPECT_TRUE(r0.snoopData);
    EXPECT_EQ(d.hierarchy(1).lineState(a), Mesi::Shared);
}

/** After flushAll, a store to a line another node used to own pays
 *  no snoop and installs Modified. */
TEST_F(CoherenceTinyCaches, StoreAfterFlushAllPaysNoPhantomSnoop)
{
    build();
    CoherenceDomain &d = *d_;

    d.accessLine(0, AccessType::Store, 0x5000);
    d.accessLine(1, AccessType::Load, 0x9000);
    d.flushAll();

    auto r = d.accessLine(1, AccessType::Store, 0x5000);
    EXPECT_FALSE(r.snoopInvalidate);
    EXPECT_EQ(d.hierarchy(1).lineState(0x5000), Mesi::Modified);
    EXPECT_FALSE(d.hierarchy(0).holds(0x5000));
}

TEST(CoherenceDeath, UnknownNodePanics)
{
    PhysMap map = PhysMap::paperDefault(MemoryModel::Separated);
    CoherenceDomain d(map, SnoopCosts{});
    EXPECT_DEATH(d.accessLine(3, AccessType::Load, 0x1000),
                 "unknown node");
}

TEST(CoherenceDeath, NodeIdBeyondTheMaskPanics)
{
    PhysMap map = PhysMap::paperDefault(MemoryModel::Separated);
    CoherenceDomain d(map, SnoopCosts{});
    EXPECT_DEATH(d.addNode(CoherenceDomain::maxNodes,
                           HierarchyGeometry::paperDefault(4_MiB),
                           latencyProfile(CoreModel::XeonGold)),
                 "supports NodeIds below");
}

TEST(CoherenceDeath, ZeroSizeAccessPanics)
{
    PhysMap map = PhysMap::paperDefault(MemoryModel::Separated);
    CoherenceDomain d(map, SnoopCosts{});
    d.addNode(0, HierarchyGeometry::paperDefault(4_MiB),
              latencyProfile(CoreModel::XeonGold));
    EXPECT_DEATH(d.access(0, AccessType::Load, 0x1000, 0),
                 "zero-size");
}
