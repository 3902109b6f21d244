#include <gtest/gtest.h>

#include "stramash/common/units.hh"
#include "stramash/sim/machine.hh"

using namespace stramash;

TEST(StreamAccess, OverlapsMissLatency)
{
    MachineConfig serialCfg =
        MachineConfig::paperPair(MemoryModel::Shared);
    serialCfg.streamMlp = 1;
    Machine serial(serialCfg);
    Machine pipelined(MachineConfig::paperPair(MemoryModel::Shared));
    // 4 KiB cold streaming store: serial pays full miss latency per
    // line; the default MLP of 8 overlaps.
    Cycles s = serial.streamAccess(0, AccessType::Store, 0x100000,
                                   pageSize);
    Cycles p = pipelined.streamAccess(0, AccessType::Store, 0x100000,
                                      pageSize);
    EXPECT_GT(s, p * 6);
    // Serial equals the plain per-line access cost.
    Machine plain(MachineConfig::paperPair(MemoryModel::Shared));
    Cycles d =
        plain.dataAccess(0, AccessType::Store, 0x100000, pageSize);
    EXPECT_EQ(s, d);
}

TEST(StreamAccess, HitsAreNotDiscounted)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    m.streamAccess(0, AccessType::Load, 0x100000, pageSize);
    // Warm pass: every line hits L1, so MLP has nothing to overlap.
    Cycles warm = m.streamAccess(0, AccessType::Load, 0x100000,
                                 pageSize);
    EXPECT_EQ(warm, 64 * latencyProfile(CoreModel::XeonGold).l1);
}

TEST(StreamAccess, ConfigDefaultApplies)
{
    MachineConfig cfg = MachineConfig::paperPair(MemoryModel::Shared);
    cfg.streamMlp = 1;
    Machine serialByDefault(cfg);
    Machine pipelined(MachineConfig::paperPair(MemoryModel::Shared));
    Cycles s = serialByDefault.streamAccess(0, AccessType::Store,
                                            0x200000, pageSize);
    Cycles p = pipelined.streamAccess(0, AccessType::Store, 0x200000,
                                      pageSize);
    EXPECT_GT(s, p);
}

TEST(StreamAccess, FunctionalModeFlat)
{
    MachineConfig cfg = MachineConfig::paperPair(MemoryModel::Shared);
    cfg.cachePluginEnabled = false;
    Machine m(cfg);
    Cycles c = m.streamAccess(0, AccessType::Store, 0x100000,
                              pageSize);
    EXPECT_EQ(c, latencyProfile(CoreModel::XeonGold).l1);
}

TEST(TraceHooks, ObserveAccessesAndRetires)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    std::uint64_t accesses = 0, bytes = 0;
    ICount retired = 0;
    m.setTraceHooks(
        [&](NodeId n, AccessType, Addr, unsigned size) {
            EXPECT_EQ(n, 0u);
            ++accesses;
            bytes += size;
        },
        [&](NodeId, ICount c) { retired += c; });

    m.dataAccess(0, AccessType::Load, 0x1000, 64);
    m.streamAccess(0, AccessType::Store, 0x2000, 128);
    m.retire(0, 55);

    EXPECT_EQ(accesses, 2u);
    EXPECT_EQ(bytes, 192u);
    EXPECT_EQ(retired, 55u);

    m.clearTraceHooks();
    m.dataAccess(0, AccessType::Load, 0x1000, 64);
    EXPECT_EQ(accesses, 2u); // hook gone
}

TEST(BackInvalidate, ChargedWhenSharedLlcEvictsOtherNodesLine)
{
    // Tiny shared LLC so evictions are easy to force.
    MachineConfig cfg = MachineConfig::paperPair(
        MemoryModel::FullyShared, 64 * 1024);
    Machine m(cfg);
    ASSERT_TRUE(m.caches().hasSharedLlc());

    // Node 1 caches a line; node 0 then floods the shared LLC.
    m.dataAccess(1, AccessType::Load, 0x0, 8);
    std::uint64_t before =
        m.caches().nodeStats(0).value("back_invalidates");
    for (Addr a = 0x100000; a < 0x100000 + (256 << 10); a += 64)
        m.dataAccess(0, AccessType::Load, a, 8);
    // Node 1's copy was back-invalidated when its line left the LLC.
    EXPECT_GT(m.caches().nodeStats(0).value("back_invalidates"),
              before);
    EXPECT_FALSE(m.caches().hierarchy(1).holds(0x0));
}
