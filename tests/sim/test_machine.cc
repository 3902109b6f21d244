#include <gtest/gtest.h>

#include "stramash/common/units.hh"
#include "stramash/isa/isa.hh"
#include "stramash/sim/machine.hh"

using namespace stramash;

TEST(Machine, PaperPairConfiguration)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    EXPECT_EQ(m.nodeCount(), 2u);
    EXPECT_EQ(m.node(0).isa(), IsaType::X86_64);
    EXPECT_EQ(m.node(1).isa(), IsaType::AArch64);
}

TEST(Machine, RetireAdvancesIcountAndCycles)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    m.retire(0, 1000);
    EXPECT_EQ(m.node(0).icount(), 1000u);
    EXPECT_EQ(m.node(0).cycles(), 1000u); // fixed IPC = 1
    EXPECT_EQ(m.node(1).icount(), 0u);
}

TEST(Machine, DataAccessChargesCacheLatency)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    Cycles c1 = m.dataAccess(0, AccessType::Load, 0x1000, 8);
    EXPECT_EQ(c1, latencyProfile(CoreModel::XeonGold).mem);
    Cycles c2 = m.dataAccess(0, AccessType::Load, 0x1000, 8);
    EXPECT_EQ(c2, latencyProfile(CoreModel::XeonGold).l1);
    EXPECT_EQ(m.node(0).cycles(), c1 + c2);
    EXPECT_EQ(m.node(0).memCycles(), c1 + c2);
}

TEST(Machine, FunctionalModeSkipsCacheModel)
{
    MachineConfig cfg = MachineConfig::paperPair(MemoryModel::Shared);
    cfg.cachePluginEnabled = false;
    Machine m(cfg);
    // Even a pool access costs only the flat L1 latency.
    Cycles c = m.dataAccess(0, AccessType::Load, 5_GiB, 8);
    EXPECT_EQ(c, latencyProfile(CoreModel::XeonGold).l1);
}

TEST(Machine, CrossIsaIpiCostsTwoMicroseconds)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    // 2 us at the ThunderX2's 2.0 GHz = 4000 cycles.
    EXPECT_EQ(m.ipiCycles(1), 4000u);
    Cycles c = m.sendIpi(0, 1);
    EXPECT_EQ(c, 4000u);
    EXPECT_EQ(m.node(1).cycles(), 4000u);
    EXPECT_EQ(m.node(0).cycles(), 0u);
    EXPECT_EQ(m.ipisReceived(1), 1u);
}

TEST(Machine, RuntimeFormulaSumsNodes)
{
    // The AE formula: Final Runtime = x86 runtime + Arm runtime.
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    m.retire(0, 100);
    m.retire(1, 250);
    EXPECT_EQ(m.totalRuntime(), 350u);
    EXPECT_EQ(m.maxRuntime(), 250u);
}

TEST(Machine, ResetTimingClearsClocksAndCaches)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    m.dataAccess(0, AccessType::Load, 0x1000, 8);
    m.retire(1, 5);
    m.sendIpi(0, 1);
    m.resetTiming();
    EXPECT_EQ(m.totalRuntime(), 0u);
    EXPECT_EQ(m.ipisReceived(1), 0u);
    // Cache flushed: the next access misses again.
    Cycles c = m.dataAccess(0, AccessType::Load, 0x1000, 8);
    EXPECT_EQ(c, latencyProfile(CoreModel::XeonGold).mem);
}

TEST(Machine, ArmRemoteAccessUsesArmLatencies)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Separated));
    // Arm (node 1) touching x86-home memory at 0x1000: remote.
    Cycles c = m.dataAccess(1, AccessType::Load, 0x1000, 8);
    EXPECT_EQ(c, latencyProfile(CoreModel::ThunderX2).remoteMem);
}

TEST(Machine, IsaExpansionVisibleInNode)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    EXPECT_DOUBLE_EQ(isaDescriptor(m.node(0).isa()).instExpansion, 1.0);
    EXPECT_GT(isaDescriptor(m.node(1).isa()).instExpansion, 1.0);
}

TEST(MachineDeath, UnknownNode)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    EXPECT_DEATH(m.node(9), "unknown node");
}

TEST(MachineDeath, ScheduledFaultOnUnknownNode)
{
    // Every scheduled node id is checked up front, a crash's as well
    // as both ends of a link transition.
    MachineConfig cfg = MachineConfig::paperPair(MemoryModel::Shared);
    cfg.faultPlan = FaultPlan{}.crashAt(5, 0);
    EXPECT_DEATH(Machine{cfg}, "fault schedule names unknown node");
    cfg.faultPlan = FaultPlan{}.severLinkAt(0, 5, 0);
    EXPECT_DEATH(Machine{cfg}, "fault schedule names unknown node");
}
