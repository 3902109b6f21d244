#include <gtest/gtest.h>

#include "stramash/mem/latency_profile.hh"

using namespace stramash;

/** Table 2, row by row. */
TEST(LatencyProfile, Table2Values)
{
    const auto &a72 = latencyProfile(CoreModel::CortexA72);
    EXPECT_EQ(a72.l1, 4u);
    EXPECT_EQ(a72.l2, 9u);
    EXPECT_EQ(a72.l3, 0u); // "*": no L3
    EXPECT_EQ(a72.mem, 300u);
    EXPECT_EQ(a72.remoteMem, 780u);

    const auto &tx2 = latencyProfile(CoreModel::ThunderX2);
    EXPECT_EQ(tx2.l1, 4u);
    EXPECT_EQ(tx2.l2, 9u);
    EXPECT_EQ(tx2.l3, 30u);
    EXPECT_EQ(tx2.mem, 300u);
    EXPECT_EQ(tx2.remoteMem, 620u);

    const auto &e5 = latencyProfile(CoreModel::E5_2620);
    EXPECT_EQ(e5.l1, 4u);
    EXPECT_EQ(e5.l2, 12u);
    EXPECT_EQ(e5.l3, 38u);
    EXPECT_EQ(e5.mem, 300u);
    EXPECT_EQ(e5.remoteMem, 640u);

    const auto &gold = latencyProfile(CoreModel::XeonGold);
    EXPECT_EQ(gold.l1, 4u);
    EXPECT_EQ(gold.l2, 14u);
    EXPECT_EQ(gold.l3, 50u);
    EXPECT_EQ(gold.mem, 300u);
    EXPECT_EQ(gold.remoteMem, 640u);
}

TEST(LatencyProfile, RemoteIsAlwaysSlowerThanLocal)
{
    for (auto m : {CoreModel::CortexA72, CoreModel::ThunderX2,
                   CoreModel::E5_2620, CoreModel::XeonGold}) {
        const auto &p = latencyProfile(m);
        EXPECT_GT(p.remoteMem, p.mem) << coreModelName(m);
        EXPECT_GT(p.mem, p.l2) << coreModelName(m);
        EXPECT_GT(p.l2, 0u) << coreModelName(m);
    }
}

TEST(LatencyProfile, LevelLatencyDispatch)
{
    const auto &gold = latencyProfile(CoreModel::XeonGold);
    EXPECT_EQ(gold.levelLatency(1), gold.l1);
    EXPECT_EQ(gold.levelLatency(2), gold.l2);
    EXPECT_EQ(gold.levelLatency(3), gold.l3);
    EXPECT_EQ(gold.levelLatency(4), gold.mem);
}

TEST(LatencyProfile, Names)
{
    EXPECT_STREQ(coreModelName(CoreModel::CortexA72), "Cortex-A72");
    EXPECT_STREQ(coreModelName(CoreModel::XeonGold), "Xeon Gold");
}

TEST(SnoopCosts, Defaults)
{
    SnoopCosts c;
    EXPECT_GT(c.snoopInvalidate, 0u);
    EXPECT_GT(c.snoopData, 0u);
    EXPECT_GT(SnoopCosts::backInvalidate, c.snoopData);
}
