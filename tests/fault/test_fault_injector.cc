#include <gtest/gtest.h>

#include <vector>

#include "stramash/fault/fault.hh"

using namespace stramash;

namespace
{

std::vector<bool>
dropSequence(const FaultPlan &plan, unsigned n)
{
    FaultInjector fi(plan);
    std::vector<bool> out;
    for (unsigned i = 0; i < n; ++i)
        out.push_back(fi.shouldDropMessage(0, 1));
    return out;
}

} // namespace

TEST(FaultInjector, SameSeedSameDecisions)
{
    FaultPlan p;
    p.seed = 1234;
    p.msgDropRate = 0.3;
    EXPECT_EQ(dropSequence(p, 500), dropSequence(p, 500));

    FaultPlan q = p;
    q.seed = 1235;
    EXPECT_NE(dropSequence(p, 500), dropSequence(q, 500));
}

TEST(FaultInjector, SiteStreamsAreIsolated)
{
    // Enabling another site must not perturb the drop stream: each
    // site draws from its own Rng(seed, site) sequence.
    FaultPlan dropOnly;
    dropOnly.seed = 77;
    dropOnly.msgDropRate = 0.25;

    FaultPlan both = dropOnly;
    both.msgDupRate = 0.9;
    both.ipiDropRate = 0.9;

    FaultInjector a(dropOnly);
    FaultInjector b(both);
    for (unsigned i = 0; i < 300; ++i) {
        EXPECT_EQ(a.shouldDropMessage(0, 1), b.shouldDropMessage(0, 1));
        // b draws its other sites in between; a never touches them.
        b.shouldDuplicateMessage(0, 1);
        b.shouldDropIpi(0, 1);
    }
}

TEST(FaultInjector, RateZeroNeverFiresRateOneAlwaysFires)
{
    FaultPlan p;
    p.msgDropRate = 1.0;
    FaultInjector fi(p);
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_TRUE(fi.shouldDropMessage(0, 1));
        EXPECT_FALSE(fi.shouldDuplicateMessage(0, 1)); // rate 0
    }
    EXPECT_EQ(fi.injected(), 64u);
    EXPECT_EQ(fi.faults().value("injected"), 64u);
    EXPECT_EQ(fi.faults().value("msg_drop"), 64u);
}

TEST(FaultInjector, BudgetMakesThePlanTransient)
{
    FaultPlan p;
    p.msgDropRate = 1.0;
    p.maxFaults = 5;
    FaultInjector fi(p);
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_FALSE(fi.exhausted());
        EXPECT_TRUE(fi.shouldDropMessage(0, 1));
    }
    EXPECT_TRUE(fi.exhausted());
    for (unsigned i = 0; i < 100; ++i)
        EXPECT_FALSE(fi.shouldDropMessage(0, 1));
    EXPECT_EQ(fi.injected(), 5u);
}

TEST(FaultInjector, PageCorruptionUsesMaxOfBothRates)
{
    FaultPlan p;
    p.pageCorruptRate = 1.0; // msgCorruptRate stays 0
    FaultInjector fi(p);
    EXPECT_FALSE(fi.shouldCorruptPayload(0, 1, false));
    EXPECT_TRUE(fi.shouldCorruptPayload(0, 1, true));
    EXPECT_EQ(fi.faults().value("page_corrupt"), 1u);
}

TEST(FaultInjector, CorruptAlwaysChangesSomething)
{
    FaultPlan p;
    p.msgCorruptRate = 1.0;
    FaultInjector fi(p);

    std::vector<std::uint8_t> payload(4096, 0xab);
    std::uint64_t arg0 = 17;
    fi.corrupt(payload, arg0);
    EXPECT_EQ(arg0, 17u); // payload present: args untouched
    EXPECT_NE(payload, std::vector<std::uint8_t>(4096, 0xab));

    std::vector<std::uint8_t> empty;
    fi.corrupt(empty, arg0);
    EXPECT_NE(arg0, 17u); // no payload: one arg bit flips
}

TEST(FaultInjector, DelaySiteReturnsConfiguredCycles)
{
    FaultPlan p;
    p.msgDelayRate = 1.0;
    FaultInjector fi(p);
    EXPECT_EQ(fi.messageDelayCycles(0, 1), FaultPlan::msgDelayCycles);
}

TEST(FaultInjector, TransientChaosActivatesEverySite)
{
    FaultPlan p = FaultPlan::transientChaos(9, 0.1, 32);
    EXPECT_EQ(p.seed, 9u);
    EXPECT_EQ(p.maxFaults, 32u);
    for (double rate : {p.msgDropRate, p.msgDupRate, p.msgCorruptRate,
                        p.msgDelayRate, p.ipiDropRate,
                        p.memBlockDenyRate, p.pageCorruptRate})
        EXPECT_DOUBLE_EQ(rate, 0.1);
}

TEST(FaultInjector, DeathOnBadRate)
{
    FaultPlan p;
    p.msgDropRate = 1.5;
    EXPECT_DEATH(FaultInjector{p}, "probabilities");
}
