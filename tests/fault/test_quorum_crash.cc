/**
 * @file
 * Quorum failure detection on a three-node machine: a single
 * observer's false suspicion is outvoted by the other survivors and
 * the suspect lives; a real crash reaches a majority, is fenced, and
 * recovery preserves the fault-free workload invariants — the same
 * checksum contract the two-node crash harness enforces.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "stramash/workloads/npb.hh"

using namespace stramash;

namespace
{

constexpr std::uint64_t chaosSeeds[] = {3, 11, 29};

TopologySpec
threeNodes()
{
    return TopologySpec::alternating(3, MemoryModel::Shared);
}

struct Outcome
{
    std::uint64_t checksum = 0;
    bool verified = false;
    NodeId endedOn = 0;
    bool victimDeclaredDead = false;
};

Outcome
runNpb(std::optional<FaultPlan> plan,
       std::optional<NodeId> victim = std::nullopt)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.topology = threeNodes();
    cfg.faultPlan = plan;
    System sys(cfg);
    App app(sys, 0);
    NpbConfig nc;
    nc.iterations = 2;
    nc.problemBytes = 256 * 1024;
    nc.seed = 7;
    NpbResult r = makeNpbKernel("is")->run(app, nc);

    Outcome out;
    out.checksum = r.checksum;
    out.verified = r.verified;
    out.endedOn = app.where();
    if (victim && sys.crashManager())
        out.victimDeclaredDead =
            sys.crashManager()->isDeclaredDead(*victim);
    return out;
}

Cycles
victimClockBaseline(NodeId victim)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.topology = threeNodes();
    System sys(cfg);
    App app(sys, 0);
    NpbConfig nc;
    nc.iterations = 2;
    nc.problemBytes = 256 * 1024;
    nc.seed = 7;
    makeNpbKernel("is")->run(app, nc);
    return sys.machine().node(victim).cycles();
}

} // namespace

TEST(QuorumCrash, FalseSuspicionFromOneObserverIsOutvoted)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.topology = threeNodes();
    cfg.crash.enabled = true;
    System sys(cfg);
    App app(sys, 0);
    CrashManager &cm = *sys.crashManager();

    // Observer 0's link to node 1 "breaks": full suspicion, normal
    // declaration path. Node 2 probes node 1, gets an answer, and the
    // lone dead vote loses 1:2.
    cm.forceSuspicion(0, 1);
    EXPECT_FALSE(cm.isDeclaredDead(1));
    EXPECT_GE(cm.recovery().value("suspicions_outvoted"), 1u);
    EXPECT_GE(cm.recovery().value("quorum_probes"), 1u);

    // The slandered node is fully alive: run real work through it.
    app.migrate(1);
    NpbConfig nc;
    nc.iterations = 1;
    nc.problemBytes = 64 * 1024;
    nc.seed = 7;
    NpbResult r = makeNpbKernel("is")->run(app, nc);
    EXPECT_TRUE(r.verified);
    EXPECT_FALSE(cm.isDeclaredDead(1));
}

TEST(QuorumCrash, RepeatedFalseSuspicionStaysOutvoted)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.topology = threeNodes();
    cfg.crash.enabled = true;
    System sys(cfg);
    App app(sys, 0);
    CrashManager &cm = *sys.crashManager();

    for (int i = 0; i < 3; ++i)
        cm.forceSuspicion(2, 0);
    EXPECT_FALSE(cm.isDeclaredDead(0));
    EXPECT_GE(cm.recovery().value("suspicions_outvoted"), 3u);
}

TEST(QuorumCrash, RealDeathReachesMajorityAndIsFenced)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.topology = threeNodes();
    cfg.crash.enabled = true;
    System sys(cfg);
    App app(sys, 0);
    CrashManager &cm = *sys.crashManager();

    sys.killNode(1);
    // The suspecting observer's dead vote now agrees with node 2's
    // probe: 2:0 majority, declaration proceeds.
    cm.forceSuspicion(0, 1);
    EXPECT_TRUE(cm.isDeclaredDead(1));
    EXPECT_GE(cm.recovery().value("quorum_probes"), 1u);
    EXPECT_EQ(cm.recovery().value("suspicions_outvoted"), 0u);
}

TEST(QuorumCrash, MidRunCrashRecoversWithFaultFreeChecksums)
{
    Outcome baseline = runNpb(std::nullopt);
    ASSERT_TRUE(baseline.verified);

    // The workload ping-pongs between nodes 0 and 1, so those are the
    // victims whose own clock can cross the scheduled crash point;
    // the idle third node is covered by the test below.
    for (NodeId victim = 0; victim <= 1; ++victim) {
        Cycles clock = victimClockBaseline(victim);
        ASSERT_GT(clock, 0u) << "victim " << victim;
        for (std::uint64_t seed : chaosSeeds) {
            FaultPlan plan;
            plan.seed = seed;
            plan.crashAt(victim, clock * (25 + seed) / 100);
            Outcome out = runNpb(plan, victim);
            EXPECT_TRUE(out.verified)
                << "victim " << victim << " seed " << seed;
            EXPECT_EQ(out.checksum, baseline.checksum)
                << "victim " << victim << " seed " << seed;
            EXPECT_TRUE(out.victimDeclaredDead)
                << "victim " << victim << " seed " << seed;
            EXPECT_NE(out.endedOn, victim)
                << "victim " << victim << " seed " << seed;
        }
    }
}

TEST(QuorumCrash, KillingTheIdleThirdNodeIsDetectedFromTheStream)
{
    Outcome baseline = runNpb(std::nullopt);
    ASSERT_TRUE(baseline.verified);

    for (std::uint64_t seed : chaosSeeds) {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::FusedKernel;
        cfg.topology = threeNodes();
        cfg.crash.enabled = true;
        System sys(cfg);
        App app(sys, 0);
        sys.killNode(2);

        NpbConfig nc;
        nc.iterations = 2;
        nc.problemBytes = 256 * 1024;
        nc.seed = 7;
        NpbResult r = makeNpbKernel("is")->run(app, nc);
        EXPECT_TRUE(r.verified) << "seed " << seed;
        EXPECT_EQ(r.checksum, baseline.checksum) << "seed " << seed;

        // The heartbeat detector rides the operation stream: by the
        // end of the run the dead bystander has been suspected,
        // probed by the other survivor, and fenced on a 2:0 vote.
        CrashManager &cm = *sys.crashManager();
        for (unsigned i = 0; i < 400 && !cm.isDeclaredDead(2); ++i)
            app.compute(50'000);
        EXPECT_TRUE(cm.isDeclaredDead(2)) << "seed " << seed;
        EXPECT_EQ(cm.recovery().value("suspicions_outvoted"), 0u)
            << "seed " << seed;
    }
}
