/**
 * @file
 * Crash-stop failure, detection, and recovery mechanism tests: the
 * heartbeat detector, the frozen dead clock, scheduled crashes from a
 * FaultPlan, robust-futex sweeps (exactly-once wakes), global-
 * allocator reclamation, hot-plug rejoin, Popcorn task reaping and
 * DSM re-ownership — plus the zero-overhead guarantee when no crash
 * machinery is configured.
 */

#include <gtest/gtest.h>

#include <memory>

#include "stramash/workloads/npb.hh"

using namespace stramash;

namespace
{

/** Charge survivor-side work until @p node is declared dead (the
 *  detector runs from the guarded operation stream, so time must
 *  pass for the ping schedule and miss timeouts to play out). */
void
driveDetection(System &sys, App &app, NodeId node)
{
    CrashManager *cm = sys.crashManager();
    ASSERT_NE(cm, nullptr);
    for (unsigned i = 0; i < 400 && !cm->isDeclaredDead(node); ++i)
        app.compute(50'000);
    ASSERT_TRUE(cm->isDeclaredDead(node));
}

} // namespace

TEST(CrashDetection, HeartbeatMissesDeclareDeadAndFreezeTheClock)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.crash.enabled = true;
    System sys(cfg);
    App app(sys, 0);

    sys.killNode(1);
    Cycles frozen = sys.machine().node(1).cycles();
    EXPECT_FALSE(sys.isNodeAlive(1));

    CrashManager &cm = *sys.crashManager();
    EXPECT_FALSE(cm.isDeclaredDead(1)); // not yet noticed
    driveDetection(sys, app, 1);

    // Declaration took at least `suspicionThreshold` missed pings.
    EXPECT_GE(cm.recovery().value("heartbeat_misses"),
              CrashConfig::suspicionThreshold);
    EXPECT_EQ(cm.recovery().value("nodes_declared_dead"), 1u);
    EXPECT_EQ(cm.recovery().value("recoveries"), 1u);
    EXPECT_EQ(cm.recovery().value("manual_kills"), 1u);
    // The dead node's clock never advanced past the instant of death.
    EXPECT_EQ(sys.machine().node(1).cycles(), frozen);
}

TEST(CrashDetection, ScheduledCrashFiresAtTheConfiguredCycle)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    constexpr Cycles crashAtCycle = 5'000'000;
    cfg.faultPlan = FaultPlan{}.crashAt(1, crashAtCycle);
    System sys(cfg);
    App app(sys, 0);

    constexpr unsigned pages = 4;
    Addr buf = app.mmap(pages * pageSize);
    for (unsigned i = 0; i < pages; ++i)
        app.write<std::uint64_t>(buf + i * pageSize, 0xc0de00 + i);

    app.migrate(1);
    ASSERT_EQ(app.where(), 1u);
    ASSERT_TRUE(sys.isNodeAlive(1));

    // Burn cycles on the doomed node until its clock crosses the
    // scheduled crash point.
    for (unsigned i = 0; i < 2000 && sys.isNodeAlive(1); ++i)
        app.compute(50'000);
    ASSERT_FALSE(sys.isNodeAlive(1));
    EXPECT_GE(sys.machine().node(1).cycles(), crashAtCycle);

    // The next user operation forces detection + recovery: the task
    // is re-homed to the survivor and its memory is intact.
    for (unsigned i = 0; i < pages; ++i) {
        EXPECT_EQ(app.read<std::uint64_t>(buf + i * pageSize),
                  0xc0de00 + i)
            << "page " << i;
    }
    EXPECT_EQ(app.where(), 0u);
    EXPECT_TRUE(sys.crashManager()->isDeclaredDead(1));
    EXPECT_GE(sys.crashManager()->recovery().value("tasks_rehomed"),
              1u);
}

TEST(CrashRecovery, FutexWaitersAreSweptExactlyOnce)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.crash.enabled = true;
    System sys(cfg);
    App a(sys, 0); // survives
    App b(sys, 1); // dies with its node

    // Seed the tables directly so the sweep's accounting is exact:
    //  - dead kernel's table: one surviving waiter (must be woken
    //    exactly once), one dead waiter (must be reaped);
    //  - surviving kernel's table: one dead waiter (must be reaped).
    constexpr Addr fA = 0x1000'0000;
    constexpr Addr fB = 0x2000'0000;
    KernelInstance &k0 = sys.kernel(0);
    KernelInstance &k1 = sys.kernel(1);
    k1.futexTable().enqueue(fA, {0, a.pid()});
    k1.futexTable().enqueue(fA, {1, b.pid()});
    k0.futexTable().enqueue(fB, {1, b.pid()});

    CrashManager &cm = *sys.crashManager();
    cm.killNow(1);
    cm.declareDead(1, 0);

    EXPECT_EQ(cm.recovery().value("futex_waiters_woken"), 1u);
    EXPECT_EQ(cm.recovery().value("futex_waiters_reaped"), 2u);
    EXPECT_EQ(k0.futexTable().activeFutexes(), 0u);
    EXPECT_EQ(k1.futexTable().activeFutexes(), 0u);
}

TEST(CrashRecovery, GmaReclaimsDeadNodeBlocksAndStaysBalanced)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.crash.enabled = true;
    System sys(cfg);
    App app(sys, 0);

    GlobalMemoryAllocator *gma = sys.globalAllocator();
    ASSERT_NE(gma, nullptr);
    std::size_t owned0 = gma->blocksOwnedBy(0);
    std::size_t owned1 = gma->blocksOwnedBy(1);
    std::size_t freeBefore = gma->freeBlocks();
    std::size_t total = freeBefore + owned0 + owned1;
    ASSERT_GT(freeBefore, 0u);

    // Grow the doomed kernel by one pool block, then crash it.
    ASSERT_TRUE(gma->onLowMemory(sys.kernel(1)));
    ASSERT_EQ(gma->blocksOwnedBy(1), owned1 + 1);

    CrashManager &cm = *sys.crashManager();
    cm.killNow(1);
    cm.declareDead(1, 0);

    // Every dead-owned block is back in the pool; the books balance.
    EXPECT_EQ(gma->blocksOwnedBy(1), 0u);
    EXPECT_EQ(cm.recovery().value("gma_blocks_reclaimed"), owned1 + 1);
    EXPECT_EQ(gma->freeBlocks() + gma->blocksOwnedBy(0), total);
}

TEST(CrashRecovery, KillRecoverRejoinLoopServesFreshWorkload)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.crash.enabled = true;
    System sys(cfg);
    CrashManager &cm = *sys.crashManager();

    constexpr unsigned rounds = 3;
    for (unsigned round = 0; round < rounds; ++round) {
        // A fresh workload on the (re)joined node.
        App app(sys, 1);
        Addr buf = app.mmap(2 * pageSize);
        app.write<std::uint64_t>(buf, 0xbeef00 + round);
        app.write<std::uint64_t>(buf + pageSize, round);
        ASSERT_EQ(app.where(), 1u) << "round " << round;

        // Kill the node out from under it; the next operation forces
        // detection and the task is re-homed with its data.
        sys.killNode(1);
        EXPECT_EQ(app.read<std::uint64_t>(buf), 0xbeef00 + round)
            << "round " << round;
        EXPECT_EQ(app.read<std::uint64_t>(buf + pageSize), round);
        EXPECT_EQ(app.where(), 0u) << "round " << round;
        ASSERT_TRUE(cm.isDeclaredDead(1));

        // Hot-plug the node back: alive again, clock ahead of the
        // survivor's (reboot is not free), detector reset.
        sys.rejoinNode(1);
        EXPECT_TRUE(sys.isNodeAlive(1));
        EXPECT_FALSE(cm.isDeclaredDead(1));
        EXPECT_GT(sys.machine().node(1).cycles(),
                  sys.machine().node(0).cycles());
    }
    EXPECT_EQ(cm.recovery().value("rejoins"), rounds);
    EXPECT_EQ(cm.recovery().value("recoveries"), rounds);
    EXPECT_EQ(cm.recovery().value("nodes_declared_dead"), rounds);
}

TEST(CrashRecovery, PopcornReapsTasksOnTheDeadNodeWithExitStatus)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::MultipleKernel;
    cfg.crash.enabled = true;
    System sys(cfg);
    App a(sys, 0);
    App b(sys, 1);

    Addr abuf = a.mmap(pageSize);
    a.write<std::uint64_t>(abuf, 0xa11ce);
    Addr bbuf = b.mmap(pageSize);
    b.write<std::uint64_t>(bbuf, 0xb0b);

    sys.killNode(1);
    driveDetection(sys, a, 1);

    // Shared-nothing: b's kernel state is gone, so b is reaped with
    // a kill status; a is untouched.
    CrashManager &cm = *sys.crashManager();
    int status = 0;
    EXPECT_TRUE(cm.taskReaped(b.pid(), &status));
    EXPECT_EQ(status, 128 + 9);
    EXPECT_EQ(cm.recovery().value("tasks_reaped"), 1u);
    EXPECT_FALSE(cm.taskReaped(a.pid()));
    EXPECT_EQ(a.read<std::uint64_t>(abuf), 0xa11ceu);
    EXPECT_EQ(a.where(), 0u);
}

TEST(CrashRecovery, PopcornReownsDsmPagesFromSurvivingReplicas)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::MultipleKernel;
    cfg.crash.enabled = true;
    System sys(cfg);
    App app(sys, 0);

    constexpr unsigned pages = 4;
    Addr buf = app.mmap(pages * pageSize);
    for (unsigned i = 0; i < pages; ++i)
        app.write<std::uint64_t>(buf + i * pageSize, 0xd5a00 + i);

    // Replicate every page onto node 1, then lose the origin.
    app.migrateToNext();
    ASSERT_EQ(app.where(), 1u);
    for (unsigned i = 0; i < pages; ++i)
        ASSERT_EQ(app.read<std::uint64_t>(buf + i * pageSize),
                  0xd5a00u + i);

    sys.killNode(0);
    driveDetection(sys, app, 0);

    CrashManager &cm = *sys.crashManager();
    EXPECT_GE(cm.recovery().value("dsm_pages_reowned"), pages);
    EXPECT_GE(cm.recovery().value("origins_rehomed"), 1u);
    EXPECT_EQ(sys.kernel(1).task(app.pid()).origin, 1u);
    // The replicated data survives the origin's death.
    for (unsigned i = 0; i < pages; ++i) {
        EXPECT_EQ(app.read<std::uint64_t>(buf + i * pageSize),
                  0xd5a00u + i)
            << "page " << i;
    }
}

TEST(CrashRecovery, NoCrashConfiguredMeansNoMachineryAndBitIdentity)
{
    // With neither a planned crash nor the detector enabled, the
    // System must not build any crash machinery — and two identical
    // runs must be bit-identical (the guard is one null test).
    auto run = [] {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::FusedKernel;
        System sys(cfg);
        EXPECT_EQ(sys.crashManager(), nullptr);
        EXPECT_EQ(sys.machine().faultInjector(), nullptr);
        App app(sys, 0);
        NpbConfig nc;
        nc.iterations = 1;
        nc.problemBytes = 64 * 1024;
        NpbResult r = makeNpbKernel("is")->run(app, nc);
        EXPECT_TRUE(r.verified);
        return std::tuple(r.checksum, sys.runtime(),
                          sys.messagesSent());
    };
    EXPECT_EQ(run(), run());
}
