/**
 * @file
 * Crash-stop acceptance harness: kill either kernel node in the
 * middle of a real workload (NPB mid-run, kv-store mid-request
 * stream) at several seeds and insist the survivor finishes the work
 * with the right answers — no hang, no panic, no lost data.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "stramash/workloads/kvstore.hh"
#include "stramash/workloads/npb.hh"

using namespace stramash;

namespace
{

constexpr std::uint64_t crashSeeds[] = {3, 11, 29};

struct Outcome
{
    std::uint64_t checksum = 0;
    bool verified = false;
    NodeId endedOn = 0;
    bool victimDeclaredDead = false;
};

/**
 * Run the IS kernel with an optional scheduled crash. The crash is a
 * FaultPlan site: the victim's own clock crossing @p crashAt kills
 * it mid-run; detection and recovery then ride the operation stream.
 */
Outcome
runNpb(OsDesign design, std::optional<FaultPlan> plan,
       std::optional<NodeId> victim = std::nullopt)
{
    SystemConfig cfg;
    cfg.osDesign = design;
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

/** Victim-node clock at the end of a fault-free run, used to place
 *  the scheduled crash inside the run. */
Cycles
victimClockBaseline(OsDesign design, NodeId victim)
{
    SystemConfig cfg;
    cfg.osDesign = design;
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

TEST(CrashNpb, FusedSurvivesKillingEitherNodeMidRun)
{
    Outcome baseline = runNpb(OsDesign::FusedKernel, std::nullopt);
    ASSERT_TRUE(baseline.verified);

    for (NodeId victim = 0; victim < 2; ++victim) {
        Cycles clock =
            victimClockBaseline(OsDesign::FusedKernel, victim);
        ASSERT_GT(clock, 0u);
        for (std::uint64_t seed : crashSeeds) {
            // A seed-varied point strictly inside the run.
            FaultPlan plan;
            plan.seed = seed;
            plan.crashAt(victim, clock * (25 + seed) / 100);
            Outcome out =
                runNpb(OsDesign::FusedKernel, plan, victim);
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

TEST(CrashNpb, PopcornSurvivorCompletesItsShare)
{
    for (std::uint64_t seed : crashSeeds) {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::MultipleKernel;
        cfg.crash.enabled = true;
        System sys(cfg);
        App a(sys, 0); // the survivor's share
        App b(sys, 1); // dies with its node, mid-work

        Addr bbuf = b.mmap(2 * pageSize);
        b.write<std::uint64_t>(bbuf, seed);
        sys.killNode(1);

        NpbConfig nc;
        nc.iterations = 2;
        nc.problemBytes = 128 * 1024;
        nc.seed = seed;
        NpbResult r = makeNpbKernel("is")->run(a, nc);
        EXPECT_TRUE(r.verified) << "seed " << seed;
        EXPECT_EQ(a.where(), 0u) << "seed " << seed;

        // The run outlives the detection window: b is reaped, the
        // run's migrations toward the dead node were refused, and the
        // survivor still finished with the right answer.
        CrashManager &cm = *sys.crashManager();
        EXPECT_TRUE(cm.isDeclaredDead(1)) << "seed " << seed;
        int status = 0;
        EXPECT_TRUE(cm.taskReaped(b.pid(), &status))
            << "seed " << seed;
        EXPECT_EQ(status, 128 + 9);
        EXPECT_GE(cm.recovery().value("migrations_refused_dead"), 1u)
            << "seed " << seed;
    }
}

TEST(CrashKvstore, KillingTheServerNodeFailsTheSocketOver)
{
    for (std::uint64_t seed : crashSeeds) {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::FusedKernel;
        cfg.cachePluginEnabled = false; // functional mode
        cfg.crash.enabled = true;
        System sys(cfg);
        App app(sys, 0);
        KvStore store(app, 32, 256);
        store.populate();

        // Serve from the remote node, then kill the server-socket
        // node mid-stream at a seed-derived request index.
        app.migrateToNext();
        std::vector<std::uint8_t> payload(256);
        for (std::uint64_t key = 0; key < 32; ++key) {
            if (key == seed % 32)
                sys.killNode(0);
            for (std::size_t i = 0; i < payload.size(); ++i)
                payload[i] = static_cast<std::uint8_t>(key + i);
            store.exec(KvOp::Set, key, payload.data());
        }

        CrashManager &cm = *sys.crashManager();
        EXPECT_GE(cm.recovery().value("kv_socket_failovers"), 1u)
            << "seed " << seed;

        // Push past the detection window so recovery (including the
        // sweep copying kv frames out of the dead node's memory)
        // definitely ran, then re-check every value.
        for (unsigned i = 0; i < 400 && !cm.isDeclaredDead(0); ++i)
            app.compute(50'000);
        ASSERT_TRUE(cm.isDeclaredDead(0)) << "seed " << seed;
        for (std::uint64_t key = 0; key < 32; ++key) {
            auto back = store.getValue(key);
            for (std::size_t i = 0; i < back.size(); ++i) {
                ASSERT_EQ(back[i],
                          static_cast<std::uint8_t>(key + i))
                    << "seed " << seed << " key " << key << " byte "
                    << i;
            }
        }
        EXPECT_EQ(app.where(), 1u) << "seed " << seed;
    }
}

TEST(CrashKvstore, KillingTheClientNodeRehomesAndServesLocally)
{
    for (std::uint64_t seed : crashSeeds) {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::FusedKernel;
        cfg.cachePluginEnabled = false;
        cfg.crash.enabled = true;
        System sys(cfg);
        App app(sys, 0);
        KvStore store(app, 32, 256);
        store.populate();

        app.migrateToNext();
        ASSERT_EQ(app.where(), 1u);
        std::vector<std::uint8_t> payload(256);
        for (std::uint64_t key = 0; key < 32; ++key) {
            if (key == seed % 32)
                sys.killNode(1); // the node the task runs on
            for (std::size_t i = 0; i < payload.size(); ++i)
                payload[i] = static_cast<std::uint8_t>(key + i);
            store.exec(KvOp::Set, key, payload.data());
        }

        // Losing its own kernel forces detection on the very next
        // operation: the task is re-homed to the origin and requests
        // are served locally from then on.
        CrashManager &cm = *sys.crashManager();
        EXPECT_TRUE(cm.isDeclaredDead(1)) << "seed " << seed;
        EXPECT_GE(cm.recovery().value("tasks_rehomed"), 1u);
        EXPECT_EQ(app.where(), 0u) << "seed " << seed;
        for (std::uint64_t key = 0; key < 32; ++key) {
            auto back = store.getValue(key);
            for (std::size_t i = 0; i < back.size(); ++i) {
                ASSERT_EQ(back[i],
                          static_cast<std::uint8_t>(key + i))
                    << "seed " << seed << " key " << key << " byte "
                    << i;
            }
        }
    }
}
