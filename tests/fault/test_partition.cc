/**
 * @file
 * Network-partition chaos suite: link-level fault injection,
 * split-brain fencing, and heal-time reconciliation.
 *
 * The contract under test, per OS design:
 *
 *  - FusedKernel: a severed *message* link cannot split the brain,
 *    because declarations arbitrate through a CAS on a fence word in
 *    coherent memory — zero messages, zero quorum probes — and the
 *    kv fast path (doorbells over coherent memory) serves straight
 *    through the partition.
 *
 *  - MultipleKernel (Popcorn): shared-nothing nodes fall back to a
 *    reachable-majority lease. The minority side self-fences into a
 *    frozen degraded mode — sheds new work with Errc::Degraded,
 *    preserves state — so no acknowledged write can ever be lost.
 *
 *  - Healing reuses the hot-plug/rejoin flow: partition-fenced dead
 *    nodes auto-rejoin, self-fenced nodes resume in place, and fence
 *    epochs decide whose declarations stand.
 *
 * Timing stays deterministic: a mid-run sever/heal schedule replays
 * bit-identically run after run, and a plan whose link
 * events never fire leaves every clock and counter untouched.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "stramash/load/service.hh"
#include "stramash/trace/json_stats.hh"
#include "stramash/workloads/npb.hh"
#include "stramash/workloads/sharded_kvstore.hh"

using namespace stramash;

namespace
{

constexpr std::uint64_t chaosSeeds[] = {3, 11, 29};

TopologySpec
nNodes(std::size_t n)
{
    return TopologySpec::alternating(n, MemoryModel::Shared);
}

std::uint64_t
partitionStat(System &sys, const std::string &name)
{
    return sys.machine().faultInjector()->partition().value(name);
}

/** Machine-level fingerprint: every per-node clock and counter a
 *  partition could possibly perturb. */
std::vector<std::uint64_t>
machineFingerprint(System &sys)
{
    std::vector<std::uint64_t> fp;
    Machine &m = sys.machine();
    for (NodeId n = 0; n < m.nodeCount(); ++n) {
        fp.push_back(m.node(n).cycles());
        fp.push_back(m.node(n).icount());
        fp.push_back(m.node(n).memCycles());
        fp.push_back(m.ipisReceived(n));
    }
    fp.push_back(sys.msg().messagesSent());
    fp.push_back(sys.msg().bytesSent());
    return fp;
}

} // namespace

// ---------------------------------------------------------------------
// Zero overhead: a link schedule whose events never fire must not
// perturb a single bit of the run. The baseline carries the same
// (empty) fault plan, because attaching *any* injector switches the
// transport into its documented at-most-once resilient mode — the
// link machinery itself must add nothing on top of that.
// ---------------------------------------------------------------------

TEST(Partition, UnfiredLinkScheduleIsBitIdenticalToEmptyPlan)
{
    auto runKv = [](const FaultPlan &plan, bool armed) {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::MultipleKernel;
        cfg.cachePluginEnabled = false;
        cfg.topology = nNodes(3);
        cfg.faultPlan = plan;
        auto sys = std::make_unique<System>(cfg);
        ShardedKvStore store(*sys);
        store.populate();
        store.run(400);
        EXPECT_TRUE(store.verify());
        EXPECT_EQ(sys->machine().partitionArmed(), armed);
        EXPECT_EQ(partitionStat(*sys, "links_severed"), 0u);
        EXPECT_EQ(partitionStat(*sys, "msgs_dropped_severed"), 0u);
        EXPECT_EQ(partitionStat(*sys, "msgs_parked"), 0u);
        EXPECT_EQ(partitionStat(*sys, "ipis_swallowed"), 0u);
        return machineFingerprint(*sys);
    };

    FaultPlan farFuture;
    farFuture.severLinkAt(0, 1, Cycles{1} << 62);
    EXPECT_EQ(runKv(FaultPlan{}, false), runKv(farFuture, true));
}

// ---------------------------------------------------------------------
// Fused split-brain arbitration: coherent memory, zero messages.
// ---------------------------------------------------------------------

TEST(Partition, FusedArbitrationIsMessageFree)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.crash.enabled = true;
    cfg.faultPlan = FaultPlan{};
    System sys(cfg);
    App app(sys, 0);
    CrashManager &cm = *sys.crashManager();

    std::uint64_t msgsBefore = sys.messagesSent();
    std::uint64_t probesBefore = cm.recovery().value("quorum_probes");

    sys.severLink(0, 1);
    cm.forceSuspicion(0, 1);

    // Exactly one side survives, and the declaration crossed no wire:
    // the fence word in coherent memory is the whole protocol.
    EXPECT_TRUE(cm.isDeclaredDead(1));
    EXPECT_FALSE(cm.isDeclaredDead(0));
    EXPECT_FALSE(cm.isSelfFenced(0));
    EXPECT_EQ(sys.messagesSent(), msgsBefore);
    EXPECT_EQ(cm.recovery().value("quorum_probes"), probesBefore);
    EXPECT_EQ(cm.recovery().value("fused_arbitrations"), 1u);
    EXPECT_EQ(cm.fenceEpoch(), 1u);
    EXPECT_EQ(partitionStat(sys, "links_severed"), 2u);

    // Healing the pair is the reboot signal for a partition-fenced
    // node: hot-plug rejoin, no explicit rejoinNode() needed.
    sys.healLink(0, 1);
    EXPECT_TRUE(sys.isNodeAlive(1));
    EXPECT_FALSE(cm.isDeclaredDead(1));
    EXPECT_EQ(cm.recovery().value("heal_rejoins"), 1u);
    EXPECT_EQ(partitionStat(sys, "links_healed"), 2u);

    // The revived node is fully usable.
    app.migrate(1);
    app.compute(10'000);
    EXPECT_EQ(app.where(), 1u);
}

// ---------------------------------------------------------------------
// Popcorn N=2 lease: the non-authority side self-fences, preserves
// state, sheds work, and resumes in place on heal.
// ---------------------------------------------------------------------

TEST(Partition, PopcornTwoNodeLeaseMinoritySelfFences)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::MultipleKernel;
    cfg.cachePluginEnabled = false;
    cfg.crash.enabled = true;
    // Quiet the background detector: arbitration in this test is
    // driven explicitly, so declarations cannot race the checks.
    cfg.crash.pingIntervalCycles = Cycles{1} << 60;
    cfg.faultPlan = FaultPlan{};
    System sys(cfg);
    ShardedKvStore store(sys);
    store.populate();
    store.run(64);
    ASSERT_TRUE(store.verify());
    CrashManager &cm = *sys.crashManager();

    sys.severLink(0, 1);
    // Node 1 suspects node 0. Its side of the 1:1 split does not hold
    // the lease authority (lowest live id), so it must freeze rather
    // than shoot.
    cm.forceSuspicion(1, 0);
    EXPECT_TRUE(cm.isSelfFenced(1));
    EXPECT_FALSE(cm.isDeclaredDead(0));
    EXPECT_FALSE(cm.isDeclaredDead(1));
    EXPECT_TRUE(sys.isNodeAlive(1));
    EXPECT_EQ(cm.recovery().value("self_fences"), 1u);

    // The fenced node sheds new work without touching its state.
    std::uint64_t servedBefore = store.requestsServed();
    EXPECT_EQ(store.exec(KvOp::Set, 1, 1), Errc::Degraded);
    EXPECT_EQ(store.exec(KvOp::Get, 1, 0), Errc::Degraded); // owner 1
    EXPECT_EQ(store.exec(KvOp::Get, 0, 0), Errc::Ok); // shard 0 local
    EXPECT_EQ(store.requestsServed(), servedBefore + 1);
    EXPECT_EQ(store.requestsShed(), 2u);

    // Heal: the self-fenced node resumes in place — no reboot, no
    // state loss — and nothing was declared while it was fenced.
    sys.healLink(0, 1);
    EXPECT_FALSE(cm.isSelfFenced(1));
    EXPECT_EQ(cm.recovery().value("self_fence_rejoins"), 1u);
    EXPECT_EQ(cm.recovery().value("epoch_yields"), 0u);
    EXPECT_EQ(store.exec(KvOp::Set, 1, 1), Errc::Ok);
    EXPECT_TRUE(store.verify());
}

TEST(Partition, PopcornTwoNodeLeaseAuthorityDeclares)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::MultipleKernel;
    cfg.crash.enabled = true;
    cfg.crash.pingIntervalCycles = Cycles{1} << 60;
    cfg.faultPlan = FaultPlan{};
    System sys(cfg);
    App app(sys, 0);
    CrashManager &cm = *sys.crashManager();

    sys.severLink(0, 1);
    // Node 0 holds the lease authority: when the lease expires the
    // peer is fenced — the historical STONITH outcome, now reached
    // through the arbitration layer.
    cm.forceSuspicion(0, 1);
    EXPECT_TRUE(cm.isDeclaredDead(1));
    EXPECT_FALSE(cm.isSelfFenced(0));
    EXPECT_EQ(cm.recovery().value("nodes_declared_dead"), 1u);
    EXPECT_EQ(cm.fenceEpoch(), 1u);

    // Partition-fenced, so the heal auto-rejoins it.
    sys.healLink(0, 1);
    EXPECT_TRUE(sys.isNodeAlive(1));
    EXPECT_FALSE(cm.isDeclaredDead(1));
    EXPECT_EQ(cm.recovery().value("heal_rejoins"), 1u);
}

// ---------------------------------------------------------------------
// Popcorn N=3: reachable-majority, with quorum votes restricted to
// the suspector's side of the split.
// ---------------------------------------------------------------------

TEST(Partition, PopcornIsolatedMinoritySelfFencesAndMajorityDeclares)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::MultipleKernel;
    cfg.cachePluginEnabled = false;
    cfg.topology = nNodes(3);
    cfg.crash.enabled = true;
    cfg.crash.pingIntervalCycles = Cycles{1} << 60;
    cfg.faultPlan = FaultPlan{};
    System sys(cfg);
    App app(sys, 0);
    CrashManager &cm = *sys.crashManager();

    // Isolate node 2 from both peers.
    sys.severLink(0, 2);
    sys.severLink(1, 2);

    // The isolated side (1 of 3 live) must freeze...
    cm.forceSuspicion(2, 0);
    EXPECT_TRUE(cm.isSelfFenced(2));
    EXPECT_FALSE(cm.isDeclaredDead(0));

    // ...and the majority side declares it, polling only the voters
    // it can reach (node 1) — no probe may cross the partition.
    std::uint64_t probesBefore = cm.recovery().value("quorum_probes");
    cm.forceSuspicion(0, 2);
    EXPECT_TRUE(cm.isDeclaredDead(2));
    EXPECT_EQ(cm.recovery().value("quorum_probes"), probesBefore + 1);

    // Healing both pairs brings it back through hot-plug; the epoch
    // advanced while it sat fenced, so its stale view yields.
    sys.healLink(0, 2);
    sys.healLink(1, 2);
    EXPECT_TRUE(sys.isNodeAlive(2));
    EXPECT_FALSE(cm.isDeclaredDead(2));
    EXPECT_EQ(cm.recovery().value("heal_rejoins"), 1u);

    // A false suspicion between the two connected survivors is still
    // outvoted the historical way.
    cm.forceSuspicion(0, 1);
    EXPECT_FALSE(cm.isDeclaredDead(1));
}

// ---------------------------------------------------------------------
// Sever mid-NPB (fused, 3 nodes): the run completes with fault-free
// checksums, exactly one side is fenced, and the heal rejoins it.
// ---------------------------------------------------------------------

namespace
{

struct NpbOutcome
{
    std::uint64_t checksum = 0;
    bool verified = false;
    std::uint64_t declared = 0;
    std::uint64_t healRejoins = 0;
    bool allAlive = true;
};

NpbOutcome
runNpbPartition(std::optional<FaultPlan> plan)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.topology = nNodes(3);
    cfg.faultPlan = plan;
    cfg.crash.enabled = plan.has_value();
    System sys(cfg);
    App app(sys, 0);
    NpbConfig nc;
    nc.iterations = 2;
    nc.problemBytes = 256 * 1024;
    nc.seed = 7;
    NpbResult r = makeNpbKernel("is")->run(app, nc);

    NpbOutcome out;
    out.checksum = r.checksum;
    out.verified = r.verified;
    if (CrashManager *cm = sys.crashManager()) {
        // Let the operation stream absorb a heal that fired near the
        // end of the run.
        for (unsigned i = 0; i < 50; ++i)
            app.compute(50'000);
        out.declared = cm->recovery().value("nodes_declared_dead");
        out.healRejoins = cm->recovery().value("heal_rejoins");
    }
    for (NodeId n = 0; n < sys.nodeCount(); ++n)
        out.allAlive = out.allAlive && sys.isNodeAlive(n);
    return out;
}

} // namespace

TEST(Partition, SeverMidNpbFusedFencesOneSideAndHealRejoins)
{
    NpbOutcome baseline = runNpbPartition(std::nullopt);
    ASSERT_TRUE(baseline.verified);

    // Find the fault-free span of node 0's clock to aim the schedule.
    Cycles span = 0;
    {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::FusedKernel;
        cfg.topology = nNodes(3);
        System sys(cfg);
        App app(sys, 0);
        NpbConfig nc;
        nc.iterations = 2;
        nc.problemBytes = 256 * 1024;
        nc.seed = 7;
        makeNpbKernel("is")->run(app, nc);
        span = sys.machine().node(0).cycles();
    }
    ASSERT_GT(span, 0u);

    for (std::uint64_t seed : chaosSeeds) {
        FaultPlan plan;
        plan.seed = seed;
        plan.severLinkAt(0, 1, span * (20 + seed) / 100);
        plan.healLinkAt(0, 1, span * (70 + seed) / 100);
        NpbOutcome out = runNpbPartition(plan);
        EXPECT_TRUE(out.verified) << "seed " << seed;
        EXPECT_EQ(out.checksum, baseline.checksum) << "seed " << seed;
        // Split-brain-safe: the severed pair produced exactly one
        // declaration (never two), and the heal brought the victim
        // back.
        EXPECT_EQ(out.declared, 1u) << "seed " << seed;
        EXPECT_EQ(out.healRejoins, 1u) << "seed " << seed;
        EXPECT_TRUE(out.allAlive) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Sharded kv under partition.
// ---------------------------------------------------------------------

TEST(Partition, FusedKvServesStraightThroughASeveredLink)
{
    // The fused design's doorbell path rides coherent memory; a
    // severed message link costs it nothing but the wakeup IPIs.
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.cachePluginEnabled = false;
    cfg.topology = nNodes(3);
    cfg.faultPlan = FaultPlan{};
    System sys(cfg);
    ShardedKvStore store(sys);
    store.populate();

    store.run(200);
    sys.severLink(0, 1);
    store.run(200);
    sys.healLink(0, 1);
    store.run(200);

    EXPECT_TRUE(store.verify());
    EXPECT_EQ(store.requestsServed(), 600u);
    EXPECT_EQ(store.requestsShed(), 0u);
    EXPECT_GT(partitionStat(sys, "ipis_swallowed"), 0u);
}

TEST(Partition, PopcornKvShedsOnFencedShardWithZeroAckedWriteLoss)
{
    for (std::uint64_t seed : chaosSeeds) {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::MultipleKernel;
        cfg.cachePluginEnabled = false;
        cfg.topology = nNodes(3);
        cfg.crash.enabled = true;
        cfg.crash.pingIntervalCycles = Cycles{1} << 60;
        cfg.faultPlan = FaultPlan{};
        System sys(cfg);
        ShardedKvConfig kc;
        kc.seed = seed;
        ShardedKvStore store(sys, kc);
        store.populate();
        CrashManager &cm = *sys.crashManager();

        store.run(300);
        ASSERT_TRUE(store.verify()) << "seed " << seed;

        // Isolate node 2 mid-run; it fences itself on its first
        // suspicion.
        sys.severLink(0, 2);
        sys.severLink(1, 2);
        cm.forceSuspicion(2, 0);
        ASSERT_TRUE(cm.isSelfFenced(2)) << "seed " << seed;

        std::uint64_t servedBefore = store.requestsServed();
        store.run(300);
        // Requests touching the fenced shard (ingress or owner) were
        // refused before any acknowledgement; the rest were served.
        std::uint64_t shed = store.requestsShed();
        EXPECT_GT(shed, 0u) << "seed " << seed;
        EXPECT_EQ(store.requestsServed() - servedBefore + shed, 300u)
            << "seed " << seed;

        // Heal and resume: the fenced node kept its state, so the
        // full keyspace — including every write acknowledged before
        // and during the partition — verifies bit-exact.
        sys.healLink(0, 2);
        sys.healLink(1, 2);
        EXPECT_FALSE(cm.isSelfFenced(2)) << "seed " << seed;
        store.run(300);
        EXPECT_EQ(store.requestsShed(), shed) << "seed " << seed;
        EXPECT_TRUE(store.verify()) << "seed " << seed;
    }
}

TEST(Partition, FrontEndShedsAtTheSocketWhileFencedAndResumesOnHeal)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::MultipleKernel;
    cfg.cachePluginEnabled = false;
    cfg.topology = nNodes(3);
    cfg.crash.enabled = true;
    cfg.crash.pingIntervalCycles = Cycles{1} << 60;
    cfg.faultPlan = FaultPlan{};
    System sys(cfg);
    ShardedKvStore store(sys);
    store.populate();
    KvFrontEnd fe(sys, store);
    CrashManager &cm = *sys.crashManager();

    Cycles arrival = 0;
    auto offer = [&](std::uint64_t key, NodeId ingress) {
        arrival += 10'000;
        return fe.inject(arrival, KvOp::Set, key, ingress);
    };

    for (std::uint64_t k = 0; k < 9; ++k)
        EXPECT_EQ(offer(k, static_cast<NodeId>(k % 3)), Errc::Ok);
    fe.drain();
    EXPECT_EQ(fe.stats().value("served"), 9u);

    sys.severLink(0, 2);
    sys.severLink(1, 2);
    cm.forceSuspicion(2, 0);
    ASSERT_TRUE(cm.isSelfFenced(2));

    // A fenced ingress refuses at the socket — the request is never
    // queued, so nothing can be acknowledged and then lost.
    EXPECT_EQ(offer(0, 2), Errc::Degraded);
    EXPECT_EQ(fe.queueDepth(2), 0u);
    EXPECT_EQ(fe.stats().value("degraded_shed"), 1u);

    // A healthy ingress still admits a request for the fenced shard;
    // the shed happens at serve time, with no latency sample taken.
    EXPECT_EQ(offer(2, 0), Errc::Ok); // key 2 -> owner 2
    EXPECT_EQ(offer(1, 1), Errc::Ok); // key 1 -> owner 1, healthy
    fe.drain();
    EXPECT_EQ(fe.stats().value("degraded_shed"), 2u);
    EXPECT_EQ(fe.stats().value("served"), 10u);

    // Heal: the fenced node resumes and the front end serves its
    // shard again.
    sys.healLink(0, 2);
    sys.healLink(1, 2);
    EXPECT_FALSE(cm.isSelfFenced(2));
    EXPECT_EQ(offer(2, 2), Errc::Ok);
    fe.drain();
    EXPECT_EQ(fe.stats().value("served"), 11u);
    EXPECT_EQ(fe.stats().value("degraded_shed"), 2u);
    EXPECT_TRUE(store.verify());
}

// ---------------------------------------------------------------------
// Determinism: a scheduled sever/heal replays bit-identically.
// ---------------------------------------------------------------------

namespace
{

std::string
statsString(System &sys)
{
    JsonStatsExporter ex;
    sys.forEachStatGroup([&](const StatGroup &g) { ex.add(g); });
    std::ostringstream os;
    ex.write(os);
    return os.str();
}

struct KvPartitionOutcome
{
    bool verified = false;
    std::uint64_t served = 0;
    std::uint64_t severed = 0;
    std::uint64_t healed = 0;
    std::vector<std::uint64_t> machine;
    std::string statsJson;

    bool
    operator==(const KvPartitionOutcome &o) const
    {
        return verified == o.verified && served == o.served &&
               severed == o.severed && healed == o.healed &&
               machine == o.machine && statsJson == o.statsJson;
    }
};

KvPartitionOutcome
runPartitioned(const FaultPlan &plan)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.cachePluginEnabled = false;
    cfg.topology = nNodes(4);
    cfg.faultPlan = plan;
    System sys(cfg);
    ShardedKvStore store(sys);
    store.populate();
    store.run(1200);

    KvPartitionOutcome out;
    out.verified = store.verify();
    out.served = store.requestsServed();
    out.severed = partitionStat(sys, "links_severed");
    out.healed = partitionStat(sys, "links_healed");
    out.machine = machineFingerprint(sys);
    out.statsJson = statsString(sys);
    return out;
}

} // namespace

TEST(Partition, SeverHealScheduleReplaysBitIdentically)
{
    // Probe the fault-free span to place the events mid-run.
    Cycles span = 0;
    {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::FusedKernel;
        cfg.cachePluginEnabled = false;
        cfg.topology = nNodes(4);
        System sys(cfg);
        ShardedKvStore store(sys);
        store.populate();
        store.run(1200);
        span = sys.machine().node(0).cycles();
    }
    ASSERT_GT(span, 0u);

    FaultPlan plan;
    plan.severLinkAt(0, 1, span / 3);
    plan.healLinkAt(0, 1, 2 * span / 3);

    KvPartitionOutcome first = runPartitioned(plan);
    ASSERT_TRUE(first.verified);
    ASSERT_EQ(first.served, 1200u);
    EXPECT_EQ(first.severed, 2u);
    EXPECT_EQ(first.healed, 2u);
    EXPECT_TRUE(runPartitioned(plan) == first);
}

// ---------------------------------------------------------------------
// Regression: a node slandered before its death must come back from
// rejoin with a clean detector — both its column AND its own rows.
// ---------------------------------------------------------------------

TEST(Partition, SlanderedThenRejoinedNodeStartsWithCleanDetector)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.topology = nNodes(3);
    cfg.crash.enabled = true;
    System sys(cfg);
    App app(sys, 0);
    CrashManager &cm = *sys.crashManager();

    // Node 1 has been accumulating (unfounded) suspicion of node 0 —
    // one miss short of a declaration — when it dies and is fenced.
    cm.setSuspicion(1, 0, CrashConfig::suspicionThreshold - 1);
    sys.killNode(1);
    cm.forceSuspicion(0, 1);
    ASSERT_TRUE(cm.isDeclaredDead(1));

    // The reboot wipes its memory: pre-crash slander must not
    // survive into the fresh kernel, or its very next heartbeat miss
    // would re-declare a healthy peer.
    sys.rejoinNode(1);
    EXPECT_EQ(cm.suspicionOf(1, 0), 0u);
    EXPECT_EQ(cm.suspicionOf(0, 1), 0u);
    app.migrate(1);
    app.compute(10'000);
    EXPECT_FALSE(cm.isDeclaredDead(0));
    EXPECT_FALSE(cm.isDeclaredDead(1));
}

// ---------------------------------------------------------------------
// Link impairment plumbing: lossy draws and delayed parking.
// ---------------------------------------------------------------------

TEST(Partition, LossyLinkDropsByRateAndDelayedLinkParks)
{
    FaultPlan plan;
    plan.linkLossRate = 1.0; // every draw drops while lossy
    MachineConfig mc = MachineConfig::paperPair(MemoryModel::Shared);
    mc.faultPlan = plan;
    Machine machine(mc);
    TcpMessageLayer layer(machine);
    unsigned delivered = 0;
    layer.registerHandler(1, [&](const Message &) { ++delivered; });
    layer.registerHandler(0, [](const Message &) {});

    Message m;
    m.type = MsgType::PageRequest;
    m.from = 0;
    m.to = 1;

    machine.setLinkState(0, 1, LinkState::Lossy);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(layer.send(m), Errc::Ok);
    layer.dispatchPending(1);
    EXPECT_EQ(delivered, 0u);
    EXPECT_EQ(machine.faultInjector()->faults().value("link_loss"), 8u);

    // Delayed: messages park until the *receiver's* clock passes the
    // release point — a sustained delay, not a one-shot stall.
    machine.setLinkState(0, 1, LinkState::Delayed);
    EXPECT_EQ(layer.send(m), Errc::Ok);
    layer.dispatchPending(1);
    EXPECT_EQ(delivered, 0u);
    EXPECT_EQ(
        machine.faultInjector()->partition().value("msgs_parked"), 1u);

    machine.stall(1, FaultPlan::linkDelayCycles + 1);
    layer.dispatchPending(1);
    EXPECT_EQ(delivered, 1u);

    // Back to Up: messages flow normally again.
    machine.setLinkState(0, 1, LinkState::Up);
    EXPECT_EQ(layer.send(m), Errc::Ok);
    layer.dispatchPending(1);
    EXPECT_EQ(delivered, 2u);
}
