/**
 * @file
 * Golden output of the whole simulator. Each case runs one small
 * configuration end to end and reduces it to one FNV-1a hash of its
 * stats JSON (every stat group System exports) and its per-node
 * clocks, compared with a value recorded from the simulator as it
 * stands:
 *  - the eight Fig. 9 configurations on IS, CG, MG and FT at a
 *    reduced problem size (fused remote faults and the remote VMA
 *    walk, Popcorn's DSM and VMA replication over SHM and TCP; FT's
 *    fresh scratch buffer per procedure drives the fused fast path's
 *    tagged leaf inserts and their reconciliation);
 *  - one fused and one Popcorn whole-process migration;
 *  - one fused crash recovery, which copies the dead kernel's VMAs
 *    and adopts its page-table entries;
 *  - fused and Popcorn NPB IS and FT on a cached four-node machine,
 *    whose offload hops visit every peer, so coherence snoops reach
 *    three other hierarchies and tagged leaves come from writers of
 *    both ISAs;
 *  - the Fig. 14 kv-store served from a migrated thread (fused,
 *    Popcorn-SHM, Popcorn-TCP), whose socket operations reach the
 *    origin;
 *  - the sharded kv-store and the open-loop front end (hot-key cache,
 *    queue stealing) on four nodes, both designs;
 *  - a Popcorn crash recovery (task reaping, DSM re-ownership), a
 *    four-node false suspicion outvoted by the quorum and then a real
 *    crash (both designs), and a four-node Popcorn sever and heal;
 *  - the scheduler's run queues on four nodes, both designs: a
 *    skewed backlog drained in short blocks, with a steal round
 *    (coherent-memory pops or a steal RPC) between blocks.
 *
 * A refactor must leave every hash unchanged. A deliberate model
 * change re-records them: the failure message prints the new value.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/bench_util.hh"
#include "fnv.hh"
#include "stramash/common/units.hh"
#include "stramash/load/engine.hh"
#include "stramash/sched/scheduler.hh"
#include "stramash/trace/json_stats.hh"
#include "stramash/workloads/kvstore.hh"

using namespace stramash;

namespace
{

/** Hash of @p sys's stats JSON, plus the @p extra stat groups the
 *  System does not export, and its per-node clocks. */
std::uint64_t
digest(System &sys, std::initializer_list<const StatGroup *> extra = {})
{
    JsonStatsExporter exporter;
    sys.forEachStatGroup([&](const StatGroup &g) { exporter.add(g); });
    for (const StatGroup *g : extra)
        exporter.add(*g);
    std::ostringstream os;
    exporter.writeGroupsObject(os);
    Fnv h;
    h.add(os.str());
    for (NodeId n = 0; n < sys.nodeCount(); ++n) {
        h.add(sys.machine().node(n).cycles());
        h.add(sys.machine().node(n).memCycles());
    }
    return h.h;
}

struct Fig9Case
{
    const char *kernel;
    unsigned config; ///< index into bench::figure9Configs()
    std::uint64_t hash;
};

void
PrintTo(const Fig9Case &c, std::ostream *os)
{
    *os << c.kernel << " config " << c.config;
}

std::string
fig9Name(const testing::TestParamInfo<Fig9Case> &info)
{
    std::string name = std::string(info.param.kernel) + "_" +
                       bench::figure9Configs(0)[info.param.config].label;
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name;
}

class GoldenFig9 : public testing::TestWithParam<Fig9Case>
{
};

/** Write a recognisable word into each page of [buf, buf+pages). */
void
fill(App &app, Addr buf, unsigned pages, std::uint64_t tag)
{
    for (unsigned i = 0; i < pages; ++i)
        app.write<std::uint64_t>(buf + i * pageSize, tag + i);
}

void
expectFilled(App &app, Addr buf, unsigned pages, std::uint64_t tag)
{
    for (unsigned i = 0; i < pages; ++i) {
        EXPECT_EQ(app.read<std::uint64_t>(buf + i * pageSize), tag + i)
            << "page " << i;
    }
}

/** Three VMAs written at the origin, touched from node 1, then the
 *  whole process moved to node 1 and used there. */
std::uint64_t
processMigrationDigest(OsDesign design)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    System sys(cfg);
    App app(sys, 0);
    Addr a = app.mmap(16 * pageSize);
    Addr b = app.mmap(8 * pageSize);
    Addr c = app.mmap(4 * pageSize);
    fill(app, a, 16, 0xa000);
    fill(app, b, 8, 0xb000);
    app.migrate(1);
    expectFilled(app, a, 16, 0xa000);
    fill(app, c, 4, 0xc000);
    app.migrate(0);
    sys.migrateProcess(app.pid(), 1);
    expectFilled(app, b, 8, 0xb000);
    expectFilled(app, c, 4, 0xc000);
    fill(app, a, 16, 0xd000);
    return digest(sys);
}

/** Sends successive offload hops to nodes 1, 2, ..., n-1, 1, ... */
class PeerCycle final : public Placer
{
  public:
    explicit PeerCycle(unsigned nodes) : nodes_(nodes) {}

    NodeId place(const PlacementHints &) override { return 0; }

    NodeId
    offloadTarget(NodeId, const PlacementHints &) override
    {
        next_ = next_ % (nodes_ - 1) + 1;
        return next_;
    }

  private:
    unsigned nodes_;
    NodeId next_ = 0;
};

/** NPB @p kernel from node 0 of a cached four-node machine,
 *  offloading each procedure to the peers in turn. */
std::uint64_t
fourNodeDigest(OsDesign design, const char *kernel)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.topology = TopologySpec::alternating(4, MemoryModel::Shared);
    System sys(cfg);
    App app(sys, 0);
    PeerCycle placer(4);
    NpbConfig ncfg;
    ncfg.iterations = 4;
    ncfg.problemBytes = 256_KiB;
    ncfg.placer = &placer;
    sys.resetExperimentCounters();
    EXPECT_TRUE(makeNpbKernel(kernel)->run(app, ncfg).verified);
    return digest(sys);
}

/** Fig. 14's server, migrated off its socket's node, serving a few
 *  requests of every operation. */
std::uint64_t
kvServerDigest(OsDesign design, Transport transport)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.transport = transport;
    cfg.cachePluginEnabled = false;
    System sys(cfg);
    App app(sys, 0);
    KvStore store(app, 64, 1024);
    store.populate();
    app.migrateToNext();
    Rng rng(42);
    for (KvOp op : allKvOps())
        store.measureRound(op, 3, rng);
    EXPECT_EQ(store.listLength(), 32u);
    return digest(sys);
}

/** A system of four alternating nodes with the cache model off. */
SystemConfig
fourNodeKvConfig(OsDesign design)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.cachePluginEnabled = false;
    cfg.topology = TopologySpec::alternating(4, MemoryModel::Shared);
    return cfg;
}

std::uint64_t
shardedKvDigest(OsDesign design)
{
    System sys(fourNodeKvConfig(design));
    ShardedKvStore store(sys);
    store.populate();
    store.run(64);
    EXPECT_TRUE(store.verify());
    EXPECT_GT(store.crossShardRequests(), 0u);
    return digest(sys);
}

std::uint64_t
openLoopDigest(OsDesign design)
{
    System sys(fourNodeKvConfig(design));
    ShardedKvConfig kcfg;
    kcfg.keysPerShard = 32;
    ShardedKvStore store(sys, kcfg);
    store.populate();
    Scheduler sched(sys);
    ServiceConfig scfg;
    scfg.hotKeyCache = true;
    scfg.sched = &sched;
    KvFrontEnd fe(sys, store, scfg);
    OpenLoopConfig ocfg;
    ocfg.arrival = ArrivalConfig::poisson(400.0, 5);
    ocfg.keys = KeyDistConfig::zipfian(store.keySpace(), 0.99, 6);
    ocfg.requests = 256;
    ocfg.seed = 7;
    OpenLoopReport rep = OpenLoopEngine(ocfg).run(fe);
    EXPECT_TRUE(store.verify());
    EXPECT_EQ(rep.served, rep.accepted);
    EXPECT_GT(rep.cacheHits, 0u);
    EXPECT_GT(fe.stats().value("queue_steals"), 0u);
    return digest(sys, {&fe.stats(), &sched.stats()});
}

/** 96 items queued on nodes 0 and 1 of four, three in four on node
 *  0, drained four at a time so idle nodes steal between blocks. */
std::uint64_t
schedStealDigest(OsDesign design)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.topology = TopologySpec::alternating(4, MemoryModel::Shared);
    System sys(cfg);
    SchedConfig scfg;
    scfg.runBlock = 4;
    Scheduler sched(sys, scfg);
    for (std::uint64_t i = 0; i < 96; ++i) {
        WorkItem item;
        item.tag = i;
        item.weight = 2000 + 100 * (i % 7);
        item.fn = [&sys, w = item.weight](NodeId node) {
            sys.machine().retire(node, 500);
            sys.machine().stall(node, w);
        };
        sched.submitTo(i % 4 == 3 ? 1 : 0, std::move(item));
    }
    sched.runInline();
    EXPECT_EQ(sched.itemsExecuted(), 96u);
    EXPECT_GT(sched.stats().value("steals_succeeded"), 0u);
    return digest(sys);
}

/** A task born on node 1 of four works from node 0; node 0 falsely
 *  suspects node 1 and is outvoted by nodes 2 and 3; then node 1
 *  really dies, the quorum agrees, and node 0 recovers the task. */
std::uint64_t
quorumDigest(OsDesign design)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.topology = TopologySpec::alternating(4, MemoryModel::Shared);
    cfg.crash.enabled = true;
    System sys(cfg);
    App app(sys, 1);
    Addr a = app.mmap(8 * pageSize);
    Addr b = app.mmap(4 * pageSize);
    fill(app, a, 8, 0xa000);
    app.migrate(0);
    expectFilled(app, a, 8, 0xa000);
    fill(app, b, 4, 0xb000);
    CrashManager &cm = *sys.crashManager();
    cm.forceSuspicion(0, 1);
    EXPECT_FALSE(cm.isDeclaredDead(1));
    EXPECT_EQ(cm.recovery().value("suspicions_outvoted"), 1u);
    sys.killNode(1);
    cm.forceSuspicion(0, 1);
    EXPECT_TRUE(cm.isDeclaredDead(1));
    expectFilled(app, a, 8, 0xa000);
    expectFilled(app, b, 4, 0xb000);
    EXPECT_EQ(app.where(), 0u);
    return digest(sys);
}

} // namespace

TEST_P(GoldenFig9, MatchesRecordedHash)
{
    const Fig9Case &c = GetParam();
    const bench::EvalConfig config =
        bench::figure9Configs(4_MiB)[c.config];
    SystemConfig cfg;
    cfg.osDesign = config.design;
    cfg.memoryModel = config.model;
    cfg.transport = config.transport;
    cfg.l3Size = config.l3Size;
    System sys(cfg);
    App app(sys, 0);
    NpbConfig ncfg;
    ncfg.iterations = 2;
    ncfg.problemBytes = 256_KiB;
    ncfg.migrate = config.migrate;
    sys.resetExperimentCounters();
    EXPECT_TRUE(makeNpbKernel(c.kernel)->run(app, ncfg).verified);
    std::uint64_t h = digest(sys);
    EXPECT_EQ(h, c.hash) << std::hex << "hash 0x" << h;
}

INSTANTIATE_TEST_SUITE_P(
    Fig9, GoldenFig9,
    testing::Values(
        Fig9Case{"is", 0, 0x35faf25d40c7e1b1ull},
        Fig9Case{"is", 1, 0x6561f9864c27bbc6ull},
        Fig9Case{"is", 2, 0xc6a9318fb20c4734ull},
        Fig9Case{"is", 3, 0x93e2b4556c18ef42ull},
        Fig9Case{"is", 4, 0x4899933162634938ull},
        Fig9Case{"is", 5, 0x834e722cdb2ba158ull},
        Fig9Case{"is", 6, 0xa3318f35e37997c2ull},
        Fig9Case{"is", 7, 0x95ba7179de957c85ull},
        Fig9Case{"cg", 0, 0x31c2738967612f68ull},
        Fig9Case{"cg", 1, 0x0edabb238da34ac5ull},
        Fig9Case{"cg", 2, 0x00f2908b4e0bfe0bull},
        Fig9Case{"cg", 3, 0x8a7a378f12979324ull},
        Fig9Case{"cg", 4, 0xcbd95216b0b7e2faull},
        Fig9Case{"cg", 5, 0xf4630607cb75ccc4ull},
        Fig9Case{"cg", 6, 0xbcbe051c95fe1769ull},
        Fig9Case{"cg", 7, 0x78799a4f7d6e1348ull},
        Fig9Case{"mg", 0, 0x11cbc5ef7f12c140ull},
        Fig9Case{"mg", 1, 0x54e5b9de8886dfbaull},
        Fig9Case{"mg", 2, 0xa1f4900582ae1cc8ull},
        Fig9Case{"mg", 3, 0xd1142b51805f93d1ull},
        Fig9Case{"mg", 4, 0x617b8a06043e2902ull},
        Fig9Case{"mg", 5, 0xde3d235d5bf6d860ull},
        Fig9Case{"mg", 6, 0x29fa5133e54dd6a7ull},
        Fig9Case{"mg", 7, 0x6ff4fba91a2f4565ull},
        Fig9Case{"ft", 0, 0xb52292865552bb26ull},
        Fig9Case{"ft", 1, 0xc59d9a092dcf8a27ull},
        Fig9Case{"ft", 2, 0xb5df7b065d121d19ull},
        Fig9Case{"ft", 3, 0x7d3b7615cbbd1e5aull},
        Fig9Case{"ft", 4, 0x70dda5cee313932dull},
        Fig9Case{"ft", 5, 0xddb91361b89606eaull},
        Fig9Case{"ft", 6, 0xd027a31adc32a25bull},
        Fig9Case{"ft", 7, 0xb1688f6d5a4edb08ull}),
    fig9Name);

TEST(Golden, FusedProcessMigration)
{
    std::uint64_t h = processMigrationDigest(OsDesign::FusedKernel);
    EXPECT_EQ(h, 0xccac8b2e4d7c2ed3ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornProcessMigration)
{
    std::uint64_t h = processMigrationDigest(OsDesign::MultipleKernel);
    EXPECT_EQ(h, 0xc2786e05e30b2334ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, FusedCrashRecovery)
{
    // A task born on node 1 visits node 0, which learns one of its
    // three VMAs through the remote walker and writes another, then
    // node 1 dies under it. Node 0 copies the missing VMA from the
    // dead kernel and adopts its page-table entries, tagged ones
    // included.
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.crash.enabled = true;
    System sys(cfg);
    App app(sys, 1);
    Addr a = app.mmap(16 * pageSize);
    Addr b = app.mmap(8 * pageSize);
    Addr c = app.mmap(4 * pageSize);
    fill(app, a, 16, 0xa000);
    fill(app, b, 8, 0xb000);
    app.migrate(0);
    expectFilled(app, a, 16, 0xa000);
    fill(app, c, 4, 0xc000);
    app.migrate(1);
    sys.killNode(1);
    expectFilled(app, a, 16, 0xa000);
    expectFilled(app, b, 8, 0xb000);
    expectFilled(app, c, 4, 0xc000);
    EXPECT_EQ(app.where(), 0u);
    ASSERT_NE(sys.crashManager(), nullptr);
    EXPECT_GE(sys.crashManager()->recovery().value("pages_adopted"), 1u);
    std::uint64_t h = digest(sys);
    EXPECT_EQ(h, 0x2d67889290fcdccaull) << std::hex << "hash 0x" << h;
}

TEST(Golden, FusedFourNodeIs)
{
    std::uint64_t h = fourNodeDigest(OsDesign::FusedKernel, "is");
    EXPECT_EQ(h, 0x727fc2c80b4df145ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornFourNodeIs)
{
    std::uint64_t h = fourNodeDigest(OsDesign::MultipleKernel, "is");
    EXPECT_EQ(h, 0xf1cf900f45797806ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, FusedFourNodeFt)
{
    // Each procedure's fresh scratch buffer is first touched on a
    // different peer, so the origin's table gathers leaves tagged in
    // two writers' formats and reconciles them at each return.
    std::uint64_t h = fourNodeDigest(OsDesign::FusedKernel, "ft");
    EXPECT_EQ(h, 0x312652a40fb819f1ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornFourNodeFt)
{
    std::uint64_t h = fourNodeDigest(OsDesign::MultipleKernel, "ft");
    EXPECT_EQ(h, 0xa1f8c7ca0e6c037eull) << std::hex << "hash 0x" << h;
}

TEST(Golden, FusedKvServer)
{
    std::uint64_t h =
        kvServerDigest(OsDesign::FusedKernel, Transport::SharedMemory);
    EXPECT_EQ(h, 0xf0a34116e0e96ddeull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornShmKvServer)
{
    std::uint64_t h = kvServerDigest(OsDesign::MultipleKernel,
                                     Transport::SharedMemory);
    EXPECT_EQ(h, 0x04aef3f16a64c568ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornTcpKvServer)
{
    std::uint64_t h =
        kvServerDigest(OsDesign::MultipleKernel, Transport::Network);
    EXPECT_EQ(h, 0x60784b54cd751e41ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, FusedShardedKv)
{
    std::uint64_t h = shardedKvDigest(OsDesign::FusedKernel);
    EXPECT_EQ(h, 0xc8633d9ec39e6976ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornShardedKv)
{
    std::uint64_t h = shardedKvDigest(OsDesign::MultipleKernel);
    EXPECT_EQ(h, 0x98bdca2b0d37d4a9ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, FusedOpenLoopKv)
{
    std::uint64_t h = openLoopDigest(OsDesign::FusedKernel);
    EXPECT_EQ(h, 0x3e733d59aa708feaull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornOpenLoopKv)
{
    std::uint64_t h = openLoopDigest(OsDesign::MultipleKernel);
    EXPECT_EQ(h, 0x12e0fa04c382b007ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornCrashRecovery)
{
    // Task a replicates its pages onto node 1 and moves there; task b
    // stays on node 0. Node 0 dies: b is reaped, a's origin moves to
    // node 1, which re-owns the pages it holds copies of.
    SystemConfig cfg;
    cfg.osDesign = OsDesign::MultipleKernel;
    cfg.crash.enabled = true;
    System sys(cfg);
    App a(sys, 0);
    App b(sys, 0);
    Addr abuf = a.mmap(8 * pageSize);
    Addr bbuf = b.mmap(2 * pageSize);
    fill(a, abuf, 8, 0xa000);
    fill(b, bbuf, 2, 0xb000);
    a.migrateToNext();
    expectFilled(a, abuf, 8, 0xa000);
    sys.killNode(0);
    CrashManager &cm = *sys.crashManager();
    for (unsigned i = 0; i < 400 && !cm.isDeclaredDead(0); ++i)
        a.compute(50'000);
    ASSERT_TRUE(cm.isDeclaredDead(0));
    EXPECT_TRUE(cm.taskReaped(b.pid()));
    EXPECT_GE(cm.recovery().value("dsm_pages_reowned"), 8u);
    expectFilled(a, abuf, 8, 0xa000);
    std::uint64_t h = digest(sys);
    EXPECT_EQ(h, 0x2d19df35882119ceull) << std::hex << "hash 0x" << h;
}

TEST(Golden, FusedFourNodeQuorum)
{
    std::uint64_t h = quorumDigest(OsDesign::FusedKernel);
    EXPECT_EQ(h, 0x6a4b8b3364607ec3ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornFourNodeQuorum)
{
    std::uint64_t h = quorumDigest(OsDesign::MultipleKernel);
    EXPECT_EQ(h, 0x0bdcc75bd35a7b13ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornFourNodeSeverHeal)
{
    // Node 1 loses its link to node 0 and suspects it: nodes 2 and 3
    // still reach both and outvote it. Then node 3 is cut off from
    // everyone: it fences itself and sheds work, the majority
    // declares it, and the heal brings it back.
    SystemConfig cfg = fourNodeKvConfig(OsDesign::MultipleKernel);
    cfg.crash.enabled = true;
    cfg.crash.pingIntervalCycles = Cycles{1} << 60;
    cfg.faultPlan = FaultPlan{};
    System sys(cfg);
    ShardedKvStore store(sys);
    store.populate();
    store.run(32);
    CrashManager &cm = *sys.crashManager();

    sys.severLink(0, 1);
    cm.forceSuspicion(1, 0);
    EXPECT_FALSE(cm.isDeclaredDead(0));
    EXPECT_EQ(cm.recovery().value("suspicions_outvoted"), 1u);
    store.run(32);
    sys.healLink(0, 1);

    for (NodeId n = 0; n < 3; ++n)
        sys.severLink(n, 3);
    cm.forceSuspicion(3, 0);
    EXPECT_TRUE(cm.isSelfFenced(3));
    store.run(32);
    EXPECT_GT(store.requestsShed(), 0u);
    EXPECT_TRUE(store.verify());
    cm.forceSuspicion(0, 3);
    EXPECT_TRUE(cm.isDeclaredDead(3));
    for (NodeId n = 0; n < 3; ++n)
        sys.healLink(n, 3);
    EXPECT_TRUE(sys.isNodeAlive(3));
    std::uint64_t h = digest(sys);
    EXPECT_EQ(h, 0x7c92239e74c122cfull) << std::hex << "hash 0x" << h;
}

TEST(Golden, FusedSchedSteal)
{
    std::uint64_t h = schedStealDigest(OsDesign::FusedKernel);
    EXPECT_EQ(h, 0xa6d4840cd3caea89ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornSchedSteal)
{
    std::uint64_t h = schedStealDigest(OsDesign::MultipleKernel);
    EXPECT_EQ(h, 0x7b9ab2f94328a5bbull) << std::hex << "hash 0x" << h;
}
