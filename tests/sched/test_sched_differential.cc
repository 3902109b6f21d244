/**
 * @file
 * Differential tests: the scheduler is a refactor, not a behavior
 * change. With stealing disabled and placement pinned (or the
 * affinity policy, whose choices replicate the historical hard-coded
 * layout), every scheduler-driven run must be bit-identical to the
 * hand-placed run it replaced — runtime, per-node clocks, workload
 * checksums, and the exported stats JSON.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "stramash/sched/scheduler.hh"
#include "stramash/workloads/npb.hh"
#include "stramash/workloads/sharded_kvstore.hh"

using namespace stramash;

namespace
{

std::unique_ptr<System>
makeSystem(OsDesign design, std::size_t nodes)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.transport = Transport::SharedMemory;
    cfg.cachePluginEnabled = false;
    cfg.topology =
        TopologySpec::alternating(nodes, MemoryModel::Shared);
    return std::make_unique<System>(cfg);
}

SchedConfig
compatSchedConfig()
{
    // The compatibility configuration the differential contract is
    // about: affinity placement (replicates hard-coded layouts and
    // migrateToNext hops), no stealing.
    SchedConfig sc;
    sc.policy = PlacementPolicy::IsaAffinity;
    sc.stealing = false;
    return sc;
}

/** Everything a run can perturb. */
struct Fingerprint
{
    Cycles runtime = 0;
    std::uint64_t messages = 0;
    std::vector<std::uint64_t> perNode;
    std::uint64_t checksum = 0;
    bool verified = false;
    std::string statsJson;

    bool
    operator==(const Fingerprint &o) const
    {
        return runtime == o.runtime && messages == o.messages &&
               perNode == o.perNode && checksum == o.checksum &&
               verified == o.verified && statsJson == o.statsJson;
    }
};

void
captureMachine(System &sys, Fingerprint &fp)
{
    fp.runtime = sys.runtime();
    fp.messages = sys.messagesSent();
    Machine &m = sys.machine();
    for (NodeId n = 0; n < m.nodeCount(); ++n) {
        fp.perNode.push_back(m.node(n).cycles());
        fp.perNode.push_back(m.node(n).icount());
        fp.perNode.push_back(m.ipisReceived(n));
    }
}

std::string
slurpStatsJson(System &sys, const std::string &tag)
{
    std::string path =
        testing::TempDir() + "sched_diff_" + tag + ".json";
    EXPECT_TRUE(sys.writeStatsJson(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

Fingerprint
kvRun(OsDesign design, bool viaScheduler, const std::string &tag)
{
    auto sys = makeSystem(design, 4);
    Fingerprint fp;
    {
        // Scoped: the scheduler unregisters its stat group on
        // destruction, so both variants export the same group set
        // and the stats JSON documents are comparable verbatim.
        std::unique_ptr<Scheduler> sched;
        ShardedKvConfig kcfg;
        if (viaScheduler) {
            sched = std::make_unique<Scheduler>(*sys,
                                                compatSchedConfig());
            kcfg.placer = sched.get();
        }
        ShardedKvStore store(*sys, kcfg);
        if (viaScheduler) {
            // Affinity round-robin reproduces the identity layout.
            for (NodeId s = 0; s < 4; ++s)
                EXPECT_EQ(store.serverNode(s), s);
        }
        store.populate();
        store.run(600);
        fp.verified = store.verify();
        fp.checksum = store.requestsServed() ^
                      (store.crossShardRequests() << 20);
    }
    captureMachine(*sys, fp);
    fp.statsJson = slurpStatsJson(*sys, tag);
    return fp;
}

Fingerprint
npbRun(OsDesign design, const std::string &kernel, bool viaScheduler,
       const std::string &tag)
{
    auto sys = makeSystem(design, 4);
    Fingerprint fp;
    {
        std::unique_ptr<Scheduler> sched;
        NpbConfig nc;
        nc.iterations = 3;
        nc.problemBytes = 256 * 1024;
        if (viaScheduler) {
            sched = std::make_unique<Scheduler>(*sys,
                                                compatSchedConfig());
            nc.placer = sched.get();
        }
        App app(*sys, 0);
        NpbResult r = makeNpbKernel(kernel)->run(app, nc);
        fp.verified = r.verified;
        fp.checksum = r.checksum;
    }
    captureMachine(*sys, fp);
    fp.statsJson = slurpStatsJson(*sys, tag);
    return fp;
}

} // namespace

class SchedDifferential
    : public ::testing::TestWithParam<OsDesign>
{
};

TEST_P(SchedDifferential, ShardedKvstoreIsBitIdentical)
{
    OsDesign d = GetParam();
    Fingerprint hand = kvRun(d, false, "kv_hand");
    Fingerprint sched = kvRun(d, true, "kv_sched");
    EXPECT_TRUE(hand.verified);
    EXPECT_EQ(hand.runtime, sched.runtime);
    EXPECT_EQ(hand.perNode, sched.perNode);
    EXPECT_EQ(hand.messages, sched.messages);
    EXPECT_EQ(hand.checksum, sched.checksum);
    EXPECT_EQ(hand.statsJson, sched.statsJson);
    EXPECT_TRUE(hand == sched);
}

TEST_P(SchedDifferential, NpbOffloadHopsAreBitIdentical)
{
    OsDesign d = GetParam();
    for (const char *name : {"is", "cg"}) {
        std::string kernel(name);
        Fingerprint hand = npbRun(d, kernel, false,
                                  "npb_hand_" + kernel);
        Fingerprint sched = npbRun(d, kernel, true,
                                   "npb_sched_" + kernel);
        EXPECT_TRUE(hand.verified) << kernel;
        EXPECT_EQ(hand.checksum, sched.checksum) << kernel;
        EXPECT_EQ(hand.runtime, sched.runtime) << kernel;
        EXPECT_EQ(hand.perNode, sched.perNode) << kernel;
        EXPECT_EQ(hand.statsJson, sched.statsJson) << kernel;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchedDifferentialBothDesigns, SchedDifferential,
    ::testing::Values(OsDesign::FusedKernel,
                      OsDesign::MultipleKernel),
    [](const ::testing::TestParamInfo<OsDesign> &info) {
        return info.param == OsDesign::FusedKernel ? "Fused"
                                                   : "Popcorn";
    });

TEST(SchedDeterminism, StealingRunReplaysBitIdentically)
{
    auto runOnce = [] {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::FusedKernel;
        cfg.transport = Transport::SharedMemory;
        cfg.cachePluginEnabled = false;
        cfg.topology =
            TopologySpec::alternating(4, MemoryModel::Shared);
        System sys(cfg);
        SchedConfig sc;
        sc.runBlock = 8;
        Scheduler sched(sys, sc);
        // Skewed hand layout: node 0 gets most of the work.
        for (std::uint64_t i = 0; i < 200; ++i) {
            WorkItem item;
            item.tag = i;
            item.weight = 5000;
            item.fn = [&sys](NodeId node) {
                sys.machine().stall(node, 5000);
                sys.machine().retire(node, 700);
            };
            sched.submitTo(i % 5 == 0 ? (i % 4) : 0,
                           std::move(item));
        }
        Fingerprint fp;
        fp.checksum = sched.runInline();
        fp.checksum ^= sched.stats().value("steals_succeeded") << 40;
        fp.checksum ^= sched.stats().value("steal_items") << 50;
        captureMachine(sys, fp);
        EXPECT_EQ(sched.itemsExecuted(), 200u);
        EXPECT_GT(sched.stats().value("steals_succeeded"), 0u);
        return fp;
    };

    // Two fresh systems with the same configuration must land on the
    // same bits.
    Fingerprint first = runOnce();
    EXPECT_TRUE(first == runOnce());
}
