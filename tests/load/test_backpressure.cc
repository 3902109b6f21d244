/**
 * @file
 * Admission control under sustained overload: queue depth stays
 * bounded at the configured capacity, excess arrivals shed through
 * Errc::RingFull with the ring_full stat growing, and the loop
 * converges fault-free once the storm ends (every accepted request
 * served, every queue empty).
 */

#include <gtest/gtest.h>

#include <memory>

#include "stramash/load/engine.hh"

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

} // namespace

TEST(Backpressure, SustainedOverloadShedsAndStaysBounded)
{
    auto sys = makeSystem(OsDesign::FusedKernel, 2);
    ShardedKvStore store(*sys);
    store.populate();
    ServiceConfig sc;
    sc.queueCapacity = 16;
    KvFrontEnd fe(*sys, store, sc);

    // Arrivals far past service capacity (each request costs north
    // of 10k cycles; offer one every ~650). The queue must pin at
    // capacity, never beyond, and the overflow must shed.
    ArrivalProcess arrivals(ArrivalConfig::poisson(1500.0, 9));
    KeyChooser keys(KeyDistConfig::zipfian(store.keySpace(), 0.99, 10));
    Rng mix(11, 0x1d1e);
    Cycles t = 0;
    std::uint64_t shed = 0;
    for (int i = 0; i < 3000; ++i) {
        t += arrivals.next();
        auto ingress = static_cast<NodeId>(mix.below64(2));
        Errc rc = fe.inject(t, (i % 10 == 0) ? KvOp::Set : KvOp::Get,
                            keys.next(), ingress);
        if (rc == Errc::RingFull)
            ++shed;
        ASSERT_LE(fe.queueDepth(0), sc.queueCapacity);
        ASSERT_LE(fe.queueDepth(1), sc.queueCapacity);
    }

    StatGroup &g = fe.stats();
    EXPECT_GT(shed, 0u) << "overload must trip admission control";
    EXPECT_EQ(g.counter("ring_full"), shed);
    EXPECT_EQ(g.counter("accepted"), 3000u - shed);

    // Fault-free convergence: the storm ends, the loop drains, and
    // every admitted request was served exactly once.
    fe.drain();
    EXPECT_EQ(fe.queueDepth(0), 0u);
    EXPECT_EQ(fe.queueDepth(1), 0u);
    EXPECT_EQ(g.counter("served"), 3000u - shed);
    EXPECT_TRUE(store.verify());
}

TEST(Backpressure, ShedRateGrowsWithOfferedLoad)
{
    auto run = [](double ratePerMcycle) {
        auto sys = makeSystem(OsDesign::FusedKernel, 2);
        ShardedKvStore store(*sys);
        store.populate();
        ServiceConfig sc;
        sc.queueCapacity = 32;
        KvFrontEnd fe(*sys, store, sc);
        OpenLoopConfig oc;
        oc.arrival = ArrivalConfig::poisson(ratePerMcycle, 21);
        oc.keys =
            KeyDistConfig::zipfian(store.keySpace(), 0.99, 22);
        oc.requests = 1500;
        oc.seed = 23;
        return OpenLoopEngine(oc).run(fe);
    };

    OpenLoopReport stable = run(40.0);
    OpenLoopReport overload = run(400.0);
    EXPECT_EQ(stable.shed, 0u)
        << "well under capacity nothing sheds";
    EXPECT_GT(overload.shed, 0u);
    EXPECT_GT(overload.shedRate(), stable.shedRate());
    // Accepted work still conserves.
    EXPECT_EQ(overload.served, overload.accepted);
}

TEST(Backpressure, TinyQueueReportsRingFullDirectly)
{
    auto sys = makeSystem(OsDesign::FusedKernel, 2);
    ShardedKvStore store(*sys);
    store.populate();
    ServiceConfig sc;
    sc.queueCapacity = 1;
    KvFrontEnd fe(*sys, store, sc);

    // Two arrivals in the same cycle: the first fills the queue and
    // the second is refused before any batch can start (a later
    // arrival would instead let the loop drain the first).
    EXPECT_EQ(fe.inject(1000, KvOp::Get, 1, 0), Errc::Ok);
    EXPECT_EQ(fe.inject(1000, KvOp::Get, 3, 0), Errc::RingFull);
    fe.drain();
    EXPECT_EQ(fe.stats().counter("served"), 1u);
    EXPECT_TRUE(store.verify());
}
