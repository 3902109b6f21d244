/**
 * @file
 * The open-loop service loop end to end: latency accounting,
 * batching amortisation, the hot-key cache's two invalidation
 * regimes (coherent tag validation on the fused design, explicit
 * CacheInvalidate messages on Popcorn), stats export, and
 * bit-identical replay of a whole run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

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

OpenLoopConfig
engineConfig(std::uint64_t keySpace, double ratePerMcycle)
{
    OpenLoopConfig oc;
    oc.arrival = ArrivalConfig::poisson(ratePerMcycle, 42);
    oc.keys = KeyDistConfig::zipfian(keySpace, 0.99, 43);
    oc.requests = 800;
    oc.seed = 44;
    return oc;
}

OpenLoopReport
runOnce(OsDesign design, ServiceConfig sc, double ratePerMcycle)
{
    auto sys = makeSystem(design, 4);
    ShardedKvStore store(*sys);
    store.populate();
    KvFrontEnd fe(*sys, store, sc);
    OpenLoopEngine eng(engineConfig(store.keySpace(), ratePerMcycle));
    OpenLoopReport rep = eng.run(fe);
    EXPECT_TRUE(store.verify());
    return rep;
}

} // namespace

TEST(OpenLoop, ConservationAndOrderedPercentiles)
{
    ServiceConfig sc;
    sc.hotKeyCache = true;
    OpenLoopReport rep = runOnce(OsDesign::FusedKernel, sc, 60.0);

    EXPECT_EQ(rep.offered, 800u);
    EXPECT_EQ(rep.accepted + rep.shed, rep.offered);
    EXPECT_EQ(rep.served, rep.accepted);
    EXPECT_GT(rep.served, 0u);
    EXPECT_GE(rep.lastCompletion, rep.lastArrival);

    EXPECT_GT(rep.p50, 0.0);
    EXPECT_LE(rep.p50, rep.p99);
    EXPECT_LE(rep.p99, rep.p999);
    EXPECT_GT(rep.meanLatency, 0.0);
}

TEST(OpenLoop, BatchingAmortisesDispatches)
{
    ServiceConfig one;
    one.batchSize = 1;
    ServiceConfig eight;
    eight.batchSize = 8;
    // Load the loop well past incremental service so batches fill.
    OpenLoopReport r1 = runOnce(OsDesign::FusedKernel, one, 250.0);
    OpenLoopReport r8 = runOnce(OsDesign::FusedKernel, eight, 250.0);

    EXPECT_EQ(r1.batches, r1.served);
    EXPECT_LT(r8.batches, r1.batches / 2)
        << "batch-8 dispatches should be far fewer than batch-1";
}

TEST(OpenLoop, FusedStaleHitDetectedByCoherentTag)
{
    auto sys = makeSystem(OsDesign::FusedKernel, 2);
    ShardedKvStore store(*sys);
    store.populate();
    ServiceConfig sc;
    sc.hotKeyCache = true;
    KvFrontEnd fe(*sys, store, sc);

    // key 1 lives on shard 1; ingress 0 is the caching remote node.
    EXPECT_EQ(fe.inject(1000, KvOp::Get, 1, 0), Errc::Ok);
    EXPECT_EQ(fe.inject(200000, KvOp::Get, 1, 0), Errc::Ok);
    fe.drain();
    StatGroup &g = fe.stats();
    EXPECT_EQ(g.counter("cache_misses"), 1u);
    EXPECT_EQ(g.counter("cache_hits"), 1u);
    EXPECT_TRUE(fe.cachesKey(0, 1));

    // A write at the owner: no messages on the fused design, just a
    // coherence-side invalidation of the remote copy.
    EXPECT_EQ(fe.inject(400000, KvOp::Set, 1, 1), Errc::Ok);
    fe.drain();
    EXPECT_EQ(g.counter("coherent_invalidations"), 1u);
    EXPECT_EQ(g.counter("invalidations_sent"), 0u);
    // The entry is still present but stale...
    EXPECT_TRUE(fe.cachesKey(0, 1));

    // ...and the next cached read catches it via the tag compare,
    // refetches, and leaves a fresh copy behind.
    EXPECT_EQ(fe.inject(600000, KvOp::Get, 1, 0), Errc::Ok);
    fe.drain();
    EXPECT_EQ(g.counter("cache_stale"), 1u);
    EXPECT_EQ(g.counter("cache_hits"), 1u);
    EXPECT_EQ(fe.inject(800000, KvOp::Get, 1, 0), Errc::Ok);
    fe.drain();
    EXPECT_EQ(g.counter("cache_hits"), 2u);
    EXPECT_TRUE(store.verify());
}

TEST(OpenLoop, PopcornWritesPushExplicitInvalidations)
{
    auto sys = makeSystem(OsDesign::MultipleKernel, 2);
    ShardedKvStore store(*sys);
    store.populate();
    ServiceConfig sc;
    sc.hotKeyCache = true;
    KvFrontEnd fe(*sys, store, sc);

    EXPECT_EQ(fe.inject(1000, KvOp::Get, 1, 0), Errc::Ok);
    fe.drain();
    EXPECT_TRUE(fe.cachesKey(0, 1));

    // The owner's write must pay one CacheInvalidate message per
    // sharer; the sharer's entry is gone on delivery (present ==
    // valid, there is no coherent tag to validate against).
    EXPECT_EQ(fe.inject(300000, KvOp::Set, 1, 1), Errc::Ok);
    fe.drain();
    StatGroup &g = fe.stats();
    EXPECT_EQ(g.counter("invalidations_sent"), 1u);
    EXPECT_EQ(g.counter("invalidations_received"), 1u);
    EXPECT_EQ(g.counter("coherent_invalidations"), 0u);
    EXPECT_FALSE(fe.cachesKey(0, 1));

    // The next read is a clean miss, never a stale hit.
    EXPECT_EQ(fe.inject(500000, KvOp::Get, 1, 0), Errc::Ok);
    fe.drain();
    EXPECT_EQ(g.counter("cache_stale"), 0u);
    EXPECT_EQ(g.counter("cache_misses"), 2u);
    EXPECT_TRUE(store.verify());
}

TEST(OpenLoop, LruEvictionDropsTheColdestKey)
{
    auto sys = makeSystem(OsDesign::FusedKernel, 2);
    ShardedKvStore store(*sys);
    store.populate();
    ServiceConfig sc;
    sc.hotKeyCache = true;
    sc.cacheEntriesPerNode = 2;
    KvFrontEnd fe(*sys, store, sc);

    // Three distinct shard-1 keys through ingress 0: the first
    // (coldest) must fall out of the 2-entry cache.
    Cycles t = 1000;
    for (std::uint64_t key : {1ULL, 3ULL, 5ULL}) {
        EXPECT_EQ(fe.inject(t, KvOp::Get, key, 0), Errc::Ok);
        t += 200000;
        fe.drain();
    }
    EXPECT_FALSE(fe.cachesKey(0, 1));
    EXPECT_TRUE(fe.cachesKey(0, 3));
    EXPECT_TRUE(fe.cachesKey(0, 5));
}

TEST(OpenLoop, LoadStatsExportedThroughTheSystem)
{
    auto sys = makeSystem(OsDesign::FusedKernel, 2);
    ShardedKvStore store(*sys);
    store.populate();
    {
        KvFrontEnd fe(*sys, store, {});
        std::vector<std::string> names;
        sys->forEachStatGroup([&](const StatGroup &g) {
            names.push_back(g.name());
        });
        EXPECT_NE(std::find(names.begin(), names.end(), "load"),
                  names.end())
            << "front-end stats must ride along in --stats-json";
    }
    // Destruction unregisters: no dangling group left behind.
    std::vector<std::string> names;
    sys->forEachStatGroup(
        [&](const StatGroup &g) { names.push_back(g.name()); });
    EXPECT_EQ(std::find(names.begin(), names.end(), "load"),
              names.end());
}

TEST(OpenLoop, IdenticalSeedsReproduceTheWholeRun)
{
    ServiceConfig sc;
    sc.hotKeyCache = true;
    OpenLoopReport a = runOnce(OsDesign::FusedKernel, sc, 120.0);
    OpenLoopReport b = runOnce(OsDesign::FusedKernel, sc, 120.0);

    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheStale, b.cacheStale);
    EXPECT_EQ(a.lastCompletion, b.lastCompletion);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.p999, b.p999);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
}
