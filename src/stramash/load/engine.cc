#include "stramash/load/engine.hh"

namespace stramash
{

namespace
{

/** Fraction of offered requests that are Sets. */
constexpr double kSetFraction = 0.10;

} // namespace

OpenLoopEngine::OpenLoopEngine(OpenLoopConfig cfg) : cfg_(cfg)
{
    panic_if(cfg_.requests == 0, "open-loop run with no requests");
}

OpenLoopReport
OpenLoopEngine::run(KvFrontEnd &fe)
{
    ArrivalProcess arrivals(cfg_.arrival);
    KeyChooser keys(cfg_.keys);
    // Independent stream for the op mix and ingress spraying, so
    // changing e.g. the arrival kind never perturbs which keys are
    // written.
    Rng mix(cfg_.seed, 0x0919);

    std::size_t n = fe.nodeCount();
    Cycles t = 0;
    for (std::size_t i = 0; i < cfg_.requests; ++i) {
        t += arrivals.next();
        std::uint64_t key = keys.next();
        KvOp op = mix.uniform() < kSetFraction ? KvOp::Set : KvOp::Get;
        auto ingress = static_cast<NodeId>(mix.below64(n));
        fe.inject(t, op, key, ingress);
    }
    Cycles last = fe.drain();

    const StatGroup &sg = fe.stats();
    auto &g = const_cast<StatGroup &>(sg);
    const Histogram &lat = g.histogram("latency", {1});

    OpenLoopReport r;
    r.offered = cfg_.requests;
    r.accepted = g.counter("accepted");
    r.shed = g.counter("ring_full");
    r.served = g.counter("served");
    r.batches = g.counter("batches");
    r.cacheHits = g.counter("cache_hits");
    r.cacheStale = g.counter("cache_stale");
    r.cacheMisses = g.counter("cache_misses");
    r.invalidationsSent = g.counter("invalidations_sent");
    r.coherentInvalidations =
        g.counter("coherent_invalidations");
    r.meanLatency = lat.mean();
    r.p50 = lat.percentile(0.50);
    r.p99 = lat.percentile(0.99);
    r.p999 = lat.percentile(0.999);
    r.lastCompletion = last;
    r.lastArrival = t;
    return r;
}

} // namespace stramash
