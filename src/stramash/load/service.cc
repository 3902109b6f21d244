#include "stramash/load/service.hh"

#include <algorithm>

#include "stramash/sched/scheduler.hh"

namespace stramash
{

namespace
{

/** Per-dispatch fixed overhead (wakeup, drain, re-arm). */
constexpr Cycles kBatchDispatchCycles = 4000;
/** Per-arrival admission test (occupancy check at the socket). */
constexpr Cycles kAdmissionCycles = 200;
/** Hot-key cache lookup/maintenance cost. */
constexpr Cycles kCacheLookupCycles = 300;

/** Latency buckets: powers of two, 1 Kcycle .. 128 Mcycles. */
std::vector<std::uint64_t>
latencyEdges()
{
    std::vector<std::uint64_t> e;
    for (std::uint64_t v = 1024; v <= (1ULL << 27); v <<= 1)
        e.push_back(v);
    return e;
}

} // namespace

KvFrontEnd::KvFrontEnd(System &sys, ShardedKvStore &store,
                       ServiceConfig cfg)
    : sys_(sys),
      store_(store),
      cfg_(cfg),
      stats_("load"),
      queues_(sys.nodeCount()),
      caches_(sys.nodeCount()),
      accepted_(stats_.counter("accepted")),
      shed_(stats_.counter("ring_full")),
      degradedShed_(stats_.counter("degraded_shed")),
      served_(stats_.counter("served")),
      batches_(stats_.counter("batches")),
      cacheHits_(stats_.counter("cache_hits")),
      cacheStale_(stats_.counter("cache_stale")),
      cacheMisses_(stats_.counter("cache_misses")),
      invalidationsSent_(stats_.counter("invalidations_sent")),
      coherentInvalidations_(
          stats_.counter("coherent_invalidations")),
      latencyHist_(stats_.histogram("latency", latencyEdges())),
      queueDepthHist_(stats_.histogram(
          "queue_depth", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512})),
      batchSizeHist_(
          stats_.histogram("batch_size", {1, 2, 4, 8, 16, 32, 64}))
{
    panic_if(cfg_.batchSize == 0, "front end: batchSize must be >= 1");
    panic_if(cfg_.queueCapacity == 0,
             "front end: queueCapacity must be >= 1 (capacity 0 "
             "would shed everything)");
    panic_if(cfg_.hotKeyCache && cfg_.cacheEntriesPerNode == 0,
             "front end: hot-key cache with no entries");

    // The multiple-kernel design's push invalidations arrive as
    // CacheInvalidate notes; each kernel drops its node's entry.
    Counter &rx = stats_.counter("invalidations_received");
    Counter *rxp = &rx;
    for (NodeId n = 0; n < sys_.nodeCount(); ++n) {
        sys_.kernel(n).registerMsgHandler(
            MsgType::CacheInvalidate,
            [this, n, rxp](const Message &m) {
                NodeCache &c = caches_[n];
                auto it = c.map.find(m.arg0);
                if (it != c.map.end()) {
                    c.lru.erase(it->second.lruPos);
                    c.map.erase(it);
                }
                ++*rxp;
            });
    }
    sys_.registerExternalStatGroup(&stats_);
}

KvFrontEnd::~KvFrontEnd()
{
    sys_.unregisterExternalStatGroup(&stats_);
}

Cycles
KvFrontEnd::nodeClock(NodeId n) const
{
    return sys_.machine().node(n).cycles();
}

Errc
KvFrontEnd::inject(Cycles arrival, KvOp op, std::uint64_t key,
                   NodeId ingress)
{
    panic_if(ingress >= queues_.size(), "inject at unknown node");
    if (!sys_.acceptsWork(ingress)) {
        // The node's socket is fenced (or the node is gone): refuse
        // at the door, before any queueing or clock charge. Nothing
        // is acknowledged, so nothing can be lost.
        ++degradedShed_;
        sys_.machine().tracer().instant(TraceCategory::App,
                                        "load.degraded_shed", ingress,
                                        0, key, 0);
        return Errc::Degraded;
    }
    // Let the service loop catch up to this arrival instant first,
    // so the occupancy the admission test sees is the occupancy at
    // time `arrival`, not at the end of the previous drain.
    pump(ingress, arrival);

    Machine &machine = sys_.machine();
    machine.stall(ingress, kAdmissionCycles);
    std::deque<PendingRequest> &q = queues_[ingress];
    queueDepthHist_.sample(q.size());
    if (q.size() >= cfg_.queueCapacity) {
        // Backpressure: shed through the same error path a full
        // transport ring reports, instead of queueing unboundedly.
        ++shed_;
        machine.tracer().instant(TraceCategory::App, "load.shed",
                                 ingress, 0, key, q.size());
        return Errc::RingFull;
    }
    q.push_back({arrival, op, key});
    ++accepted_;
    return Errc::Ok;
}

void
KvFrontEnd::pump(NodeId node, Cycles horizon)
{
    std::deque<PendingRequest> &q = queues_[node];
    while (!q.empty()) {
        Cycles start = std::max(nodeClock(node), q.front().arrival);
        if (start >= horizon)
            break;
        serveBatch(node);
    }
}

void
KvFrontEnd::serveBatch(NodeId node)
{
    std::deque<PendingRequest> &q = queues_[node];
    panic_if(q.empty(), "serveBatch on empty queue");
    Machine &machine = sys_.machine();

    // A dead node's clock is frozen; requests stranded in its queue
    // are shed wholesale, with no dispatch charge to account them to.
    if (!machine.nodeAlive(node)) {
        degradedShed_ += static_cast<std::int64_t>(q.size());
        q.clear();
        return;
    }

    // The dispatch wakes when the head request is available: either
    // now (work was queued) or at its arrival (the loop was idle).
    Cycles clock = nodeClock(node);
    Cycles start = std::max(clock, q.front().arrival);
    if (start > clock)
        machine.stall(node, start - clock);
    machine.stall(node, kBatchDispatchCycles);

    // Drain up to batchSize requests that had arrived by wakeup;
    // the fixed dispatch overhead amortises across all of them.
    std::size_t taken = 0;
    while (taken < cfg_.batchSize && !q.empty() &&
           q.front().arrival <= start) {
        PendingRequest req = q.front();
        q.pop_front();
        ++taken;
        serveOne(node, req);
    }
    batchSizeHist_.sample(taken);
    ++batches_;
}

void
KvFrontEnd::serveOne(NodeId ingress, const PendingRequest &req)
{
    Machine &machine = sys_.machine();
    NodeId owner = store_.ownerNodeOf(req.key);

    // A request can get trapped in the queue by a partition that
    // lands after admission: shed it here (no latency sample, no
    // served count) — the store would refuse it anyway, and a dead
    // owner's clock cannot be charged.
    if (!sys_.acceptsWork(ingress) || !sys_.acceptsWork(owner)) {
        ++degradedShed_;
        machine.tracer().instant(TraceCategory::App,
                                 "load.degraded_shed", ingress, 0,
                                 req.key, owner);
        return;
    }

    // A forwarded request cannot start on the owner before it was
    // sent: pull an idle owner's clock up to the ingress clock.
    if (owner != ingress) {
        Cycles now = nodeClock(ingress);
        Cycles oc = nodeClock(owner);
        if (oc < now)
            machine.stall(owner, now - oc);
    }

    bool cached = false;
    if (cfg_.hotKeyCache && req.op == KvOp::Get && owner != ingress)
        cached = tryCachedGet(ingress, req.key);

    if (!cached) {
        if (store_.exec(req.op, req.key, ingress) != Errc::Ok) {
            // Shed mid-flight (fencing raced us, or the forward link
            // is down and the breaker tripped): not served, and no
            // latency sample — tail percentiles measure service, not
            // refusals.
            ++degradedShed_;
            machine.tracer().instant(TraceCategory::App,
                                     "load.degraded_shed", ingress, 0,
                                     req.key, owner);
            return;
        }
        if (cfg_.hotKeyCache) {
            if (req.op == KvOp::Get && owner != ingress)
                refill(ingress, req.key);
            else if (req.op == KvOp::Set)
                invalidateSharers(owner, req.key);
        }
    }

    Cycles done = nodeClock(ingress);
    if (!cached && owner != ingress)
        done = std::max(done, nodeClock(owner));
    panic_if(done < req.arrival,
             "request completed before it arrived");
    latencyHist_.sample(done - req.arrival);
    ++served_;
    if (done > lastCompletion_)
        lastCompletion_ = done;
}

bool
KvFrontEnd::tryCachedGet(NodeId ingress, std::uint64_t key)
{
    Machine &machine = sys_.machine();
    machine.stall(ingress, kCacheLookupCycles);
    NodeCache &c = caches_[ingress];
    auto it = c.map.find(key);
    if (it == c.map.end()) {
        ++cacheMisses_;
        return false;
    }

    if (fused()) {
        // Validate with one coherent load of the owner shard's
        // version line: if a write happened anywhere, coherence has
        // already invalidated our copy of that line, so the tag
        // compare sees the new value. This load *is* the entire
        // invalidation protocol.
        NodeId owner = store_.ownerNodeOf(key);
        machine.dataAccess(
            ingress, AccessType::Load,
            sys_.kernel(owner).dataAddrFor(0x5ca1ab1e00000000ULL +
                                           key),
            8);
        if (it->second.tag != store_.currentTag(key)) {
            // Stale: coherent memory invalidated it for free. Fall
            // back to the full path (the refill updates the tag).
            ++cacheStale_;
            return false;
        }
    }
    // Popcorn hits skip validation entirely: the owner's push
    // invalidations (invalidateSharers) keep present == valid.

    // Serve locally: socket stack work plus a local payload copy.
    // No forwarding, no IPI, no owner involvement.
    machine.stall(ingress, KvStore::stackCycles);
    chargeLocalPayload(ingress, AccessType::Load);
    c.lru.erase(it->second.lruPos);
    c.lru.push_front(key);
    it->second.lruPos = c.lru.begin();
    ++cacheHits_;
    return true;
}

void
KvFrontEnd::refill(NodeId ingress, std::uint64_t key)
{
    Machine &machine = sys_.machine();
    machine.stall(ingress, kCacheLookupCycles);
    chargeLocalPayload(ingress, AccessType::Store);

    NodeCache &c = caches_[ingress];
    auto it = c.map.find(key);
    if (it != c.map.end()) {
        it->second.tag = store_.currentTag(key);
        c.lru.erase(it->second.lruPos);
        c.lru.push_front(key);
        it->second.lruPos = c.lru.begin();
        return;
    }
    c.lru.push_front(key);
    c.map.emplace(key,
                  NodeCache::Entry{store_.currentTag(key),
                                   c.lru.begin()});
    sharers_[key].insert(ingress);
    evictIfNeeded(ingress);
}

void
KvFrontEnd::evictIfNeeded(NodeId node)
{
    NodeCache &c = caches_[node];
    while (c.map.size() > cfg_.cacheEntriesPerNode) {
        std::uint64_t victim = c.lru.back();
        c.lru.pop_back();
        c.map.erase(victim);
        auto sh = sharers_.find(victim);
        if (sh != sharers_.end()) {
            sh->second.erase(node);
            if (sh->second.empty())
                sharers_.erase(sh);
        }
    }
}

void
KvFrontEnd::invalidateSharers(NodeId owner, std::uint64_t key)
{
    auto it = sharers_.find(key);
    if (it == sharers_.end() || it->second.empty())
        return;

    if (fused()) {
        // Nothing to send: the tag store in exec() already bounced
        // the version line out of every sharer's cache hierarchy.
        // Count the free invalidations so the asymmetry is visible
        // in the stats.
        coherentInvalidations_ += it->second.size();
        return;
    }

    // Multiple-kernel: push one explicit invalidation note per
    // sharer, paying transport costs for each. Delivery is
    // immediate (dispatchPending) so present == valid holds.
    MessageLayer &msg = sys_.msg();
    for (NodeId n : it->second) {
        if (n == owner)
            continue;
        Message m;
        m.type = MsgType::CacheInvalidate;
        m.from = owner;
        m.to = n;
        m.arg0 = key;
        while (msg.send(m) == Errc::RingFull)
            msg.dispatchPending(n);
        msg.dispatchPending(n);
        ++invalidationsSent_;
    }
    sharers_.erase(it);
}

void
KvFrontEnd::chargeLocalPayload(NodeId node, AccessType type)
{
    Machine &machine = sys_.machine();
    std::size_t bytes = ShardedKvStore::payloadBytes;
    for (std::size_t off = 0; off < bytes; off += cacheLineSize) {
        machine.dataAccess(
            node, type,
            sys_.kernel(node).dataAddrFor(
                0x10ad0000ULL + node * 0x10000ULL + off),
            cacheLineSize);
    }
}

bool
KvFrontEnd::stealPending()
{
    Scheduler *sched = cfg_.sched;
    unsigned batch = sched->config().stealBatch;
    bool moved = false;
    for (NodeId thief = 0; thief < queues_.size(); ++thief) {
        if (!queues_[thief].empty() || !sys_.acceptsWork(thief))
            continue;
        // Deepest ingress queue worth robbing (>= 2 so the victim's
        // loop keeps its head request).
        NodeId victim = invalidNode;
        std::size_t bestDepth = 1;
        for (NodeId n = 0; n < queues_.size(); ++n) {
            if (n == thief || !sys_.acceptsWork(n))
                continue;
            if (queues_[n].size() > bestDepth) {
                victim = n;
                bestDepth = queues_[n].size();
            }
        }
        if (victim == invalidNode)
            continue;
        unsigned want = static_cast<unsigned>(std::min<std::size_t>(
            batch, queues_[victim].size() - 1));
        unsigned got = sched->chargeStealPath(thief, victim, want);
        if (got == 0)
            continue;
        // Move the tail of the victim's queue, preserving order; the
        // stolen requests complete on the thief's clock from here.
        std::deque<PendingRequest> &vq = queues_[victim];
        std::deque<PendingRequest> &tq = queues_[thief];
        tq.insert(tq.end(), vq.end() - got, vq.end());
        vq.erase(vq.end() - got, vq.end());
        stats_.counter("queue_steals") += 1;
        stats_.counter("queue_steal_items") += got;
        sys_.machine().tracer().instant(TraceCategory::Sched,
                                        "load.queue_steal", thief, 0,
                                        victim, got);
        moved = true;
    }
    return moved;
}

Cycles
KvFrontEnd::drain()
{
    bool any = true;
    while (any) {
        any = false;
        if (cfg_.sched && cfg_.sched->config().stealing)
            any |= stealPending();
        for (NodeId n = 0; n < queues_.size(); ++n) {
            if (!queues_[n].empty()) {
                serveBatch(n);
                any = true;
            }
        }
    }
    return lastCompletion_;
}

} // namespace stramash
