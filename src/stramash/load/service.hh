/**
 * @file
 * The production service loop for the sharded kv-store: bounded
 * ingress queues, request batching, admission control, and a
 * per-node hot-key read cache.
 *
 * Each topology node owns an ingress queue of pending requests
 * stamped with their open-loop arrival cycle. The service loop
 * drains up to batchSize requests per dispatch (amortising the
 * wakeup/drain overhead the way a real event loop amortises epoll
 * wakeups), and admission control refuses work once the queue is at
 * capacity — load is shed through the same Errc::RingFull path the
 * transport uses, instead of queueing unboundedly. Per-request
 * latency (arrival → completion, in simulated cycles) feeds a
 * Histogram, so p50/p99/p999 drop out of the existing percentile
 * machinery.
 *
 * The hot-key cache is where the two OS designs diverge (the
 * Figure-14 asymmetry restated for serving traffic):
 *
 *  - FusedKernel: an ingress node caches hot values and validates a
 *    hit with ONE coherent load of the owner shard's version line.
 *    Writes invalidate every cached copy for free — coherence does
 *    it — so a stale hit is detected by the tag compare and simply
 *    refetched. No messages, no IPI, no owner work on a hit.
 *
 *  - MultipleKernel (Popcorn): there is no coherent memory to
 *    validate against, so the owner must *push* explicit
 *    CacheInvalidate messages to every caching node on each write.
 *    Hits are cheap but every write to a cached key pays per-sharer
 *    messaging — the cost the fused design dodges.
 */

#ifndef STRAMASH_LOAD_SERVICE_HH
#define STRAMASH_LOAD_SERVICE_HH

#include <deque>
#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "stramash/workloads/sharded_kvstore.hh"

namespace stramash
{

class Scheduler;

struct ServiceConfig
{
    /** Max requests drained per dispatch. */
    std::size_t batchSize = 8;
    /** Per-node ingress queue bound; arrivals beyond it are shed. */
    std::size_t queueCapacity = 64;
    /** Enable the per-node hot-key read cache. */
    bool hotKeyCache = false;
    /** Cached entries per node (LRU beyond that). */
    std::size_t cacheEntriesPerNode = 32;
    /** When set, drain() rebalances skewed ingress queues by work
     *  stealing: an idle node pulls pending requests from the
     *  deepest queue, paying the scheduler's design-specific steal
     *  path (coherent pops when fused, a StealRequest RPC on
     *  Popcorn). */
    Scheduler *sched = nullptr;
};

/** One queued request. */
struct PendingRequest
{
    Cycles arrival;
    KvOp op;
    std::uint64_t key;
};

class KvFrontEnd
{
  public:
    KvFrontEnd(System &sys, ShardedKvStore &store,
               ServiceConfig cfg = {});
    ~KvFrontEnd();

    KvFrontEnd(const KvFrontEnd &) = delete;
    KvFrontEnd &operator=(const KvFrontEnd &) = delete;

    /**
     * Offer one request arriving at simulated cycle @p arrival to
     * @p ingress's queue. Runs the service loop far enough to know
     * the queue's occupancy at that instant, then admits or sheds.
     *
     * @return Errc::Ok if admitted, Errc::RingFull if shed.
     *
     * Arrivals must be offered in non-decreasing arrival order per
     * ingress node (the open-loop engine guarantees a globally
     * sorted timeline).
     */
    Errc inject(Cycles arrival, KvOp op, std::uint64_t key,
                NodeId ingress);

    /** Serve every queued request to completion.
     *  @return the last completion cycle seen so far. */
    Cycles drain();

    /** Completion cycle of the most recently finished request. */
    Cycles lastCompletion() const { return lastCompletion_; }

    /** Front-end counters and histograms ("load" group; also
     *  registered with the System for --stats-json export). */
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    const ServiceConfig &config() const { return cfg_; }

    /** Current depth of @p node's ingress queue. */
    std::size_t queueDepth(NodeId node) const
    {
        return queues_[node].size();
    }

    /** Number of ingress nodes (the topology's node count). */
    std::size_t nodeCount() const { return queues_.size(); }

    /** True when @p node currently caches @p key. */
    bool cachesKey(NodeId node, std::uint64_t key) const
    {
        return caches_[node].map.count(key) != 0;
    }

  private:
    struct NodeCache
    {
        struct Entry
        {
            std::uint64_t tag;
            std::list<std::uint64_t>::iterator lruPos;
        };
        /** Front = most recently used key. */
        std::list<std::uint64_t> lru;
        std::unordered_map<std::uint64_t, Entry> map;
    };

    System &sys_;
    ShardedKvStore &store_;
    ServiceConfig cfg_;
    StatGroup stats_;

    std::vector<std::deque<PendingRequest>> queues_;
    std::vector<NodeCache> caches_;
    /** key -> nodes caching it (the owner's sharer directory; the
     *  multiple-kernel design needs it to target invalidations). */
    std::unordered_map<std::uint64_t, std::set<NodeId>> sharers_;

    Cycles lastCompletion_ = 0;

    Counter &accepted_;
    Counter &shed_;
    Counter &degradedShed_;
    Counter &served_;
    Counter &batches_;
    Counter &cacheHits_;
    Counter &cacheStale_;
    Counter &cacheMisses_;
    Counter &invalidationsSent_;
    Counter &coherentInvalidations_;
    Histogram &latencyHist_;
    Histogram &queueDepthHist_;
    Histogram &batchSizeHist_;

    bool fused() const
    {
        return sys_.config().osDesign == OsDesign::FusedKernel;
    }

    Cycles nodeClock(NodeId n) const;

    /** Run batches on @p node while they start before @p horizon. */
    void pump(NodeId node, Cycles horizon);

    /** Serve one batch from @p node's queue (must be non-empty). */
    void serveBatch(NodeId node);

    /** One steal round over the ingress queues (drain() only; needs
     *  cfg_.sched). @return true when any requests moved. */
    bool stealPending();

    /** Serve one request at @p ingress; records latency. */
    void serveOne(NodeId ingress, const PendingRequest &req);

    /** @return true when served from @p ingress's hot-key cache. */
    bool tryCachedGet(NodeId ingress, std::uint64_t key);

    /** Copy the value into @p ingress's cache after a miss. */
    void refill(NodeId ingress, std::uint64_t key);

    /** Write-side cache maintenance at the shard owner. */
    void invalidateSharers(NodeId owner, std::uint64_t key);

    /** Charge a payload-sized copy in @p node's local memory. */
    void chargeLocalPayload(NodeId node, AccessType type);

    void evictIfNeeded(NodeId node);
};

} // namespace stramash

#endif // STRAMASH_LOAD_SERVICE_HH
