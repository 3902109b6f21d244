/**
 * @file
 * The cross-node MESI coherence domain with CXL snoop-cost feedback
 * (paper §7.1, §7.3, §8.1).
 *
 * The domain owns one CacheHierarchy per node plus, in the
 * FullyShared model, a single shared last-level cache. Every memory
 * access in the simulation funnels through CoherenceDomain::access(),
 * which:
 *
 *   1. looks the line up in the accessor's hierarchy,
 *   2. performs any required cross-node coherence action
 *      (Snoop Invalidate on writes, Snoop Data on reads of a line
 *       another node holds dirty), adding the CXL snoop costs,
 *   3. on a miss, charges the local / remote / shared-pool memory
 *      latency from the accessor's LatencyProfile (Table 2), and
 *   4. returns the total latency, which the caller adds to the
 *      node's icount-based timebase.
 *
 * This is the simulator's hottest loop, so it is built as a
 * directory-filtered fast path rather than a broadcast protocol:
 * node contexts live in a dense vector indexed by NodeId, an L1 hit
 * returns without ever consulting another node, and cross-node
 * actions consult a SnoopFilter directory so only nodes whose
 * presence bit is set get their hierarchy probed. Broadcast probing
 * (the pre-directory behaviour) is kept behind setBroadcastMode()
 * as the reference for differential testing; both modes must produce
 * byte-identical AccessResults and statistics.
 */

#ifndef STRAMASH_CACHE_COHERENCE_HH
#define STRAMASH_CACHE_COHERENCE_HH

#include <functional>
#include <memory>
#include <vector>

#include "stramash/cache/hierarchy.hh"
#include "stramash/cache/snoop_filter.hh"
#include "stramash/common/stats.hh"
#include "stramash/mem/latency_profile.hh"
#include "stramash/mem/phys_map.hh"

namespace stramash
{

class Tracer;

/** Timing and classification of one line access. */
struct AccessResult
{
    Cycles latency = 0;
    HitLevel level = HitLevel::Memory;
    MemoryClass memClass = MemoryClass::Local;
    bool snoopInvalidate = false;
    bool snoopData = false;
};

/** Fired when a dirty line leaves a node (LLC writeback). */
using WritebackHook = std::function<void(NodeId, Addr)>;

class CoherenceDomain
{
  public:
    /**
     * @param map        the physical memory layout and model
     * @param snoopCosts CXL coherence action costs
     * @param sharedLlc  geometry for a single shared L3 (FullyShared
     *                   model); nullptr for private LLCs
     */
    CoherenceDomain(const PhysMap &map, SnoopCosts snoopCosts,
                    const CacheGeometry *sharedLlc = nullptr);

    /** Register a node's hierarchy and latency table. */
    void addNode(NodeId node, const HierarchyGeometry &geom,
                 const LatencyProfile &profile);

    /** Access possibly spanning cache lines; latencies accumulate. */
    AccessResult access(NodeId node, AccessType type, Addr addr,
                        unsigned size);

    /** Single-line access (addr need not be aligned). */
    AccessResult accessLine(NodeId node, AccessType type, Addr addr);

    /** Per-node statistics (cache hits, memory hits, snoops). */
    StatGroup &nodeStats(NodeId node);

    /**
     * The node's hierarchy, for tests and the Ruby comparison.
     * Callers may *remove* lines directly (the snoop-filter directory
     * stays a conservative superset); installing lines behind the
     * domain's back would break filtering and must go through
     * access()/accessLine().
     */
    CacheHierarchy &hierarchy(NodeId node);

    /** Register a writeback observer (DSM consistency interplay). */
    void setWritebackHook(WritebackHook hook) { hook_ = std::move(hook); }

    /** Attach the machine's tracer: writebacks and cross-node snoop
     *  actions become `coherence`-category events. */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** Invalidate every cache in the domain. */
    void flushAll();

    const PhysMap &physMap() const { return map_; }
    const SnoopCosts &snoopCosts() const { return snoopCosts_; }

    /** True when one shared LLC serves all nodes. */
    bool hasSharedLlc() const { return sharedLlc_ != nullptr; }

    /**
     * Broadcast mode disables the snoop-filter directory and probes
     * every other node's hierarchy on each coherence action — the
     * pre-directory reference behaviour. Timing, AccessResults and
     * statistics must be identical in both modes; only simulator
     * wall-clock differs (see bench_throughput).
     */
    void setBroadcastMode(bool broadcast) { broadcast_ = broadcast; }
    bool broadcastMode() const { return broadcast_; }

    /** The sharer-presence directory, exposed for invariant tests. */
    const SnoopFilter &snoopFilter() const { return filter_; }

  private:
    struct NodeCtx
    {
        std::unique_ptr<StatGroup> stats;
        std::unique_ptr<CacheHierarchy> hier;
        LatencyProfile profile;
        Counter *localMemHits = nullptr;
        Counter *remoteMemHits = nullptr;
        Counter *remoteSharedMemHits = nullptr;
        Counter *memAccesses = nullptr;
        Counter *snoopInvalidates = nullptr;
        Counter *snoopDatas = nullptr;
        Counter *writebacks = nullptr;
        Counter *backInvalidates = nullptr;

        bool registered() const { return hier != nullptr; }
    };

    const PhysMap &map_;
    SnoopCosts snoopCosts_;
    std::unique_ptr<SetAssocCache> sharedLlc_;
    /** Dense, indexed by NodeId; unregistered slots have no hier. */
    std::vector<NodeCtx> nodes_;
    /** Registered node ids, ascending (broadcast iteration order). */
    std::vector<NodeId> nodeIds_;
    /** Bit per registered node. */
    std::uint32_t allNodesMask_ = 0;
    SnoopFilter filter_;
    bool broadcast_ = false;
    WritebackHook hook_;
    /** Times hook_ ran: an access compares it across its callouts. */
    std::uint64_t hookRuns_ = 0;
    Tracer *tracer_ = nullptr;

    NodeCtx &
    ctx(NodeId node)
    {
        panic_if(node >= nodes_.size() || !nodes_[node].registered(),
                 "unknown node ", node,
                 " (never registered with addNode)");
        return nodes_[node];
    }

    /** Nodes other than @p node that may hold @p lineAddr. */
    std::uint32_t
    snoopCandidates(NodeId node, Addr lineAddr) const
    {
        std::uint32_t mask = broadcast_
                                 ? allNodesMask_
                                 : filter_.sharers(lineAddr);
        return mask & ~(std::uint32_t{1} << node);
    }

    /**
     * Apply cross-node coherence for @p node's access to a line.
     * When @p othersHold is non-null it is set to whether any other
     * node's hierarchy still holds the line after the snoop round —
     * the load-miss fill-state question (Shared vs Exclusive),
     * answered here so the miss path consults the directory and each
     * candidate hierarchy exactly once.
     */
    Cycles snoopOthers(NodeId node, AccessType type, Addr lineAddr,
                       AccessResult &res, bool *othersHold = nullptr);

    void evicted(NodeId node, Addr lineAddr, bool dirty);
};

} // namespace stramash

#endif // STRAMASH_CACHE_COHERENCE_HH
