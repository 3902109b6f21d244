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
 * This is the simulator's hottest loop: node contexts live in a
 * dense vector indexed by NodeId, and an L1 hit returns without ever
 * consulting another node. With private LLCs a store hit on a
 * Modified line walks no level, and a snoop round searches each
 * peer's last level once: a miss skips the peer (exact by inclusion),
 * a hit is reused by the walk (CacheHierarchy::invalidateLine).
 */

#ifndef STRAMASH_CACHE_COHERENCE_HH
#define STRAMASH_CACHE_COHERENCE_HH

#include <functional>
#include <memory>
#include <vector>

#include "stramash/cache/hierarchy.hh"
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
    /** Most nodes a domain holds: one bit each in a 32-bit mask. */
    static constexpr unsigned maxNodes = 32;

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
     * Callers may change line states or remove lines directly.
     * Installing lines must go through access()/accessLine(): a line
     * put into an inner level behind the domain's back breaks the
     * inclusion that snoop rounds rely on to skip a peer.
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
    /** Bit per registered node; snoop rounds visit peers in
     *  ascending id order. */
    std::uint32_t allNodesMask_ = 0;
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

    /** Registered nodes other than @p node, one bit each. */
    std::uint32_t
    peersOf(NodeId node) const
    {
        return allNodesMask_ & ~(std::uint32_t{1} << node);
    }

    /**
     * Apply cross-node coherence for @p node's access to a line.
     * When @p othersHold is non-null it is set to whether any other
     * node's hierarchy still holds the line after the snoop round —
     * the load-miss fill-state question (Shared vs Exclusive),
     * answered here so the miss path probes each peer exactly once.
     */
    Cycles snoopOthers(NodeId node, AccessType type, Addr lineAddr,
                       AccessResult &res, bool *othersHold = nullptr);

    void evicted(NodeId node, Addr lineAddr, bool dirty);
};

} // namespace stramash

#endif // STRAMASH_CACHE_COHERENCE_HH
