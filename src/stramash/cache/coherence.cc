#include "stramash/cache/coherence.hh"

#include <bit>

#include "stramash/trace/trace.hh"

namespace stramash
{

CoherenceDomain::CoherenceDomain(const PhysMap &map, SnoopCosts snoopCosts,
                                 const CacheGeometry *sharedLlc)
    : map_(map), snoopCosts_(snoopCosts)
{
    if (sharedLlc)
        sharedLlc_ = std::make_unique<SetAssocCache>(*sharedLlc);
}

void
CoherenceDomain::addNode(NodeId node, const HierarchyGeometry &geom,
                         const LatencyProfile &profile)
{
    panic_if(node >= maxNodes, "coherence domain supports NodeIds below ",
             maxNodes, ", got ", node);
    if (node >= nodes_.size())
        nodes_.resize(node + 1);
    panic_if(nodes_[node].registered(), "node ", node,
             " already registered");
    NodeCtx &nc = nodes_[node];
    nc.stats = std::make_unique<StatGroup>(
        std::string("cache.node") + std::to_string(node));
    HierarchyGeometry g = geom;
    if (sharedLlc_) {
        // Private L3 is replaced by the shared LLC.
        g.l3.sizeBytes = 0;
    }
    nc.hier = std::make_unique<CacheHierarchy>(node, g, *nc.stats);
    if (sharedLlc_)
        nc.hier->attachSharedL3(sharedLlc_.get());
    nc.profile = profile;
    nc.localMemHits = &nc.stats->counter("local_mem_hits");
    nc.remoteMemHits = &nc.stats->counter("remote_mem_hits");
    nc.remoteSharedMemHits = &nc.stats->counter("remote_shared_mem_hits");
    nc.memAccesses = &nc.stats->counter("mem_accesses");
    nc.snoopInvalidates = &nc.stats->counter("snoop_invalidates");
    nc.snoopDatas = &nc.stats->counter("snoop_datas");
    nc.writebacks = &nc.stats->counter("writebacks");
    nc.backInvalidates = &nc.stats->counter("back_invalidates");
    allNodesMask_ |= std::uint32_t{1} << node;
}

StatGroup &
CoherenceDomain::nodeStats(NodeId node)
{
    return *ctx(node).stats;
}

CacheHierarchy &
CoherenceDomain::hierarchy(NodeId node)
{
    return *ctx(node).hier;
}

void
CoherenceDomain::flushAll()
{
    for (NodeCtx &nc : nodes_) {
        if (nc.registered())
            nc.hier->flushAll();
    }
    if (sharedLlc_)
        sharedLlc_->flushAll();
}

void
CoherenceDomain::evicted(NodeId node, Addr lineAddr, bool dirty)
{
    if (!dirty)
        return;
    ++*ctx(node).writebacks;
    if (tracer_) {
        tracer_->instant(TraceCategory::Coherence, "coh.writeback",
                         node, 0, lineAddr);
    }
    if (hook_) {
        hook_(node, lineAddr);
        ++hookRuns_;
    }
}

Cycles
CoherenceDomain::snoopOthers(NodeId node, AccessType type, Addr lineAddr,
                             AccessResult &res, bool *othersHold)
{
    if (othersHold)
        *othersHold = false;
    Cycles extra = 0;
    NodeCtx &self = nodes_[node];
    std::uint32_t peers = peersOf(node);
    while (peers) {
        auto otherId = static_cast<NodeId>(std::countr_zero(peers));
        peers &= peers - 1;
        CacheHierarchy &other = *nodes_[otherId].hier;
        // Snoop Invalidate: all other holders drop the line (paper
        // §7.3). A read keeps the holder's copy, downgraded M/E -> S.
        Mesi prior = type == AccessType::Store
                         ? other.invalidateLine(lineAddr)
                         : other.downgradeLine(lineAddr);
        if (prior == Mesi::Invalid)
            continue;
        // Read snoops never remove the line from the holder (a
        // downgrade keeps it Shared), so for loads "held before the
        // snoop" is exactly "held after" — the fill-state answer.
        if (othersHold)
            *othersHold = true;
        if (type == AccessType::Store) {
            evicted(otherId, lineAddr, prior == Mesi::Modified);
            extra += snoopCosts_.snoopInvalidate;
            res.snoopInvalidate = true;
            ++*self.snoopInvalidates;
            if (tracer_) {
                tracer_->instant(TraceCategory::Coherence,
                                 "coh.snoop_invalidate", node, 0,
                                 lineAddr, otherId);
            }
        } else if (prior == Mesi::Modified || prior == Mesi::Exclusive) {
            // Read: only costs a snoop if the holder had it dirty
            // (Snoop Data, M/E -> S transition).
            extra += snoopCosts_.snoopData;
            res.snoopData = true;
            ++*self.snoopDatas;
            if (tracer_) {
                tracer_->instant(TraceCategory::Coherence,
                                 "coh.snoop_data", node, 0, lineAddr,
                                 otherId);
            }
        }
    }
    return extra;
}

AccessResult
CoherenceDomain::accessLine(NodeId node, AccessType type, Addr addr)
{
    NodeCtx &nc = ctx(node);
    CacheHierarchy &hier = *nc.hier;
    Addr lineAddr = lineBase(addr);
    bool inst = type == AccessType::InstFetch;
    // Hit fast path: no memory classification, and for a load or
    // fetch no coherence action and no other node touched. A store
    // hit takes the line Modified. A line hit Modified is Modified at
    // every private level already, so nothing changes, except after a
    // shared LLC promoted its one shared state inward. Upgrade: a
    // line this node does not own exclusively needs every other
    // holder invalidated.
    CacheHierarchy::VictimWays ways;
    AccessResult res;
    Mesi hit;
    if (SetAssocCache::Line *l1 = hier.probeL1(lineAddr, inst, ways)) {
        res.level = HitLevel::L1;
        hit = l1->state();
    } else {
        res.level = hier.lookupFromL2(lineAddr, inst, ways, hit);
    }
    if (res.level != HitLevel::Memory) {
        res.latency =
            nc.profile.levelLatency(static_cast<int>(res.level));
        if (type == AccessType::Store &&
            (hit != Mesi::Modified ||
             (sharedLlc_ && res.level != HitLevel::L1))) {
            Mesi prior = hier.setState(lineAddr, Mesi::Modified);
            if (prior != Mesi::Modified && prior != Mesi::Exclusive)
                res.latency += snoopOthers(node, type, lineAddr, res);
        }
        return res;
    }

    // Full miss: coherence first, then memory. The write-back hook
    // runs code outside the cache model (a DSM write-back can stall a
    // node into a scheduled crash and its recovery), so the probes'
    // victim ways do not survive it.
    const std::uint64_t hookRuns = hookRuns_;
    auto dropWaysIfHookRan = [&] {
        if (hookRuns_ != hookRuns)
            ways = {};
    };
    bool othersHold = false;
    res.latency += snoopOthers(node, type, lineAddr, res, &othersHold);
    dropWaysIfHookRan();

    res.memClass = map_.classify(addr, node);
    ++*nc.memAccesses;
    switch (res.memClass) {
      case MemoryClass::Local:
        res.latency += nc.profile.mem;
        ++*nc.localMemHits;
        break;
      case MemoryClass::Remote:
        res.latency += nc.profile.remoteMem;
        ++*nc.remoteMemHits;
        break;
      case MemoryClass::SharedPool:
        res.latency += nc.profile.remoteMem;
        ++*nc.remoteSharedMemHits;
        break;
    }

    // Decide the fill state. A load installs Exclusive when no other
    // node holds the line (answered by the snoop round above),
    // Shared otherwise; a store installs Modified (others were
    // invalidated above).
    Mesi fillState = Mesi::Modified;
    if (type != AccessType::Store)
        fillState = othersHold ? Mesi::Shared : Mesi::Exclusive;

    hier.fill(lineAddr, fillState, inst, ways,
              [&](Addr victim, bool dirty) {
        evicted(node, victim, dirty);
        if (sharedLlc_) {
            // A shared-LLC eviction removes the line from every
            // node's private levels to preserve inclusion — a
            // Back-Invalidate Snoop in CXL terms (§7.3), charged to
            // the access that caused the eviction.
            std::uint32_t peers = peersOf(node);
            while (peers) {
                auto otherId =
                    static_cast<NodeId>(std::countr_zero(peers));
                peers &= peers - 1;
                Mesi prior = nodes_[otherId].hier->invalidateLine(victim);
                if (prior == Mesi::Invalid)
                    continue;
                evicted(otherId, victim, prior == Mesi::Modified);
                res.latency += SnoopCosts::backInvalidate;
                ++*nc.backInvalidates;
            }
        }
        dropWaysIfHookRan();
    });
    return res;
}

AccessResult
CoherenceDomain::access(NodeId node, AccessType type, Addr addr,
                        unsigned size)
{
    panic_if(size == 0, "zero-size access");
    Addr first = lineBase(addr);
    Addr last = lineBase(addr + size - 1);
    if (first == last)
        return accessLine(node, type, first);
    AccessResult total;
    for (Addr line = first; line <= last; line += cacheLineSize) {
        AccessResult r = accessLine(node, type, line);
        total.latency += r.latency;
        total.level = r.level; // last line's level
        total.memClass = r.memClass;
        total.snoopInvalidate |= r.snoopInvalidate;
        total.snoopData |= r.snoopData;
    }
    return total;
}

} // namespace stramash
