#include "stramash/cache/coherence.hh"

#include <algorithm>
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
    panic_if(node >= SnoopFilter::maxNodes,
             "coherence domain supports NodeIds below ",
             SnoopFilter::maxNodes, ", got ", node);
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
    nodeIds_.insert(
        std::upper_bound(nodeIds_.begin(), nodeIds_.end(), node),
        node);
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
    for (NodeId id : nodeIds_)
        nodes_[id].hier->flushAll();
    if (sharedLlc_)
        sharedLlc_->flushAll();
    // Every presence bit went stale-present; drop them all rather
    // than letting the next accesses probe emptied hierarchies.
    filter_.clear();
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
    if (hook_)
        hook_(node, lineAddr);
}

Cycles
CoherenceDomain::snoopOthers(NodeId node, AccessType type, Addr lineAddr,
                             AccessResult &res, bool *othersHold)
{
    if (othersHold)
        *othersHold = false;
    std::uint32_t candidates = snoopCandidates(node, lineAddr);
    if (!candidates)
        return 0; // private-data common case: nobody to probe
    Cycles extra = 0;
    NodeCtx &self = nodes_[node];
    while (candidates) {
        auto otherId =
            static_cast<NodeId>(std::countr_zero(candidates));
        candidates &= candidates - 1;
        CacheHierarchy &other = *nodes_[otherId].hier;
        if (!other.holds(lineAddr)) {
            // Directory false positive (an aliased line, or a copy
            // that left silently): just skip. No "repair" — the
            // filter's counters are shared between aliasing lines,
            // so an unpaired decrement could hide a real holder.
            continue;
        }
        // Read snoops never remove the line from the holder (a
        // downgrade keeps it Shared), so for loads "held before the
        // snoop" is exactly "held after" — the fill-state answer.
        if (othersHold)
            *othersHold = true;
        if (type == AccessType::Store) {
            // Snoop Invalidate: all other holders drop the line
            // (paper §7.3).
            bool dirty = other.invalidateLine(lineAddr);
            filter_.removeSharer(lineAddr, otherId);
            evicted(otherId, lineAddr, dirty);
            extra += snoopCosts_.snoopInvalidate;
            res.snoopInvalidate = true;
            ++*self.snoopInvalidates;
            if (tracer_) {
                tracer_->instant(TraceCategory::Coherence,
                                 "coh.snoop_invalidate", node, 0,
                                 lineAddr, otherId);
            }
        } else {
            // Read: only costs a snoop if the holder has it dirty
            // (Snoop Data, M/E -> S transition).
            Mesi state = other.lineState(lineAddr);
            if (state == Mesi::Modified || state == Mesi::Exclusive) {
                other.downgradeLine(lineAddr);
                extra += snoopCosts_.snoopData;
                res.snoopData = true;
                ++*self.snoopDatas;
                if (tracer_) {
                    tracer_->instant(TraceCategory::Coherence,
                                     "coh.snoop_data", node, 0,
                                     lineAddr, otherId);
                }
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

    // L1-hit fast path: loads and fetches need no coherence action
    // and no memory classification, and a store that already owns
    // the line Modified needs nothing either — return before any
    // cross-node structure is touched.
    if (SetAssocCache::Line *l1 = hier.probeL1(lineAddr, inst)) {
        AccessResult res;
        res.level = HitLevel::L1;
        res.latency = nc.profile.l1;
        if (type == AccessType::Store && l1->state != Mesi::Modified) {
            Mesi state = hier.lineState(lineAddr);
            if (state != Mesi::Modified && state != Mesi::Exclusive) {
                // Upgrade: invalidate any other holder first.
                res.latency += snoopOthers(node, type, lineAddr, res);
            }
            hier.setState(lineAddr, Mesi::Modified);
        }
        return res;
    }

    AccessResult res;
    res.level = hier.lookupFromL2(lineAddr, inst);

    // A shared-LLC hit promotes the line into this node's private
    // levels without a fill() — for the directory that is a private
    // install, so the presence bit must be set here or a later store
    // by another node would miss this copy.
    if (res.level == HitLevel::L3 && hier.usesSharedL3())
        filter_.addSharer(lineAddr, node);

    if (res.level != HitLevel::Memory) {
        res.latency =
            nc.profile.levelLatency(static_cast<int>(res.level));
        if (type == AccessType::Store) {
            Mesi state = hier.lineState(lineAddr);
            if (state != Mesi::Modified && state != Mesi::Exclusive) {
                // Upgrade: invalidate any other holder first.
                res.latency += snoopOthers(node, type, lineAddr, res);
            }
            hier.setState(lineAddr, Mesi::Modified);
        }
        return res;
    }

    // Full miss: coherence first, then memory.
    bool othersHold = false;
    res.latency += snoopOthers(node, type, lineAddr, res, &othersHold);

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

    hier.fill(lineAddr, fillState, inst,
              [&](Addr victim, bool dirty, bool hadInner) {
        // With a private LLC the victim always leaves this node; with
        // a shared LLC it only leaves *this* node's private hierarchy
        // if an inner level still held it — decrementing otherwise
        // would unpair the presence count (and could hide an aliased
        // real holder).
        if (!sharedLlc_ || hadInner)
            filter_.removeSharer(victim, node);
        evicted(node, victim, dirty);
        if (sharedLlc_) {
            // A shared-LLC eviction removes the line from every
            // node's private levels to preserve inclusion — a
            // Back-Invalidate Snoop in CXL terms (§7.3), charged to
            // the access that caused the eviction.
            std::uint32_t cands = snoopCandidates(node, victim);
            while (cands) {
                auto otherId =
                    static_cast<NodeId>(std::countr_zero(cands));
                cands &= cands - 1;
                CacheHierarchy &other = *nodes_[otherId].hier;
                if (!other.holds(victim))
                    continue; // false positive: no repair (aliasing)
                bool d = other.invalidateLine(victim);
                filter_.removeSharer(victim, otherId);
                evicted(otherId, victim, d);
                res.latency += snoopCosts_.backInvalidate;
                ++*nc.backInvalidates;
            }
        }
    });
    filter_.addSharer(lineAddr, node);
    return res;
}

AccessResult
CoherenceDomain::access(NodeId node, AccessType type, Addr addr,
                        unsigned size)
{
    panic_if(size == 0, "zero-size access");
    AccessResult total;
    Addr first = lineBase(addr);
    Addr last = lineBase(addr + size - 1);
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
