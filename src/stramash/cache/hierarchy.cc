#include "stramash/cache/hierarchy.hh"

#include <algorithm>

#include "stramash/common/units.hh"

namespace stramash
{

HierarchyGeometry
HierarchyGeometry::paperDefault(Addr l3Size)
{
    HierarchyGeometry g;
    g.l1i = {32_KiB, 8};
    g.l1d = {32_KiB, 8};
    g.l2 = {1_MiB, 16};
    g.l3 = {l3Size, 16};
    return g;
}

CacheHierarchy::CacheHierarchy(NodeId node, const HierarchyGeometry &geom,
                               StatGroup &stats)
    : node_(node),
      l1Hits_(stats.counter("l1_hits")),
      l1Accesses_(stats.counter("l1_accesses")),
      l2Hits_(stats.counter("l2_hits")),
      l2Accesses_(stats.counter("l2_accesses")),
      l3Hits_(stats.counter("l3_hits")),
      l3Accesses_(stats.counter("l3_accesses"))
{
    for (const CacheGeometry *g : {&geom.l1i, &geom.l1d, &geom.l2})
        levels_[numLevels_++] = std::make_unique<SetAssocCache>(*g);
    if (geom.l3.sizeBytes)
        levels_[numLevels_++] = std::make_unique<SetAssocCache>(geom.l3);
    llc_ = levels_[numLevels_ - 1].get();
}

namespace
{

void
drop(SetAssocCache::Line &l)
{
    l.setState(Mesi::Invalid);
}

} // namespace

/**
 * The one level walk: apply @p f to the line at each of the first
 * @p n private levels that hold it, skipping an L1I that has held
 * nothing since the last flush. It is const so lineState() can
 * share it; the levels are held by pointer, so @p f may change them.
 * @return the strongest state seen before @p f ran.
 */
template <typename F>
Mesi
CacheHierarchy::walk(Addr lineAddr, std::size_t n, F &&f) const
{
    Mesi strongest = Mesi::Invalid;
    for (std::size_t i = l1iLive_ ? 0 : 1; i < n; ++i) {
        if (SetAssocCache::Line *l = levels_[i]->find(lineAddr)) {
            strongest = std::max(strongest, l->state());
            f(*l);
        }
    }
    return strongest;
}

/** walk() for a snoop: a private last level is searched once, first. */
template <typename F>
Mesi
CacheHierarchy::snoopWalk(Addr lineAddr, F &&f)
{
    if (usesSharedL3())
        return walk(lineAddr, numLevels_, f);
    SetAssocCache::Line *last = llc_->find(lineAddr);
    if (!last)
        return Mesi::Invalid;
    Mesi prior = last->state();
    f(*last);
    return std::max(prior, walk(lineAddr, numLevels_ - 1, f));
}

HitLevel
CacheHierarchy::lookupFromL2(Addr lineAddr, bool instFetch,
                             VictimWays &ways, Mesi &state)
{
    ++l2Accesses_;
    if (auto *line = l2().probe(lineAddr, ways.l2)) {
        ++l2Hits_;
        state = line->state();
        l1Insert(lineAddr, state, instFetch, ways.l1);
        return HitLevel::L2;
    }
    if (llc_ == &l2()) {
        ways.llc = ways.l2;
        return HitLevel::Memory;
    }
    ++l3Accesses_;
    if (auto *line = llc_->probe(lineAddr, ways.llc)) {
        ++l3Hits_;
        state = line->state();
        l2().insert(lineAddr, state, ways.l2);
        l1Insert(lineAddr, state, instFetch, ways.l1);
        return HitLevel::L3;
    }
    return HitLevel::Memory;
}

Mesi
CacheHierarchy::lineState(Addr lineAddr) const
{
    // The strongest state across levels, which differ only under a
    // shared L3. Deliberately not the shared L3: it is not private
    // state.
    return walk(lineAddr, numLevels_, [](SetAssocCache::Line &) {});
}

bool
CacheHierarchy::holds(Addr lineAddr) const
{
    // With a shared LLC no private level is a superset: L2 victims
    // do not back-invalidate the L1s when the L2 is not the last
    // level.
    if (usesSharedL3())
        return lineState(lineAddr) != Mesi::Invalid;
    return llc_->holds(lineAddr);
}

Mesi
CacheHierarchy::setState(Addr lineAddr, Mesi state)
{
    Mesi prior = walk(lineAddr, numLevels_,
                      [&](SetAssocCache::Line &l) { l.setState(state); });
    if (usesSharedL3()) {
        if (auto *l = llc_->find(lineAddr))
            l->setState(state);
    }
    return prior;
}

Mesi
CacheHierarchy::invalidateLine(Addr lineAddr)
{
    return snoopWalk(lineAddr, drop);
}

Mesi
CacheHierarchy::invalidateInner(Addr lineAddr)
{
    std::size_t inner = numLevels_ - (usesSharedL3() ? 0 : 1);
    return walk(lineAddr, inner, drop);
}

Mesi
CacheHierarchy::downgradeLine(Addr lineAddr)
{
    return snoopWalk(lineAddr, [](SetAssocCache::Line &l) {
        if (l.state() == Mesi::Modified || l.state() == Mesi::Exclusive)
            l.setState(Mesi::Shared);
    });
}

void
CacheHierarchy::flushAll()
{
    for (std::size_t i = 0; i < numLevels_; ++i)
        levels_[i]->flushAll();
    l1iLive_ = false;
}

} // namespace stramash
