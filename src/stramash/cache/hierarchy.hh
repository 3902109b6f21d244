/**
 * @file
 * A node's private cache hierarchy: split L1 (I/D), unified L2 and an
 * optional unified L3. Mirrors the extended QEMU Cache plugin of
 * paper §7 ("we have extended the current QEMU Cache plugin to
 * support a 3-level cache and CXL").
 *
 * Inclusion policy: fills install in every level; an L3 (last-level)
 * eviction back-invalidates the inner levels, so the last level is a
 * superset of the inner ones. That makes the last level the single
 * point of truth for cross-node coherence queries. It also holds the
 * line in the same MESI state as every inner level (fills, promotions
 * and state changes write one state to every level that holds it);
 * a shared L3 does not, since its one state is promoted into every
 * reader's private levels.
 */

#ifndef STRAMASH_CACHE_HIERARCHY_HH
#define STRAMASH_CACHE_HIERARCHY_HH

#include <array>
#include <memory>
#include <type_traits>
#include <utility>

#include "stramash/cache/cache.hh"
#include "stramash/common/stats.hh"
#include "stramash/common/types.hh"

namespace stramash
{

/** Geometry of a whole node hierarchy. */
struct HierarchyGeometry
{
    CacheGeometry l1i;
    CacheGeometry l1d;
    CacheGeometry l2;
    /** sizeBytes == 0 means the node has no private L3. */
    CacheGeometry l3;

    /**
     * The evaluation's default shape: 32 KiB 8-way L1s, 1 MiB 16-way
     * L2, and an L3 of the given size (4 MiB in Fig. 9, 32 MiB in
     * Fig. 10), 16-way.
     */
    static HierarchyGeometry paperDefault(Addr l3Size);
};

/** Where an access was satisfied. */
enum class HitLevel : std::uint8_t {
    L1 = 1,
    L2 = 2,
    L3 = 3,
    Memory = 4,
};

/**
 * One node's private hierarchy. Coherence actions across nodes are
 * orchestrated by CoherenceDomain; the hierarchy only answers
 * queries and applies state changes.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(NodeId node, const HierarchyGeometry &geom,
                   StatGroup &stats);

    NodeId node() const { return node_; }

    /**
     * The way each level's missed probe picked to replace for the
     * line being looked up: the L1 the access used, the L2 and the
     * last level. fill() and promotions install there without a
     * second scan. SetAssocCache::anyWay makes them scan, and any
     * change to the hierarchy between the probes and the install
     * must reset the ways to that. A promotion's inner victim is
     * dropped: an outer copy already has its state (file comment).
     */
    struct VictimWays
    {
        unsigned l1 = SetAssocCache::anyWay;
        unsigned l2 = SetAssocCache::anyWay;
        unsigned llc = SetAssocCache::anyWay;
    };

    /**
     * Probe for a line; refreshes LRU at the level that hits.
     * @return the innermost level holding the line, or Memory.
     */
    HitLevel
    lookup(Addr lineAddr, bool instFetch)
    {
        VictimWays ways;
        Mesi state;
        if (probeL1(lineAddr, instFetch, ways))
            return HitLevel::L1;
        return lookupFromL2(lineAddr, instFetch, ways, state);
    }

    /**
     * L1-only probe (the hot-loop fast path): tallies the L1 access
     * and hit counters exactly like lookup() and refreshes LRU, but
     * touches no outer level. On a miss @p ways.l1 gets the L1 way a
     * fill would replace.
     * @return the L1 line on a hit, nullptr on an L1 miss.
     */
    SetAssocCache::Line *
    probeL1(Addr lineAddr, bool instFetch, VictimWays &ways)
    {
        ++l1Accesses_;
        SetAssocCache::Line *l = l1(instFetch).probe(lineAddr, ways.l1);
        if (l)
            ++l1Hits_;
        return l;
    }

    /**
     * Continue a lookup that already missed L1 (after probeL1):
     * probes L2 and the LLC, promoting a hit inward at the carried
     * ways. On a hit @p state gets the hit line's state; on a full
     * miss @p ways holds every level's victim way.
     */
    HitLevel lookupFromL2(Addr lineAddr, bool instFetch,
                          VictimWays &ways, Mesi &state);

    /** State of the line as seen by this node (strongest level). */
    Mesi lineState(Addr lineAddr) const;

    /** True if any private level holds the line: one search of a
     *  private last level, every level under a shared LLC. */
    bool holds(Addr lineAddr) const;

    /**
     * Install a line in every level in @p state, at the victim ways
     * of @p ways (see VictimWays).
     * Evicted victims are reported through @p onEvict (line address,
     * dirty) — only last-level victims are reported, since those are
     * the ones leaving the node entirely.
     *
     * @p onEvict is any callable `(Addr, bool)`, or nullptr.
     * If it may change this hierarchy, it must reset @p ways.
     * Taking it as a template parameter keeps the per-fill cost at a
     * direct (inlinable) call — the hot loop fills on every miss, and
     * wrapping its capturing lambda in a std::function would
     * heap-allocate each time.
     */
    template <typename OnEvict>
    void
    fill(Addr lineAddr, Mesi state, bool instFetch, VictimWays &ways,
         OnEvict &&onEvict)
    {
        // Fill outside-in so inclusion is never violated mid-fill. The
        // LLC victim leaves the node, so its inner copies go too; a
        // shared LLC victim may also be held by other nodes, which
        // the domain's eviction hook handles.
        if (auto v = llc_->insert(lineAddr, state, ways.llc)) {
            Mesi inner = invalidateInner(v->lineAddr);
            // Dropping an inner copy frees a way the inner probes
            // did not see.
            if (inner != Mesi::Invalid)
                ways = {};
            if constexpr (!std::is_null_pointer_v<
                              std::decay_t<OnEvict>>) {
                onEvict(v->lineAddr, v->dirty || inner == Mesi::Modified);
            }
        }
        if (llc_ != &l2())
            l2().insert(lineAddr, state, ways.l2);
        l1Insert(lineAddr, state, instFetch, ways.l1);
    }

    /** fill() with no carried ways: every level scans. */
    template <typename OnEvict>
    void
    fill(Addr lineAddr, Mesi state, bool instFetch, OnEvict &&onEvict)
    {
        VictimWays ways;
        fill(lineAddr, state, instFetch, ways,
             std::forward<OnEvict>(onEvict));
    }

    /**
     * Set the line's MESI state at every level holding it.
     * @return the strongest prior private state.
     */
    Mesi setState(Addr lineAddr, Mesi state);

    /**
     * Invalidate the line everywhere; a private last level is searched
     * first, and a miss there ends the walk (it is a snoop's only
     * membership check).
     * @return the strongest prior state.
     */
    Mesi invalidateLine(Addr lineAddr);

    /**
     * Downgrade M/E to S (remote read snoop), walking as above.
     * @return the strongest prior state.
     */
    Mesi downgradeLine(Addr lineAddr);

    /** Invalidate the whole hierarchy. */
    void flushAll();

    bool hasL3() const { return numLevels_ > 3; }

    /** Read-only: installs go through fill() and promotions, which
     *  track whether the L1I has gone live. */
    const SetAssocCache &l1i() const { return *levels_[0]; }
    SetAssocCache &l1d() { return *levels_[1]; }
    SetAssocCache &l2() { return *levels_[2]; }
    SetAssocCache *l3() { return hasL3() ? levels_[3].get() : nullptr; }

    /**
     * Attach a shared last-level cache (FullyShared model). The
     * shared L3 is owned by the CoherenceDomain and shared between
     * hierarchies.
     */
    void attachSharedL3(SetAssocCache *shared) { llc_ = shared; }
    bool
    usesSharedL3() const
    {
        return llc_ != levels_[numLevels_ - 1].get();
    }

  private:
    SetAssocCache &l1(bool instFetch) { return *levels_[instFetch ? 0 : 1]; }

    /** Install into the access's L1, noting when the L1I goes live. */
    void
    l1Insert(Addr lineAddr, Mesi state, bool instFetch, unsigned way)
    {
        l1iLive_ |= instFetch;
        l1(instFetch).insert(lineAddr, state, way);
    }

    /**
     * Invalidate the line in the private levels inside the LLC (all
     * of them under a shared L3). @return the strongest prior state.
     */
    Mesi invalidateInner(Addr lineAddr);

    template <typename F>
    Mesi walk(Addr lineAddr, std::size_t n, F &&f) const;
    template <typename F>
    Mesi snoopWalk(Addr lineAddr, F &&f);

    NodeId node_;
    /** Private levels, innermost first: L1I, L1D, L2, optional L3. */
    std::array<std::unique_ptr<SetAssocCache>, 4> levels_;
    std::size_t numLevels_ = 0;
    /** Last level: the shared L3, the private L3, or the L2. */
    SetAssocCache *llc_;
    /**
     * False while the L1I has held nothing since construction or the
     * last flushAll(); walks skip it then, since it is empty.
     */
    bool l1iLive_ = false;

    Counter &l1Hits_;
    Counter &l1Accesses_;
    Counter &l2Hits_;
    Counter &l2Accesses_;
    Counter &l3Hits_;
    Counter &l3Accesses_;
};

} // namespace stramash

#endif // STRAMASH_CACHE_HIERARCHY_HH
