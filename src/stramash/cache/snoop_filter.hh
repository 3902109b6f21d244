/**
 * @file
 * A sharer-presence snoop filter: a directory answering "which nodes'
 * *private* hierarchies may hold this cache line" in O(1), so
 * CoherenceDomain probes only candidate nodes instead of broadcasting
 * to every hierarchy on each coherence-relevant access.
 *
 * The filter is purely a simulator-performance structure — it changes
 * *who we probe*, never the modelled CXL snoop costs — so enabling it
 * must be timing- and stats-invisible (tests/cache/test_snoop_filter.cc
 * replays identical traces through filtered and broadcast domains).
 *
 * Correctness invariant: the reported sharer set is a *superset* of
 * the nodes actually holding the line. A false positive only costs an
 * extra probe (the prober still checks holds()); a false negative
 * would suppress a required snoop and silently corrupt the
 * simulation.
 *
 * Representation: one saturating 8-bit presence counter per
 * (line-number slot, node), indexed by the line number directly
 * (lineAddr >> 6, masked). This is deliberately *lossy* — lines a
 * multiple of the table size apart share a counter — because the
 * superset invariant absorbs aliasing as conservative false
 * positives. What the lossy form buys over an exact line -> bitmask
 * hash table (the first implementation of this directory) is
 * hot-loop mechanical sympathy:
 *
 *   - identity indexing gives streaming workloads *sequential*
 *     directory traffic the host prefetcher can cover, where a hashed
 *     table turns every lookup into a random DRAM access;
 *   - the footprint is fixed and small (2 MiB per node by default, 64
 *     lines' presence per host cache line), so the directory stays
 *     host-LLC resident instead of growing with every line the
 *     workload has ever touched;
 *   - there is no rehash churn: a counter array never grows, and
 *     fully-removed entries need no tombstone purge.
 *
 * Maintenance contract (what keeps the superset exact rather than
 * merely safe): call addSharer exactly when a line *enters* a node's
 * private hierarchy (a fill, or a promotion out of a shared LLC) and
 * removeSharer only when a line verified to be resident *leaves* it
 * (snoop invalidation, LLC eviction, back-invalidation). Never
 * "repair" a suspected-stale positive: with shared counters an
 * unpaired decrement could zero an aliased line's count — the
 * corrupting false negative. Counters saturate sticky at 255 for the
 * same reason: once the count is no longer exact, only clear() may
 * drop it.
 */

#ifndef STRAMASH_CACHE_SNOOP_FILTER_HH
#define STRAMASH_CACHE_SNOOP_FILTER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "stramash/common/logging.hh"
#include "stramash/common/types.hh"

namespace stramash
{

class SnoopFilter
{
  public:
    /** Most nodes the directory can track. */
    static constexpr unsigned maxNodes = 32;

    /**
     * @param slotsPerNode presence counters per node; rounded up to a
     *        power of two. Lines slotsPerNode * 64 bytes apart alias
     *        (conservatively). The default covers 128 MiB of distinct
     *        lines in 2 MiB per node.
     */
    explicit SnoopFilter(std::size_t slotsPerNode = std::size_t{1} << 21);

    /** Bitmask of nodes that may hold @p lineAddr privately. */
    std::uint32_t
    sharers(Addr lineAddr) const
    {
        std::size_t i = index(lineAddr);
        std::uint32_t mask = 0;
        for (const NodeCounts &nc : active_)
            mask |= std::uint32_t{nc.counts[i] != 0} << nc.node;
        return mask;
    }

    /** Record that @p lineAddr entered @p node's private hierarchy. */
    void addSharer(Addr lineAddr, NodeId node);

    /**
     * Record that @p lineAddr left @p node's private hierarchy. Only
     * call for a residency that addSharer recorded (see the
     * maintenance contract above); removing for a node with no
     * recorded presence is a harmless no-op.
     */
    void
    removeSharer(Addr lineAddr, NodeId node)
    {
        std::uint8_t *counts =
            node < maxNodes ? byNode_[node] : nullptr;
        if (!counts)
            return;
        std::uint8_t &c = counts[index(lineAddr)];
        if (c != 0 && c != 255) // saturated counters stay sticky
            --c;
    }

    /** Forget everything (e.g. on CoherenceDomain::flushAll). */
    void clear();

    /** Slots with at least one node's presence recorded. */
    std::size_t entryCount() const;

    /** Presence slots per node. */
    std::size_t capacity() const { return slotMask_ + 1; }

  private:
    struct NodeCounts
    {
        NodeId node;
        std::uint8_t *counts;
    };

    std::size_t slotMask_;
    /** Registered nodes' counter arrays, in first-use order. */
    std::vector<NodeCounts> active_;
    /** The same arrays indexed by NodeId; null until first use. */
    std::array<std::uint8_t *, maxNodes> byNode_{};
    /** Owns the counter storage. */
    std::vector<std::vector<std::uint8_t>> storage_;

    std::size_t
    index(Addr lineAddr) const
    {
        return static_cast<std::size_t>(lineAddr >> 6) & slotMask_;
    }
};

} // namespace stramash

#endif // STRAMASH_CACHE_SNOOP_FILTER_HH
