/**
 * @file
 * A set-associative cache with per-line MESI state and LRU
 * replacement. This is the building block of the Stramash-QEMU
 * Cache-plugin model (paper §7.3): purely a tag store, no data —
 * data lives in the fused GuestMemory.
 */

#ifndef STRAMASH_CACHE_CACHE_HH
#define STRAMASH_CACHE_CACHE_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "stramash/common/logging.hh"
#include "stramash/common/types.hh"

namespace stramash
{

/** MESI coherence state of a cached line. */
enum class Mesi : std::uint8_t {
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

const char *mesiName(Mesi m);

/**
 * Static shape of one cache of cacheLineSize-byte lines.
 * SetAssocCache requires sizeBytes and ways to be powers of two — set
 * indexing is pure mask/shift work, and a non-power-of-two shape
 * would silently alias sets. The constructor validates this loudly.
 */
struct CacheGeometry
{
    Addr sizeBytes;
    unsigned ways;

    Addr
    numSets() const
    {
        return sizeBytes / (cacheLineSize * ways);
    }
};

/**
 * Tag store for one cache level. Each way is one 64-bit word holding
 * (line number << 2) | MESI state. Replacement is exact LRU, kept per
 * set as a recency permutation: the 4-bit way numbers packed in one
 * word, least recently used in the lowest slot. That caps a set at
 * 16 ways.
 */
class SetAssocCache
{
  public:
    class Line
    {
      public:
        Mesi state() const { return static_cast<Mesi>(word_ & stateMask); }

        void
        setState(Mesi state)
        {
            word_ = (word_ & ~stateMask) | static_cast<std::uint64_t>(state);
        }

        bool valid() const { return state() != Mesi::Invalid; }
        bool dirty() const { return state() == Mesi::Modified; }

      private:
        friend class SetAssocCache;
        static constexpr std::uint64_t stateMask = 3;
        std::uint64_t word_ = 0;
    };

    /** Way argument of insert() that asks it to scan the set. */
    static constexpr unsigned anyWay = ~0u;
    static constexpr unsigned maxWays = 16;

    explicit SetAssocCache(const CacheGeometry &geom);

    const CacheGeometry &geometry() const { return geom_; }

    /** Line-aligned address of the set/tag for @p addr. */
    Addr lineAddrOf(Addr addr) const { return addr & ~(cacheLineSize - 1); }

    /**
     * Look up a line. On a hit the line becomes most recently used.
     * @return the line, or nullptr on miss.
     */
    Line *probe(Addr addr);

    /**
     * probe() that, on a miss, also sets @p victim to the way
     * insert() would replace for @p addr. Passing it back to insert()
     * skips the second scan, provided nothing changed the set since.
     */
    Line *probe(Addr addr, unsigned &victim);

    /** Look up without disturbing LRU (for coherence snoops). */
    Line *find(Addr addr);
    const Line *find(Addr addr) const;

    /**
     * Install a line in the given state, evicting the LRU victim of
     * the set if necessary. @p way is anyWay (scan the set; a line
     * already present just changes state) or the victim a missed
     * probe() reported for @p addr, with the set unchanged since.
     * @return the physical line address of the evicted victim (and
     *         whether it was dirty), if a valid line was displaced.
     */
    struct Victim
    {
        Addr lineAddr;
        bool dirty;
    };
    std::optional<Victim> insert(Addr addr, Mesi state,
                                 unsigned way = anyWay);

    /** Drop a line if present. @return previous state. */
    Mesi invalidate(Addr addr);

    /** True if the line is present in any valid state. */
    bool holds(Addr addr) const { return find(addr) != nullptr; }

    /** Invalidate everything (e.g. between experiment phases). */
    void flushAll();

    /** Number of valid lines (for occupancy checks in tests). */
    std::size_t validCount() const;

    /** Set count, computed once in the constructor. */
    Addr numSets() const { return numSets_; }

  private:
    CacheGeometry geom_;
    Addr numSets_;
    Addr setMask_;
    static constexpr unsigned lineShift = std::countr_zero(cacheLineSize);
    unsigned wayShift_;
    std::vector<Line> lines_; // sets * ways, row-major by set
    /** Per set: way numbers by recency, 4 bits each, LRU lowest. */
    std::vector<std::uint64_t> recency_;

    static constexpr std::size_t miss = SIZE_MAX;
    std::size_t scan(Addr addr, unsigned *victim = nullptr) const;
    void touch(std::size_t index);
};

// The lookups are defined here, not in cache.cc, so the hot callers
// (CacheHierarchy::probeL1, lookupFromL2, CoherenceDomain::accessLine)
// inline them and the victim work folds away where it is not asked for.

/**
 * The one tag scan: the index in lines_ of the valid line holding
 * @p addr, or `miss`. A non-null @p victim gets the way to replace:
 * the first invalid way, else the least recently used one.
 */
inline std::size_t
SetAssocCache::scan(Addr addr, unsigned *victim) const
{
    Addr lineNum = addr >> lineShift;
    std::size_t set = lineNum & setMask_;
    std::size_t first = set << wayShift_;
    std::uint64_t key = lineNum << 2;
    unsigned invalid = 0;
    for (unsigned w = 0; w < geom_.ways; ++w) {
        std::uint64_t word = lines_[first + w].word_;
        // Same line number and a non-Invalid state: 1 <= xor <= 3.
        if ((word ^ key) - 1 < Line::stateMask)
            return first + w;
        invalid |= unsigned{(word & Line::stateMask) == 0} << w;
    }
    if (victim) {
        *victim = invalid ? std::countr_zero(invalid)
                          : static_cast<unsigned>(recency_[set] & 0xf);
    }
    return miss;
}

/** Make the way at @p index the most recently used of its set. */
inline void
SetAssocCache::touch(std::size_t index)
{
    std::uint64_t &order = recency_[index >> wayShift_];
    auto way = static_cast<std::uint64_t>(index & (geom_.ways - 1));
    unsigned top = 4 * (geom_.ways - 1);
    if ((order >> top) == way)
        return; // already most recent (slots above top stay zero)
    // SWAR search for the slot holding `way`: xor zeroes its nibble,
    // and the lowest flagged zero nibble is exact (a false flag only
    // ever sits above a true zero).
    constexpr std::uint64_t ones = 0x1111111111111111ull;
    std::uint64_t x = order ^ (way * ones);
    std::uint64_t zero = (x - ones) & ~x & (ones << 3);
    unsigned slot = std::countr_zero(zero) & ~3u; // 4 * slot index
    // Close the gap and put the way on top; slot < top, so the
    // shifts stay below 64.
    std::uint64_t below = order & ((std::uint64_t{1} << slot) - 1);
    std::uint64_t above = (order >> (slot + 4)) << slot;
    order = below | above | (way << top);
}

inline SetAssocCache::Line *
SetAssocCache::probe(Addr addr)
{
    std::size_t i = scan(addr);
    if (i == miss)
        return nullptr;
    touch(i);
    return &lines_[i];
}

inline SetAssocCache::Line *
SetAssocCache::probe(Addr addr, unsigned &victim)
{
    std::size_t i = scan(addr, &victim);
    if (i == miss)
        return nullptr;
    touch(i);
    return &lines_[i];
}

inline SetAssocCache::Line *
SetAssocCache::find(Addr addr)
{
    std::size_t i = scan(addr);
    return i == miss ? nullptr : &lines_[i];
}

inline const SetAssocCache::Line *
SetAssocCache::find(Addr addr) const
{
    std::size_t i = scan(addr);
    return i == miss ? nullptr : &lines_[i];
}

} // namespace stramash

#endif // STRAMASH_CACHE_CACHE_HH
