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
#include <cstring>
#include <memory>
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
 * Tag store for one cache level. Each way is one byte, (partial tag
 * << 2) | MESI state, where the partial tag is the low 6 bits of the
 * line number above the set index; a set search reads 8 ways per
 * 64-bit load. The full line numbers sit in a parallel array, read
 * only to confirm a valid partial match and to name an evicted line.
 * Replacement is exact LRU, kept per set as a recency permutation:
 * the 4-bit way numbers packed in one word, least recently used in
 * the lowest slot. That caps a set at 16 ways.
 */
class SetAssocCache
{
  public:
    class Line
    {
      public:
        Mesi state() const { return static_cast<Mesi>(byte_ & stateMask); }

        void
        setState(Mesi state)
        {
            byte_ = (byte_ & ~stateMask) | static_cast<std::uint8_t>(state);
        }

        bool valid() const { return state() != Mesi::Invalid; }
        bool dirty() const { return state() == Mesi::Modified; }

      private:
        friend class SetAssocCache;
        static constexpr std::uint8_t stateMask = 3;
        std::uint8_t byte_ = 0;
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
    /** Line number bits below the partial tag (the set index). */
    unsigned setShift_;
    /** High bit of each byte lane of a load that holds a way. */
    std::uint64_t laneMask_;
    /**
     * sets * ways, row-major by set, plus padding so a set of fewer
     * than 8 ways can still be read with one 8-byte load.
     */
    std::vector<Line> lines_;
    /**
     * Line number of each way, meaningful only while its byte in
     * lines_ is valid; so it is never zero-filled.
     */
    std::unique_ptr<Addr[]> tags_;
    /** Per set: way numbers by recency, 4 bits each, LRU lowest. */
    std::vector<std::uint64_t> recency_;

    static constexpr std::size_t miss = SIZE_MAX;
    std::uint8_t partialTag(Addr lineNum) const;
    std::size_t scan(Addr addr, unsigned *victim = nullptr) const;
    void touch(std::size_t index);
};

// The lookups are defined here, not in cache.cc, so the hot callers
// (CacheHierarchy::probeL1, lookupFromL2, CoherenceDomain::accessLine)
// inline them and the victim work folds away where it is not asked for.

inline std::uint8_t
SetAssocCache::partialTag(Addr lineNum) const
{
    return static_cast<std::uint8_t>((lineNum >> setShift_) & 0x3f);
}

// scan() maps byte lane k of a load to way k: the lowest byte is the
// lowest address only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "SetAssocCache::scan assumes little-endian byte lanes");

/**
 * The one tag scan: the index in lines_ of the valid line holding
 * @p addr, or `miss`. A non-null @p victim gets the way to replace:
 * the first invalid way, the one with the lowest number, else the
 * least recently used one. Simulated outputs depend on this order,
 * and the SixteenWayVictims tests of SetAssocCache pin it.
 *
 * Each 8-byte load covers 8 ways. Bytewise (SWAR), with no carry
 * crossing a lane, it yields two masks: the candidates (same partial
 * tag, state not Invalid) and the invalid ways. A candidate is a hit
 * only if its full line number matches too.
 */
inline std::size_t
SetAssocCache::scan(Addr addr, unsigned *victim) const
{
    constexpr std::uint64_t ones = 0x0101010101010101ull;
    constexpr std::uint64_t highs = ones << 7;
    constexpr std::uint64_t lows = ~highs;
    constexpr std::uint64_t states = ones * Line::stateMask;
    Addr lineNum = addr >> lineShift;
    std::size_t set = lineNum & setMask_;
    std::size_t first = set << wayShift_;
    std::uint64_t key = ones * (std::uint64_t{partialTag(lineNum)} << 2);
    unsigned invalidWay = geom_.ways;
    for (unsigned w = 0; w < geom_.ways; w += 8) {
        std::uint64_t bytes;
        std::memcpy(&bytes, &lines_[first + w], sizeof bytes);
        // Exact zero-byte test of the partial-tag difference.
        std::uint64_t diff = (bytes ^ key) & ~states;
        std::uint64_t sameTag = ~(((diff & lows) + lows) | diff) & highs;
        // A state of 1-3 plus 0x7f sets the lane's high bit.
        std::uint64_t live = ((bytes & states) + lows) & laneMask_;
        for (std::uint64_t c = sameTag & live; c; c &= c - 1) {
            std::size_t i = first + w + (std::countr_zero(c) >> 3);
            if (tags_[i] == lineNum)
                return i;
        }
        std::uint64_t invalid = ~live & laneMask_;
        if (invalidWay == geom_.ways && invalid)
            invalidWay = w + (std::countr_zero(invalid) >> 3);
    }
    if (victim) {
        *victim = invalidWay < geom_.ways
                      ? invalidWay
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
