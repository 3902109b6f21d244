#include "stramash/cache/cache.hh"

#include <bit>

namespace stramash
{

const char *
mesiName(Mesi m)
{
    switch (m) {
      case Mesi::Invalid: return "I";
      case Mesi::Shared: return "S";
      case Mesi::Exclusive: return "E";
      case Mesi::Modified: return "M";
    }
    panic("unknown Mesi state");
}

SetAssocCache::SetAssocCache(const CacheGeometry &geom) : geom_(geom)
{
    // All the indexing below is mask/shift work cached here once; a
    // non-power-of-two shape would alias sets silently, so fail loud.
    panic_if(!std::has_single_bit(geom_.lineSize),
             "cache line size must be a power of two, got ",
             geom_.lineSize);
    panic_if(geom_.ways == 0 || !std::has_single_bit(geom_.ways),
             "cache way count must be a power of two, got ",
             geom_.ways);
    panic_if(geom_.ways > maxWays, "cache way count above ", maxWays,
             " does not fit the 4-bit LRU slots, got ", geom_.ways);
    panic_if(geom_.sizeBytes == 0 ||
                 !std::has_single_bit(geom_.sizeBytes),
             "cache size must be a power of two, got ",
             geom_.sizeBytes);
    panic_if(geom_.sizeBytes < geom_.lineSize * geom_.ways,
             "cache of ", geom_.sizeBytes,
             " bytes cannot hold one set of ", geom_.ways, " ",
             geom_.lineSize, "-byte lines");
    numSets_ = geom_.numSets();
    setMask_ = numSets_ - 1;
    lineShift_ = std::countr_zero(geom_.lineSize);
    wayShift_ = std::countr_zero(geom_.ways);
    lines_.resize(numSets_ * geom_.ways);
    // Any starting order works: the first fills take invalid ways.
    std::uint64_t order = 0;
    for (unsigned w = 0; w < geom_.ways; ++w)
        order |= std::uint64_t{w} << (4 * w);
    recency_.assign(numSets_, order);
}

/**
 * The one tag scan: the index in lines_ of the valid line holding
 * @p addr, or `miss`. A non-null @p victim gets the way to replace:
 * the first invalid way, else the least recently used one. Declared
 * inline so -O2 builds expand it into each caller, where the victim
 * work folds away for lookups, instead of calling it.
 */
inline std::size_t
SetAssocCache::scan(Addr addr, unsigned *victim) const
{
    Addr lineNum = addr >> lineShift_;
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

SetAssocCache::Line *
SetAssocCache::probe(Addr addr)
{
    std::size_t i = scan(addr);
    if (i == miss)
        return nullptr;
    touch(i);
    return &lines_[i];
}

SetAssocCache::Line *
SetAssocCache::probe(Addr addr, unsigned &victim)
{
    std::size_t i = scan(addr, &victim);
    if (i == miss)
        return nullptr;
    touch(i);
    return &lines_[i];
}

SetAssocCache::Line *
SetAssocCache::find(Addr addr)
{
    std::size_t i = scan(addr);
    return i == miss ? nullptr : &lines_[i];
}

const SetAssocCache::Line *
SetAssocCache::find(Addr addr) const
{
    std::size_t i = scan(addr);
    return i == miss ? nullptr : &lines_[i];
}

std::optional<SetAssocCache::Victim>
SetAssocCache::insert(Addr addr, Mesi state, unsigned way)
{
    panic_if(state == Mesi::Invalid, "inserting an Invalid line");
    Addr lineNum = addr >> lineShift_;
    // Reuse the line if already present (state change).
    std::size_t i = way == anyWay ? scan(addr, &way) : miss;
    std::optional<Victim> out;
    if (i == miss) {
        i = ((lineNum & setMask_) << wayShift_) + way;
        const Line &l = lines_[i];
        if (l.valid())
            out = Victim{(l.word_ >> 2) << lineShift_, l.dirty()};
    }
    lines_[i].word_ = (lineNum << 2) | static_cast<std::uint64_t>(state);
    touch(i);
    return out;
}

Mesi
SetAssocCache::invalidate(Addr addr)
{
    Line *l = find(addr);
    if (!l)
        return Mesi::Invalid;
    Mesi prev = l->state();
    l->setState(Mesi::Invalid);
    return prev;
}

void
SetAssocCache::flushAll()
{
    for (Line &l : lines_)
        l.setState(Mesi::Invalid);
}

std::size_t
SetAssocCache::validCount() const
{
    std::size_t n = 0;
    for (const Line &l : lines_) {
        if (l.valid())
            ++n;
    }
    return n;
}

} // namespace stramash
