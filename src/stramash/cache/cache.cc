#include "stramash/cache/cache.hh"

#include <algorithm>

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
    panic_if(geom_.ways == 0 || !std::has_single_bit(geom_.ways),
             "cache way count must be a power of two, got ",
             geom_.ways);
    panic_if(geom_.ways > maxWays, "cache way count above ", maxWays,
             " does not fit the 4-bit LRU slots, got ", geom_.ways);
    panic_if(geom_.sizeBytes == 0 ||
                 !std::has_single_bit(geom_.sizeBytes),
             "cache size must be a power of two, got ",
             geom_.sizeBytes);
    panic_if(geom_.sizeBytes < cacheLineSize * geom_.ways,
             "cache of ", geom_.sizeBytes,
             " bytes cannot hold one set of ", geom_.ways, " ",
             cacheLineSize, "-byte lines");
    numSets_ = geom_.numSets();
    setMask_ = numSets_ - 1;
    wayShift_ = std::countr_zero(geom_.ways);
    setShift_ = std::countr_zero(numSets_);
    unsigned missingLanes = 8 - std::min(geom_.ways, 8u);
    laneMask_ = 0x8080808080808080ull >> (8 * missingLanes);
    std::size_t ways = numSets_ * geom_.ways;
    lines_.resize(ways + missingLanes);
    tags_ = std::make_unique_for_overwrite<Addr[]>(ways);
    // Any starting order works: the first fills take invalid ways.
    std::uint64_t order = 0;
    for (unsigned w = 0; w < geom_.ways; ++w)
        order |= std::uint64_t{w} << (4 * w);
    recency_.assign(numSets_, order);
}

std::optional<SetAssocCache::Victim>
SetAssocCache::insert(Addr addr, Mesi state, unsigned way)
{
    panic_if(state == Mesi::Invalid, "inserting an Invalid line");
    Addr lineNum = addr >> lineShift;
    // Reuse the line if already present (state change).
    std::size_t i = way == anyWay ? scan(addr, &way) : miss;
    std::optional<Victim> out;
    if (i == miss) {
        i = ((lineNum & setMask_) << wayShift_) + way;
        const Line &l = lines_[i];
        if (l.valid())
            out = Victim{tags_[i] << lineShift, l.dirty()};
    }
    lines_[i].byte_ = static_cast<std::uint8_t>(
        (partialTag(lineNum) << 2) | static_cast<std::uint8_t>(state));
    tags_[i] = lineNum;
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
