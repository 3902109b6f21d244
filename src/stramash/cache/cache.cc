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
    lines_.resize(numSets_ * geom_.ways);
}

/**
 * The one tag scan: the index in lines_ of the valid line holding
 * @p addr, or `miss`. A non-null @p victim gets the way to replace.
 * Declared inline so -O2 builds expand it into each caller, where
 * the victim work folds away for lookups, instead of calling it.
 */
inline std::size_t
SetAssocCache::scan(Addr addr, std::size_t *victim) const
{
    std::size_t first = ((addr >> lineShift_) & setMask_) * geom_.ways;
    Addr tag = addr >> lineShift_; // the full line number
    // Replacement choice: the first invalid way (age 0), else the
    // least recently used one. Keeping the pick's age in a register
    // leaves no load on the loop-carried path.
    std::size_t pick = first;
    std::uint64_t pickAge = UINT64_MAX;
    for (std::size_t i = first; i < first + geom_.ways; ++i) {
        const Line &l = lines_[i];
        if (l.valid() && l.tag == tag)
            return i;
        std::uint64_t age = l.valid() ? l.lru + 1 : 0;
        if (age < pickAge) {
            pick = i;
            pickAge = age;
        }
    }
    if (victim)
        *victim = pick;
    return miss;
}

SetAssocCache::Line *
SetAssocCache::probe(Addr addr)
{
    std::size_t i = scan(addr);
    if (i == miss)
        return nullptr;
    lines_[i].lru = ++tick_;
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
SetAssocCache::insert(Addr addr, Mesi state)
{
    panic_if(state == Mesi::Invalid, "inserting an Invalid line");
    std::size_t way = 0;
    std::size_t hit = scan(addr, &way);
    // Reuse the line if already present (state change).
    Line &l = lines_[hit == miss ? way : hit];
    std::optional<Victim> out;
    if (hit == miss && l.valid())
        out = Victim{l.tag << lineShift_, l.dirty()};
    l.tag = addr >> lineShift_;
    l.state = state;
    l.lru = ++tick_;
    return out;
}

Mesi
SetAssocCache::invalidate(Addr addr)
{
    Line *l = find(addr);
    if (!l)
        return Mesi::Invalid;
    Mesi prev = l->state;
    l->state = Mesi::Invalid;
    return prev;
}

void
SetAssocCache::flushAll()
{
    for (Line &l : lines_)
        l.state = Mesi::Invalid;
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
