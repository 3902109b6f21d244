/**
 * @file
 * SetAssocCache against a naive reference on address streams built to
 * alias. A set search first matches the 6-bit partial tag of each way
 * and only then the full line number, so the pool below puts many
 * lines in one set with one partial tag: line numbers numSets << 6
 * apart. Every geometry from 1 to 16 ways is run, covering a set
 * shorter than one 8-way load, exactly one, and two.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stramash/cache/cache.hh"
#include "stramash/common/rng.hh"

using namespace stramash;

namespace
{

/**
 * Naive model of one SetAssocCache: per set, the (line, state) of
 * each way and the ways by recency, least recent first.
 */
class RefCache
{
  public:
    RefCache(Addr sets, unsigned ways) : sets_(sets, Set(ways)) {}

    /** The way holding @p line in a valid state, or -1. */
    int
    wayOf(Addr line) const
    {
        const Set &s = setOf(line);
        for (unsigned w = 0; w < s.ways.size(); ++w) {
            if (s.ways[w].state != Mesi::Invalid && s.ways[w].line == line)
                return static_cast<int>(w);
        }
        return -1;
    }

    Mesi
    stateOf(Addr line) const
    {
        int w = wayOf(line);
        return w < 0 ? Mesi::Invalid : setOf(line).ways[w].state;
    }

    /** The first invalid way, else the least recently used one. */
    unsigned
    victimOf(Addr line) const
    {
        const Set &s = setOf(line);
        for (unsigned w = 0; w < s.ways.size(); ++w) {
            if (s.ways[w].state == Mesi::Invalid)
                return w;
        }
        return s.order.front();
    }

    void
    touch(Addr line, unsigned way)
    {
        std::vector<unsigned> &order = setOf(line).order;
        order.erase(std::find(order.begin(), order.end(), way));
        order.push_back(way);
    }

    std::optional<SetAssocCache::Victim>
    insert(Addr line, Mesi state)
    {
        int hit = wayOf(line);
        unsigned w = hit < 0 ? victimOf(line) : static_cast<unsigned>(hit);
        Way &way = setOf(line).ways[w];
        std::optional<SetAssocCache::Victim> out;
        if (hit < 0 && way.state != Mesi::Invalid)
            out = SetAssocCache::Victim{way.line, way.state == Mesi::Modified};
        way = {line, state};
        touch(line, w);
        return out;
    }

    void
    setState(Addr line, Mesi state)
    {
        setOf(line).ways[wayOf(line)].state = state;
    }

    void
    flushAll()
    {
        for (Set &s : sets_) {
            for (Way &w : s.ways)
                w.state = Mesi::Invalid;
        }
    }

    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const Set &s : sets_) {
            n += std::count_if(s.ways.begin(), s.ways.end(), [](const Way &w) {
                return w.state != Mesi::Invalid;
            });
        }
        return n;
    }

  private:
    struct Way
    {
        Addr line = 0;
        Mesi state = Mesi::Invalid;
    };

    struct Set
    {
        explicit Set(unsigned ways) : ways(ways)
        {
            for (unsigned w = 0; w < ways; ++w)
                order.push_back(w);
        }

        std::vector<Way> ways;
        std::vector<unsigned> order;
    };

    Set &
    setOf(Addr line)
    {
        return sets_[(line / cacheLineSize) % sets_.size()];
    }

    const Set &
    setOf(Addr line) const
    {
        return sets_[(line / cacheLineSize) % sets_.size()];
    }

    std::vector<Set> sets_;
};

/**
 * A line address from a pool that aliases hard: one of up to four
 * sets, one of three partial tags, and one of ways + 2 values above
 * them, or now and then a high one, so each (set, partial tag) pair
 * has more lines than the set has ways.
 */
Addr
aliasingLine(Rng &rng, Addr sets, unsigned ways)
{
    static constexpr Addr partialTags[] = {0, 1, 63};
    Addr set = rng.below64(std::min<Addr>(sets, 4));
    Addr partial = partialTags[rng.below(3)];
    Addr high = rng.chance(0.05) ? Addr{1} << 40 | rng.below(4)
                                 : rng.below(ways + 2);
    return (set + sets * (partial + 64 * high)) * cacheLineSize;
}

Mesi
validState(Rng &rng)
{
    static constexpr Mesi states[] = {Mesi::Shared, Mesi::Exclusive,
                                      Mesi::Modified};
    return states[rng.below(3)];
}

/** A lookup's result @p l agrees with the reference on @p line. */
void
expectSameLine(const SetAssocCache::Line *l, const RefCache &ref, Addr line)
{
    ASSERT_EQ(l != nullptr, ref.wayOf(line) >= 0);
    if (l) {
        ASSERT_EQ(l->state(), ref.stateOf(line));
    }
}

void
expectSameVictim(const std::optional<SetAssocCache::Victim> &got,
                 const std::optional<SetAssocCache::Victim> &want)
{
    ASSERT_EQ(got.has_value(), want.has_value());
    if (want) {
        ASSERT_EQ(got->lineAddr, want->lineAddr);
        ASSERT_EQ(got->dirty, want->dirty);
    }
}

/** Run @p steps random operations on both caches, checking each. */
void
runDifferential(Addr sets, unsigned ways, std::uint64_t seed, int steps)
{
    SetAssocCache cache({sets * ways * cacheLineSize, ways});
    RefCache ref(sets, ways);
    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
        Addr line = aliasingLine(rng, sets, ways);
        // Any byte of the line names it.
        Addr addr = line + rng.below(cacheLineSize);
        SCOPED_TRACE("step " + std::to_string(step) + " line " +
                     std::to_string(line));
        switch (rng.below(8)) {
          case 0: {
            SetAssocCache::Line *l = cache.probe(addr);
            ASSERT_NO_FATAL_FAILURE(expectSameLine(l, ref, line));
            if (l)
                ref.touch(line, ref.wayOf(line));
            break;
          }
          case 1:
          case 2: {
            // A missed probe's victim way, then an insert there.
            unsigned victim = SetAssocCache::anyWay;
            SetAssocCache::Line *l = cache.probe(addr, victim);
            ASSERT_NO_FATAL_FAILURE(expectSameLine(l, ref, line));
            if (l) {
                ref.touch(line, ref.wayOf(line));
                break;
            }
            ASSERT_EQ(victim, ref.victimOf(line));
            Mesi state = validState(rng);
            ASSERT_NO_FATAL_FAILURE(expectSameVictim(
                cache.insert(addr, state, victim), ref.insert(line, state)));
            break;
          }
          case 3: {
            const SetAssocCache &peek = cache;
            const SetAssocCache::Line *l = peek.find(addr);
            ASSERT_NO_FATAL_FAILURE(expectSameLine(l, ref, line));
            break;
          }
          case 4: {
            Mesi state = validState(rng);
            ASSERT_NO_FATAL_FAILURE(expectSameVictim(
                cache.insert(addr, state), ref.insert(line, state)));
            break;
          }
          case 5:
            ASSERT_EQ(cache.invalidate(addr), ref.stateOf(line));
            if (ref.wayOf(line) >= 0)
                ref.setState(line, Mesi::Invalid);
            break;
          case 6: {
            // A coherence walk's state change through find(): to
            // Invalid half the time, the partial tag left behind.
            SetAssocCache::Line *l = cache.find(addr);
            ASSERT_NO_FATAL_FAILURE(expectSameLine(l, ref, line));
            if (l) {
                Mesi state = rng.chance(0.5) ? Mesi::Invalid
                                             : validState(rng);
                l->setState(state);
                ref.setState(line, state);
            }
            break;
          }
          default:
            if (rng.chance(0.01)) {
                cache.flushAll();
                ref.flushAll();
            }
            break;
        }
        ASSERT_EQ(cache.validCount(), ref.validCount());
    }
}

} // namespace

class TagFilterWays : public testing::TestWithParam<unsigned>
{};

TEST_P(TagFilterWays, MatchReferenceOnAliasingLines)
{
    unsigned ways = GetParam();
    for (Addr sets : {Addr{1}, Addr{16}}) {
        for (std::uint64_t seed : {1, 2, 3}) {
            SCOPED_TRACE(std::to_string(ways) + " ways, " +
                         std::to_string(sets) + " sets, seed " +
                         std::to_string(seed));
            runDifferential(sets, ways, seed, 20000);
            if (HasFatalFailure())
                return;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagFilterWays, testing::Values(1u, 2u, 4u, 8u, 16u),
    [](const testing::TestParamInfo<unsigned> &info) {
        return std::to_string(info.param) + "Ways";
    });

TEST(TagFilter, SamePartialTagDifferentLineMisses)
{
    // 4 sets: line numbers 4 << 6 apart share set and partial tag.
    SetAssocCache c({4 * 8 * cacheLineSize, 8});
    Addr alias = Addr{4} << 6 << 6;
    c.insert(0x40, Mesi::Modified);
    EXPECT_EQ(c.find(0x40 + alias), nullptr);
    EXPECT_EQ(c.probe(0x40 + 5 * alias), nullptr);
    EXPECT_EQ(c.invalidate(0x40 + alias), Mesi::Invalid);
    auto victim = c.insert(0x40 + alias, Mesi::Shared);
    EXPECT_FALSE(victim.has_value());
    EXPECT_EQ(c.find(0x40)->state(), Mesi::Modified);
    EXPECT_EQ(c.find(0x40 + alias)->state(), Mesi::Shared);
    EXPECT_EQ(c.validCount(), 2u);
}
