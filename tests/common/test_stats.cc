#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "stramash/common/stats.hh"

using namespace stramash;

TEST(Counter, IncrementAndAdd)
{
    StatGroup g("g");
    Counter &c = g.counter("c");
    EXPECT_EQ(c, 0u);
    ++c;
    c += 41;
    EXPECT_EQ(g.value("c"), 42u);
    g.resetAll();
    EXPECT_EQ(c, 0u);
}

TEST(StatGroup, CounterPointersAreStable)
{
    StatGroup g("g");
    Counter &a = g.counter("a");
    a += 7;
    for (int i = 0; i < 100; ++i) {
        std::string name = "x";
        name += std::to_string(i);
        g.counter(name);
    }
    EXPECT_EQ(&g.counter("a"), &a);
    EXPECT_EQ(g.value("a"), 7u);
}

TEST(StatGroup, ValueOfUnknownCounterIsZero)
{
    StatGroup g("g");
    EXPECT_FALSE(g.has("nope"));
    EXPECT_EQ(g.value("nope"), 0u);
}

TEST(StatGroup, ResetAll)
{
    StatGroup g("g");
    g.counter("a") += 3;
    g.counter("b") += 5;
    g.resetAll();
    EXPECT_EQ(g.value("a"), 0u);
    EXPECT_EQ(g.value("b"), 0u);
}

TEST(StatGroup, DumpSortedWithPrefix)
{
    StatGroup g("grp");
    g.counter("beta") += 2;
    g.counter("alpha") += 1;
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "grp.alpha 1\ngrp.beta 2\n");
}

TEST(StatGroup, SnapshotDiffing)
{
    StatGroup g("g");
    g.counter("a") += 3;
    auto before = g.snapshot();
    g.counter("a") += 4;
    auto after = g.snapshot();
    EXPECT_EQ(after["a"] - before["a"], 4u);
}

TEST(Histogram, BucketsAndStats)
{
    Histogram h({10, 100, 1000});
    h.sample(5);
    h.sample(10);
    h.sample(99);
    h.sample(500);
    h.sample(5000);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.minValue(), 5u);
    EXPECT_EQ(h.maxValue(), 5000u);
    EXPECT_EQ(h.buckets()[0], 1u); // < 10
    EXPECT_EQ(h.buckets()[1], 2u); // [10, 100)
    EXPECT_EQ(h.buckets()[2], 1u); // [100, 1000)
    EXPECT_EQ(h.buckets()[3], 1u); // overflow
    EXPECT_DOUBLE_EQ(h.mean(), (5 + 10 + 99 + 500 + 5000) / 5.0);
}

TEST(HistogramDeath, NoEdgesPanics)
{
    EXPECT_DEATH(Histogram({}), "no bucket edges");
}

TEST(Histogram, PercentileEmptyIsZero)
{
    Histogram h({10, 100});
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, PercentileSingleSample)
{
    Histogram h({10, 100});
    h.sample(42);
    // Every percentile collapses to the one observed value.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 42.0);
}

TEST(Histogram, PercentileInterpolatesWithinBucket)
{
    Histogram h({100});
    // Ten samples in [0, 100): p50 lands mid-bucket, interpolated
    // between the observed min and the bucket edge.
    for (std::uint64_t v = 0; v < 10; ++v)
        h.sample(v * 10);
    double p50 = h.percentile(0.5);
    EXPECT_GT(p50, 0.0);
    EXPECT_LT(p50, 90.0);
    // Percentiles are monotone in p.
    EXPECT_LE(h.percentile(0.1), h.percentile(0.5));
    EXPECT_LE(h.percentile(0.5), h.percentile(0.9));
    EXPECT_LE(h.percentile(0.9),
              static_cast<double>(h.maxValue()));
}

TEST(Histogram, PercentileTailLandsInOverflowBucket)
{
    Histogram h({10});
    for (int i = 0; i < 99; ++i)
        h.sample(1);
    h.sample(1000);
    // p99+ must reach into the overflow bucket, clamped to max.
    EXPECT_GT(h.percentile(0.999), 10.0);
    EXPECT_LE(h.percentile(0.999), 1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
    // Out-of-range p clamps instead of exploding.
    EXPECT_DOUBLE_EQ(h.percentile(1.5), 1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(-0.5), 1.0);
}

TEST(Histogram, Reset)
{
    Histogram h({10});
    h.sample(5);
    h.sample(50);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    h.sample(7);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.minValue(), 7u);
}

TEST(Histogram, MergeCombinesCountsBucketsAndExtremes)
{
    Histogram a({10, 100, 1000});
    Histogram b({10, 100, 1000});
    a.sample(5);
    a.sample(50);
    b.sample(500);
    b.sample(5000);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.minValue(), 5u);
    EXPECT_EQ(a.maxValue(), 5000u);
    EXPECT_EQ(a.buckets()[0], 1u);
    EXPECT_EQ(a.buckets()[1], 1u);
    EXPECT_EQ(a.buckets()[2], 1u);
    EXPECT_EQ(a.buckets()[3], 1u);
    EXPECT_DOUBLE_EQ(a.mean(), (5 + 50 + 500 + 5000) / 4.0);
    // b is untouched.
    EXPECT_EQ(b.count(), 2u);
}

TEST(Histogram, MergeEmptySidesAreIdentity)
{
    Histogram a({10});
    Histogram b({10});
    b.sample(3);
    b.sample(30);

    // empty.merge(full) adopts full's extremes (min must not stay 0).
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.minValue(), 3u);
    EXPECT_EQ(a.maxValue(), 30u);

    // full.merge(empty) changes nothing.
    Histogram empty({10});
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.minValue(), 3u);
}

TEST(Histogram, MergeThenResetRoundTrips)
{
    Histogram a({10});
    Histogram b({10});
    a.sample(1);
    b.sample(100);
    a.merge(b);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    a.sample(4);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.minValue(), 4u);
    EXPECT_EQ(a.maxValue(), 4u);
}

TEST(HistogramDeath, MergeMismatchedEdgesPanics)
{
    Histogram a({10});
    Histogram b({10, 100});
    EXPECT_DEATH(a.merge(b), "mismatched bucket edges");
}

TEST(StatGroup, HistogramRegistrationAndLookup)
{
    StatGroup g("g");
    EXPECT_FALSE(g.hasHistogram("lat"));
    EXPECT_EQ(g.findHistogram("lat"), nullptr);
    Histogram &h = g.histogram("lat", {10, 100});
    h.sample(3);
    // Second registration returns the same histogram; edges of the
    // first call win.
    Histogram &again = g.histogram("lat", {1, 2, 3});
    EXPECT_EQ(&again, &h);
    EXPECT_EQ(again.count(), 1u);
    ASSERT_TRUE(g.hasHistogram("lat"));
    EXPECT_EQ(g.findHistogram("lat"), &h);
}

TEST(StatGroup, DumpDistinguishesHistogramsFromCounters)
{
    StatGroup g("grp");
    g.counter("alpha") += 1;
    Histogram &h = g.histogram("lat", {10});
    h.sample(4);
    h.sample(40);
    std::ostringstream os;
    g.dump(os);
    std::string out = os.str();
    // Counter lines keep the historical exact format.
    EXPECT_NE(out.find("grp.alpha 1\n"), std::string::npos);
    // Histogram lines carry the "hist" marker token plus summary
    // statistics, so parsers can split on it.
    EXPECT_NE(out.find("grp.lat hist count=2 min=4 max=40"),
              std::string::npos);
    EXPECT_NE(out.find("p50="), std::string::npos);
    EXPECT_NE(out.find("p99="), std::string::npos);
}

TEST(StatGroup, ResetAllClearsHistograms)
{
    StatGroup g("g");
    g.histogram("lat", {10}).sample(5);
    g.resetAll();
    EXPECT_EQ(g.histogram("lat", {10}).count(), 0u);
}
