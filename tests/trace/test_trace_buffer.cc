#include <gtest/gtest.h>

#include <set>
#include <string>

#include "stramash/trace/trace.hh"

using namespace stramash;

namespace
{

TraceEvent
ev(std::uint64_t seq)
{
    TraceEvent e{};
    e.category = TraceCategory::App;
    e.name = "ev";
    e.node = 0;
    e.startCycles = seq;
    e.endCycles = seq;
    e.arg0 = seq;
    return e;
}

/** A tracer whose per-node clocks the test advances by hand. */
struct ManualClock
{
    std::vector<Cycles> t;

    explicit ManualClock(std::size_t nodes) : t(nodes, 0) {}

    Tracer::ClockFn
    fn()
    {
        return [this](NodeId n) { return t[n]; };
    }
};

} // namespace

TEST(TraceBuffer, RecordsInOrderBelowCapacity)
{
    TraceBuffer buf(8);
    for (std::uint64_t i = 0; i < 5; ++i)
        buf.record(ev(i));
    EXPECT_EQ(buf.size(), 5u);
    EXPECT_EQ(buf.dropped(), 0u);
    EXPECT_EQ(buf.recorded(), 5u);
    auto snap = buf.snapshot();
    ASSERT_EQ(snap.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(snap[i].arg0, i);
}

TEST(TraceBuffer, WrapsDroppingOldest)
{
    TraceBuffer buf(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        buf.record(ev(i));
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.dropped(), 6u);
    EXPECT_EQ(buf.recorded(), 10u);
    // The survivors are the newest four, oldest first.
    auto snap = buf.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(snap[i].arg0, 6 + i);
}

TEST(TraceBuffer, ClearEmptiesButKeepsCapacity)
{
    TraceBuffer buf(4);
    for (std::uint64_t i = 0; i < 6; ++i)
        buf.record(ev(i));
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.capacity(), 4u);
    buf.record(ev(42));
    auto snap = buf.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].arg0, 42u);
}

TEST(TraceBuffer, UntouchedBufferSnapshotsEmpty)
{
    TraceBuffer buf(16);
    EXPECT_EQ(buf.capacity(), 16u);
    EXPECT_TRUE(buf.snapshot().empty());
    buf.clear();
    EXPECT_TRUE(buf.snapshot().empty());
    EXPECT_EQ(buf.capacity(), 16u);
}

TEST(Tracer, IdleTracerAllocatesNoRing)
{
    // Rings larger than any host could hold: allocating one throws
    // std::length_error before touching memory. Eight nodes with
    // tracing off must construct, take events and merge without
    // trying.
    ManualClock clock(8);
    TraceConfig cfg;
    cfg.bufferEntries = std::vector<TraceEvent>().max_size() + 1;
    Tracer tracer(cfg, 8, clock.fn());
    for (NodeId n = 0; n < 8; ++n) {
        tracer.instant(TraceCategory::Msg, "m", n);
        tracer.emit(TraceCategory::Fault, "f", n, 0, 1, 2);
        EXPECT_EQ(tracer.buffer(n).capacity(), cfg.bufferEntries);
    }
    EXPECT_TRUE(tracer.merged().empty());
}

TEST(Tracer, MergedOfUntouchedBuffersIsEmpty)
{
    ManualClock clock(8);
    TraceConfig cfg;
    cfg.enabled = true;
    Tracer tracer(cfg, 8, clock.fn());
    EXPECT_TRUE(tracer.merged().empty());
    EXPECT_EQ(tracer.totalEvents(), 0u);
    tracer.clear();
    EXPECT_TRUE(tracer.merged().empty());
}

TEST(Tracer, DisabledRecordsNothing)
{
    ManualClock clock(2);
    TraceConfig cfg; // enabled = false
    Tracer tracer(cfg, 2, clock.fn());
    EXPECT_FALSE(tracer.enabled());
    EXPECT_FALSE(tracer.enabledFor(TraceCategory::Fault));
    tracer.emit(TraceCategory::Fault, "f", 0, 0, 1, 2);
    tracer.instant(TraceCategory::Msg, "m", 1);
    {
        STRAMASH_TRACE_SPAN(tracer, TraceCategory::Ipi, "i", 0);
    }
    EXPECT_EQ(tracer.totalEvents(), 0u);
    EXPECT_EQ(tracer.totalDropped(), 0u);
}

TEST(Tracer, CategoryMaskFilters)
{
    ManualClock clock(1);
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.categoryMask = traceCategoryBit(TraceCategory::Fault);
    Tracer tracer(cfg, 1, clock.fn());
    EXPECT_TRUE(tracer.enabledFor(TraceCategory::Fault));
    EXPECT_FALSE(tracer.enabledFor(TraceCategory::Msg));
    tracer.instant(TraceCategory::Fault, "f", 0);
    tracer.instant(TraceCategory::Msg, "m", 0);
    EXPECT_EQ(tracer.totalEvents(), 1u);
    EXPECT_STREQ(tracer.buffer(0).snapshot()[0].name, "f");
}

TEST(Tracer, SpanReadsClockAtBothEnds)
{
    ManualClock clock(1);
    TraceConfig cfg;
    cfg.enabled = true;
    Tracer tracer(cfg, 1, clock.fn());
    clock.t[0] = 100;
    {
        STRAMASH_TRACE_SPAN(tracer, TraceCategory::App, "work", 0, 7);
        clock.t[0] = 250;
    }
    auto snap = tracer.buffer(0).snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].startCycles, 100u);
    EXPECT_EQ(snap[0].endCycles, 250u);
    EXPECT_EQ(snap[0].pid, 7u);
}

TEST(Tracer, MergedSortsAcrossNodes)
{
    ManualClock clock(2);
    TraceConfig cfg;
    cfg.enabled = true;
    Tracer tracer(cfg, 2, clock.fn());
    tracer.emit(TraceCategory::App, "b", 1, 0, 20, 21);
    tracer.emit(TraceCategory::App, "a", 0, 0, 10, 12);
    tracer.emit(TraceCategory::App, "c", 0, 0, 30, 31);
    auto merged = tracer.merged();
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_STREQ(merged[0].name, "a");
    EXPECT_STREQ(merged[1].name, "b");
    EXPECT_STREQ(merged[2].name, "c");
}

TEST(Tracer, PerNodeBuffersDropIndependently)
{
    ManualClock clock(2);
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.bufferEntries = 2;
    Tracer tracer(cfg, 2, clock.fn());
    for (int i = 0; i < 5; ++i)
        tracer.instant(TraceCategory::App, "x", 0);
    tracer.instant(TraceCategory::App, "y", 1);
    EXPECT_EQ(tracer.buffer(0).dropped(), 3u);
    EXPECT_EQ(tracer.buffer(1).dropped(), 0u);
    EXPECT_EQ(tracer.totalDropped(), 3u);
    EXPECT_EQ(tracer.totalEvents(), 3u);
}

TEST(TracerDeath, NeedsClock)
{
    TraceConfig cfg;
    EXPECT_DEATH(Tracer(cfg, 1, nullptr), "clock");
}

TEST(TraceCategoryNames, AllDistinct)
{
    std::set<std::string> names;
    for (unsigned i = 0; i < traceCategoryCount; ++i)
        names.insert(
            traceCategoryName(static_cast<TraceCategory>(i)));
    EXPECT_EQ(names.size(), traceCategoryCount);
}
