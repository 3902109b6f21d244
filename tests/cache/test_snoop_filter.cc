/**
 * @file
 * The snoop-filter directory must be invisible: a filtered
 * CoherenceDomain and a broadcast-mode reference domain replaying the
 * same trace must produce byte-identical AccessResult streams and
 * statistics (the filter changes who we probe, never what the
 * simulation observes). On top of that, the directory must stay a
 * superset of actual private-hierarchy presence at all times — a
 * stale-absent bit would suppress a required snoop.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "stramash/cache/coherence.hh"
#include "stramash/cache/snoop_filter.hh"
#include "stramash/common/rng.hh"
#include "stramash/common/units.hh"

using namespace stramash;

namespace
{

/** Tiny hierarchy so random traces force heavy eviction traffic. */
HierarchyGeometry
tinyGeom()
{
    HierarchyGeometry g;
    g.l1i = {1_KiB, 2};
    g.l1d = {1_KiB, 2};
    g.l2 = {4_KiB, 4};
    g.l3 = {16_KiB, 4};
    return g;
}

struct Op
{
    NodeId node;
    AccessType type;
    Addr addr;
};

std::vector<Op>
randomTrace(std::uint64_t seed, unsigned numNodes, std::size_t count,
            Addr span)
{
    Rng rng(seed);
    std::vector<Op> ops;
    ops.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Op op;
        op.node = rng.below(numNodes);
        double roll = 0.01 * (rng.below(100));
        op.type = roll < 0.3
                      ? AccessType::Store
                      : (roll < 0.35 ? AccessType::InstFetch
                                     : AccessType::Load);
        // Mix a hot shared region with a wider sweep so the trace
        // has true sharing, upgrades, and eviction churn.
        Addr base = 0x10000000;
        op.addr = rng.chance(0.5) ? base + rng.below(8_KiB)
                                  : base + rng.below(span);
        ops.push_back(op);
    }
    return ops;
}

bool
sameResult(const AccessResult &a, const AccessResult &b)
{
    return a.latency == b.latency && a.level == b.level &&
           a.memClass == b.memClass &&
           a.snoopInvalidate == b.snoopInvalidate &&
           a.snoopData == b.snoopData;
}

class Differential
    : public testing::TestWithParam<std::tuple<std::uint64_t, bool>>
{
};

} // namespace

TEST(SnoopFilterUnit, AddRemoveSharers)
{
    SnoopFilter f;
    EXPECT_EQ(f.sharers(0x1000), 0u);
    f.addSharer(0x1000, 0);
    f.addSharer(0x1000, 3);
    EXPECT_EQ(f.sharers(0x1000), 0b1001u);
    f.removeSharer(0x1000, 0);
    EXPECT_EQ(f.sharers(0x1000), 0b1000u);
    // Removing an absent node or line is a harmless no-op.
    f.removeSharer(0x1000, 7);
    f.removeSharer(0x2000, 0);
    EXPECT_EQ(f.sharers(0x1000), 0b1000u);
}

TEST(SnoopFilterUnit, LineZeroIsAValidKey)
{
    SnoopFilter f;
    f.addSharer(0, 1);
    EXPECT_EQ(f.sharers(0), 0b10u);
}

TEST(SnoopFilterUnit, ClearForgetsEverything)
{
    SnoopFilter f;
    for (Addr a = 0; a < 64 * 100; a += 64)
        f.addSharer(a, 0);
    EXPECT_EQ(f.entryCount(), 100u);
    f.clear();
    EXPECT_EQ(f.entryCount(), 0u);
    EXPECT_EQ(f.sharers(64), 0u);
}

TEST(SnoopFilterUnit, DistinctSlotsTrackExactMasks)
{
    // Inside one table period (default 2^21 slots) every line has
    // its own counter, so presence is exact, not merely a superset.
    SnoopFilter f;
    constexpr std::size_t lines = 10000;
    ASSERT_GE(f.capacity(), lines);
    for (std::size_t i = 0; i < lines; ++i)
        f.addSharer(Addr{i} * 64, static_cast<NodeId>(i % 4));
    for (std::size_t i = 0; i < lines; ++i) {
        EXPECT_EQ(f.sharers(Addr{i} * 64),
                  std::uint32_t{1} << (i % 4))
            << "line " << i;
    }
}

TEST(SnoopFilterUnit, PairedRemovesLeaveNoResidue)
{
    // A tiny 16-slot table makes every line alias; as long as every
    // addSharer is paired with a removeSharer the counters must all
    // return to zero — no residue to charge phantom probes later.
    SnoopFilter f(16);
    for (std::size_t i = 0; i < 1000; ++i) {
        f.addSharer(Addr{i} * 64, 0);
        f.removeSharer(Addr{i} * 64, 0);
    }
    EXPECT_EQ(f.entryCount(), 0u);
    f.addSharer(0x12340, 2);
    EXPECT_EQ(f.sharers(0x12340), 0b100u);
}

TEST(SnoopFilterUnit, AliasedLinesStayConservative)
{
    // 16 slots: lines 16 * 64 bytes apart share a counter. Aliasing
    // must only ever widen the answer (false positive), never lose a
    // real sharer when the alias is removed.
    SnoopFilter f(16);
    f.addSharer(0, 0);
    f.addSharer(16 * 64, 1); // aliases slot 0
    EXPECT_EQ(f.sharers(0), 0b11u);
    EXPECT_EQ(f.sharers(16 * 64), 0b11u);
    f.removeSharer(16 * 64, 1);
    EXPECT_EQ(f.sharers(0), 0b01u);
}

TEST(SnoopFilterUnit, SaturatedCounterStaysConservative)
{
    // Once a counter saturates the count is no longer exact, so
    // removes must not decrement it — a stale-present bit costs a
    // probe; losing a real sharer would corrupt the simulation.
    SnoopFilter f(16);
    for (int i = 0; i < 300; ++i)
        f.addSharer(0x4000, 0);
    for (int i = 0; i < 300; ++i)
        f.removeSharer(0x4000, 0);
    EXPECT_EQ(f.sharers(0x4000), 0b01u);
    f.clear(); // only clear() may drop a saturated counter
    EXPECT_EQ(f.sharers(0x4000), 0u);
}

TEST(SnoopFilterUnit, RejectsOutOfRangeNode)
{
    SnoopFilter f;
    EXPECT_DEATH(f.addSharer(0x1000, SnoopFilter::maxNodes),
                 "at most");
}

/**
 * The differential harness (ruby_ref comparison pattern): replay one
 * random multi-node trace through a filtered domain and a
 * broadcast-mode domain; every AccessResult and every final counter
 * must match exactly, across memory models and with/without the
 * shared LLC.
 */
TEST_P(Differential, FilterMatchesBroadcastExactly)
{
    auto [seed, sharedLlc] = GetParam();

    auto build = [&](bool broadcast, PhysMap &map,
                     std::unique_ptr<CoherenceDomain> &out) {
        CacheGeometry shared{16_KiB, 4};
        out = std::make_unique<CoherenceDomain>(
            map, SnoopCosts{}, sharedLlc ? &shared : nullptr);
        out->setBroadcastMode(broadcast);
        out->addNode(0, tinyGeom(),
                     latencyProfile(CoreModel::XeonGold));
        out->addNode(1, tinyGeom(),
                     latencyProfile(CoreModel::ThunderX2));
    };

    for (MemoryModel model :
         {MemoryModel::Separated, MemoryModel::FullyShared}) {
        PhysMap map = PhysMap::paperDefault(model);
        std::unique_ptr<CoherenceDomain> filtered, broadcast;
        build(false, map, filtered);
        build(true, map, broadcast);
        ASSERT_FALSE(filtered->broadcastMode());
        ASSERT_TRUE(broadcast->broadcastMode());

        // Spread the trace over both nodes' memory (paper layout:
        // node 1's DRAM starts at 2 GiB).
        auto ops = randomTrace(seed, 2, 20000, 64_KiB);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const Op &op = ops[i];
            Addr addr = op.addr + (i % 2 ? 2_GiB : 0);
            AccessResult a =
                filtered->accessLine(op.node, op.type, addr);
            AccessResult b =
                broadcast->accessLine(op.node, op.type, addr);
            ASSERT_TRUE(sameResult(a, b))
                << "divergence at op " << i << " model "
                << memoryModelName(model);
        }

        // Mid-trace flush, then more traffic: directory reset must
        // not desynchronise the two modes.
        filtered->flushAll();
        broadcast->flushAll();
        auto ops2 = randomTrace(seed + 1, 2, 5000, 64_KiB);
        for (std::size_t i = 0; i < ops2.size(); ++i) {
            const Op &op = ops2[i];
            AccessResult a =
                filtered->accessLine(op.node, op.type, op.addr);
            AccessResult b =
                broadcast->accessLine(op.node, op.type, op.addr);
            ASSERT_TRUE(sameResult(a, b))
                << "post-flush divergence at op " << i;
        }

        for (NodeId n = 0; n < 2; ++n) {
            const auto &fc = filtered->nodeStats(n).counters();
            const auto &bc = broadcast->nodeStats(n).counters();
            ASSERT_EQ(fc.size(), bc.size());
            for (const auto &[name, counter] : fc) {
                EXPECT_EQ(counter, bc.at(name))
                    << "counter " << name << " node " << n
                    << " model " << memoryModelName(model);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, Differential,
    testing::Combine(testing::Values(7u, 42u, 1234u),
                     testing::Bool()));

namespace
{

/** holds() across every node must imply a presence bit. */
void
expectSuperset(CoherenceDomain &d, unsigned numNodes,
               const std::vector<Addr> &lines)
{
    for (Addr line : lines) {
        std::uint32_t mask = d.snoopFilter().sharers(line);
        for (NodeId n = 0; n < numNodes; ++n) {
            if (d.hierarchy(n).holds(line)) {
                ASSERT_TRUE(mask & (1u << n))
                    << "stale-absent bit for node " << n << " line 0x"
                    << std::hex << line;
            }
        }
    }
}

} // namespace

/**
 * Directory maintenance under LLC back-invalidation: evicting a line
 * from the shared LLC back-invalidates every node's private copy and
 * must clear their presence bits, while never clearing a bit some
 * node still depends on.
 */
TEST(SnoopFilterDirectory, SharedLlcBackInvalidationClearsBits)
{
    PhysMap map = PhysMap::paperDefault(MemoryModel::FullyShared);
    // 4 KiB 2-way shared LLC: 32 sets; lines 2 KiB apart collide.
    CacheGeometry shared{4_KiB, 2};
    CoherenceDomain d(map, SnoopCosts{}, &shared);
    d.addNode(0, tinyGeom(), latencyProfile(CoreModel::XeonGold));
    d.addNode(1, tinyGeom(), latencyProfile(CoreModel::ThunderX2));

    Addr a = 0x100000;
    d.accessLine(0, AccessType::Load, a);
    // Node 1 picks the line up via a shared-LLC hit (promotion, not
    // fill) — the directory must still record it as a sharer.
    d.accessLine(1, AccessType::Load, a);
    EXPECT_EQ(d.snoopFilter().sharers(a), 0b11u);

    // Fill the same shared-LLC set from node 1 until `a` is evicted;
    // the back-invalidation must strip it from both hierarchies and
    // from the directory.
    Addr stride = 2_KiB;
    for (int i = 1; i <= 2; ++i)
        d.accessLine(1, AccessType::Load, a + stride * i);
    EXPECT_FALSE(d.hierarchy(0).holds(a));
    EXPECT_FALSE(d.hierarchy(1).holds(a));
    EXPECT_EQ(d.snoopFilter().sharers(a), 0u);
    EXPECT_GT(d.nodeStats(1).value("back_invalidates"), 0u);
}

/**
 * Private-LLC eviction clears the evictor's bit but must leave other
 * sharers covered: after node 0's copy ages out, a store by node 1
 * sees no holder, and node 0's later read must still be snooped
 * against node 1's now-dirty copy.
 */
TEST(SnoopFilterDirectory, PrivateLlcEvictionNeverSuppressesSnoop)
{
    PhysMap map = PhysMap::paperDefault(MemoryModel::FullyShared);
    CoherenceDomain d(map, SnoopCosts{});
    d.addNode(0, tinyGeom(), latencyProfile(CoreModel::XeonGold));
    d.addNode(1, tinyGeom(), latencyProfile(CoreModel::ThunderX2));

    Addr a = 0x200000;
    d.accessLine(0, AccessType::Load, a);
    EXPECT_EQ(d.snoopFilter().sharers(a), 0b01u);

    // Stream conflicting lines on node 0 until `a` leaves its L3
    // (16 KiB, 4-way: 64 sets, 4 KiB stride aliases the set).
    Addr stride = 4_KiB;
    for (int i = 1; i <= 8 && d.hierarchy(0).holds(a); ++i)
        d.accessLine(0, AccessType::Load, a + stride * i);
    ASSERT_FALSE(d.hierarchy(0).holds(a));
    EXPECT_EQ(d.snoopFilter().sharers(a), 0u);

    // No holder left: node 1's store must not charge a snoop...
    auto r1 = d.accessLine(1, AccessType::Store, a);
    EXPECT_FALSE(r1.snoopInvalidate);
    // ...but node 1 is now a Modified holder, and node 0's read
    // must pay Snoop Data — the bit set on node 1's fill was the
    // only thing standing between us and a silent stale read.
    auto r0 = d.accessLine(0, AccessType::Load, a);
    EXPECT_TRUE(r0.snoopData);
    EXPECT_EQ(d.hierarchy(1).lineState(a), Mesi::Shared);
}

TEST(SnoopFilterDirectory, FlushAllResetsDirectory)
{
    PhysMap map = PhysMap::paperDefault(MemoryModel::FullyShared);
    CoherenceDomain d(map, SnoopCosts{});
    d.addNode(0, tinyGeom(), latencyProfile(CoreModel::XeonGold));
    d.addNode(1, tinyGeom(), latencyProfile(CoreModel::ThunderX2));

    d.accessLine(0, AccessType::Store, 0x5000);
    d.accessLine(1, AccessType::Load, 0x9000);
    EXPECT_GT(d.snoopFilter().entryCount(), 0u);
    d.flushAll();
    EXPECT_EQ(d.snoopFilter().entryCount(), 0u);

    // After a flush, a store by the *other* node must not be misled:
    // node 1 writes the line node 0 used to own; no stale bit may
    // charge a phantom snoop, and the fill must be Exclusive-clean.
    auto r = d.accessLine(1, AccessType::Store, 0x5000);
    EXPECT_FALSE(r.snoopInvalidate);
    EXPECT_EQ(d.snoopFilter().sharers(lineBase(Addr{0x5000})), 0b10u);
}

/**
 * Superset invariant under random traffic: after every access the
 * directory must cover every line any node privately holds — with
 * tiny caches and a shared LLC this exercises fills, upgrades, snoop
 * invalidations, LLC evictions and back-invalidations.
 */
TEST(SnoopFilterDirectory, SupersetInvariantUnderRandomTraffic)
{
    for (bool sharedLlc : {false, true}) {
        PhysMap map = PhysMap::paperDefault(MemoryModel::FullyShared);
        CacheGeometry shared{16_KiB, 4};
        CoherenceDomain d(map, SnoopCosts{},
                          sharedLlc ? &shared : nullptr);
        d.addNode(0, tinyGeom(), latencyProfile(CoreModel::XeonGold));
        d.addNode(1, tinyGeom(),
                  latencyProfile(CoreModel::ThunderX2));

        auto ops = randomTrace(99, 2, 8000, 32_KiB);
        std::vector<Addr> touched;
        for (const Op &op : ops) {
            d.accessLine(op.node, op.type, op.addr);
            touched.push_back(lineBase(op.addr));
            if (touched.size() % 500 == 0)
                expectSuperset(d, 2, touched);
        }
        expectSuperset(d, 2, touched);
    }
}
