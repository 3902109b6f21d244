/**
 * @file
 * Golden output of the cache model: seeded multi-node traces replayed
 * through a CoherenceDomain, reduced to FNV-1a hashes of the
 * AccessResult stream and the final per-node counters.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stramash/cache/coherence.hh"
#include "stramash/common/rng.hh"
#include "stramash/common/units.hh"
#include "stramash/mem/topology.hh"
#include "fnv.hh"

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

/**
 * Trace for the paper geometry (8-way L1s, 16-way L2 and L3). Half
 * the accesses go to a hot 8 KiB region both nodes share. The other
 * half pick one of 48 tags in one of 4 line slots, 256 KiB apart (the
 * set stride of a 4 MiB 16-way L3, a multiple of every inner level's),
 * so each level's 8- and 16-way sets overflow and run their
 * replacement order. With @p dataOnly no access is an instruction
 * fetch, so the L1I is never filled.
 */
std::vector<Op>
paperTrace(std::uint64_t seed, std::size_t count, bool dataOnly)
{
    Rng rng(seed);
    std::vector<Op> ops;
    ops.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Op op;
        op.node = rng.below(2);
        double roll = 0.01 * (rng.below(100));
        op.type = roll < 0.3 ? AccessType::Store
                  : (!dataOnly && roll < 0.35) ? AccessType::InstFetch
                                               : AccessType::Load;
        Addr base = 0x10000000;
        op.addr = rng.chance(0.5)
                      ? base + rng.below(8_KiB)
                      : base + rng.below(48) * 256_KiB +
                            rng.below(4) * cacheLineSize;
        ops.push_back(op);
    }
    return ops;
}

} // namespace

/**
 * Golden output of the cache model. This test pins the exact
 * AccessResult stream and the final per-node counters of
 * seeded traces, recorded from the model as it stands, for private
 * and shared LLCs under two memory models. The tiny geometry (2- and
 * 4-way) forces eviction churn everywhere; the paper geometry (8-way
 * L1s, 16-way L2 and L3) pins full 16-way replacement order, once
 * with a data-only trace that never fills the L1I. Two four-node
 * runs pin which peers the snoop rounds (private LLCs) and the
 * back-invalidations (shared LLC) reach. Any refactor of
 * cache/hierarchy/coherence must leave these hashes unchanged.
 */
TEST(CacheGolden, OutputMatchesRecordedHashes)
{
    enum class Trace { Tiny, Paper, PaperDataOnly };
    struct Config
    {
        Trace trace;
        unsigned nodes;
        bool sharedLlc;
        MemoryModel model;
        std::uint64_t resultsHash;
        std::uint64_t countersHash;
    };
    const Config configs[] = {
        {Trace::Tiny, 2, false, MemoryModel::Separated,
         0x8d53d1e3b42d9df1ull, 0x2b27766c4b659fa6ull},
        {Trace::Tiny, 2, false, MemoryModel::FullyShared,
         0x4b69e59f3ff15a29ull, 0x7d1b0d467791dd1aull},
        {Trace::Tiny, 2, true, MemoryModel::Separated,
         0x25e10872910ec917ull, 0x441466a29a0bd68bull},
        {Trace::Tiny, 2, true, MemoryModel::FullyShared,
         0x55c6630e82bb0c6bull, 0x95a2e414492c363dull},
        {Trace::Paper, 2, false, MemoryModel::Separated,
         0x9a0dd72e7f4b1250ull, 0x7b50ac1694d779e9ull},
        {Trace::Paper, 2, true, MemoryModel::FullyShared,
         0x8974e9ce11cec596ull, 0xa8313d6d9b2b117full},
        {Trace::PaperDataOnly, 2, false, MemoryModel::Separated,
         0xf9826dd240d19c35ull, 0x276818a81a60e8d6ull},
        {Trace::PaperDataOnly, 2, true, MemoryModel::FullyShared,
         0xdeb18191b80d63a1ull, 0x09c8a04ce124a22bull},
        {Trace::Tiny, 4, false, MemoryModel::Separated,
         0x75721629919a3632ull, 0x121b7bead1856002ull},
        {Trace::Tiny, 4, true, MemoryModel::FullyShared,
         0x4c0e182851fb7277ull, 0x0e603e53fbd858f6ull},
    };

    for (const Config &cfg : configs) {
        bool paper = cfg.trace != Trace::Tiny;
        SCOPED_TRACE(std::to_string(cfg.nodes) + " nodes, " +
                     (paper ? "paper" : "tiny") + " geometry, " +
                     (cfg.trace == Trace::PaperDataOnly ? "data-only, "
                                                        : "") +
                     (cfg.sharedLlc ? "shared" : "private") + " LLC, " +
                     memoryModelName(cfg.model));
        TopologySpec topo =
            cfg.nodes == 2 ? TopologySpec::paperPair(cfg.model)
                           : TopologySpec::alternating(cfg.nodes, cfg.model);
        PhysMap map = PhysMap::generate(topo);
        CacheGeometry shared =
            paper ? CacheGeometry{4_MiB, 16} : CacheGeometry{16_KiB, 4};
        HierarchyGeometry geom =
            paper ? HierarchyGeometry::paperDefault(4_MiB) : tinyGeom();
        CoherenceDomain d(map, SnoopCosts{},
                          cfg.sharedLlc ? &shared : nullptr);
        for (const TopologyNode &n : topo.nodes)
            d.addNode(n.id, geom, latencyProfile(n.core));
        auto trace = [&](std::uint64_t seed, std::size_t count) {
            return paper ? paperTrace(seed, count,
                                      cfg.trace == Trace::PaperDataOnly)
                         : randomTrace(seed, cfg.nodes, count, 64_KiB);
        };

        Fnv results;
        auto run = [&](const AccessResult &r) {
            results.add(r.latency);
            results.add(static_cast<std::uint64_t>(r.level));
            results.add(static_cast<std::uint64_t>(r.memClass));
            results.add(r.snoopInvalidate);
            results.add(r.snoopData);
        };
        auto ops = trace(42, 20000);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const Op &op = ops[i];
            run(d.accessLine(op.node, op.type,
                             op.addr + (i % 2 ? 2_GiB : 0)));
        }
        d.flushAll();
        for (const Op &op : trace(43, 5000))
            run(d.accessLine(op.node, op.type, op.addr));

        Fnv counters;
        for (NodeId n = 0; n < cfg.nodes; ++n) {
            for (const auto &[name, value] : d.nodeStats(n).counters()) {
                counters.add(name);
                counters.add(value);
            }
        }
        EXPECT_EQ(results.h, cfg.resultsHash)
            << std::hex << "results 0x" << results.h;
        EXPECT_EQ(counters.h, cfg.countersHash)
            << std::hex << "counters 0x" << counters.h;
    }
}
