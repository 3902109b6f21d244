/**
 * @file
 * Golden output of the whole simulator. Each case runs one small
 * configuration end to end and reduces it to one FNV-1a hash of its
 * stats JSON (every stat group System exports) and its per-node
 * clocks, compared with a value recorded from the simulator as it
 * stands:
 *  - the eight Fig. 9 configurations on IS, CG, MG and FT at a
 *    reduced problem size (fused remote faults and the remote VMA
 *    walk, Popcorn's DSM and VMA replication over SHM and TCP; FT's
 *    fresh scratch buffer per procedure drives the fused fast path's
 *    tagged leaf inserts and their reconciliation);
 *  - one fused and one Popcorn whole-process migration;
 *  - one fused crash recovery, which copies the dead kernel's VMAs
 *    and adopts its page-table entries;
 *  - fused and Popcorn NPB IS and FT on a cached four-node machine,
 *    whose offload hops visit every peer, so coherence snoops reach
 *    three other hierarchies and tagged leaves come from writers of
 *    both ISAs.
 *
 * A refactor must leave every hash unchanged. A deliberate model
 * change re-records them: the failure message prints the new value.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/bench_util.hh"
#include "fnv.hh"
#include "stramash/common/units.hh"
#include "stramash/trace/json_stats.hh"

using namespace stramash;

namespace
{

/** Hash of @p sys's stats JSON and per-node clocks. */
std::uint64_t
digest(System &sys)
{
    JsonStatsExporter exporter;
    sys.forEachStatGroup([&](const StatGroup &g) { exporter.add(g); });
    std::ostringstream os;
    exporter.writeGroupsObject(os);
    Fnv h;
    h.add(os.str());
    for (NodeId n = 0; n < sys.nodeCount(); ++n) {
        h.add(sys.machine().node(n).cycles());
        h.add(sys.machine().node(n).memCycles());
    }
    return h.h;
}

struct Fig9Case
{
    const char *kernel;
    unsigned config; ///< index into bench::figure9Configs()
    std::uint64_t hash;
};

void
PrintTo(const Fig9Case &c, std::ostream *os)
{
    *os << c.kernel << " config " << c.config;
}

std::string
fig9Name(const testing::TestParamInfo<Fig9Case> &info)
{
    std::string name = std::string(info.param.kernel) + "_" +
                       bench::figure9Configs(0)[info.param.config].label;
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name;
}

class GoldenFig9 : public testing::TestWithParam<Fig9Case>
{
};

/** Write a recognisable word into each page of [buf, buf+pages). */
void
fill(App &app, Addr buf, unsigned pages, std::uint64_t tag)
{
    for (unsigned i = 0; i < pages; ++i)
        app.write<std::uint64_t>(buf + i * pageSize, tag + i);
}

void
expectFilled(App &app, Addr buf, unsigned pages, std::uint64_t tag)
{
    for (unsigned i = 0; i < pages; ++i) {
        EXPECT_EQ(app.read<std::uint64_t>(buf + i * pageSize), tag + i)
            << "page " << i;
    }
}

/** Three VMAs written at the origin, touched from node 1, then the
 *  whole process moved to node 1 and used there. */
std::uint64_t
processMigrationDigest(OsDesign design)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    System sys(cfg);
    App app(sys, 0);
    Addr a = app.mmap(16 * pageSize);
    Addr b = app.mmap(8 * pageSize);
    Addr c = app.mmap(4 * pageSize);
    fill(app, a, 16, 0xa000);
    fill(app, b, 8, 0xb000);
    app.migrate(1);
    expectFilled(app, a, 16, 0xa000);
    fill(app, c, 4, 0xc000);
    app.migrate(0);
    sys.migrateProcess(app.pid(), 1);
    expectFilled(app, b, 8, 0xb000);
    expectFilled(app, c, 4, 0xc000);
    fill(app, a, 16, 0xd000);
    return digest(sys);
}

/** Sends successive offload hops to nodes 1, 2, ..., n-1, 1, ... */
class PeerCycle final : public Placer
{
  public:
    explicit PeerCycle(unsigned nodes) : nodes_(nodes) {}

    NodeId place(const PlacementHints &) override { return 0; }

    NodeId
    offloadTarget(NodeId, const PlacementHints &) override
    {
        next_ = next_ % (nodes_ - 1) + 1;
        return next_;
    }

  private:
    unsigned nodes_;
    NodeId next_ = 0;
};

/** NPB @p kernel from node 0 of a cached four-node machine,
 *  offloading each procedure to the peers in turn. */
std::uint64_t
fourNodeDigest(OsDesign design, const char *kernel)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.topology = TopologySpec::alternating(4, MemoryModel::Shared);
    System sys(cfg);
    App app(sys, 0);
    PeerCycle placer(4);
    NpbConfig ncfg;
    ncfg.iterations = 4;
    ncfg.problemBytes = 256_KiB;
    ncfg.placer = &placer;
    sys.resetExperimentCounters();
    EXPECT_TRUE(makeNpbKernel(kernel)->run(app, ncfg).verified);
    return digest(sys);
}

} // namespace

TEST_P(GoldenFig9, MatchesRecordedHash)
{
    const Fig9Case &c = GetParam();
    const bench::EvalConfig config =
        bench::figure9Configs(4_MiB)[c.config];
    SystemConfig cfg;
    cfg.osDesign = config.design;
    cfg.memoryModel = config.model;
    cfg.transport = config.transport;
    cfg.l3Size = config.l3Size;
    System sys(cfg);
    App app(sys, 0);
    NpbConfig ncfg;
    ncfg.iterations = 2;
    ncfg.problemBytes = 256_KiB;
    ncfg.migrate = config.migrate;
    sys.resetExperimentCounters();
    EXPECT_TRUE(makeNpbKernel(c.kernel)->run(app, ncfg).verified);
    std::uint64_t h = digest(sys);
    EXPECT_EQ(h, c.hash) << std::hex << "hash 0x" << h;
}

INSTANTIATE_TEST_SUITE_P(
    Fig9, GoldenFig9,
    testing::Values(
        Fig9Case{"is", 0, 0x35faf25d40c7e1b1ull},
        Fig9Case{"is", 1, 0x6561f9864c27bbc6ull},
        Fig9Case{"is", 2, 0xc6a9318fb20c4734ull},
        Fig9Case{"is", 3, 0x93e2b4556c18ef42ull},
        Fig9Case{"is", 4, 0x4899933162634938ull},
        Fig9Case{"is", 5, 0x834e722cdb2ba158ull},
        Fig9Case{"is", 6, 0xa3318f35e37997c2ull},
        Fig9Case{"is", 7, 0x95ba7179de957c85ull},
        Fig9Case{"cg", 0, 0x31c2738967612f68ull},
        Fig9Case{"cg", 1, 0x0edabb238da34ac5ull},
        Fig9Case{"cg", 2, 0x00f2908b4e0bfe0bull},
        Fig9Case{"cg", 3, 0x8a7a378f12979324ull},
        Fig9Case{"cg", 4, 0xcbd95216b0b7e2faull},
        Fig9Case{"cg", 5, 0xf4630607cb75ccc4ull},
        Fig9Case{"cg", 6, 0xbcbe051c95fe1769ull},
        Fig9Case{"cg", 7, 0x78799a4f7d6e1348ull},
        Fig9Case{"mg", 0, 0x11cbc5ef7f12c140ull},
        Fig9Case{"mg", 1, 0x54e5b9de8886dfbaull},
        Fig9Case{"mg", 2, 0xa1f4900582ae1cc8ull},
        Fig9Case{"mg", 3, 0xd1142b51805f93d1ull},
        Fig9Case{"mg", 4, 0x617b8a06043e2902ull},
        Fig9Case{"mg", 5, 0xde3d235d5bf6d860ull},
        Fig9Case{"mg", 6, 0x29fa5133e54dd6a7ull},
        Fig9Case{"mg", 7, 0x6ff4fba91a2f4565ull},
        Fig9Case{"ft", 0, 0xb52292865552bb26ull},
        Fig9Case{"ft", 1, 0xc59d9a092dcf8a27ull},
        Fig9Case{"ft", 2, 0xb5df7b065d121d19ull},
        Fig9Case{"ft", 3, 0x7d3b7615cbbd1e5aull},
        Fig9Case{"ft", 4, 0x70dda5cee313932dull},
        Fig9Case{"ft", 5, 0xddb91361b89606eaull},
        Fig9Case{"ft", 6, 0xd027a31adc32a25bull},
        Fig9Case{"ft", 7, 0xb1688f6d5a4edb08ull}),
    fig9Name);

TEST(Golden, FusedProcessMigration)
{
    std::uint64_t h = processMigrationDigest(OsDesign::FusedKernel);
    EXPECT_EQ(h, 0xccac8b2e4d7c2ed3ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornProcessMigration)
{
    std::uint64_t h = processMigrationDigest(OsDesign::MultipleKernel);
    EXPECT_EQ(h, 0xc2786e05e30b2334ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, FusedCrashRecovery)
{
    // A task born on node 1 visits node 0, which learns one of its
    // three VMAs through the remote walker and writes another, then
    // node 1 dies under it. Node 0 copies the missing VMA from the
    // dead kernel and adopts its page-table entries, tagged ones
    // included.
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.crash.enabled = true;
    System sys(cfg);
    App app(sys, 1);
    Addr a = app.mmap(16 * pageSize);
    Addr b = app.mmap(8 * pageSize);
    Addr c = app.mmap(4 * pageSize);
    fill(app, a, 16, 0xa000);
    fill(app, b, 8, 0xb000);
    app.migrate(0);
    expectFilled(app, a, 16, 0xa000);
    fill(app, c, 4, 0xc000);
    app.migrate(1);
    sys.killNode(1);
    expectFilled(app, a, 16, 0xa000);
    expectFilled(app, b, 8, 0xb000);
    expectFilled(app, c, 4, 0xc000);
    EXPECT_EQ(app.where(), 0u);
    ASSERT_NE(sys.crashManager(), nullptr);
    EXPECT_GE(sys.crashManager()->recovery().value("pages_adopted"), 1u);
    std::uint64_t h = digest(sys);
    EXPECT_EQ(h, 0x2d67889290fcdccaull) << std::hex << "hash 0x" << h;
}

TEST(Golden, FusedFourNodeIs)
{
    std::uint64_t h = fourNodeDigest(OsDesign::FusedKernel, "is");
    EXPECT_EQ(h, 0x727fc2c80b4df145ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornFourNodeIs)
{
    std::uint64_t h = fourNodeDigest(OsDesign::MultipleKernel, "is");
    EXPECT_EQ(h, 0xf1cf900f45797806ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, FusedFourNodeFt)
{
    // Each procedure's fresh scratch buffer is first touched on a
    // different peer, so the origin's table gathers leaves tagged in
    // two writers' formats and reconciles them at each return.
    std::uint64_t h = fourNodeDigest(OsDesign::FusedKernel, "ft");
    EXPECT_EQ(h, 0x312652a40fb819f1ull) << std::hex << "hash 0x" << h;
}

TEST(Golden, PopcornFourNodeFt)
{
    std::uint64_t h = fourNodeDigest(OsDesign::MultipleKernel, "ft");
    EXPECT_EQ(h, 0xa1f8c7ca0e6c037eull) << std::hex << "hash 0x" << h;
}
