#include <gtest/gtest.h>

#include "stramash/workloads/npb.hh"

using namespace stramash;

namespace
{

NpbConfig
tinyConfig(bool migrate)
{
    NpbConfig cfg;
    cfg.iterations = 2;
    cfg.problemBytes = 256 * 1024;
    cfg.migrate = migrate;
    cfg.seed = 7;
    return cfg;
}

NpbResult
runOn(OsDesign design, const std::string &kernel, bool migrate,
      MemoryModel model = MemoryModel::Shared)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.memoryModel = model;
    cfg.transport = Transport::SharedMemory;
    System sys(cfg);
    App app(sys, 0);
    return makeNpbKernel(kernel)->run(app, tinyConfig(migrate));
}

} // namespace

TEST(NpbFactory, KnownKernels)
{
    for (const auto &name : npbKernelNames()) {
        auto k = makeNpbKernel(name);
        ASSERT_NE(k, nullptr);
        EXPECT_EQ(k->name(), name);
    }
    EXPECT_EQ(npbKernelNames().size(), 4u);
}

TEST(NpbFactoryDeath, UnknownKernelIsFatal)
{
    EXPECT_EXIT(makeNpbKernel("lu"), testing::ExitedWithCode(1),
                "unknown NPB kernel");
}

/** Every kernel verifies on every design, migrating or not. */
class NpbMatrix
    : public testing::TestWithParam<
          std::tuple<std::string, OsDesign, bool>>
{
};

TEST_P(NpbMatrix, ComputesCorrectResult)
{
    auto [kernel, design, migrate] = GetParam();
    NpbResult r = runOn(design, kernel, migrate);
    EXPECT_TRUE(r.verified)
        << kernel << " failed verification on "
        << osDesignName(design)
        << (migrate ? " with migration" : " vanilla");
    EXPECT_NE(r.checksum, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, NpbMatrix,
    testing::Combine(testing::Values(std::string("is"),
                                     std::string("cg"),
                                     std::string("mg"),
                                     std::string("ft")),
                     testing::Values(OsDesign::MultipleKernel,
                                     OsDesign::FusedKernel),
                     testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               osDesignName(std::get<1>(info.param)) +
               (std::get<2>(info.param) ? "_migrating" : "_vanilla");
    });

TEST(Npb, ChecksumIndependentOfOsDesign)
{
    // The answer is a property of the workload, not of the OS.
    for (const auto &name : npbKernelNames()) {
        NpbResult a = runOn(OsDesign::MultipleKernel, name, true);
        NpbResult b = runOn(OsDesign::FusedKernel, name, true);
        NpbResult c = runOn(OsDesign::FusedKernel, name, false);
        EXPECT_EQ(a.checksum, b.checksum) << name;
        EXPECT_EQ(b.checksum, c.checksum) << name;
    }
}

TEST(Npb, DeterministicForFixedSeed)
{
    NpbResult a = runOn(OsDesign::FusedKernel, "is", true);
    NpbResult b = runOn(OsDesign::FusedKernel, "is", true);
    EXPECT_EQ(a.checksum, b.checksum);
}

TEST(Npb, SeedChangesChecksum)
{
    SystemConfig cfg;
    System sys(cfg);
    App a(sys, 0);
    NpbConfig c1 = tinyConfig(false);
    NpbResult r1 = makeNpbKernel("is")->run(a, c1);
    App b(sys, 0);
    NpbConfig c2 = tinyConfig(false);
    c2.seed = 8;
    NpbResult r2 = makeNpbKernel("is")->run(b, c2);
    EXPECT_NE(r1.checksum, r2.checksum);
}

TEST(Npb, MigratingRunCostsMoreThanVanilla)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::MultipleKernel;
    cfg.memoryModel = MemoryModel::Shared;

    System vanillaSys(cfg);
    App vanillaApp(vanillaSys, 0);
    makeNpbKernel("is")->run(vanillaApp, tinyConfig(false));

    System migSys(cfg);
    App migApp(migSys, 0);
    makeNpbKernel("is")->run(migApp, tinyConfig(true));

    EXPECT_GT(migSys.runtime(), vanillaSys.runtime());
}

TEST(Npb, PopcornGeneratesFarMoreMessagesThanStramash)
{
    SystemConfig cfg;
    cfg.memoryModel = MemoryModel::Shared;

    cfg.osDesign = OsDesign::MultipleKernel;
    System popcorn(cfg);
    App pApp(popcorn, 0);
    popcorn.resetExperimentCounters();
    makeNpbKernel("mg")->run(pApp, tinyConfig(true));

    cfg.osDesign = OsDesign::FusedKernel;
    System fused(cfg);
    App fApp(fused, 0);
    fused.resetExperimentCounters();
    makeNpbKernel("mg")->run(fApp, tinyConfig(true));

    // Table 3's headline: >99% message reduction.
    EXPECT_GT(popcorn.messagesSent(), 100 * fused.messagesSent());
}

TEST(Npb, FtTriggersRemoteAllocations)
{
    // FT allocates fresh scratch buffers while remote: under the
    // fused design these become foreign-format insertions (Table
    // 3's Stramash "replicated pages").
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    System sys(cfg);
    App app(sys, 0);
    sys.resetExperimentCounters();
    makeNpbKernel("ft")->run(app, tinyConfig(true));
    EXPECT_GT(sys.replicatedPages(), 10u);

    // IS keeps its arrays origin-touched: near-zero insertions.
    System sys2(cfg);
    App app2(sys2, 0);
    sys2.resetExperimentCounters();
    makeNpbKernel("is")->run(app2, tinyConfig(true));
    EXPECT_LT(sys2.replicatedPages(), sys.replicatedPages() / 2);
}

TEST(Npb, StatsExportCarriesCacheCounters)
{
    // writeStatsJson and every bench's --stats-json export what
    // forEachStatGroup visits; the cache plugin's per-node hits,
    // snoops and write-backs must be among it.
    SystemConfig cfg;
    System sys(cfg);
    App app(sys, 0);
    makeNpbKernel("is")->run(app, tinyConfig(true));
    const StatGroup *cache0 = nullptr;
    sys.forEachStatGroup([&](const StatGroup &g) {
        if (g.name() == "cache.node0")
            cache0 = &g;
    });
    ASSERT_NE(cache0, nullptr);
    EXPECT_GT(cache0->value("l1_accesses"), 0u);
}
