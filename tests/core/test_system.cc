#include <gtest/gtest.h>

#include "stramash/core/app.hh"

using namespace stramash;

/** Every (design, model, transport) combination must stand up. */
class SystemMatrix
    : public testing::TestWithParam<
          std::tuple<OsDesign, MemoryModel, Transport>>
{
};

TEST_P(SystemMatrix, ConstructsAndRunsAnApp)
{
    auto [design, model, transport] = GetParam();
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.memoryModel = model;
    cfg.transport = transport;
    System sys(cfg);

    EXPECT_EQ(sys.nodeCount(), 2u);
    EXPECT_EQ(sys.kernel(0).isa(), IsaType::X86_64);
    EXPECT_EQ(sys.kernel(1).isa(), IsaType::AArch64);

    App app(sys, 0);
    Addr buf = app.mmap(16 * pageSize);
    for (int i = 0; i < 16; ++i)
        app.write<std::uint64_t>(buf + Addr(i) * pageSize, i * 7);
    app.migrateToNext();
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(app.read<std::uint64_t>(buf + Addr(i) * pageSize),
                  static_cast<std::uint64_t>(i * 7));
    }
    app.migrateToNext();
    EXPECT_EQ(app.read<std::uint64_t>(buf), 0u);
    EXPECT_GT(sys.runtime(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SystemMatrix,
    testing::Combine(testing::Values(OsDesign::MultipleKernel,
                                     OsDesign::FusedKernel),
                     testing::Values(MemoryModel::Separated,
                                     MemoryModel::Shared,
                                     MemoryModel::FullyShared),
                     testing::Values(Transport::SharedMemory,
                                     Transport::Network)),
    [](const auto &info) {
        return std::string(osDesignName(std::get<0>(info.param))) +
               "_" + memoryModelName(std::get<1>(info.param)) + "_" +
               transportName(std::get<2>(info.param));
    });

TEST(System, PolicySelectionMatchesDesign)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::MultipleKernel;
    System popcorn(cfg);
    EXPECT_NE(popcorn.dsmEngine(), nullptr);
    EXPECT_EQ(popcorn.stramashState(), nullptr);
    EXPECT_EQ(popcorn.globalAllocator(), nullptr);

    cfg.osDesign = OsDesign::FusedKernel;
    System fused(cfg);
    EXPECT_EQ(fused.dsmEngine(), nullptr);
    EXPECT_NE(fused.stramashState(), nullptr);
    EXPECT_NE(fused.globalAllocator(), nullptr);
}

TEST(System, GlobalAllocatorCanBeDisabled)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.enableGlobalAllocator = false;
    System sys(cfg);
    EXPECT_EQ(sys.globalAllocator(), nullptr);
}

TEST(System, GlobalAllocatorExcludesMessagingArea)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.memoryModel = MemoryModel::Shared;
    cfg.transport = Transport::SharedMemory;
    System sys(cfg);
    ASSERT_NE(sys.globalAllocator(), nullptr);
    // The 128 MiB ring area at 4 GiB is not handed out as blocks:
    // with 256 MiB blocks over [4 GiB + 128 MiB, 8 GiB) only 15 fit.
    EXPECT_EQ(sys.globalAllocator()->freeBlocks(), 15u);
}

TEST(System, SpawnAndExitAcrossKernels)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    System sys(cfg);
    Pid pid = sys.spawn(0);
    EXPECT_TRUE(sys.kernel(0).hasTask(pid));
    EXPECT_FALSE(sys.kernel(1).hasTask(pid));
    sys.migrate(pid, 1);
    EXPECT_TRUE(sys.kernel(1).hasTask(pid));
    sys.exit(pid);
    EXPECT_FALSE(sys.kernel(0).hasTask(pid));
    EXPECT_FALSE(sys.kernel(1).hasTask(pid));
}

TEST(System, ResetExperimentCountersClearsEverything)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::MultipleKernel;
    System sys(cfg);
    App app(sys, 0);
    Addr buf = app.mmap(pageSize);
    app.write<std::uint64_t>(buf, 1);
    app.migrateToNext();
    app.read<std::uint64_t>(buf);
    EXPECT_GT(sys.messagesSent(), 0u);
    EXPECT_GT(sys.runtime(), 0u);
    sys.resetExperimentCounters();
    EXPECT_EQ(sys.messagesSent(), 0u);
    EXPECT_EQ(sys.replicatedPages(), 0u);
    EXPECT_EQ(sys.runtime(), 0u);
}

TEST(System, DistinctPidsPerSpawn)
{
    SystemConfig cfg;
    System sys(cfg);
    Pid a = sys.spawn(0);
    Pid b = sys.spawn(1);
    EXPECT_NE(a, b);
    EXPECT_EQ(sys.whereIs(b), 1u);
}
