/**
 * @file
 * The crown-jewel property test: under *any* interleaving of writes,
 * reads and migrations, on either OS design and any memory model,
 * the application must observe exactly the data a host-side shadow
 * model observes. This exercises the entire stack — fault handlers,
 * DSM protocol or fused walkers, messaging, page tables, caches.
 */

#include <gtest/gtest.h>

#include "stramash/common/rng.hh"
#include "stramash/core/app.hh"

using namespace stramash;

namespace
{

struct Scenario
{
    OsDesign design;
    MemoryModel model;
    std::uint64_t seed;
};

// Without this gtest prints the scenario as raw bytes, uninitialised
// padding included, and those bytes end up in the ctest test names.
void
PrintTo(const Scenario &sc, std::ostream *os)
{
    *os << osDesignName(sc.design) << "_" << memoryModelName(sc.model)
        << "_s" << sc.seed;
}

std::string
scenarioName(const testing::TestParamInfo<Scenario> &info)
{
    return testing::PrintToString(info.param);
}

} // namespace

class MigrationConsistency : public testing::TestWithParam<Scenario>
{
};

TEST_P(MigrationConsistency, RandomOpsMatchShadow)
{
    const Scenario &sc = GetParam();
    SystemConfig cfg;
    cfg.osDesign = sc.design;
    cfg.memoryModel = sc.model;
    cfg.transport = Transport::SharedMemory;
    System sys(cfg);
    App app(sys, 0);

    const Addr bytes = 32 * pageSize;
    Addr buf = app.mmap(bytes);
    std::vector<std::uint64_t> shadow(bytes / 8, 0);

    Rng rng(sc.seed);
    for (int step = 0; step < 3000; ++step) {
        std::uint32_t choice = rng.below(100);
        if (choice < 45) { // write
            std::size_t idx = rng.below(
                static_cast<std::uint32_t>(shadow.size()));
            std::uint64_t v = rng.next64();
            app.write<std::uint64_t>(buf + idx * 8, v);
            shadow[idx] = v;
        } else if (choice < 90) { // read
            std::size_t idx = rng.below(
                static_cast<std::uint32_t>(shadow.size()));
            ASSERT_EQ(app.read<std::uint64_t>(buf + idx * 8),
                      shadow[idx])
                << "step " << step << " idx " << idx << " on node "
                << app.where();
        } else if (choice < 97) { // migrate
            app.migrateToNext();
        } else { // bulk check of a random page
            std::size_t page = rng.below(32);
            std::uint64_t tile[512];
            app.readBuf(buf + page * pageSize, tile, pageSize);
            for (int i = 0; i < 512; ++i) {
                ASSERT_EQ(tile[i], shadow[page * 512 + i])
                    << "step " << step;
            }
        }
    }

    // Final full verification from the origin.
    app.migrate(0);
    for (std::size_t i = 0; i < shadow.size(); i += 64)
        ASSERT_EQ(app.read<std::uint64_t>(buf + i * 8), shadow[i]);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MigrationConsistency,
    testing::Values(
        Scenario{OsDesign::MultipleKernel, MemoryModel::Separated, 1},
        Scenario{OsDesign::MultipleKernel, MemoryModel::Shared, 2},
        Scenario{OsDesign::MultipleKernel, MemoryModel::FullyShared,
                 3},
        Scenario{OsDesign::FusedKernel, MemoryModel::Separated, 4},
        Scenario{OsDesign::FusedKernel, MemoryModel::Shared, 5},
        Scenario{OsDesign::FusedKernel, MemoryModel::FullyShared, 6},
        Scenario{OsDesign::MultipleKernel, MemoryModel::Shared, 7},
        Scenario{OsDesign::FusedKernel, MemoryModel::Shared, 8}),
    scenarioName);
