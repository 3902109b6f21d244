#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "stramash/common/units.hh"
#include "stramash/fused/global_alloc.hh"

using namespace stramash;

namespace
{

/**
 * Two kernels with the global allocator wired over the message layer
 * (the System arrangement), so MemBlockRequest negotiations really
 * travel as messages and can be denied, lost and retried.
 */
class AllocDegradationTest : public testing::Test
{
  protected:
    void
    build(std::optional<FaultPlan> plan)
    {
        MachineConfig mc =
            MachineConfig::paperPair(MemoryModel::Shared);
        mc.faultPlan = plan;
        machine_ = std::make_unique<Machine>(mc);
        layer_ = std::make_unique<TcpMessageLayer>(*machine_);
        k0_ = std::make_unique<KernelInstance>(*machine_, 0, *layer_);
        k1_ = std::make_unique<KernelInstance>(*machine_, 1, *layer_);
        layer_->registerHandler(
            0, [this](const Message &m) { k0_->pump(m); });
        layer_->registerHandler(
            1, [this](const Message &m) { k1_->pump(m); });
        GmaConfig cfg;
        cfg.blockSize = 256_MiB;
        gma_ = std::make_unique<GlobalMemoryAllocator>(
            *machine_, *layer_,
            std::vector<KernelInstance *>{k0_.get(), k1_.get()}, cfg);
    }

    /** All pool blocks to k1, k0's pressure raised above k1's: the
     *  next onLowMemory(k0) must negotiate a block away from k1. */
    void
    forceNegotiation()
    {
        while (gma_->freeBlocks() > 0)
            ASSERT_TRUE(gma_->onLowMemory(*k1_));
        auto &pa = k0_->palloc();
        while (pa.pressure() < 0.75)
            ASSERT_TRUE(pa.allocPage().has_value());
    }

    std::unique_ptr<Machine> machine_;
    std::unique_ptr<TcpMessageLayer> layer_;
    std::unique_ptr<KernelInstance> k0_;
    std::unique_ptr<KernelInstance> k1_;
    std::unique_ptr<GlobalMemoryAllocator> gma_;
};

} // namespace

TEST_F(AllocDegradationTest, NegotiationMigratesBlockWithoutFaults)
{
    build(std::nullopt);
    forceNegotiation();
    EXPECT_TRUE(gma_->onLowMemory(*k0_));
    EXPECT_EQ(gma_->blocksOwnedBy(0), 1u);
    EXPECT_EQ(gma_->blocksOwnedBy(1), 15u);
    EXPECT_EQ(gma_->stats().value("blocks_migrated"), 1u);
    EXPECT_EQ(gma_->stats().value("negotiation_retries"), 0u);
}

TEST_F(AllocDegradationTest, TransientDenialIsRetriedThenGranted)
{
    FaultPlan plan;
    plan.memBlockDenyRate = 1.0;
    plan.maxFaults = 1;
    build(plan);
    forceNegotiation();

    EXPECT_TRUE(gma_->onLowMemory(*k0_));
    EXPECT_EQ(gma_->blocksOwnedBy(0), 1u);
    EXPECT_EQ(gma_->stats().value("negotiations_denied"), 1u);
    EXPECT_GE(gma_->stats().value("negotiation_retries"), 1u);
    EXPECT_EQ(gma_->stats().value("blocks_migrated"), 1u);
    EXPECT_EQ(gma_->stats().value("degraded_local"), 0u);
}

TEST_F(AllocDegradationTest, PersistentDenialDegradesToLocalMemory)
{
    FaultPlan plan;
    plan.memBlockDenyRate = 1.0; // unbounded
    build(plan);
    forceNegotiation();

    EXPECT_FALSE(gma_->onLowMemory(*k0_));
    EXPECT_EQ(gma_->blocksOwnedBy(0), 0u);
    EXPECT_EQ(gma_->blocksOwnedBy(1), 16u); // donor untouched
    EXPECT_EQ(gma_->stats().value("negotiations_denied"),
              RpcPolicy::maxAttempts);
    EXPECT_EQ(gma_->stats().value("degraded_local"), 1u);
}

TEST_F(AllocDegradationTest, BackoffIsChargedToTheRequesterClock)
{
    FaultPlan plan;
    plan.memBlockDenyRate = 1.0;
    build(plan);
    forceNegotiation();

    Cycles before = machine_->node(0).cycles();
    EXPECT_FALSE(gma_->onLowMemory(*k0_));
    Cycles spent = machine_->node(0).cycles() - before;
    Cycles floor = 0;
    for (unsigned a = 1; a < RpcPolicy::maxAttempts; ++a)
        floor += RpcPolicy::backoffForAttempt(a);
    EXPECT_GE(spent, floor);
}

TEST_F(AllocDegradationTest, DonorWithOnlyLiveBlocksReportsNoMemory)
{
    build(std::nullopt);
    GmaConfig big;
    big.blockSize = 1_GiB; // 4 pool blocks: cheap to keep all live
    gma_ = std::make_unique<GlobalMemoryAllocator>(
        *machine_, *layer_,
        std::vector<KernelInstance *>{k0_.get(), k1_.get()}, big);

    while (gma_->freeBlocks() > 0)
        ASSERT_TRUE(gma_->onLowMemory(*k1_));
    // Put at least one live frame into every k1 block so none can be
    // evacuated for free. Contiguous chunks sweep the address space
    // quickly; tracking them makes the liveness probe cheap.
    std::vector<AddrRange> chunks;
    auto blockIsLive = [&](const AddrRange &b) {
        for (const auto &c : chunks) {
            if (c.start < b.end && b.start < c.end)
                return true;
        }
        return false;
    };
    auto allLive = [&]() {
        for (const auto &b : gma_->ownedBlocks(1)) {
            if (!blockIsLive(b))
                return false;
        }
        return true;
    };
    while (!allLive()) {
        auto c = k1_->palloc().allocContiguous(8192); // 32 MiB
        ASSERT_TRUE(c.has_value());
        chunks.push_back(*c);
    }

    auto &pa = k0_->palloc();
    while (pa.pressure() <= k1_->palloc().pressure() ||
           pa.pressure() < 0.75)
        ASSERT_TRUE(pa.allocPage().has_value());

    // NoMemory is permanent for this donor: no retries, immediate
    // degradation.
    EXPECT_FALSE(gma_->onLowMemory(*k0_));
    EXPECT_EQ(gma_->stats().value("negotiation_retries"), 0u);
    EXPECT_EQ(gma_->stats().value("degraded_local"), 1u);
}

TEST_F(AllocDegradationTest, RequestBlockFromReturnsTypedVerdicts)
{
    build(std::nullopt);
    while (gma_->freeBlocks() > 0)
        ASSERT_TRUE(gma_->onLowMemory(*k1_));

    Result<AddrRange> got = gma_->requestBlockFrom(*k0_, *k1_);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().end - got.value().start, 256_MiB);
    // The donor offlined it; it is not yet onlined anywhere.
    EXPECT_EQ(gma_->blocksOwnedBy(1), 15u);
    EXPECT_EQ(gma_->freeBlocks(), 1u);
}
