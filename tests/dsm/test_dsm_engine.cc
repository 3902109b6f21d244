#include <gtest/gtest.h>

#include "stramash/core/app.hh"

using namespace stramash;

namespace
{

class DsmTest : public testing::Test
{
  protected:
    DsmTest()
    {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::MultipleKernel;
        cfg.memoryModel = MemoryModel::Shared;
        cfg.transport = Transport::SharedMemory;
        sys_ = std::make_unique<System>(cfg);
        app_ = std::make_unique<App>(*sys_, 0);
        buf_ = app_->mmap(64 * pageSize);
    }

    DsmEngine &engine() { return *sys_->dsmEngine(); }

    std::unique_ptr<System> sys_;
    std::unique_ptr<App> app_;
    Addr buf_ = 0;
};

} // namespace

TEST_F(DsmTest, OriginFirstTouchHasNoMessages)
{
    app_->write<std::uint64_t>(buf_, 1);
    EXPECT_EQ(sys_->messagesSent(), 0u);
    EXPECT_EQ(engine().replicatedPages(), 0u);
}

TEST_F(DsmTest, RemoteReadReplicatesPage)
{
    app_->write<std::uint64_t>(buf_, 0x1234);
    app_->migrateToNext();
    auto msgsBefore = sys_->messagesSent();
    EXPECT_EQ(app_->read<std::uint64_t>(buf_), 0x1234u);
    EXPECT_EQ(engine().replicatedPages(), 1u);
    // VMA round + replication round (the page already exists at the
    // origin, so no allocation round).
    EXPECT_EQ(sys_->messagesSent() - msgsBefore, 4u);
    // The replica is local: both kernels now map the page.
    EXPECT_TRUE(engine().isManaged(app_->pid(), buf_));
}

TEST_F(DsmTest, FreshRemoteTouchCostsAllocationRound)
{
    app_->migrateToNext();
    auto msgsBefore = sys_->messagesSent();
    app_->write<std::uint64_t>(buf_, 5);
    // VMA round + allocation round + replication round.
    EXPECT_EQ(sys_->messagesSent() - msgsBefore, 6u);
    EXPECT_EQ(engine().replicatedPages(), 1u);
}

TEST_F(DsmTest, SecondAccessToReplicaIsFree)
{
    app_->write<std::uint64_t>(buf_, 9);
    app_->migrateToNext();
    app_->read<std::uint64_t>(buf_);
    auto msgs = sys_->messagesSent();
    auto repl = engine().replicatedPages();
    // Warm accesses to the replicated page: no protocol traffic.
    for (int i = 0; i < 100; ++i)
        app_->read<std::uint64_t>(buf_ + 8 * i);
    EXPECT_EQ(sys_->messagesSent(), msgs);
    EXPECT_EQ(engine().replicatedPages(), repl);
}

TEST_F(DsmTest, WriteUpgradeInvalidatesOtherCopy)
{
    app_->write<std::uint64_t>(buf_, 10); // origin owns, RW
    app_->migrateToNext();
    app_->read<std::uint64_t>(buf_); // remote RO replica
    auto inv = engine().invalidations();
    app_->write<std::uint64_t>(buf_, 20); // remote upgrade
    EXPECT_GT(engine().invalidations(), inv);
    // Migrate home: the origin's copy was invalidated, so its read
    // must re-fetch — and see the new value.
    app_->migrateToNext();
    EXPECT_EQ(app_->read<std::uint64_t>(buf_), 20u);
}

TEST_F(DsmTest, OwnershipPingPong)
{
    // Alternating writers force repeated ownership transfers while
    // values stay coherent.
    for (int round = 0; round < 4; ++round) {
        app_->write<std::uint64_t>(buf_,
                                   static_cast<std::uint64_t>(round));
        app_->migrateToNext();
        EXPECT_EQ(app_->read<std::uint64_t>(buf_),
                  static_cast<std::uint64_t>(round));
        app_->write<std::uint64_t>(buf_, round + 100u);
        app_->migrateToNext();
        EXPECT_EQ(app_->read<std::uint64_t>(buf_), round + 100u);
    }
}

TEST_F(DsmTest, RemoteVmaFetchedOnce)
{
    app_->migrateToNext();
    app_->write<std::uint64_t>(buf_, 1);
    auto vmaMsgs = sys_->msg().stats().value("sent.vma_request");
    EXPECT_EQ(vmaMsgs, 1u);
    // Faulting other pages in the same VMA needs no new VMA round.
    app_->write<std::uint64_t>(buf_ + pageSize, 1);
    EXPECT_EQ(sys_->msg().stats().value("sent.vma_request"), 1u);
}

TEST_F(DsmTest, DistinctPagesReplicateIndependently)
{
    for (int p = 0; p < 8; ++p)
        app_->write<std::uint64_t>(buf_ + Addr{4096} * p, p);
    app_->migrateToNext();
    for (int p = 0; p < 8; ++p) {
        EXPECT_EQ(app_->read<std::uint64_t>(buf_ + Addr{4096} * p),
                  static_cast<std::uint64_t>(p));
    }
    EXPECT_EQ(engine().replicatedPages(), 8u);
}

TEST_F(DsmTest, ReadSharingKeepsBothCopiesReadable)
{
    app_->write<std::uint64_t>(buf_, 0x42);
    app_->migrateToNext();
    EXPECT_EQ(app_->read<std::uint64_t>(buf_), 0x42u);
    app_->migrateToNext(); // back home
    // The origin kept its RO copy: no new replication needed.
    auto repl = engine().replicatedPages();
    EXPECT_EQ(app_->read<std::uint64_t>(buf_), 0x42u);
    EXPECT_EQ(engine().replicatedPages(), repl);
}

TEST_F(DsmTest, ForgetTaskClearsState)
{
    app_->write<std::uint64_t>(buf_, 1);
    app_->migrateToNext();
    app_->read<std::uint64_t>(buf_);
    Pid pid = app_->pid();
    EXPECT_TRUE(engine().isManaged(pid, buf_));
    app_.reset(); // exits the task on both kernels
    EXPECT_FALSE(engine().isManaged(pid, buf_));
}

TEST_F(DsmTest, PayloadContentTravelsCorrectly)
{
    // Fill a page with a pattern at the origin, verify remotely.
    std::vector<std::uint8_t> pattern(pageSize);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>((i * 31) ^ 0x5a);
    app_->writeBuf(buf_, pattern.data(), pattern.size());
    app_->migrateToNext();
    std::vector<std::uint8_t> back(pageSize);
    app_->readBuf(buf_, back.data(), back.size());
    EXPECT_EQ(back, pattern);
}

TEST_F(DsmTest, WritePingPongHoldsHostFramesSteady)
{
    // Writes alternate between two nodes, with reads in between: a
    // write either takes the page from its owner (which unmaps its
    // copy) or upgrades a replica (the other holder is invalidated).
    // Every dropped copy is unreachable until the task exits, so its
    // host frame is released and the count stays flat.
    auto pattern = [](std::uint8_t seed) {
        std::vector<std::uint8_t> p(pageSize);
        for (std::size_t i = 0; i < p.size(); ++i)
            p[i] = static_cast<std::uint8_t>(i * 7 + seed);
        return p;
    };
    std::vector<std::uint8_t> back(pageSize);
    auto round = [&](std::uint8_t seed) {
        auto a = pattern(seed);
        app_->writeBuf(buf_, a.data(), a.size());
        app_->migrateToNext();
        auto b = pattern(seed + 1);
        app_->writeBuf(buf_, b.data(), b.size());
        app_->migrateToNext();
        app_->readBuf(buf_, back.data(), back.size());
        EXPECT_EQ(back, b);
        app_->migrateToNext();
        app_->readBuf(buf_, back.data(), back.size());
        EXPECT_EQ(back, b);
        app_->writeBuf(buf_, a.data(), a.size());
        app_->migrateToNext();
        app_->readBuf(buf_, back.data(), back.size());
        EXPECT_EQ(back, a);
    };
    round(0);
    round(2);
    std::size_t frames = sys_->machine().memory().frameCount();
    for (std::uint8_t k = 1; k <= 8; ++k)
        round(static_cast<std::uint8_t>(k * 16));
    EXPECT_EQ(sys_->machine().memory().frameCount(), frames);
    EXPECT_GE(engine().invalidations(), 16u);
}
