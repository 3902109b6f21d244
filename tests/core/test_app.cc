#include <gtest/gtest.h>

#include "stramash/core/app.hh"

using namespace stramash;

namespace
{

class AppTest : public testing::Test
{
  protected:
    AppTest()
    {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::FusedKernel;
        sys_ = std::make_unique<System>(cfg);
        app_ = std::make_unique<App>(*sys_, 0);
    }

    std::unique_ptr<System> sys_;
    std::unique_ptr<App> app_;
};

/** Every node's clock. */
std::vector<Cycles>
clocks(System &sys)
{
    std::vector<Cycles> out;
    for (NodeId n = 0; n < sys.nodeCount(); ++n)
        out.push_back(sys.machine().node(n).cycles());
    return out;
}

/**
 * Read @p va once and check the App's cached binding followed the task
 * to @p node: the read returns @p expect, its access is charged to
 * @p node alone, and every other node's clock stands still.
 */
void
expectReadChargedTo(System &sys, App &app, Addr va, std::uint64_t expect,
                    NodeId node)
{
    std::vector<std::pair<NodeId, Addr>> loads;
    sys.machine().setTraceHooks(
        [&](NodeId n, AccessType type, Addr pa, unsigned size) {
            if (type == AccessType::Load && size == 8)
                loads.emplace_back(n, pa);
        },
        nullptr);
    std::vector<Cycles> before = clocks(sys);
    EXPECT_EQ(app.read<std::uint64_t>(va), expect);
    std::vector<Cycles> after = clocks(sys);
    sys.machine().clearTraceHooks();
    // The page may have been faulted in by this very read.
    Addr pa = sys.kernel(node).task(app.pid()).as->translate(
        va, AccessType::Load).pa;
    std::vector<NodeId> chargedTo;
    for (auto [n, a] : loads) {
        if (a == pa)
            chargedTo.push_back(n);
    }
    EXPECT_EQ(chargedTo, std::vector<NodeId>{node});
    for (NodeId n = 0; n < sys.nodeCount(); ++n) {
        if (n == node)
            EXPECT_GT(after[n], before[n]) << "node " << n;
        else
            EXPECT_EQ(after[n], before[n]) << "node " << n;
    }
    EXPECT_EQ(app.where(), node);
    EXPECT_EQ(&app.currentKernel(), &sys.kernel(node));
    EXPECT_EQ(&app.currentTask(), &sys.kernel(node).task(app.pid()));
}

} // namespace

TEST_F(AppTest, StandardLayoutCreated)
{
    Task &t = sys_->kernel(0).task(app_->pid());
    const Vma *code = t.as->vmas().find(0x400000);
    ASSERT_NE(code, nullptr);
    EXPECT_EQ(code->kind, VmaKind::Code);
    EXPECT_TRUE(code->prot.executable);
    EXPECT_FALSE(code->prot.writable);
    const Vma *stack = t.as->vmas().find(App::stackTop - 64);
    ASSERT_NE(stack, nullptr);
    EXPECT_EQ(stack->kind, VmaKind::Stack);
    EXPECT_EQ(t.state.pc, 0x400000u);
    EXPECT_EQ(t.state.pid, app_->pid());
}

TEST_F(AppTest, MmapRegionsDoNotOverlap)
{
    Addr a = app_->mmap(10 * pageSize);
    Addr b = app_->mmap(pageSize);
    Addr c = app_->mmap(100);
    EXPECT_GE(b, a + 10 * pageSize);
    EXPECT_GE(c, b + pageSize);
    // Sub-page sizes round up to a page.
    Task &t = sys_->kernel(0).task(app_->pid());
    const Vma *v = t.as->vmas().find(c);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->size(), pageSize);
}

TEST_F(AppTest, ReadWriteRoundTripVariousWidths)
{
    Addr buf = app_->mmap(pageSize);
    app_->write<std::uint8_t>(buf, 0x12);
    app_->write<std::uint16_t>(buf + 2, 0x3456);
    app_->write<std::uint32_t>(buf + 4, 0x789abcde);
    app_->write<double>(buf + 8, 2.5);
    EXPECT_EQ(app_->read<std::uint8_t>(buf), 0x12);
    EXPECT_EQ(app_->read<std::uint16_t>(buf + 2), 0x3456);
    EXPECT_EQ(app_->read<std::uint32_t>(buf + 4), 0x789abcdeu);
    EXPECT_DOUBLE_EQ(app_->read<double>(buf + 8), 2.5);
}

TEST_F(AppTest, BufferOpsCrossPages)
{
    Addr buf = app_->mmap(4 * pageSize);
    std::vector<std::uint8_t> data(2 * pageSize + 123);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    app_->writeBuf(buf + 100, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    app_->readBuf(buf + 100, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST_F(AppTest, ComputeRetiresIsaExpandedInstructions)
{
    ICount x86Before = sys_->machine().node(0).icount();
    app_->compute(1000);
    EXPECT_EQ(sys_->machine().node(0).icount() - x86Before, 1000u);

    app_->migrateToNext();
    ICount armBefore = sys_->machine().node(1).icount();
    app_->compute(1000);
    // Arm retires ~18% more instructions for the same work.
    EXPECT_EQ(sys_->machine().node(1).icount() - armBefore, 1180u);
}

TEST_F(AppTest, MigrationPreservesUserData)
{
    Addr buf = app_->mmap(8 * pageSize);
    for (int i = 0; i < 64; ++i)
        app_->write<std::uint64_t>(buf + Addr(i) * 512, i * 31 + 1);
    app_->migrateToNext();
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(app_->read<std::uint64_t>(buf + Addr(i) * 512),
                  static_cast<std::uint64_t>(i * 31 + 1));
    }
}

TEST_F(AppTest, WriteVisibleAcrossRepeatedMigrations)
{
    Addr buf = app_->mmap(pageSize);
    std::uint64_t expect = 0;
    for (int round = 0; round < 6; ++round) {
        expect = expect * 3 + round;
        app_->write<std::uint64_t>(buf, expect);
        app_->migrateToNext();
        EXPECT_EQ(app_->read<std::uint64_t>(buf), expect);
    }
}

TEST_F(AppTest, CasAndFetchAdd)
{
    Addr buf = app_->mmap(pageSize);
    app_->write<std::uint32_t>(buf, 10);
    EXPECT_TRUE(app_->cas(buf, 10, 20));
    EXPECT_FALSE(app_->cas(buf, 10, 30));
    EXPECT_EQ(app_->fetchAdd(buf, 5), 20u);
    EXPECT_EQ(app_->read<std::uint32_t>(buf), 25u);
}

TEST_F(AppTest, CurrentKernelFollowsMigration)
{
    EXPECT_EQ(app_->currentKernel().nodeId(), 0u);
    app_->migrateToNext();
    EXPECT_EQ(app_->currentKernel().nodeId(), 1u);
    EXPECT_EQ(app_->currentTask().pid, app_->pid());
}

TEST_F(AppTest, DestructorCleansUpTasks)
{
    Pid pid = app_->pid();
    app_->migrateToNext();
    app_.reset();
    EXPECT_FALSE(sys_->kernel(0).hasTask(pid));
    EXPECT_FALSE(sys_->kernel(1).hasTask(pid));
}

TEST_F(AppTest, DeathOnZeroByteMmap)
{
    EXPECT_DEATH(app_->mmap(0), "zero");
}

TEST_F(AppTest, CachedBindingFollowsMigrate)
{
    Addr buf = app_->mmap(pageSize);
    app_->write<std::uint64_t>(buf, 0x5eed);
    expectReadChargedTo(*sys_, *app_, buf, 0x5eed, 0);
    app_->migrate(1);
    expectReadChargedTo(*sys_, *app_, buf, 0x5eed, 1);
    app_->write<std::uint64_t>(buf, 0x5eee);
    app_->migrate(0);
    expectReadChargedTo(*sys_, *app_, buf, 0x5eee, 0);
}

TEST_F(AppTest, CachedBindingFollowsProcessMigration)
{
    Addr buf = app_->mmap(pageSize);
    app_->write<std::uint64_t>(buf, 0xfade);
    expectReadChargedTo(*sys_, *app_, buf, 0xfade, 0);
    sys_->migrateProcess(app_->pid(), 1);
    // The source kernel forgot the task: a stale binding would point
    // at a destroyed task record.
    EXPECT_FALSE(sys_->kernel(0).hasTask(app_->pid()));
    expectReadChargedTo(*sys_, *app_, buf, 0xfade, 1);
}

TEST(AppCrash, CachedBindingFollowsCrashRehome)
{
    SystemConfig cfg;
    cfg.osDesign = OsDesign::FusedKernel;
    cfg.crash.enabled = true;
    System sys(cfg);
    App app(sys, 0);
    Addr buf = app.mmap(pageSize);
    app.write<std::uint64_t>(buf, 0xc0ffee);
    app.migrate(1);
    EXPECT_EQ(app.read<std::uint64_t>(buf), 0xc0ffeeu);
    EXPECT_EQ(&app.currentKernel(), &sys.kernel(1));

    // The hosting node dies; the next operation runs detection and
    // recovery first, which re-homes the task on the survivor. Only
    // then do the survivor's heartbeats stop charging node 0 while
    // the task runs elsewhere, so the clock check starts here.
    sys.killNode(1);
    app.compute(1);
    EXPECT_EQ(app.where(), 0u);
    EXPECT_EQ(sys.crashManager()->recovery().value("recoveries"), 1u);
    expectReadChargedTo(sys, app, buf, 0xc0ffee, 0);
}
