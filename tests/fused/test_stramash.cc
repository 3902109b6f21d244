#include <gtest/gtest.h>

#include <algorithm>

#include "stramash/core/app.hh"

using namespace stramash;

namespace
{

class StramashTest : public testing::Test
{
  protected:
    StramashTest()
    {
        SystemConfig cfg;
        cfg.osDesign = OsDesign::FusedKernel;
        cfg.memoryModel = MemoryModel::Shared;
        cfg.transport = Transport::SharedMemory;
        sys_ = std::make_unique<System>(cfg);
    }

    StramashShared &shared() { return *sys_->stramashState(); }

    std::unique_ptr<System> sys_;
};

} // namespace

TEST_F(StramashTest, RemoteReadSharesOriginFrame)
{
    App app(*sys_, 0);
    Addr buf = app.mmap(8 * pageSize);
    app.write<std::uint64_t>(buf, 0x77);
    app.migrateToNext();

    auto msgs = sys_->messagesSent();
    EXPECT_EQ(app.read<std::uint64_t>(buf), 0x77u);
    // Direct shared-memory fault handling: no messages at all.
    EXPECT_EQ(sys_->messagesSent(), msgs);
    EXPECT_EQ(shared().sharedMappings, 1u);
    EXPECT_EQ(shared().foreignInsertions, 0u);

    // Both page tables point at the same physical frame.
    Pid pid = app.pid();
    auto wo = sys_->kernel(0).task(pid).as->pageTable().walk(buf);
    auto wr = sys_->kernel(1).task(pid).as->pageTable().walk(buf);
    ASSERT_TRUE(wo.has_value());
    ASSERT_TRUE(wr.has_value());
    EXPECT_EQ(wo->pte.frame, wr->pte.frame);
}

TEST_F(StramashTest, RemoteWriteIsImmediatelyVisibleAtOrigin)
{
    App app(*sys_, 0);
    Addr buf = app.mmap(pageSize);
    app.write<std::uint64_t>(buf, 1);
    app.migrateToNext();
    app.write<std::uint64_t>(buf, 2); // same frame, no replication
    app.migrateToNext();
    EXPECT_EQ(app.read<std::uint64_t>(buf), 2u);
    EXPECT_EQ(sys_->replicatedPages(), 0u);
}

TEST_F(StramashTest, FastPathInsertsForeignFormatPte)
{
    App app(*sys_, 0);
    Addr buf = app.mmap(8 * pageSize);
    // Touch one page at the origin so the table chain exists.
    app.write<std::uint64_t>(buf, 1);
    app.migrateToNext();

    auto msgs = sys_->messagesSent();
    // Fresh page in the same leaf table: remote fast path.
    app.write<std::uint64_t>(buf + pageSize, 42);
    EXPECT_EQ(sys_->messagesSent(), msgs); // message-free
    EXPECT_EQ(shared().foreignInsertions, 1u);

    // The origin's page table now has a *tagged* foreign entry the
    // origin can decode through its remote CPU driver.
    Pid pid = app.pid();
    auto w = sys_->kernel(0).task(pid).as->pageTable().walk(
        buf + pageSize);
    ASSERT_TRUE(w.has_value());
    std::uint64_t raw = sys_->machine().memory().load<std::uint64_t>(
        w->pteAddr);
    EXPECT_TRUE(raw & foreignFormatTag);
    // And the frame came from the *remote* kernel's memory (Arm
    // local memory starts at 1.5 GiB).
    EXPECT_GE(w->pte.frame, Addr{1536} << 20);
}

TEST_F(StramashTest, FastPathWalksThenZeroesThenStoresTaggedLeaf)
{
    App app(*sys_, 0);
    Addr buf = app.mmap(8 * pageSize);
    app.write<std::uint64_t>(buf, 1);
    app.migrateToNext();
    Addr va = buf + pageSize;

    struct Access
    {
        NodeId node;
        AccessType type;
        Addr pa;
        unsigned size;
    };
    std::vector<Access> trace;
    sys_->machine().setTraceHooks(
        [&](NodeId n, AccessType t, Addr pa, unsigned size) {
            trace.push_back({n, t, pa, size});
        },
        nullptr);
    app.write<std::uint64_t>(va, 42);
    sys_->machine().clearTraceHooks();
    ASSERT_EQ(shared().foreignInsertions, 1u);

    // The origin table's upper-level entries for va, root first, its
    // leaf entry, and the frame the remote kernel allocated.
    const PageTable &opt =
        sys_->kernel(0).task(app.pid()).as->pageTable();
    std::vector<Addr> upper;
    std::optional<Addr> leafEa = findLeafEntry(
        sys_->machine().memory(), opt.format(), opt.rootAddr(), va,
        [&](AccessType, Addr a) { upper.push_back(a); });
    ASSERT_TRUE(leafEa.has_value());
    ASSERT_EQ(upper.size(),
              static_cast<std::size_t>(opt.format().levels() - 1));
    Addr frame = opt.walk(va)->pte.frame;

    std::vector<Access> want;
    for (Addr a : upper)
        want.push_back({1, AccessType::Load, a, 8});
    want.push_back({1, AccessType::Load, *leafEa, 8});
    want.push_back({1, AccessType::Store, frame, pageSize});
    want.push_back({1, AccessType::Store, *leafEa, 8});

    std::vector<Access> seen;
    for (const Access &a : trace) {
        bool entry = a.size == 8 &&
                     (a.pa == *leafEa ||
                      std::find(upper.begin(), upper.end(), a.pa) !=
                          upper.end());
        bool zeroing = a.pa == frame && a.size == pageSize;
        if (entry || zeroing)
            seen.push_back(a);
    }
    ASSERT_EQ(seen.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(seen[i].node, want[i].node) << "access " << i;
        EXPECT_EQ(seen[i].type, want[i].type) << "access " << i;
        EXPECT_EQ(seen[i].pa, want[i].pa) << "access " << i;
        EXPECT_EQ(seen[i].size, want[i].size) << "access " << i;
    }
}

TEST_F(StramashTest, MigrateBackReconcilesForeignPtes)
{
    App app(*sys_, 0);
    Addr buf = app.mmap(8 * pageSize);
    app.write<std::uint64_t>(buf, 1);
    app.migrateToNext();
    app.write<std::uint64_t>(buf + pageSize, 42);
    ASSERT_EQ(shared().foreignMapped[app.pid()].size(), 1u);

    app.migrateToNext(); // back to origin: reconcile runs
    EXPECT_TRUE(shared().foreignMapped[app.pid()].empty());
    EXPECT_EQ(sys_->kernel(0).stats().value("ptes_reconciled"), 1u);

    Pid pid = app.pid();
    auto w = sys_->kernel(0).task(pid).as->pageTable().walk(
        buf + pageSize);
    std::uint64_t raw = sys_->machine().memory().load<std::uint64_t>(
        w->pteAddr);
    EXPECT_FALSE(raw & foreignFormatTag);
    // The origin reads the remote-allocated page through the now
    // native PTE.
    EXPECT_EQ(app.read<std::uint64_t>(buf + pageSize), 42u);
}

TEST_F(StramashTest, SlowPathUsesOneMessageRound)
{
    App app(*sys_, 0);
    // A region never touched at the origin: no table chain at all.
    Addr buf = app.mmap(8 * pageSize);
    app.migrateToNext();

    auto msgs = sys_->messagesSent();
    auto slow = shared().slowPathFaults;
    app.write<std::uint64_t>(buf, 7);
    EXPECT_EQ(shared().slowPathFaults, slow + 1);
    // Request + response, then the retried fault takes the fast
    // path (no further messages).
    EXPECT_EQ(sys_->messagesSent() - msgs, 2u);
    EXPECT_EQ(shared().foreignInsertions, 1u);

    // Neighbouring pages now fast-path with no messages.
    msgs = sys_->messagesSent();
    app.write<std::uint64_t>(buf + pageSize, 8);
    EXPECT_EQ(sys_->messagesSent(), msgs);
    EXPECT_EQ(shared().foreignInsertions, 2u);
}

TEST_F(StramashTest, RemoteVmaWalkCopiesVmaWithoutMessages)
{
    App app(*sys_, 0);
    Addr buf = app.mmap(4 * pageSize);
    app.write<std::uint64_t>(buf, 1);
    app.migrateToNext();
    auto msgs = sys_->messagesSent();
    app.read<std::uint64_t>(buf);
    EXPECT_EQ(sys_->messagesSent(), msgs);
    // The remote kernel now holds a copy of the VMA.
    const Vma *v =
        sys_->kernel(1).task(app.pid()).as->vmas().find(buf);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->start, pageBase(buf));
}

TEST_F(StramashTest, FutexDirectAccessAndSingleIpi)
{
    App app(*sys_, 0);
    Addr page = app.mmap(pageSize);
    app.write<std::uint32_t>(page, 1);

    // Park the origin-side waiter.
    EXPECT_TRUE(app.futexWait(page, 1));
    EXPECT_EQ(sys_->kernel(0).futexTable().waiters(page), 1u);

    // Wake from the remote side: zero messages, exactly one IPI.
    app.migrateToNext();
    auto msgs = sys_->messagesSent();
    auto ipis = sys_->machine().ipisReceived(0);
    EXPECT_EQ(app.futexWake(page, 1), 1u);
    EXPECT_EQ(sys_->messagesSent(), msgs);
    EXPECT_EQ(sys_->machine().ipisReceived(0), ipis + 1);
    EXPECT_EQ(sys_->kernel(0).futexTable().waiters(page), 0u);
}

TEST_F(StramashTest, FutexRemoteWaitEnqueuesAtOriginDirectly)
{
    App app(*sys_, 0);
    Addr page = app.mmap(pageSize);
    app.write<std::uint32_t>(page, 5);
    app.migrateToNext();
    auto msgs = sys_->messagesSent();
    EXPECT_TRUE(app.futexWait(page, 5));
    EXPECT_EQ(sys_->messagesSent(), msgs); // direct list access
    EXPECT_EQ(sys_->kernel(0).futexTable().waiters(page), 1u);
    EXPECT_FALSE(app.futexWait(page, 6)); // value check still works
}

TEST_F(StramashTest, FusedNamespacesIdentical)
{
    // §6.6: same mount/PID/net/UTS/user/cgroup namespaces and the
    // same CPU list on every kernel instance.
    EXPECT_TRUE(sys_->kernel(0).namespaces() ==
                sys_->kernel(1).namespaces());
}

TEST_F(StramashTest, MigrationUsesMailboxNotPayload)
{
    App app(*sys_, 0);
    sys_->kernel(0).task(app.pid()).state.args[2] = 0x99;
    auto bytesBefore = sys_->msg().bytesSent();
    app.migrate(1);
    // One header-only message: the state travelled through shared
    // memory, not the message payload.
    EXPECT_EQ(sys_->msg().bytesSent() - bytesBefore,
              Message::headerBytes);
    EXPECT_EQ(sys_->kernel(1).task(app.pid()).state.args[2], 0x99u);
}

TEST_F(StramashTest, TaskExitReleasesRemotePages)
{
    auto &remotePalloc = sys_->kernel(1).palloc();
    std::uint64_t usedBefore = remotePalloc.usedPages();
    {
        App app(*sys_, 0);
        Addr buf = app.mmap(4 * pageSize);
        app.write<std::uint64_t>(buf, 1);
        app.migrateToNext();
        app.write<std::uint64_t>(buf + pageSize, 2); // remote alloc
        EXPECT_GT(remotePalloc.usedPages(), usedBefore);
    }
    // App destructor exits the task everywhere; the remote kernel
    // released the pages it allocated (§6.4's recycling rule).
    EXPECT_EQ(remotePalloc.usedPages(), usedBefore);
}
