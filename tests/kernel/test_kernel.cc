#include <gtest/gtest.h>

#include "stramash/common/units.hh"
#include "stramash/kernel/kernel.hh"

using namespace stramash;

namespace
{

/** Minimal fault handler: local anonymous faults only. */
class LocalOnlyHandler final : public FaultHandler
{
  public:
    void
    handleFault(KernelInstance &kernel, Task &task, Addr va,
                XlateStatus, AccessType type) override
    {
        bool ok = kernel.handleLocalAnonFault(task, va, type);
        panic_if(!ok, "fault outside VMA in test");
    }

    void onTaskExit(KernelInstance &, Task &) override {}
};

class KernelTest : public testing::Test
{
  protected:
    KernelTest()
        : machine_(MachineConfig::paperPair(MemoryModel::Shared)),
          layer_(machine_),
          kernel_(machine_, 0, layer_)
    {
        kernel_.setFaultHandler(&handler_);
    }

    Task &
    spawn()
    {
        Task &t = kernel_.createTask(7, 0);
        Vma v;
        v.start = 0x100000;
        v.end = 0x100000 + 1_MiB;
        v.prot.present = true;
        v.prot.user = true;
        v.prot.writable = true;
        t.as->vmas().insert(v);
        return t;
    }

    Machine machine_;
    TcpMessageLayer layer_;
    KernelInstance kernel_;
    LocalOnlyHandler handler_;
};

} // namespace

TEST_F(KernelTest, BootTakesFirmwareRanges)
{
    // x86 boots with 1.5 GiB minus the 64 MiB kernel data region.
    EXPECT_EQ(kernel_.palloc().totalPages(),
              (1_GiB + 512_MiB - 64_MiB) / pageSize);
    EXPECT_EQ(kernel_.isa(), IsaType::X86_64);
}

TEST_F(KernelTest, ReservedRangesExcluded)
{
    KernelInstance k2(machine_, 1, layer_, {{2_GiB, 2_GiB + 256_MiB}});
    // Arm boots with 1.5 GiB minus reservation minus data region.
    EXPECT_EQ(k2.palloc().totalPages(),
              (1_GiB + 512_MiB - 256_MiB - 64_MiB) / pageSize);
    EXPECT_FALSE(k2.palloc().manages(2_GiB + 1_MiB));
}

TEST_F(KernelTest, DataRegionAllocations)
{
    Addr a = kernel_.allocDataArea(100);
    Addr b = kernel_.allocDataArea(100);
    EXPECT_GE(b, a + 100);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    // Hashed addresses are stable and line-aligned.
    EXPECT_EQ(kernel_.dataAddrFor(42), kernel_.dataAddrFor(42));
    EXPECT_NE(kernel_.dataAddrFor(42), kernel_.dataAddrFor(43));
    EXPECT_EQ(kernel_.dataAddrFor(42) % 64, 0u);
}

TEST_F(KernelTest, TaskLifecycle)
{
    EXPECT_FALSE(kernel_.hasTask(7));
    Task &t = spawn();
    EXPECT_TRUE(kernel_.hasTask(7));
    EXPECT_EQ(t.pid, 7u);
    EXPECT_EQ(kernel_.findTask(7), &t);
    kernel_.destroyTask(7);
    EXPECT_FALSE(kernel_.hasTask(7));
    EXPECT_EQ(kernel_.findTask(7), nullptr);
}

TEST_F(KernelTest, UserReadWriteFaultsAndRoundTrips)
{
    Task &t = spawn();
    std::uint64_t v = 0xfeedfacecafe;
    kernel_.userStore<std::uint64_t>(t, 0x100100, v);
    EXPECT_EQ(kernel_.userLoad<std::uint64_t>(t, 0x100100), v);
    EXPECT_GE(kernel_.stats().value("page_faults"), 1u);
    EXPECT_GE(kernel_.stats().value("anon_faults"), 1u);
}

TEST_F(KernelTest, UserAccessFollowsDiscardOfAMemoisedFrame)
{
    // The TLB entry hands user accesses the frame's host bytes; a
    // discard frees them, so a stale pointer here is a use after free.
    Task &t = spawn();
    const Addr va = 0x100208;
    kernel_.userStore<std::uint64_t>(t, va, 0x1122334455667788);
    EXPECT_EQ(kernel_.userLoad<std::uint64_t>(t, va), 0x1122334455667788u);
    XlateResult x = t.as->translate(va, AccessType::Load);
    ASSERT_EQ(x.status, XlateStatus::Ok);
    ASSERT_NE(x.host, nullptr);

    GuestMemory &mem = machine_.memory();
    const std::size_t frames = mem.frameCount();
    mem.discard(x.pa);
    EXPECT_EQ(mem.frameCount(), frames - 1);
    EXPECT_EQ(kernel_.userLoad<std::uint64_t>(t, va), 0u);
    std::uint64_t buf = 1;
    kernel_.userRead(t, va, &buf, sizeof buf);
    EXPECT_EQ(buf, 0u);
    EXPECT_EQ(mem.frameCount(), frames - 1); // reading allocates nothing

    // A write re-materialises the frame at the same guest address.
    kernel_.userStore<std::uint64_t>(t, va, 42);
    EXPECT_EQ(mem.frameCount(), frames);
    EXPECT_EQ(kernel_.userLoad<std::uint64_t>(t, va), 42u);
    EXPECT_EQ(mem.load<std::uint64_t>(x.pa), 42u);
    EXPECT_EQ(kernel_.userFetchAdd(t, va, 3), 42u);
    mem.discard(x.pa);
    EXPECT_EQ(kernel_.userFetchAdd(t, va, 5), 0u);
    EXPECT_EQ(kernel_.userLoad<std::uint64_t>(t, va), 5u);

    // Page-table changes still reach the access path through the memo.
    PteAttrs ro = t.as->vmas().find(va)->prot;
    ro.present = true;
    ro.writable = false;
    ASSERT_TRUE(t.as->protectPage(va, ro));
    EXPECT_EQ(t.as->translate(va, AccessType::Store).status,
              XlateStatus::NoWrite);
    EXPECT_EQ(t.as->translate(va, AccessType::Load).status,
              XlateStatus::Ok);
    ASSERT_TRUE(t.as->unmapPage(va));
    EXPECT_EQ(t.as->translate(va, AccessType::Load).status,
              XlateStatus::NotMapped);
}

TEST_F(KernelTest, DiscardDuringTheChargedAccessFallsBackToGuestMemory)
{
    // A write-back hook runs inside the access's own charge and may
    // discard the very frame the access resolved (as a DSM write-back
    // can): the copy must then go through guest memory, not the host
    // pointer translated before the charge.
    Task &t = spawn();
    const Addr va = 0x100300;
    kernel_.userStore<std::uint64_t>(t, va, 1);
    const Addr pa = t.as->translate(va, AccessType::Load).pa;
    GuestMemory &mem = machine_.memory();
    CoherenceDomain &caches = machine_.caches();
    caches.setWritebackHook([&](NodeId, Addr) { mem.discard(pa); });

    // Fill the line's set in every level with dirty lines, so the next
    // access to it evicts one from the LLC and runs the hook. The
    // 16-way 4 MiB L3 repeats its sets every 256 KiB.
    auto dirtyTheSet = [&] {
        caches.flushAll();
        for (Addr k = 1; k <= 16; ++k) {
            machine_.dataAccess(0, AccessType::Store,
                                lineBase(pa) + k * 256_KiB, 8);
        }
    };

    dirtyTheSet();
    kernel_.userStore<std::uint64_t>(t, va, 0xabcdef);
    EXPECT_EQ(mem.load<std::uint64_t>(pa), 0xabcdefu);
    EXPECT_EQ(kernel_.userLoad<std::uint64_t>(t, va), 0xabcdefu);

    const std::size_t frames = mem.frameCount();
    dirtyTheSet();
    EXPECT_EQ(kernel_.userLoad<std::uint64_t>(t, va), 0u);
    EXPECT_EQ(mem.frameCount(), frames - 1);
    caches.setWritebackHook(nullptr);
}

TEST_F(KernelTest, UserAccessSpansPages)
{
    Task &t = spawn();
    std::vector<std::uint8_t> buf(3 * pageSize);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 3);
    Addr va = 0x100000 + pageSize - 100;
    kernel_.userWrite(t, va, buf.data(), buf.size());
    std::vector<std::uint8_t> back(buf.size());
    kernel_.userRead(t, va, back.data(), back.size());
    EXPECT_EQ(back, buf);
    // Four pages faulted in.
    EXPECT_EQ(kernel_.stats().value("anon_faults"), 4u);
}

TEST_F(KernelTest, CasSemantics)
{
    Task &t = spawn();
    kernel_.userStore<std::uint32_t>(t, 0x100000, 5);
    bool ok = false;
    EXPECT_EQ(kernel_.userCas(t, 0x100000, 5, 9, ok), 5u);
    EXPECT_TRUE(ok);
    EXPECT_EQ(kernel_.userCas(t, 0x100000, 5, 11, ok), 9u);
    EXPECT_FALSE(ok);
    EXPECT_EQ(kernel_.userLoad<std::uint32_t>(t, 0x100000), 9u);
}

TEST_F(KernelTest, FetchAdd)
{
    Task &t = spawn();
    EXPECT_EQ(kernel_.userFetchAdd(t, 0x100040, 3), 0u);
    EXPECT_EQ(kernel_.userFetchAdd(t, 0x100040, 4), 3u);
    EXPECT_EQ(kernel_.userLoad<std::uint32_t>(t, 0x100040), 7u);
}

TEST_F(KernelTest, TaskPagesFreedOnDestroy)
{
    Task &t = spawn();
    kernel_.userStore<std::uint64_t>(t, 0x100000, 1);
    kernel_.userStore<std::uint64_t>(t, 0x101000, 1);
    std::uint64_t used = kernel_.palloc().usedPages();
    kernel_.destroyTask(7);
    // At least the two data pages returned (table frames too).
    EXPECT_LT(kernel_.palloc().usedPages(), used);
}

TEST_F(KernelTest, LocalAnonFaultOutsideVmaFails)
{
    Task &t = spawn();
    EXPECT_FALSE(
        kernel_.handleLocalAnonFault(t, 0x9990000, AccessType::Load));
}

TEST_F(KernelTest, LowMemoryHookInvokedUnderPressure)
{
    Task &t = spawn();
    int calls = 0;
    kernel_.setLowMemoryHook([&](KernelInstance &) {
        ++calls;
        return false;
    });
    // Force pressure over 70% by draining the allocator directly.
    auto &pa = kernel_.palloc();
    while (pa.pressure() <= 0.70)
        ASSERT_TRUE(pa.allocPage().has_value());
    kernel_.userStore<std::uint64_t>(t, 0x100000, 1);
    EXPECT_GE(calls, 1);
}

TEST_F(KernelTest, MessagePumpDispatchesByType)
{
    int hits = 0;
    kernel_.registerMsgHandler(MsgType::FutexWake,
                               [&](const Message &) { ++hits; });
    Message m;
    m.type = MsgType::FutexWake;
    kernel_.pump(m);
    EXPECT_EQ(hits, 1);
}

TEST_F(KernelTest, NamespacesListAllCpus)
{
    EXPECT_EQ(kernel_.namespaces().cpus.size(), 2u);
    EXPECT_EQ(kernel_.namespaces().cpus[0].isa, IsaType::X86_64);
    EXPECT_EQ(kernel_.namespaces().cpus[1].isa, IsaType::AArch64);
}

TEST_F(KernelTest, DeathOnDuplicateTask)
{
    spawn();
    EXPECT_DEATH(kernel_.createTask(7, 0), "already");
}

TEST_F(KernelTest, DeathOnUnhandledMessage)
{
    Message m;
    m.type = MsgType::PageRequest;
    EXPECT_DEATH(kernel_.pump(m), "no handler");
}
