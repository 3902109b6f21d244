#include <gtest/gtest.h>

#include <cstring>

#include "stramash/kernel/address_space.hh"

using namespace stramash;

namespace
{

class AddressSpaceTest : public testing::Test
{
  protected:
    AddressSpaceTest() : nextFrame_(0x200000)
    {
        as_ = std::make_unique<AddressSpace>(
            mem_, X86PteFormat::instance(),
            &ArmPteFormat::instance(), [this] { return alloc(); },
            [](Addr) {}, 0x10000);
    }

    Addr
    alloc()
    {
        Addr f = nextFrame_;
        nextFrame_ += pageSize;
        return f;
    }

    PteAttrs
    attrs(bool writable)
    {
        PteAttrs a;
        a.present = true;
        a.user = true;
        a.writable = writable;
        return a;
    }

    GuestMemory mem_;
    Addr nextFrame_;
    std::unique_ptr<AddressSpace> as_;
};

} // namespace

TEST_F(AddressSpaceTest, TranslateUnmapped)
{
    auto x = as_->translate(0x1000, AccessType::Load);
    EXPECT_EQ(x.status, XlateStatus::NotMapped);
}

TEST_F(AddressSpaceTest, TranslateMappedWithOffset)
{
    Addr pa = alloc();
    ASSERT_TRUE(as_->mapPage(0x5000, pa, attrs(true)));
    auto x = as_->translate(0x5123, AccessType::Load);
    EXPECT_EQ(x.status, XlateStatus::Ok);
    EXPECT_EQ(x.pa, pa + 0x123);
}

TEST_F(AddressSpaceTest, StoreToReadOnlyFaults)
{
    ASSERT_TRUE(as_->mapPage(0x6000, alloc(), attrs(false)));
    EXPECT_EQ(as_->translate(0x6000, AccessType::Load).status,
              XlateStatus::Ok);
    EXPECT_EQ(as_->translate(0x6000, AccessType::Store).status,
              XlateStatus::NoWrite);
}

TEST_F(AddressSpaceTest, TlbCachesTranslations)
{
    Addr pa = alloc();
    as_->mapPage(0x7000, pa, attrs(true));
    as_->translate(0x7000, AccessType::Load); // miss, fills TLB
    // Drop the PTE behind the TLB's back: every offset of the page
    // still translates, so the answers come from the cached entry.
    ASSERT_TRUE(as_->pageTable().unmap(0x7000));
    auto load = as_->translate(0x7008, AccessType::Load);
    EXPECT_EQ(load.status, XlateStatus::Ok);
    EXPECT_EQ(load.pa, pa + 0x8);
    auto store = as_->translate(0x7ff8, AccessType::Store);
    EXPECT_EQ(store.status, XlateStatus::Ok);
    EXPECT_EQ(store.pa, pa + 0xff8);
}

TEST_F(AddressSpaceTest, UnmapPurgesTlb)
{
    as_->mapPage(0x8000, alloc(), attrs(true));
    as_->translate(0x8000, AccessType::Load);
    ASSERT_TRUE(as_->unmapPage(0x8000));
    EXPECT_EQ(as_->translate(0x8000, AccessType::Load).status,
              XlateStatus::NotMapped);
}

TEST_F(AddressSpaceTest, ProtectPurgesTlb)
{
    as_->mapPage(0x9000, alloc(), attrs(true));
    as_->translate(0x9000, AccessType::Store); // TLB says writable
    ASSERT_TRUE(as_->protectPage(0x9000, attrs(false)));
    EXPECT_EQ(as_->translate(0x9000, AccessType::Store).status,
              XlateStatus::NoWrite);
}

TEST_F(AddressSpaceTest, ExternalPtChangeNeedsExplicitInvalidate)
{
    // Models a remote kernel rewriting our PTE behind our back
    // (cross-ISA PT lock discipline requires the TLB shootdown).
    Addr pa1 = alloc();
    as_->mapPage(0xa000, pa1, attrs(true));
    as_->translate(0xa000, AccessType::Load);
    // Rewrite the PTE directly in guest memory.
    auto w = as_->pageTable().walk(0xa000);
    Addr pa2 = alloc();
    mem_.store<std::uint64_t>(
        w->pteAddr,
        X86PteFormat::instance().encodeLeaf(pa2, attrs(true)));
    // Stale TLB still returns the old frame...
    EXPECT_EQ(pageBase(as_->translate(0xa000, AccessType::Load).pa),
              pa1);
    // ...until invalidated.
    as_->tlbInvalidate(0xa000);
    EXPECT_EQ(pageBase(as_->translate(0xa000, AccessType::Load).pa),
              pa2);
}

TEST_F(AddressSpaceTest, TlbFlushDropsEverything)
{
    // Pages in different 2 MiB and 512 GiB regions of the TLB.
    const Addr pages[] = {0xb000, 0x40000000, 0x7ffffffff000};
    for (Addr va : pages) {
        as_->mapPage(va, alloc(), attrs(true));
        as_->translate(va, AccessType::Load);
        ASSERT_TRUE(as_->pageTable().unmap(va));
        EXPECT_EQ(as_->translate(va, AccessType::Load).status,
                  XlateStatus::Ok); // still cached
    }
    as_->tlbFlush();
    for (Addr va : pages) {
        EXPECT_EQ(as_->translate(va, AccessType::Load).status,
                  XlateStatus::NotMapped);
    }
}

TEST_F(AddressSpaceTest, LockWordAddresses)
{
    EXPECT_EQ(as_->vmaLockAddr(), 0x10000u);
    EXPECT_EQ(as_->ptlAddr(), 0x10040u);
}

TEST_F(AddressSpaceTest, TlbHostPointerFollowsDiscard)
{
    Addr pa = alloc();
    ASSERT_TRUE(as_->mapPage(0xb000, pa, attrs(true)));
    // Not materialised: the entry carries no host bytes.
    EXPECT_EQ(as_->translate(0xb010, AccessType::Load).host, nullptr);
    mem_.store<std::uint64_t>(pa + 0x10, 77);
    auto x = as_->translate(0xb010, AccessType::Load);
    ASSERT_NE(x.host, nullptr);
    std::uint64_t v;
    std::memcpy(&v, x.host, sizeof v);
    EXPECT_EQ(v, 77u);

    mem_.discard(pa);
    EXPECT_EQ(as_->translate(0xb010, AccessType::Load).host, nullptr);
    mem_.store<std::uint64_t>(pa + 0x10, 78);
    x = as_->translate(0xb010, AccessType::Store);
    ASSERT_NE(x.host, nullptr);
    std::memcpy(&v, x.host, sizeof v);
    EXPECT_EQ(v, 78u);
}
