#include <gtest/gtest.h>

#include "stramash/common/rng.hh"
#include "stramash/isa/page_table.hh"

using namespace stramash;

namespace
{

class PageTableTest : public testing::TestWithParam<IsaType>
{
  protected:
    PageTableTest()
        : nextFrame_(0x100000),
          fmt_(pteFormatFor(GetParam())),
          other_(pteFormatFor(GetParam() == IsaType::X86_64
                                  ? IsaType::AArch64
                                  : IsaType::X86_64))
    {
        pt_ = std::make_unique<PageTable>(
            mem_, fmt_, [this] { return alloc(); },
            [this](Addr a) { freed_.push_back(a); }, &other_);
    }

    Addr
    alloc()
    {
        Addr f = nextFrame_;
        nextFrame_ += pageSize;
        return f;
    }

    GuestMemory mem_;
    Addr nextFrame_;
    const PteFormat &fmt_;
    const PteFormat &other_;
    // Declared before pt_: ~PageTable frees its tables through the
    // callback, which must still find freed_ alive.
    std::vector<Addr> freed_;
    std::unique_ptr<PageTable> pt_;

    /** Table levels present for @p va, read from how far a charged
     *  walk gets: 1 is only the root, levels() a complete chain. */
    int
    presentDepth(Addr va)
    {
        int loads = 0;
        bool complete =
            findLeafEntry(mem_, fmt_, pt_->rootAddr(), va,
                          [&](AccessType, Addr) { ++loads; })
                .has_value();
        return complete ? loads + 1 : loads;
    }

    PteAttrs
    rw()
    {
        PteAttrs a;
        a.present = true;
        a.writable = true;
        a.user = true;
        return a;
    }
};

} // namespace

TEST_P(PageTableTest, MapWalkUnmap)
{
    Addr va = 0x7f0012345000;
    Addr pa = alloc();
    EXPECT_FALSE(pt_->walk(va).has_value());
    EXPECT_TRUE(pt_->map(va, pa, rw()));
    auto w = pt_->walk(va);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(w->pte.frame, pa);
    EXPECT_TRUE(w->pte.attrs.writable);
    EXPECT_EQ(pt_->mappedPages(), 1u);
    EXPECT_TRUE(pt_->unmap(va));
    EXPECT_FALSE(pt_->walk(va).has_value());
    EXPECT_FALSE(pt_->unmap(va));
}

TEST_P(PageTableTest, DoubleMapRejected)
{
    Addr va = 0x1000000;
    EXPECT_TRUE(pt_->map(va, alloc(), rw()));
    EXPECT_FALSE(pt_->map(va, alloc(), rw()));
}

TEST_P(PageTableTest, DistinctVasDistinctEntries)
{
    std::map<Addr, Addr> mappings;
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        Addr va = (rng.next64() & 0x00ffffffffffull) & ~Addr{0xfff};
        if (mappings.count(va))
            continue;
        Addr pa = alloc();
        ASSERT_TRUE(pt_->map(va, pa, rw()));
        mappings[va] = pa;
    }
    for (const auto &[va, pa] : mappings) {
        auto w = pt_->walk(va);
        ASSERT_TRUE(w.has_value()) << std::hex << va;
        ASSERT_EQ(w->pte.frame, pa);
    }
    EXPECT_EQ(pt_->mappedPages(), mappings.size());
}

TEST_P(PageTableTest, ProtectChangesAttrs)
{
    Addr va = 0x2000000;
    ASSERT_TRUE(pt_->map(va, alloc(), rw()));
    PteAttrs ro = rw();
    ro.writable = false;
    EXPECT_TRUE(pt_->protect(va, ro));
    EXPECT_FALSE(pt_->walk(va)->pte.attrs.writable);
    EXPECT_FALSE(pt_->protect(0x999999000, ro));
}

TEST_P(PageTableTest, PresentDepthAndBuildChain)
{
    Addr va = 0x40000000000; // untouched region
    EXPECT_EQ(presentDepth(va), 1); // only the root
    pt_->buildChain(va);
    EXPECT_EQ(presentDepth(va), fmt_.levels());
    EXPECT_FALSE(pt_->walk(va).has_value()); // leaf still empty
    // Neighbouring page in the same leaf table also sees the chain.
    EXPECT_EQ(presentDepth(va + pageSize), fmt_.levels());
    // An address sharing only the upper levels sees partial depth...
    EXPECT_EQ(presentDepth(va + (Addr{1} << 40)), 2);
    // ...and one in a different top-level slot sees just the root.
    EXPECT_EQ(presentDepth(va + (Addr{1} << 50)), 1);
}

TEST_P(PageTableTest, TableFramesFreedOnDestruction)
{
    pt_->map(0x123000, alloc(), rw());
    std::size_t frames = pt_->tableFrames();
    EXPECT_GE(frames, 5u); // root + 4 intermediate levels
    pt_.reset();
    EXPECT_EQ(freed_.size(), frames);
}

TEST_P(PageTableTest, ForeignWalkDecodesOtherFormat)
{
    Addr va = 0x7777777000;
    Addr pa = alloc();
    ASSERT_TRUE(pt_->map(va, pa, rw()));

    unsigned touches = 0;
    auto touch = [&](AccessType, Addr) { ++touches; };
    auto w = walkForeign(mem_, fmt_, pt_->rootAddr(), va, touch, {});
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(w->pte.frame, pa);
    // One charged read per level.
    EXPECT_EQ(touches, static_cast<unsigned>(fmt_.levels()));

    // A miss stops at the absent level.
    touches = 0;
    EXPECT_FALSE(walkForeign(mem_, fmt_, pt_->rootAddr(),
                             va + (Addr{1} << 40), touch, {})
                     .has_value());
    EXPECT_LT(touches, static_cast<unsigned>(fmt_.levels()));
}

TEST_P(PageTableTest, ForeignDepthMatchesLocal)
{
    // The charged lookup finds the leaf entry the local chain built,
    // loading one entry per upper level, root first.
    Addr va = 0x123456789000;
    Addr leaf = pt_->buildChain(va);
    std::vector<std::pair<AccessType, Addr>> touches;
    auto found = findLeafEntry(mem_, fmt_, pt_->rootAddr(), va,
                               [&](AccessType t, Addr a) {
                                   touches.emplace_back(t, a);
                               });
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, leaf);
    ASSERT_EQ(touches.size(),
              static_cast<std::size_t>(fmt_.levels() - 1));
    for (const auto &[type, addr] : touches)
        EXPECT_EQ(type, AccessType::Load) << std::hex << addr;
    EXPECT_EQ(touches.front().second,
              pt_->rootAddr() + fmt_.indexOf(va, fmt_.levels() - 1) * 8);
}

TEST_P(PageTableTest, MapForeignRequiresLeafTable)
{
    Addr va = 0x6000000000;
    PteAttrs a = rw();
    // Without the chain the fast path has no leaf entry to insert
    // into.
    EXPECT_FALSE(
        findLeafEntry(mem_, fmt_, pt_->rootAddr(), va, {}).has_value());
    pt_->buildChain(va);
    auto leaf = findLeafEntry(mem_, fmt_, pt_->rootAddr(), va, {});
    ASSERT_TRUE(leaf.has_value());
    std::vector<std::pair<AccessType, Addr>> touches;
    writeTaggedLeaf(mem_, other_, *leaf, 0x9000, a,
                    [&](AccessType t, Addr ea) {
                        touches.emplace_back(t, ea);
                    });
    // The insert is one charged store to the leaf entry.
    ASSERT_EQ(touches.size(), 1u);
    EXPECT_EQ(touches[0].first, AccessType::Store);
    EXPECT_EQ(touches[0].second, *leaf);
    // Present now, and decodable through the foreign driver.
    auto w = pt_->walk(va);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(w->pte.frame, 0x9000u);
    // The remote walker reads it back as present in the writer's
    // format, so a second fault shares the frame instead of
    // inserting again.
    DecodedPte d = readLeaf(mem_, fmt_, *leaf, va, {},
                            [&](Addr) -> const PteFormat & {
                                return other_;
                            });
    EXPECT_TRUE(d.attrs.present);
    EXPECT_EQ(d.frame, 0x9000u);
    EXPECT_EQ(d.attrs, a);
}

TEST_P(PageTableTest, ReconcileForeignRewritesNative)
{
    Addr va = 0x6000000000;
    PteAttrs a = rw();
    a.dirty = true;
    Addr leaf = pt_->buildChain(va);
    writeTaggedLeaf(mem_, other_, leaf, 0x9000, a, {});
    // The raw leaf carries the tag before reconciliation.
    std::uint64_t raw = mem_.load<std::uint64_t>(leaf);
    EXPECT_TRUE(raw & foreignFormatTag);

    auto rewritten =
        reconcileForeign(mem_, fmt_, other_, pt_->rootAddr(), va);
    ASSERT_TRUE(rewritten.has_value());
    EXPECT_EQ(*rewritten, leaf);
    raw = mem_.load<std::uint64_t>(leaf);
    EXPECT_FALSE(raw & foreignFormatTag);
    DecodedPte d = fmt_.decode(raw, 0);
    EXPECT_TRUE(d.attrs.present);
    EXPECT_EQ(d.frame, 0x9000u);
    EXPECT_EQ(d.attrs, a);
    // Second reconcile is a no-op.
    EXPECT_FALSE(reconcileForeign(mem_, fmt_, other_, pt_->rootAddr(),
                                  va)
                     .has_value());
}

INSTANTIATE_TEST_SUITE_P(Formats, PageTableTest,
                         testing::Values(IsaType::X86_64,
                                         IsaType::AArch64),
                         [](const auto &info) {
                             return info.param == IsaType::X86_64
                                        ? "x86"
                                        : "arm";
                         });
