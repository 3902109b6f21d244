#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "stramash/kernel/vma.hh"

using namespace stramash;

namespace
{

Vma
mkVma(Addr start, Addr end, bool writable = true)
{
    Vma v;
    v.start = start;
    v.end = end;
    v.prot.present = true;
    v.prot.user = true;
    v.prot.writable = writable;
    v.kind = VmaKind::Anon;
    return v;
}

} // namespace

TEST(VmaTree, InsertAndFind)
{
    VmaTree t;
    EXPECT_TRUE(t.insert(mkVma(0x1000, 0x3000)));
    EXPECT_TRUE(t.insert(mkVma(0x5000, 0x7000)));
    EXPECT_EQ(t.size(), 2u);
    const Vma *v = t.find(0x2000);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->start, 0x1000u);
    EXPECT_EQ(t.find(0x3000), nullptr); // end is exclusive
    EXPECT_EQ(t.find(0x4000), nullptr); // gap
    EXPECT_NE(t.find(0x6fff), nullptr);
    EXPECT_EQ(t.find(0x7000), nullptr);
}

TEST(VmaTree, OverlapRejected)
{
    VmaTree t;
    EXPECT_TRUE(t.insert(mkVma(0x2000, 0x4000)));
    EXPECT_FALSE(t.insert(mkVma(0x1000, 0x3000))); // tail overlap
    EXPECT_FALSE(t.insert(mkVma(0x3000, 0x5000))); // head overlap
    EXPECT_FALSE(t.insert(mkVma(0x2000, 0x4000))); // exact dup
    EXPECT_FALSE(t.insert(mkVma(0x3000, 0x4000))); // contained
    EXPECT_TRUE(t.insert(mkVma(0x1000, 0x2000)));  // abutting is fine
    EXPECT_TRUE(t.insert(mkVma(0x4000, 0x5000)));
    EXPECT_EQ(t.size(), 3u);
}

TEST(VmaTree, Remove)
{
    VmaTree t;
    t.insert(mkVma(0x1000, 0x2000));
    EXPECT_TRUE(t.remove(0x1000));
    EXPECT_FALSE(t.remove(0x1000));
    EXPECT_EQ(t.find(0x1800), nullptr);
}

TEST(VmaTree, ForEachAscending)
{
    VmaTree t;
    t.insert(mkVma(0x5000, 0x6000));
    t.insert(mkVma(0x1000, 0x2000));
    t.insert(mkVma(0x3000, 0x4000));
    std::vector<Addr> starts;
    t.forEach([&](const Vma &v) { starts.push_back(v.start); });
    EXPECT_EQ(starts, (std::vector<Addr>{0x1000, 0x3000, 0x5000}));
}

TEST(VmaTree, FindCountingReportsDepth)
{
    // The remote VMA walker charges one line read per visited node:
    // exactly the depth of a balanced tree, 1 + floor(log2 n).
    const std::pair<unsigned, unsigned> cases[] = {
        {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1000, 10}};
    for (auto [n, depth] : cases) {
        SCOPED_TRACE("n = " + std::to_string(n));
        VmaTree t;
        for (Addr i = 0; i < n; ++i)
            t.insert(mkVma(i * 0x10000, i * 0x10000 + 0x1000));
        Addr hit = n / 2;
        unsigned visited = 0;
        const Vma *v = t.findCounting(hit * 0x10000 + 0x500, visited);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(v->start, hit * 0x10000);
        EXPECT_EQ(visited, depth);
        // A miss walks the same depth.
        visited = 0;
        EXPECT_EQ(t.findCounting(hit * 0x10000 + 0x1000, visited),
                  nullptr);
        EXPECT_EQ(visited, depth);
    }
}

TEST(VmaTree, PageAttrsFollowProtection)
{
    Vma rw = mkVma(0, 0x1000, true);
    PteAttrs a = vmaPageAttrs(rw, true);
    EXPECT_TRUE(a.present);
    EXPECT_TRUE(a.writable);
    EXPECT_TRUE(a.dirty);
    a = vmaPageAttrs(rw, false);
    EXPECT_FALSE(a.writable);
    EXPECT_FALSE(a.dirty);
    // A read-only VMA never yields writable pages.
    Vma ro = mkVma(0, 0x1000, false);
    a = vmaPageAttrs(ro, true);
    EXPECT_FALSE(a.writable);
}

TEST(VmaTree, KindNames)
{
    EXPECT_STREQ(vmaKindName(VmaKind::Code), "code");
    EXPECT_STREQ(vmaKindName(VmaKind::Stack), "stack");
    EXPECT_STREQ(vmaKindName(VmaKind::Anon), "anon");
}

TEST(VmaTreeDeath, EmptyVmaPanics)
{
    VmaTree t;
    EXPECT_DEATH(t.insert(mkVma(0x1000, 0x1000)), "empty");
}

TEST(VmaTreeDeath, UnalignedVmaPanics)
{
    VmaTree t;
    EXPECT_DEATH(t.insert(mkVma(0x1001, 0x3000)), "aligned");
}
