/**
 * @file
 * Property test: a PageTable driven by random map/unmap/protect
 * sequences must agree with a std::map reference model at every
 * step, for both PTE formats, including cross-format foreign access.
 */

#include <gtest/gtest.h>

#include <map>

#include "stramash/common/rng.hh"
#include "stramash/isa/page_table.hh"

using namespace stramash;

namespace
{

struct RefEntry
{
    Addr pa;
    bool writable;
};

// gtest prints a case as its raw bytes and ctest puts that dump in
// the test name, so the struct has no implicit padding: every byte is
// set and the names are the same in every build.
struct FuzzCase
{
    IsaType isa;
    std::uint8_t zero[7];
    std::uint64_t seed;
};
static_assert(sizeof(FuzzCase) == 16);

std::string
fuzzName(const testing::TestParamInfo<FuzzCase> &info)
{
    return std::string(info.param.isa == IsaType::X86_64 ? "x86"
                                                         : "arm") +
           "_s" + std::to_string(info.param.seed);
}

} // namespace

class PageTableFuzz : public testing::TestWithParam<FuzzCase>
{
};

TEST_P(PageTableFuzz, AgreesWithReferenceModel)
{
    const auto &fmt = pteFormatFor(GetParam().isa);
    const auto &other = pteFormatFor(GetParam().isa == IsaType::X86_64
                                         ? IsaType::AArch64
                                         : IsaType::X86_64);
    GuestMemory mem;
    Addr nextFrame = 0x1000000;
    PageTable pt(
        mem, fmt,
        [&] {
            Addr f = nextFrame;
            nextFrame += pageSize;
            return f;
        },
        [](Addr) {}, &other);

    std::map<Addr, RefEntry> ref;
    Rng rng(GetParam().seed);

    // A small VA pool so operations collide frequently, spread over
    // several top-level slots so deep table paths are exercised.
    auto pickVa = [&] {
        Addr slot = rng.below(4);
        Addr page = rng.below(64);
        return (slot << 46) | (page << 12) | (rng.below(2) << 30);
    };

    for (int step = 0; step < 5000; ++step) {
        Addr va = pickVa();
        switch (rng.below(5)) {
          case 0:
          case 1: { // map
            Addr pa = nextFrame;
            nextFrame += pageSize;
            PteAttrs a;
            a.present = true;
            a.user = true;
            a.writable = rng.chance(0.5);
            bool ok = pt.map(va, pa, a);
            bool refOk = ref.emplace(va, RefEntry{pa, a.writable})
                             .second;
            ASSERT_EQ(ok, refOk) << "step " << step;
            break;
          }
          case 2: { // unmap
            ASSERT_EQ(pt.unmap(va), ref.erase(va) != 0)
                << "step " << step;
            break;
          }
          case 3: { // protect flip
            auto it = ref.find(va);
            PteAttrs a;
            a.present = true;
            a.user = true;
            a.writable = rng.chance(0.5);
            bool ok = pt.protect(va, a);
            ASSERT_EQ(ok, it != ref.end()) << "step " << step;
            if (it != ref.end())
                it->second.writable = a.writable;
            break;
          }
          case 4: { // walk, both native and foreign
            auto w = pt.walk(va);
            auto it = ref.find(va);
            ASSERT_EQ(w.has_value(), it != ref.end())
                << "step " << step;
            if (w) {
                ASSERT_EQ(w->pte.frame, it->second.pa);
                ASSERT_EQ(w->pte.attrs.writable,
                          it->second.writable);
                // The remote walker must agree byte-for-byte.
                auto fw = walkForeign(
                    mem, fmt, pt.rootAddr(), va, {},
                    [&](Addr) -> const PteFormat & { return other; });
                ASSERT_TRUE(fw.has_value());
                ASSERT_EQ(fw->pte.frame, it->second.pa);
                ASSERT_EQ(fw->pteAddr, w->pteAddr);
            }
            break;
          }
        }
    }
    ASSERT_EQ(pt.mappedPages(), ref.size());

    // Final sweep: every reference entry walks correctly.
    for (const auto &[va, e] : ref) {
        auto w = pt.walk(va);
        ASSERT_TRUE(w.has_value());
        ASSERT_EQ(w->pte.frame, e.pa);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PageTableFuzz,
    testing::Values(FuzzCase{IsaType::X86_64, {}, 1},
                    FuzzCase{IsaType::X86_64, {}, 2},
                    FuzzCase{IsaType::AArch64, {}, 3},
                    FuzzCase{IsaType::AArch64, {}, 4},
                    FuzzCase{IsaType::X86_64, {}, 5},
                    FuzzCase{IsaType::AArch64, {}, 6}),
    fuzzName);
