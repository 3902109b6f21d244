/**
 * @file
 * A sparse table with one slot per 4 KiB page of a 48-bit address
 * space, kept as a radix tree with 512-entry levels like the page
 * tables the simulator models: a lookup is four indexed loads, a
 * lookup of an untouched page allocates nothing, and each touched
 * 2 MiB region costs one leaf of 512 slots. Addresses at or above
 * 2^48 panic.
 */

#ifndef STRAMASH_COMMON_PAGE_RADIX_HH
#define STRAMASH_COMMON_PAGE_RADIX_HH

#include <array>
#include <memory>

#include "stramash/common/logging.hh"
#include "stramash/common/types.hh"

namespace stramash
{

template <typename T>
class PageRadix
{
  public:
    /** The slot of @p addr's page, or nullptr if never touched. */
    T *
    find(Addr addr) const
    {
        checkRange(addr);
        const auto *upper = root_[index(addr, 3)].get();
        const auto *mid = upper ? (*upper)[index(addr, 2)].get() : nullptr;
        Leaf *leaf = mid ? (*mid)[index(addr, 1)].get() : nullptr;
        return leaf ? &(*leaf)[index(addr, 0)] : nullptr;
    }

    /** The slot of @p addr's page, value-initialised on first touch. */
    T &
    slot(Addr addr)
    {
        checkRange(addr);
        auto &upper = touch(root_[index(addr, 3)]);
        Leaf &leaf = touch(touch(upper[index(addr, 2)])[index(addr, 1)]);
        return leaf[index(addr, 0)];
    }

    /** Drop every slot. */
    void
    clear()
    {
        for (auto &upper : root_)
            upper.reset();
    }

  private:
    /** One directory level: 512 slots, like a page-table page. */
    template <typename Child>
    using Level = std::array<std::unique_ptr<Child>, 512>;
    /** The slots of one 2 MiB region. */
    using Leaf = std::array<T, 512>;

    /** Slot of @p addr at @p level (0 = leaf). */
    static std::size_t
    index(Addr addr, unsigned level)
    {
        return (addr >> (pageShift + 9 * level)) & 511;
    }

    static void
    checkRange(Addr addr)
    {
        panic_if(addr >> (pageShift + 4 * 9), "address ", addr,
                 " beyond the 48-bit address space");
    }

    template <typename U>
    static U &
    touch(std::unique_ptr<U> &slot)
    {
        if (!slot)
            slot = std::make_unique<U>();
        return *slot;
    }

    /** Spans 2^48 bytes: 512 GiB, then 1 GiB, then 2 MiB regions. */
    Level<Level<Level<Leaf>>> root_;
};

} // namespace stramash

#endif // STRAMASH_COMMON_PAGE_RADIX_HH
