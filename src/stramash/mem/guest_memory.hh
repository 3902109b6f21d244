/**
 * @file
 * The fused guest physical memory.
 *
 * As in Stramash-QEMU, one coherent backing store holds the physical
 * memory of every node: "any memory operation from a single guest will
 * be reflected in others" (paper §7.1). We back it with host memory,
 * allocated sparsely in 4 KiB frames so an 8 GiB guest costs only what
 * it touches.
 *
 * Frames hang off a radix directory keyed by frame number, with
 * 512-entry levels like the page tables the simulator models: a
 * lookup is four indexed loads, an untouched read allocates nothing,
 * and each touched 2 MiB region costs one 4 KiB leaf. The four levels
 * cover a 48-bit physical address space.
 *
 * GuestMemory is purely functional storage — it has no timing. Timing
 * comes from the cache hierarchy and memory model in cache/ and mem/.
 */

#ifndef STRAMASH_MEM_GUEST_MEMORY_HH
#define STRAMASH_MEM_GUEST_MEMORY_HH

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "stramash/common/logging.hh"
#include "stramash/common/types.hh"

namespace stramash
{

/** Sparse, host-backed guest physical memory. */
class GuestMemory
{
  public:
    GuestMemory() = default;

    GuestMemory(const GuestMemory &) = delete;
    GuestMemory &operator=(const GuestMemory &) = delete;

    /** Copy @p size bytes out of guest memory into @p dst. */
    void
    read(Addr addr, void *dst, std::size_t size) const
    {
        auto *out = static_cast<std::uint8_t *>(dst);
        while (size > 0) {
            Addr base = pageBase(addr);
            std::size_t off = pageOffset(addr);
            std::size_t chunk =
                std::min<std::size_t>(size, pageSize - off);
            if (const Frame *f = find(base)) {
                std::memcpy(out, f->data() + off, chunk);
            } else {
                // Untouched memory reads as zero.
                std::memset(out, 0, chunk);
            }
            out += chunk;
            addr += chunk;
            size -= chunk;
        }
    }

    /** Copy @p size bytes from @p src into guest memory. */
    void
    write(Addr addr, const void *src, std::size_t size)
    {
        auto *in = static_cast<const std::uint8_t *>(src);
        while (size > 0) {
            Addr base = pageBase(addr);
            std::size_t off = pageOffset(addr);
            std::size_t chunk =
                std::min<std::size_t>(size, pageSize - off);
            std::memcpy(frame(base).data() + off, in, chunk);
            in += chunk;
            addr += chunk;
            size -= chunk;
        }
    }

    /** Typed load. T must be trivially copyable. */
    template <typename T>
    T
    load(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    /** Typed store. */
    template <typename T>
    void
    store(Addr addr, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &v, sizeof(T));
    }

    /** Zero a byte range. */
    void
    zero(Addr addr, std::size_t size)
    {
        while (size > 0) {
            Addr base = pageBase(addr);
            std::size_t off = pageOffset(addr);
            std::size_t chunk =
                std::min<std::size_t>(size, pageSize - off);
            if (Frame *f = find(base))
                std::memset(f->data() + off, 0, chunk);
            addr += chunk;
            size -= chunk;
        }
    }

    /** Copy @p size bytes guest-to-guest (page replication). */
    void
    copy(Addr dst, Addr src, std::size_t size)
    {
        std::vector<std::uint8_t> buf(size);
        read(src, buf.data(), size);
        write(dst, buf.data(), size);
    }

    /** Number of host frames materialised so far. */
    std::size_t frameCount() const { return frameCount_; }

  private:
    using Frame = std::array<std::uint8_t, pageSize>;

    /** One directory level: 512 slots, like a page-table page. */
    template <typename Child>
    using Level = std::array<std::unique_ptr<Child>, 512>;
    /** The frames of one 2 MiB region. */
    using Leaf = Level<Frame>;

    /** Slot of @p addr at @p level (0 = leaf). */
    static std::size_t
    index(Addr addr, unsigned level)
    {
        return (addr >> (pageShift + 9 * level)) & 511;
    }

    static void
    checkRange(Addr addr)
    {
        panic_if(addr >> (pageShift + 4 * 9), "guest address ", addr,
                 " beyond the 48-bit physical space");
    }

    /** The frame holding @p addr, or nullptr if never written. */
    Frame *
    find(Addr addr) const
    {
        checkRange(addr);
        const auto *upper = root_[index(addr, 3)].get();
        const auto *mid = upper ? (*upper)[index(addr, 2)].get() : nullptr;
        const Leaf *leaf = mid ? (*mid)[index(addr, 1)].get() : nullptr;
        return leaf ? (*leaf)[index(addr, 0)].get() : nullptr;
    }

    template <typename T>
    static T &
    touch(std::unique_ptr<T> &slot)
    {
        if (!slot)
            slot = std::make_unique<T>();
        return *slot;
    }

    /** The frame holding @p addr, allocated zeroed on first touch. */
    Frame &
    frame(Addr addr)
    {
        checkRange(addr);
        auto &upper = touch(root_[index(addr, 3)]);
        Leaf &leaf = touch(touch(upper[index(addr, 2)])[index(addr, 1)]);
        std::unique_ptr<Frame> &slot = leaf[index(addr, 0)];
        frameCount_ += !slot;
        return touch(slot);
    }

    /** Spans 2^48 bytes: 512 GiB, then 1 GiB, then 2 MiB regions. */
    Level<Level<Level<Leaf>>> root_;
    std::size_t frameCount_ = 0;
};

} // namespace stramash

#endif // STRAMASH_MEM_GUEST_MEMORY_HH
