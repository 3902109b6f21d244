/**
 * @file
 * The fused guest physical memory.
 *
 * As in Stramash-QEMU, one coherent backing store holds the physical
 * memory of every node: "any memory operation from a single guest will
 * be reflected in others" (paper §7.1). We back it with host memory,
 * allocated sparsely in 4 KiB frames so an 8 GiB guest costs only what
 * it touches and has not discarded.
 *
 * Frames hang off a PageRadix keyed by frame number: a lookup is four
 * indexed loads, an untouched read allocates nothing, and each touched
 * 2 MiB region costs one 4 KiB leaf. The four levels cover a 48-bit
 * physical address space.
 *
 * A caller may keep a frame's host pointer (hostPage()) across
 * accesses, as the TLB entries in kernel/address_space do. discard() is
 * the only thing that frees a frame, and it bumps discards(): a pointer
 * taken before the count moved may dangle.
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

#include "stramash/common/page_radix.hh"
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

    /**
     * Release the host frame holding @p addr, if any: the page reads
     * as zero again and a later write re-materialises it. For frames
     * nothing can read before the next write, such as a replica the
     * DSM protocol has unmapped.
     */
    void
    discard(Addr addr)
    {
        if (std::unique_ptr<Frame> *slot = frames_.find(addr)) {
            if (*slot) {
                slot->reset();
                --frameCount_;
                ++discards_;
            }
        }
    }

    /**
     * Host bytes of the page holding @p addr (its first byte), or
     * nullptr while the page is not materialised. Valid until
     * discards() moves.
     */
    std::uint8_t *
    hostPage(Addr addr) const
    {
        Frame *f = find(addr);
        return f ? f->data() : nullptr;
    }

    /** Frames released so far: the generation of every hostPage(). */
    std::uint64_t discards() const { return discards_; }

    /** Number of host frames currently materialised. */
    std::size_t frameCount() const { return frameCount_; }

  private:
    using Frame = std::array<std::uint8_t, pageSize>;

    /** The frame holding @p addr, or nullptr if never written. */
    Frame *
    find(Addr addr) const
    {
        const std::unique_ptr<Frame> *slot = frames_.find(addr);
        return slot ? slot->get() : nullptr;
    }

    /** The frame holding @p addr, allocated zeroed on first touch. */
    Frame &
    frame(Addr addr)
    {
        std::unique_ptr<Frame> &slot = frames_.slot(addr);
        if (!slot) {
            slot = std::make_unique<Frame>();
            ++frameCount_;
        }
        return *slot;
    }

    PageRadix<std::unique_ptr<Frame>> frames_;
    std::size_t frameCount_ = 0;
    std::uint64_t discards_ = 0;
};

} // namespace stramash

#endif // STRAMASH_MEM_GUEST_MEMORY_HH
