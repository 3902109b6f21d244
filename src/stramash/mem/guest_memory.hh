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
#include <unordered_map>
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
            auto it = frames_.find(base);
            if (it == frames_.end()) {
                // Untouched memory reads as zero.
                std::memset(out, 0, chunk);
            } else {
                std::memcpy(out, it->second->data() + off, chunk);
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
            auto it = frames_.find(base);
            if (it != frames_.end())
                std::memset(it->second->data() + off, 0, chunk);
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
    std::size_t frameCount() const { return frames_.size(); }

  private:
    using Frame = std::array<std::uint8_t, pageSize>;

    Frame &
    frame(Addr base)
    {
        auto it = frames_.find(base);
        if (it == frames_.end()) {
            auto f = std::make_unique<Frame>();
            f->fill(0);
            it = frames_.emplace(base, std::move(f)).first;
        }
        return *it->second;
    }

    std::unordered_map<Addr, std::unique_ptr<Frame>> frames_;
};

} // namespace stramash

#endif // STRAMASH_MEM_GUEST_MEMORY_HH
