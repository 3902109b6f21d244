/**
 * @file
 * Virtual memory areas, kept in an ordered map keyed by start address
 * (a red-black tree in libstdc++ and libc++), as the modelled Linux
 * 5.2 kernel keeps them in an RB-tree (paper §6.4).
 */

#ifndef STRAMASH_KERNEL_VMA_HH
#define STRAMASH_KERNEL_VMA_HH

#include <map>
#include <string>

#include "stramash/isa/pte_format.hh"

namespace stramash
{

/** What backs a VMA. */
enum class VmaKind : std::uint8_t {
    Code,
    Data,
    Heap,
    Stack,
    Anon,
};

const char *vmaKindName(VmaKind k);

/** One virtual memory area [start, end). */
struct Vma
{
    Addr start = 0;
    Addr end = 0;
    PteAttrs prot;
    VmaKind kind = VmaKind::Anon;
    std::string name;

    Addr size() const { return end - start; }
    bool contains(Addr a) const { return a >= start && a < end; }
};

/** Leaf-PTE attributes for a user page mapped under @p vma. */
PteAttrs vmaPageAttrs(const Vma &vma, bool writable);

/** The per-address-space VMA tree. */
class VmaTree
{
  public:
    /**
     * Insert a VMA.
     * @return false on overlap with an existing area.
     */
    bool insert(const Vma &vma);

    /** Remove the VMA starting exactly at @p start. */
    bool remove(Addr start);

    /** The VMA containing @p addr, or nullptr. */
    const Vma *find(Addr addr) const;

    /** Visit all VMAs in ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[start, v] : tree_)
            fn(v);
    }

    /**
     * Like find(), and reports the depth of a balanced tree of this
     * size, 1 + floor(log2(size())): the nodes the remote VMA walker
     * charges one cache access each for.
     */
    const Vma *findCounting(Addr addr, unsigned &nodesVisited) const;

    std::size_t size() const { return tree_.size(); }

  private:
    std::map<Addr, Vma> tree_; // keyed by start address
};

} // namespace stramash

#endif // STRAMASH_KERNEL_VMA_HH
