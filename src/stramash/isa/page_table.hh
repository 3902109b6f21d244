/**
 * @file
 * Multi-level page tables resident in guest physical memory.
 *
 * Tables are real: each level is a 4 KiB frame of 512 eight-byte
 * entries in the fused GuestMemory, allocated from the owning
 * kernel's physical allocator. Because they live in the coherent
 * shared memory, *another* kernel can walk them — that is exactly the
 * paper's "Software Remote Page Table Walker" (§6.4). Every walk,
 * local or remote, descends through findLeafEntry(), which decodes a
 * table through its PteFormat accessor functions and charges each
 * table read to an optional cost hook. walkForeign(), readLeaf() and
 * writeTaggedLeaf() are the remote walker's lookup and its tagged
 * insert; reconcileForeign() rewrites a tagged entry natively.
 */

#ifndef STRAMASH_ISA_PAGE_TABLE_HH
#define STRAMASH_ISA_PAGE_TABLE_HH

#include <functional>
#include <optional>
#include <vector>

#include "stramash/isa/pte_format.hh"
#include "stramash/mem/guest_memory.hh"

namespace stramash
{

/** Allocate a zeroed, page-aligned guest frame; returns its address. */
using FrameAlloc = std::function<Addr()>;
/** Release a frame previously returned by FrameAlloc. */
using FrameFree = std::function<void(Addr)>;
/** Charge one guest memory access made during a walk. */
using TouchFn = std::function<void(AccessType, Addr)>;
/** Resolve the format a tagged leaf entry for @p va was written in. */
using TaggedFmtFn = std::function<const PteFormat &(Addr va)>;

/** Result of a successful walk. */
struct WalkResult
{
    DecodedPte pte;
    /** Guest-physical address of the leaf entry itself. */
    Addr pteAddr;
};

/** A page table in one architecture's format. */
class PageTable
{
  public:
    /**
     * @param foreignFmt The other ISA's format ("remote CPU driver"),
     *        needed to decode entries a remote kernel wrote in its
     *        own format before they are reconciled. May be null in
     *        single-ISA tests.
     */
    PageTable(GuestMemory &mem, const PteFormat &fmt, FrameAlloc alloc,
              FrameFree free, const PteFormat *foreignFmt = nullptr);
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /** Physical address of the root table (CR3 / TTBR analogue). */
    Addr rootAddr() const { return root_; }

    const PteFormat &format() const { return fmt_; }

    /**
     * Map one page. Intermediate tables are allocated as needed.
     * @return false if the page was already mapped.
     */
    bool map(Addr va, Addr pa, const PteAttrs &attrs);

    /** Remove a leaf mapping. @return false if it was not mapped. */
    bool unmap(Addr va);

    /**
     * Materialise the intermediate-table chain for @p va down to the
     * leaf table without touching the leaf entry itself — the origin
     * side of Stramash's slow-path fault (§9.2.3).
     * @return the address of the leaf entry.
     */
    Addr buildChain(Addr va);

    /**
     * Translate; nullopt if not present. Does not charge costs. A
     * tagged leaf decodes in the foreign format given at
     * construction.
     */
    std::optional<WalkResult> walk(Addr va) const;

    /** Rewrite a leaf's attributes. @return false if not mapped. */
    bool protect(Addr va, const PteAttrs &attrs);

    /** Count of currently mapped leaf pages. */
    std::uint64_t mappedPages() const { return mapped_; }

    /** Guest frames consumed by table structure (for stats). */
    std::size_t tableFrames() const { return frames_.size(); }

  private:
    GuestMemory &mem_;
    const PteFormat &fmt_;
    /** Decodes tagged leaves in the fixed foreign format; empty
     *  when none was given. */
    TaggedFmtFn foreignFmtOf_;
    FrameAlloc alloc_;
    FrameFree free_;
    Addr root_;
    std::vector<Addr> frames_;
    std::uint64_t mapped_ = 0;

    Addr newTable();
};

/** Allocate an empty table, link it into the entry at @p entryAddr
 *  and return the table's address. */
using NewTableFn = std::function<Addr(Addr entryAddr)>;

/**
 * The one descent through the upper levels of a page table: find
 * the address of @p va's leaf entry in the table rooted at @p root,
 * in format @p fmt. Each upper-level read is charged through
 * @p touch when it is set. A missing level is filled from
 * @p newTable when it is set; otherwise the walk stops there and
 * returns nullopt. The leaf entry itself is not read.
 */
std::optional<Addr>
findLeafEntry(const GuestMemory &mem, const PteFormat &fmt, Addr root,
              Addr va, const TouchFn &touch,
              const NewTableFn &newTable = {});

/**
 * Load the leaf entry at @p leafEa, charged through @p touch, and
 * decode it: an entry tagged as foreign in the format
 * @p taggedFmtOf gives for @p va, any other in @p fmt. A tagged
 * entry with no resolver panics.
 */
DecodedPte
readLeaf(const GuestMemory &mem, const PteFormat &fmt, Addr leafEa,
         Addr va, const TouchFn &touch, const TaggedFmtFn &taggedFmtOf);

/**
 * Store a leaf for @p pa into the entry at @p leafEa of a foreign
 * table, charged as a Store through @p touch. The entry is encoded
 * in @p writerFmt, the writer's own format, and tagged, reproducing
 * the paper's "adds it to the origin kernel's page table with the
 * remote node ISA format"; reconcileForeign() later rewrites it into
 * the table's own format.
 */
void
writeTaggedLeaf(GuestMemory &mem, const PteFormat &writerFmt,
                Addr leafEa, Addr pa, const PteAttrs &attrs,
                const TouchFn &touch);

/**
 * The Software Remote Page Table Walker (paper §6.4): walk another
 * kernel's page table given its root and format. Each 8-byte table
 * read is charged through @p touch so the remote-access cost is
 * modelled faithfully. Tagged leaf entries may have been written by
 * different remote kernels in different formats, so their decode
 * format is looked up per page through @p taggedFmtOf.
 */
std::optional<WalkResult>
walkForeign(const GuestMemory &mem, const PteFormat &fmt, Addr root,
            Addr va, const TouchFn &touch,
            const TaggedFmtFn &taggedFmtOf);

/**
 * Rewrite one foreign-format (tagged) leaf entry, written in
 * @p writerFmt, into the table's own format — the "origin kernel
 * reconfigures the PTE to its own format" step at migration-back.
 * Uncharged. @return the entry's address if it was tagged and got
 * rewritten.
 */
std::optional<Addr>
reconcileForeign(GuestMemory &mem, const PteFormat &tableFmt,
                 const PteFormat &writerFmt, Addr root, Addr va);

/** The tag bit marking an entry encoded in the writer's format. */
inline constexpr std::uint64_t foreignFormatTag = std::uint64_t{1} << 62;

} // namespace stramash

#endif // STRAMASH_ISA_PAGE_TABLE_HH
