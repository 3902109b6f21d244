/**
 * @file
 * One task's address space on one kernel instance: an arch-format
 * page table in guest memory, the VMA tree, a softmmu-style
 * translation cache, and the guest-resident lock words the fused
 * design uses (VMA lock, Stramash-PTL).
 *
 * The translation cache is a host memo, not a modelled TLB: page
 * walks are uncharged and it is unbounded. It is a PageRadix keyed by
 * virtual page number, covering a 48-bit virtual space. Entries go
 * stale exactly like a real TLB's: a page-table change made behind its
 * back needs an explicit invalidate.
 *
 * Like a softmmu TLB, an entry also carries the host bytes of its
 * frame, so a user access copies through it without a second lookup.
 * That pointer is re-read from GuestMemory whenever its discards()
 * count moved or the frame was not materialised when it was taken.
 */

#ifndef STRAMASH_KERNEL_ADDRESS_SPACE_HH
#define STRAMASH_KERNEL_ADDRESS_SPACE_HH

#include <memory>

#include "stramash/common/page_radix.hh"
#include "stramash/isa/page_table.hh"
#include "stramash/kernel/vma.hh"

namespace stramash
{

/** Outcome of a translation attempt. */
enum class XlateStatus : std::uint8_t {
    Ok,
    NotMapped, ///< no PTE (demand fault)
    NoWrite,   ///< PTE present but read-only (protection fault)
};

struct XlateResult
{
    XlateStatus status = XlateStatus::NotMapped;
    Addr pa = 0;
    /** Host bytes at @p pa when status is Ok and the frame is
     *  materialised, else nullptr. Valid until GuestMemory::discards()
     *  moves. */
    std::uint8_t *host = nullptr;
};

class AddressSpace
{
  public:
    /**
     * @param lockWordsBase guest address of a 128-byte area holding
     *        this space's VMA lock (offset 0) and cross-ISA page
     *        table lock (offset 64); lives in the owning kernel's
     *        data region so remote acquisitions pay remote latency.
     */
    AddressSpace(GuestMemory &mem, const PteFormat &fmt,
                 const PteFormat *foreignFmt, FrameAlloc alloc,
                 FrameFree free, Addr lockWordsBase);

    VmaTree &vmas() { return vmas_; }
    const VmaTree &vmas() const { return vmas_; }
    PageTable &pageTable() { return *pt_; }
    const PageTable &pageTable() const { return *pt_; }

    /** Translate through the TLB, then the page table. */
    XlateResult
    translate(Addr va, AccessType type)
    {
        TlbEntry &e = tlb_.slot(va);
        if (!e.word && !fill(e, va))
            return {XlateStatus::NotMapped, 0};
        Addr pa = pageBase(e.word) + pageOffset(va);
        if (type == AccessType::Store && !(e.word & tlbWritable))
            return {XlateStatus::NoWrite, pa};
        if (!e.host || e.discards != mem_.discards()) {
            e.host = mem_.hostPage(pa);
            e.discards = mem_.discards();
        }
        return {XlateStatus::Ok, pa,
                e.host ? e.host + pageOffset(va) : nullptr};
    }

    /** Map a page and prime nothing (TLB fills on next access). */
    bool mapPage(Addr va, Addr pa, const PteAttrs &attrs);

    /** Unmap and purge the TLB entry. */
    bool unmapPage(Addr va);

    /** Change protections and purge the TLB entry. */
    bool protectPage(Addr va, const PteAttrs &attrs);

    /** Purge one TLB entry (remote PT modifications must call). */
    void tlbInvalidate(Addr va);

    /** Purge the whole TLB. */
    void tlbFlush();

    /** Guest address of the VMA lock word (paper §6.4). */
    Addr vmaLockAddr() const { return lockWordsBase_; }
    /** Guest address of the Stramash-PTL word (paper §6.4). */
    Addr ptlAddr() const { return lockWordsBase_ + 64; }

  private:
    struct TlbEntry
    {
        /** The frame address, with the low bits below set (an empty
         *  entry is 0). */
        std::uint64_t word = 0;
        /** The frame's host bytes, or nullptr if not yet looked up or
         *  not materialised then. */
        std::uint8_t *host = nullptr;
        /** GuestMemory::discards() when host was looked up. */
        std::uint64_t discards = 0;
    };
    static constexpr std::uint64_t tlbPresent = 1;
    static constexpr std::uint64_t tlbWritable = 2;

    /** Walk the page table into the empty entry @p e for @p va.
     *  @return false (entry left empty) if no present PTE maps it. */
    bool fill(TlbEntry &e, Addr va);

    GuestMemory &mem_;
    VmaTree vmas_;
    std::unique_ptr<PageTable> pt_;
    PageRadix<TlbEntry> tlb_;
    Addr lockWordsBase_;
};

} // namespace stramash

#endif // STRAMASH_KERNEL_ADDRESS_SPACE_HH
