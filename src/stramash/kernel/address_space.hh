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
    XlateResult translate(Addr va, AccessType type);

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
    /** A TLB entry: the frame address, with these low bits set (an
     *  empty slot is 0). */
    static constexpr std::uint64_t tlbPresent = 1;
    static constexpr std::uint64_t tlbWritable = 2;

    VmaTree vmas_;
    std::unique_ptr<PageTable> pt_;
    PageRadix<std::uint64_t> tlb_;
    Addr lockWordsBase_;
};

} // namespace stramash

#endif // STRAMASH_KERNEL_ADDRESS_SPACE_HH
