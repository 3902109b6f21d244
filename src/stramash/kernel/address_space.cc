#include "stramash/kernel/address_space.hh"

namespace stramash
{

AddressSpace::AddressSpace(GuestMemory &mem, const PteFormat &fmt,
                           const PteFormat *foreignFmt, FrameAlloc alloc,
                           FrameFree free, Addr lockWordsBase)
    : pt_(std::make_unique<PageTable>(mem, fmt, std::move(alloc),
                                      std::move(free), foreignFmt)),
      lockWordsBase_(lockWordsBase)
{
}

XlateResult
AddressSpace::translate(Addr va, AccessType type)
{
    const std::uint64_t *cached = tlb_.find(va);
    std::uint64_t entry = cached ? *cached : 0;
    if (!entry) {
        auto w = pt_->walk(pageBase(va));
        if (!w || !w->pte.attrs.present)
            return {XlateStatus::NotMapped, 0};
        entry = w->pte.frame | tlbPresent |
                (w->pte.attrs.writable ? tlbWritable : 0);
        tlb_.slot(va) = entry;
    }
    Addr pa = pageBase(entry) + pageOffset(va);
    if (type == AccessType::Store && !(entry & tlbWritable))
        return {XlateStatus::NoWrite, pa};
    return {XlateStatus::Ok, pa};
}

bool
AddressSpace::mapPage(Addr va, Addr pa, const PteAttrs &attrs)
{
    return pt_->map(pageBase(va), pageBase(pa), attrs);
}

bool
AddressSpace::unmapPage(Addr va)
{
    tlbInvalidate(va);
    return pt_->unmap(pageBase(va));
}

bool
AddressSpace::protectPage(Addr va, const PteAttrs &attrs)
{
    tlbInvalidate(va);
    return pt_->protect(pageBase(va), attrs);
}

void
AddressSpace::tlbInvalidate(Addr va)
{
    if (std::uint64_t *entry = tlb_.find(va))
        *entry = 0;
}

void
AddressSpace::tlbFlush()
{
    tlb_.clear();
}

} // namespace stramash
