#include "stramash/kernel/address_space.hh"

namespace stramash
{

AddressSpace::AddressSpace(GuestMemory &mem, const PteFormat &fmt,
                           const PteFormat *foreignFmt, FrameAlloc alloc,
                           FrameFree free, Addr lockWordsBase)
    : mem_(mem),
      pt_(std::make_unique<PageTable>(mem, fmt, std::move(alloc),
                                      std::move(free), foreignFmt)),
      lockWordsBase_(lockWordsBase)
{
}

bool
AddressSpace::fill(TlbEntry &e, Addr va)
{
    auto w = pt_->walk(pageBase(va));
    if (!w || !w->pte.attrs.present)
        return false;
    e = {w->pte.frame | tlbPresent |
             (w->pte.attrs.writable ? tlbWritable : 0),
         nullptr, 0};
    return true;
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
    if (TlbEntry *entry = tlb_.find(va))
        *entry = {};
}

void
AddressSpace::tlbFlush()
{
    tlb_.clear();
}

} // namespace stramash
