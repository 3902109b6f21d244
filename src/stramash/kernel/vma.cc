#include "stramash/kernel/vma.hh"

#include <iterator>

#include "stramash/common/logging.hh"

namespace stramash
{

const char *
vmaKindName(VmaKind k)
{
    switch (k) {
      case VmaKind::Code: return "code";
      case VmaKind::Data: return "data";
      case VmaKind::Heap: return "heap";
      case VmaKind::Stack: return "stack";
      case VmaKind::Anon: return "anon";
    }
    panic("unknown VmaKind");
}

PteAttrs
vmaPageAttrs(const Vma &vma, bool writable)
{
    PteAttrs a = vma.prot;
    a.present = true;
    a.accessed = true;
    a.writable = writable && vma.prot.writable;
    a.dirty = a.writable;
    return a;
}

bool
VmaTree::insert(const Vma &vma)
{
    panic_if(vma.start >= vma.end, "empty VMA");
    panic_if(pageOffset(vma.start) || pageOffset(vma.end),
             "VMA must be page aligned");
    // Overlap check against the nearest neighbours.
    auto succ = tree_.lower_bound(vma.start);
    if (succ != tree_.end() && succ->second.start < vma.end)
        return false;
    if (succ != tree_.begin() && std::prev(succ)->second.end > vma.start)
        return false;
    tree_.emplace_hint(succ, vma.start, vma);
    return true;
}

bool
VmaTree::remove(Addr start)
{
    return tree_.erase(start) != 0;
}

const Vma *
VmaTree::find(Addr addr) const
{
    auto it = tree_.upper_bound(addr);
    if (it == tree_.begin())
        return nullptr;
    const Vma &v = std::prev(it)->second;
    return v.contains(addr) ? &v : nullptr;
}

const Vma *
VmaTree::findCounting(Addr addr, unsigned &nodesVisited) const
{
    // One node per level of a balanced tree of this size.
    nodesVisited = 1;
    for (std::size_t sz = tree_.size(); sz > 1; sz >>= 1)
        ++nodesVisited;
    return find(addr);
}

} // namespace stramash
