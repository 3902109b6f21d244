#include "stramash/isa/page_table.hh"

#include "stramash/common/logging.hh"

namespace stramash
{

PageTable::PageTable(GuestMemory &mem, const PteFormat &fmt,
                     FrameAlloc alloc, FrameFree free,
                     const PteFormat *foreignFmt)
    : mem_(mem),
      fmt_(fmt),
      alloc_(std::move(alloc)),
      free_(std::move(free))
{
    panic_if(!alloc_ || !free_, "PageTable needs frame callbacks");
    if (foreignFmt) {
        foreignFmtOf_ = [foreignFmt](Addr) -> const PteFormat & {
            return *foreignFmt;
        };
    }
    root_ = newTable();
}

PageTable::~PageTable()
{
    for (Addr f : frames_)
        free_(f);
}

Addr
PageTable::newTable()
{
    Addr f = alloc_();
    panic_if(pageOffset(f) != 0, "table frame not page aligned");
    mem_.zero(f, pageSize);
    frames_.push_back(f);
    return f;
}

bool
PageTable::map(Addr va, Addr pa, const PteAttrs &attrs)
{
    Addr leaf = buildChain(va);
    if (readLeaf(mem_, fmt_, leaf, va, {}, foreignFmtOf_).attrs.present)
        return false;
    mem_.store<std::uint64_t>(leaf, fmt_.encodeLeaf(pa, attrs));
    ++mapped_;
    return true;
}

Addr
PageTable::buildChain(Addr va)
{
    return *findLeafEntry(mem_, fmt_, root_, va, {}, [this](Addr ea) {
        Addr table = newTable();
        mem_.store<std::uint64_t>(ea, fmt_.encodeTable(table));
        return table;
    });
}

bool
PageTable::unmap(Addr va)
{
    auto w = walk(va);
    if (!w)
        return false;
    mem_.store<std::uint64_t>(w->pteAddr, fmt_.encodeEmpty());
    // Foreign-inserted PTEs never incremented our counter; do not let
    // their removal underflow it.
    if (mapped_ > 0)
        --mapped_;
    return true;
}

std::optional<WalkResult>
PageTable::walk(Addr va) const
{
    return walkForeign(mem_, fmt_, root_, va, {}, foreignFmtOf_);
}

bool
PageTable::protect(Addr va, const PteAttrs &attrs)
{
    auto w = walk(va);
    if (!w)
        return false;
    mem_.store<std::uint64_t>(w->pteAddr,
                              fmt_.encodeLeaf(w->pte.frame, attrs));
    return true;
}

// ===================== Remote walker =================================

std::optional<Addr>
findLeafEntry(const GuestMemory &mem, const PteFormat &fmt, Addr root,
              Addr va, const TouchFn &touch, const NewTableFn &newTable)
{
    // Upper levels are always in the table's own format; only the
    // leaf can carry a tagged writer-format entry.
    Addr table = root;
    for (int level = fmt.levels() - 1; level > 0; --level) {
        Addr ea = table + fmt.indexOf(va, level) * 8;
        if (touch)
            touch(AccessType::Load, ea);
        DecodedPte d = fmt.decode(mem.load<std::uint64_t>(ea), level);
        if (d.attrs.present) {
            panic_if(newTable && !d.table, "huge pages are not modelled");
            table = d.frame;
        } else if (newTable) {
            table = newTable(ea);
        } else {
            return std::nullopt;
        }
    }
    return table + fmt.indexOf(va, 0) * 8;
}

DecodedPte
readLeaf(const GuestMemory &mem, const PteFormat &fmt, Addr leafEa,
         Addr va, const TouchFn &touch, const TaggedFmtFn &taggedFmtOf)
{
    if (touch)
        touch(AccessType::Load, leafEa);
    std::uint64_t raw = mem.load<std::uint64_t>(leafEa);
    if (!(raw & foreignFormatTag))
        return fmt.decode(raw, 0);
    panic_if(!taggedFmtOf,
             "foreign-format PTE encountered without a remote CPU "
             "driver to decode it");
    return taggedFmtOf(va).decode(raw & ~foreignFormatTag, 0);
}

void
writeTaggedLeaf(GuestMemory &mem, const PteFormat &writerFmt,
                Addr leafEa, Addr pa, const PteAttrs &attrs,
                const TouchFn &touch)
{
    if (touch)
        touch(AccessType::Store, leafEa);
    mem.store<std::uint64_t>(leafEa, writerFmt.encodeLeaf(pa, attrs) |
                                         foreignFormatTag);
}

std::optional<WalkResult>
walkForeign(const GuestMemory &mem, const PteFormat &fmt, Addr root,
            Addr va, const TouchFn &touch,
            const TaggedFmtFn &taggedFmtOf)
{
    auto leaf = findLeafEntry(mem, fmt, root, va, touch);
    if (!leaf)
        return std::nullopt;
    DecodedPte d = readLeaf(mem, fmt, *leaf, va, touch, taggedFmtOf);
    if (!d.attrs.present)
        return std::nullopt;
    return WalkResult{d, *leaf};
}

std::optional<Addr>
reconcileForeign(GuestMemory &mem, const PteFormat &tableFmt,
                 const PteFormat &writerFmt, Addr root, Addr va)
{
    auto leaf = findLeafEntry(mem, tableFmt, root, va, {});
    if (!leaf)
        return std::nullopt;
    std::uint64_t raw = mem.load<std::uint64_t>(*leaf);
    if (!(raw & foreignFormatTag))
        return std::nullopt;
    DecodedPte d = writerFmt.decode(raw & ~foreignFormatTag, 0);
    panic_if(!d.attrs.present, "tagged PTE decodes as not-present");
    mem.store<std::uint64_t>(*leaf,
                             tableFmt.encodeLeaf(d.frame, d.attrs));
    return leaf;
}

} // namespace stramash
