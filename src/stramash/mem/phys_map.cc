#include "stramash/mem/phys_map.hh"

#include <algorithm>

#include "stramash/common/logging.hh"
#include "stramash/common/units.hh"

namespace stramash
{

PhysMap
PhysMap::generate(const TopologySpec &spec)
{
    spec.validate();
    std::vector<PhysRegion> regions;

    // Low memory: one boot-local strip per node, consecutive from 0.
    Addr cursor = 0;
    std::vector<Addr> bootBytes(spec.nodeCount());
    for (const auto &n : spec.nodes) {
        Addr boot = std::min(n.dramBytes, spec.bootStripBytes);
        bootBytes[n.id] = boot;
        regions.push_back({{cursor, cursor + boot}, n.id, false});
        cursor += boot;
    }

    // The MMIO hole sits directly after the boot strips: deliberately
    // absent from the region list (paper: [3 GiB, 4 GiB)).
    cursor += spec.mmioHoleBytes;

    // High memory: per-node remainders in node order. Under
    // FullyShared the split only defines allocation ownership; every
    // access is local-latency.
    for (const auto &n : spec.nodes) {
        Addr rem = n.dramBytes - bootBytes[n.id];
        if (rem == 0)
            continue;
        regions.push_back({{cursor, cursor + rem}, n.id, false});
        cursor += rem;
    }

    // The CXL shared pool closes the layout (Shared model only).
    if (spec.poolBytes) {
        regions.push_back(
            {{cursor, cursor + spec.poolBytes}, invalidNode, true});
    }
    return PhysMap(spec.memoryModel, std::move(regions));
}

PhysMap
PhysMap::paperDefault(MemoryModel model)
{
    return generate(TopologySpec::paperPair(model));
}

PhysMap::PhysMap(MemoryModel model, std::vector<PhysRegion> regions)
    : model_(model), regions_(std::move(regions))
{
    std::sort(regions_.begin(), regions_.end(),
              [](const PhysRegion &a, const PhysRegion &b) {
                  return a.range.start < b.range.start;
              });
    for (std::size_t i = 1; i < regions_.size(); ++i) {
        panic_if(regions_[i - 1].range.overlaps(regions_[i].range),
                 "overlapping physical regions");
    }
}

const PhysRegion *
PhysMap::regionOf(Addr addr) const
{
    for (const auto &r : regions_) {
        if (r.range.contains(addr))
            return &r;
    }
    return nullptr;
}

MemoryClass
PhysMap::classify(Addr addr, NodeId accessor) const
{
    const PhysRegion *r = regionOf(addr);
    panic_if(!r, "physical access to unmapped address 0x", std::hex,
             addr);
    if (model_ == MemoryModel::FullyShared)
        return MemoryClass::Local;
    if (r->sharedPool)
        return MemoryClass::SharedPool;
    return r->homeNode == accessor ? MemoryClass::Local
                                   : MemoryClass::Remote;
}

bool
PhysMap::isDram(Addr addr) const
{
    return regionOf(addr) != nullptr;
}

Addr
PhysMap::localBytes(NodeId node) const
{
    Addr total = 0;
    for (const auto &r : regions_) {
        if (!r.sharedPool && r.homeNode == node)
            total += r.range.size();
    }
    return total;
}

Addr
PhysMap::poolBytes() const
{
    Addr total = 0;
    for (const auto &r : regions_) {
        if (r.sharedPool)
            total += r.range.size();
    }
    return total;
}

std::vector<AddrRange>
PhysMap::bootRanges(NodeId node) const
{
    std::vector<AddrRange> out;
    for (const auto &r : regions_) {
        if (!r.sharedPool && r.homeNode == node)
            out.push_back(r.range);
    }
    return out;
}

std::vector<AddrRange>
PhysMap::poolRanges() const
{
    std::vector<AddrRange> out;
    for (const auto &r : regions_) {
        if (r.sharedPool)
            out.push_back(r.range);
    }
    return out;
}

} // namespace stramash
